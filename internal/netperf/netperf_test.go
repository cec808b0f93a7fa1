package netperf_test

import (
	"encoding/json"
	"strings"
	"testing"

	"lxfi/internal/benchio"
	"lxfi/internal/core"
	"lxfi/internal/netperf"
)

func TestRigTxRx(t *testing.T) {
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		rig, err := netperf.NewRig(mode)
		if err != nil {
			t.Fatalf("[%v] %v", mode, err)
		}
		for i := 0; i < 50; i++ {
			if err := rig.TxPacket(netperf.UDPPayload); err != nil {
				t.Fatalf("[%v] tx %d: %v", mode, i, err)
			}
		}
		if rig.Drv.Nic.TxFrames != 50 {
			t.Fatalf("[%v] tx frames = %d", mode, rig.Drv.Nic.TxFrames)
		}
		if err := rig.RxBurst(64, 40); err != nil {
			t.Fatalf("[%v] rx: %v", mode, err)
		}
		if rig.Stack.RxDelivered != 40 {
			t.Fatalf("[%v] rx delivered = %d", mode, rig.Stack.RxDelivered)
		}
		if mode == core.Enforce && rig.K.Sys.Mon.LastViolation() != nil {
			t.Fatalf("violation during netperf: %v", rig.K.Sys.Mon.LastViolation())
		}
	}
}

func TestFig12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	costs, err := netperf.MeasureCosts(400)
	if err != nil {
		t.Fatal(err)
	}
	// Enforcement must cost more per packet on every path.
	for name, pair := range map[string]map[core.Mode]float64{
		"TxTCP": costs.TxTCP, "TxUDP": costs.TxUDP, "RxUDP": costs.RxUDP,
	} {
		if pair[core.Enforce] <= pair[core.Off] {
			t.Errorf("%s: lxfi %.0fns <= stock %.0fns", name, pair[core.Enforce], pair[core.Off])
		}
	}

	rows := netperf.BuildTable(costs)
	if len(rows) != 8 {
		t.Fatalf("rows = %d", len(rows))
	}
	byTest := map[string]netperf.Row{}
	for _, r := range rows {
		byTest[r.Test] = r
	}

	// TCP STREAM TX: same throughput (wire-limited), higher CPU.
	tcp := byTest["TCP STREAM TX"]
	if ratio := tcp.LxfiTput / tcp.StockTput; ratio < 0.99 || ratio > 1.01 {
		t.Errorf("TCP TX throughput changed: %.2f", ratio)
	}
	if tcp.LxfiCPU <= tcp.StockCPU {
		t.Errorf("TCP TX CPU did not increase: %v", tcp)
	}

	// UDP STREAM TX: throughput drops (CPU-limited), CPU pinned at 100.
	udp := byTest["UDP STREAM TX"]
	if ratio := udp.LxfiTput / udp.StockTput; ratio >= 0.95 {
		t.Errorf("UDP TX throughput should drop: ratio %.2f", ratio)
	}
	if udp.LxfiCPU < 99 {
		t.Errorf("UDP TX lxfi CPU should be saturated: %.0f", udp.LxfiCPU)
	}

	// UDP STREAM RX: same throughput, CPU near 100 under LXFI.
	udpRx := byTest["UDP STREAM RX"]
	if ratio := udpRx.LxfiTput / udpRx.StockTput; ratio < 0.99 || ratio > 1.01 {
		t.Errorf("UDP RX throughput changed: %.2f", ratio)
	}
	if udpRx.LxfiCPU < 90 || udpRx.StockCPU > udpRx.LxfiCPU {
		t.Errorf("UDP RX CPU shape wrong: %+v", udpRx)
	}

	// RR: the 1-switch (low latency) configuration shows a larger
	// relative slowdown than the multi-switch one (§8.4).
	rrMulti := byTest["UDP RR"]
	rrOne := byTest["UDP RR (1-switch)"]
	dropMulti := 1 - rrMulti.LxfiTput/rrMulti.StockTput
	dropOne := 1 - rrOne.LxfiTput/rrOne.StockTput
	if dropOne <= dropMulti {
		t.Errorf("1-switch RR drop (%.2f) should exceed multi-switch drop (%.2f)", dropOne, dropMulti)
	}
	// And 1-switch absolute rates are higher in both modes.
	if rrOne.StockTput <= rrMulti.StockTput {
		t.Error("1-switch stock RR should be faster than multi-switch")
	}

	if netperf.Format(rows) == "" {
		t.Fatal("empty table")
	}
}

func TestFig13GuardBreakdown(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	rows, err := netperf.GuardBreakdown(300)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]netperf.GuardRow{}
	for _, r := range rows {
		byName[r.Guard] = r
	}
	// Structural expectations mirroring Fig. 13:
	// entries == exits;
	if byName["Function entry"].PerPacket != byName["Function exit"].PerPacket {
		t.Error("entry and exit guard counts must match")
	}
	// several annotation actions and memory-write checks per packet;
	if byName["Annotation action"].PerPacket < 2 {
		t.Errorf("annotation actions/pkt = %.1f", byName["Annotation action"].PerPacket)
	}
	if byName["Mem-write check"].PerPacket < 2 {
		t.Errorf("mem-write checks/pkt = %.1f", byName["Mem-write check"].PerPacket)
	}
	// writer-set tracking eliminates some slow-path indirect-call checks:
	// slow <= all, with at least one checked driver call per packet.
	all, slow := byName["Kernel ind-call all"].PerPacket, byName["Kernel ind-call e1000"].PerPacket
	if slow > all {
		t.Errorf("slow ind-calls (%.1f) exceed total (%.1f)", slow, all)
	}
	if slow < 1 {
		t.Errorf("expected at least one checked driver ind-call per packet, got %.1f", slow)
	}
	if all < 3 {
		t.Errorf("expected ~3 kernel ind-calls per packet (enqueue, dequeue, xmit), got %.1f", all)
	}
	if netperf.FormatGuards(rows) == "" {
		t.Fatal("empty table")
	}
}

func TestGuardCostsNonNegative(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	c, err := netperf.GuardCosts()
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]float64{
		"annotation": c.AnnotationNs, "entry": c.EntryNs, "exit": c.ExitNs,
		"memwrite": c.MemWriteNs, "indfast": c.IndCallFastNs, "indslow": c.IndCallSlowNs,
	} {
		if v < 0 {
			t.Errorf("%s cost negative: %f", name, v)
		}
	}
	// The slow indirect-call path must cost more than the fast path.
	if c.IndCallSlowNs <= c.IndCallFastNs {
		t.Errorf("slow path (%.0fns) should exceed fast path (%.0fns)", c.IndCallSlowNs, c.IndCallFastNs)
	}
}

// TestConcurrentSocketPairs: the concurrent netperf phase must run one
// worker thread per socket pair with provable overlap, produce positive
// timings under both builds, and record zero violations — every
// socket's instance principal stays confined to its own state even with
// the crossing engine hammered from many threads. (Runs under -race in
// CI's concurrency battery.)
// TestReloadUnderConcurrentTraffic: hot-reload the e1000 driver while
// TX worker threads hammer the pre-reload net_device. Every reload must
// complete (no quiesce deadlock), the workers must see no errors — new
// crossings park and drain rather than drop — and the monitor must
// record zero violations, because the device's instance capabilities
// migrate to the fresh generation before parked crossings resume. (Runs
// under -race in CI's concurrency battery.)
func TestReloadUnderConcurrentTraffic(t *testing.T) {
	rl, err := netperf.MeasureReload()
	if err != nil {
		t.Fatal(err)
	}
	if rl.Reloads < 1 || rl.Workers < benchio.MinWorkers {
		t.Fatalf("phase shape: %+v", rl)
	}
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		if rl.Packets[mode] < 1 {
			t.Fatalf("[%v] reloads ran without live TX traffic", mode)
		}
		if rl.Total[mode] <= 0 {
			t.Fatalf("[%v] non-positive reload latency", mode)
		}
	}
	if rl.Migrated < 1 {
		t.Fatal("enforced reload migrated no instance capabilities")
	}
}

func TestConcurrentSocketPairs(t *testing.T) {
	c, err := netperf.MeasureConcurrentSockets(4, 50)
	if err != nil {
		t.Fatal(err)
	}
	if c.Pairs != 4 {
		t.Fatalf("pairs = %d", c.Pairs)
	}
	if !c.Overlapped {
		t.Fatal("workers never overlapped; phase degenerated into a serial run")
	}
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		if c.Ns[mode] <= 0 {
			t.Fatalf("[%v] non-positive ns/op", mode)
		}
	}
}

// TestJSONReportShape builds BENCH_netperf.json from synthetic phase
// results, so it checks the report's structure without a live run: the
// four per-packet rows, the concurrency, reload and streaming objects,
// and a bounds block beside every budgeted field.
func TestJSONReportShape(t *testing.T) {
	modes := func(stock, lxfi float64) map[core.Mode]float64 {
		return map[core.Mode]float64{core.Off: stock, core.Enforce: lxfi}
	}
	costs := &netperf.Costs{
		TxTCP: modes(1000, 2400), TxUDP: modes(750, 2100),
		RxTCP: modes(1000, 2200), RxUDP: modes(660, 1700),
	}
	conc := &netperf.ConcurrentCosts{Pairs: 4, Ns: modes(260, 400)}
	rl := &netperf.ReloadCosts{
		Reloads: 4, Workers: 2, Migrated: 13,
		Packets: map[core.Mode]int{core.Off: 2500, core.Enforce: 50},
		Quiesce: modes(2000, 850), Total: modes(23000, 35000),
	}
	stream := &netperf.StreamingCosts{
		Segments: 800, Window: netperf.StreamWindow, BatchBudget: netperf.StreamBatchBudget,
		BytesPerSec: modes(1.2e9, 0.9e9), CPURatio: 1.33,
		PerPktCrossingsPerByte: 0.0017, BatchCrossingsPerByte: 0.00015, Reloads: 2,
	}
	out, err := netperf.JSON(costs, conc, rl, stream, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Bench   string `json:"bench"`
		Results []struct {
			Rows []struct {
				Op string `json:"op"`
			} `json:"rows"`
		} `json:"results"`
		Concurrency *struct{} `json:"concurrency"`
		Reload      *struct{} `json:"reload"`
		Streaming   *struct{} `json:"streaming"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if doc.Bench != "netperf" || len(doc.Results) != 1 {
		t.Fatalf("bad document shape: %s", out)
	}
	var ops []string
	for _, r := range doc.Results[0].Rows {
		ops = append(ops, r.Op)
	}
	if got := strings.Join(ops, ","); got != "tx tcp,tx udp,rx tcp,rx udp" {
		t.Fatalf("rows = %s", got)
	}
	if doc.Concurrency == nil || doc.Reload == nil || doc.Streaming == nil {
		t.Fatalf("missing a phase object: %s", out)
	}

	bounds, missing, err := benchio.Declared(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("bounded fields missing beside their bounds: %v", missing)
	}
	for key, want := range map[string]float64{
		"streaming/cpu_ratio":   netperf.StreamMaxCPURatio,
		"streaming/dropped":     0,
		"streaming/reordered":   0,
		"reload/lxfi_total_ns":  benchio.ReloadMaxNs,
		"reload/stock_total_ns": benchio.ReloadMaxNs,
	} {
		if b, ok := bounds[key]; !ok || b.Max == nil || *b.Max != want {
			t.Fatalf("%s bound = %+v, want max %g", key, b, want)
		}
	}
	for key, want := range map[string]float64{
		"streaming/crossings_reduction": netperf.StreamMinCrossingsReduction,
		"streaming/batch_budget":        netperf.StreamMinBatchBudget,
		"reload/workers":                benchio.MinWorkers,
		"reload/lxfi_packets":           1,
		"reload/migrated_caps":          1,
		"concurrency/workers":           benchio.MinWorkers,
	} {
		if b, ok := bounds[key]; !ok || b.Min == nil || *b.Min != want {
			t.Fatalf("%s bound = %+v, want min %g", key, b, want)
		}
	}
}
