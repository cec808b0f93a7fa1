package e1000sim_test

import (
	"bytes"
	"testing"

	"lxfi/internal/core"
	"lxfi/internal/kernel"
	"lxfi/internal/mem"
	"lxfi/internal/modules/e1000sim"
	"lxfi/internal/netstack"
	"lxfi/internal/pci"
)

type rig struct {
	k     *kernel.Kernel
	bus   *pci.Bus
	stack *netstack.Stack
	th    *core.Thread
	drv   *e1000sim.Driver
}

func newRig(t *testing.T, mode core.Mode) *rig {
	t.Helper()
	k := kernel.New()
	k.Sys.Mon.SetMode(mode)
	bus := pci.Init(k)
	stack := netstack.Init(k)
	bus.AddDevice(e1000sim.VendorIntel, e1000sim.Dev82540EM)
	th := k.Sys.NewThread("net")
	drv, err := e1000sim.Load(th, k, bus, stack)
	if err != nil {
		t.Fatalf("load e1000sim: %v", err)
	}
	return &rig{k: k, bus: bus, stack: stack, th: th, drv: drv}
}

func TestProbeBindsAndEnables(t *testing.T) {
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		r := newRig(t, mode)
		if r.drv.Dev == 0 {
			t.Fatalf("[%v] no net_device", mode)
		}
		dev := r.bus.Devices()[0]
		if dev.Module != "e1000" {
			t.Fatalf("[%v] device not bound: %+v", mode, dev)
		}
		if !r.bus.Enabled(dev) {
			t.Fatalf("[%v] device not enabled", mode)
		}
	}
}

func TestTransmitPath(t *testing.T) {
	r := newRig(t, core.Enforce)
	var wire [][]byte
	r.drv.Nic.OnTx = func(f []byte) { wire = append(wire, append([]byte(nil), f...)) }

	payload := []byte("GET / HTTP/1.1\r\n")
	skb, err := r.stack.AllocSkb(uint64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := r.k.Sys.AS.ReadU64(r.stack.SkbField(skb, "head"))
	if err := r.k.Sys.AS.Write(mem.Addr(data), payload); err != nil {
		t.Fatal(err)
	}
	if err := r.k.Sys.AS.WriteU64(r.stack.SkbField(skb, "len"), uint64(len(payload))); err != nil {
		t.Fatal(err)
	}

	ret, err := r.stack.XmitSkb(r.th, r.drv.Dev, skb)
	if err != nil || ret != 0 {
		t.Fatalf("xmit: ret=%d err=%v", ret, err)
	}
	if len(wire) != 1 || !bytes.Equal(wire[0], payload) {
		t.Fatalf("wire = %q", wire)
	}
	if r.drv.Nic.TxFrames != 1 || r.drv.Nic.TxBytes != uint64(len(payload)) {
		t.Fatalf("nic counters: %d frames, %d bytes", r.drv.Nic.TxFrames, r.drv.Nic.TxBytes)
	}
	if v := r.k.Sys.Mon.LastViolation(); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
}

func TestReceivePath(t *testing.T) {
	r := newRig(t, core.Enforce)
	for i := 0; i < 5; i++ {
		r.drv.Nic.InjectRx([]byte{0xAB, byte(i)})
	}
	done, err := r.stack.Poll(r.th, r.drv.Dev, 3)
	if err != nil || done != 3 {
		t.Fatalf("poll: done=%d err=%v", done, err)
	}
	if r.stack.BacklogLen() != 3 {
		t.Fatalf("backlog = %d", r.stack.BacklogLen())
	}
	done, err = r.stack.Poll(r.th, r.drv.Dev, 64)
	if err != nil || done != 2 {
		t.Fatalf("second poll: done=%d err=%v", done, err)
	}
	skb := r.stack.PopRx()
	data, _ := r.k.Sys.AS.ReadU64(r.stack.SkbField(skb, "head"))
	b, _ := r.k.Sys.AS.ReadBytes(mem.Addr(data), 2)
	if !bytes.Equal(b, []byte{0xAB, 0}) {
		t.Fatalf("rx payload = %v", b)
	}
	if v := r.k.Sys.Mon.LastViolation(); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
}

func TestTxRxSymmetryStockVsLxfi(t *testing.T) {
	// The functional behaviour must be identical in both modes; only the
	// guard counts differ.
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		r := newRig(t, mode)
		before := r.k.Sys.Mon.Stats.Snapshot()
		for i := 0; i < 10; i++ {
			skb, _ := r.stack.AllocSkb(64)
			if _, err := r.stack.XmitSkb(r.th, r.drv.Dev, skb); err != nil {
				t.Fatalf("[%v] xmit %d: %v", mode, i, err)
			}
		}
		if r.drv.Nic.TxFrames != 10 {
			t.Fatalf("[%v] tx = %d", mode, r.drv.Nic.TxFrames)
		}
		d := r.k.Sys.Mon.Stats.Snapshot().Sub(before)
		if mode == core.Off && d.MemWriteChecks != 0 {
			t.Fatalf("stock ran %d write guards", d.MemWriteChecks)
		}
		if mode == core.Enforce && d.MemWriteChecks == 0 {
			t.Fatal("lxfi ran no write guards")
		}
	}
}

func TestIRQDelivery(t *testing.T) {
	r := newRig(t, core.Enforce)
	dev := r.bus.Devices()[0]
	r.bus.RaiseIRQ(r.th, dev)
	r.bus.RaiseIRQ(r.th, dev)
	if r.drv.Nic.IRQs != 2 {
		t.Fatalf("irqs = %d", r.drv.Nic.IRQs)
	}
}

func TestOpenStop(t *testing.T) {
	r := newRig(t, core.Enforce)
	ops, _ := r.k.Sys.AS.ReadU64(r.stack.DevField(r.drv.Dev, "ops"))
	openSlot := r.stack.OpsSlot(mem.Addr(ops), "ndo_open")
	if _, err := r.th.IndirectCall(openSlot, netstack.NdoOpen, uint64(r.drv.Dev)); err != nil {
		t.Fatal(err)
	}
	if !r.drv.Opened() {
		t.Fatal("open did not run")
	}
	stopSlot := r.stack.OpsSlot(mem.Addr(ops), "ndo_stop")
	if _, err := r.th.IndirectCall(stopSlot, netstack.NdoStop, uint64(r.drv.Dev)); err != nil {
		t.Fatal(err)
	}
	if r.drv.Opened() {
		t.Fatal("stop did not run")
	}
}

func TestProbeFailsWithoutDevice(t *testing.T) {
	k := kernel.New()
	bus := pci.Init(k)
	stack := netstack.Init(k)
	th := k.Sys.NewThread("t")
	if _, err := e1000sim.Load(th, k, bus, stack); err == nil {
		t.Fatal("load without a matching PCI device should fail")
	}
}

// TestReceiveBurstOneFramePerPoll: a 10 000-frame burst delivered by
// budget-1 polls reaches the stack complete and in order.
func TestReceiveBurstOneFramePerPoll(t *testing.T) {
	const burst = 10000
	r := newRig(t, core.Enforce)
	for i := 0; i < burst; i++ {
		r.drv.Nic.InjectRx([]byte{0xAB, byte(i), byte(i >> 8)})
	}
	for i := 0; i < burst; i++ {
		if done, err := r.stack.Poll(r.th, r.drv.Dev, 1); err != nil || done != 1 {
			t.Fatalf("poll %d: done=%d err=%v", i, done, err)
		}
		skb := r.stack.PopRx()
		data, _ := r.k.Sys.AS.ReadU64(r.stack.SkbField(skb, "head"))
		b, _ := r.k.Sys.AS.ReadBytes(mem.Addr(data), 3)
		if !bytes.Equal(b, []byte{0xAB, byte(i), byte(i >> 8)}) {
			t.Fatalf("frame %d: payload %x", i, b)
		}
		r.stack.FreeSkb(skb)
	}
	if n := r.drv.Nic.RxPending(); n != 0 {
		t.Fatalf("%d frames still queued", n)
	}
	if v := r.k.Sys.Mon.LastViolation(); v != nil {
		t.Fatalf("unexpected violation: %v", v)
	}
}
