package fsperf_test

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"

	"lxfi/internal/benchio"
	"lxfi/internal/core"
	"lxfi/internal/fsperf"
	"lxfi/internal/mem"
)

func TestOpCycleBothModesBothFilesystems(t *testing.T) {
	payload := make([]byte, fsperf.DefaultFileSize)
	for _, kind := range []fsperf.Kind{fsperf.Tmpfs, fsperf.Minix} {
		for _, mode := range []core.Mode{core.Off, core.Enforce} {
			rig, err := fsperf.NewRig(mode, kind)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, mode, err)
			}
			defer rig.Close()
			for i := 0; i < 20; i++ {
				if err := rig.OpCycle(i, payload); err != nil {
					t.Fatalf("%s/%s cycle %d: %v", kind, mode, i, err)
				}
			}
			if n := len(rig.K.Sys.Mon.Violations()); n != 0 {
				t.Fatalf("%s/%s: %d violations: %v", kind, mode, n, rig.K.Sys.Mon.LastViolation())
			}
			// Nothing left behind: the cycle unlinks its file each time.
			if rig.V.PageCount() != 0 {
				t.Fatalf("%s/%s: %d pages leaked", kind, mode, rig.V.PageCount())
			}
		}
	}
}

func TestMeasureCostsProducesAllOps(t *testing.T) {
	c, err := fsperf.MeasureCosts(fsperf.Minix, 8, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	rows := fsperf.BuildTable(c)
	if len(rows) != len(fsperf.Ops) {
		t.Fatalf("rows = %d, want %d", len(rows), len(fsperf.Ops))
	}
	for _, r := range rows {
		if r.StockNs <= 0 || r.LxfiNs <= 0 {
			t.Fatalf("op %s has a zero cost: %+v", r.Op, r)
		}
	}
	if out := fsperf.Format(c); out == "" {
		t.Fatal("empty table")
	}

	// Memory-only mounts have no cold-read path and nothing durable to
	// remount, so those rows are omitted rather than mislabeled — but
	// the new workload phases must be present for both filesystems.
	c, err = fsperf.MeasureCosts(fsperf.Tmpfs, 8, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, r := range fsperf.BuildTable(c) {
		if r.Op == "read cold" {
			t.Fatal("tmpfs reported a cold-read row despite being memory-only")
		}
		if r.Op == "remount" {
			t.Fatal("tmpfs reported a remount row despite being memory-only")
		}
		seen[r.Op] = true
	}
	for _, op := range []string{"readdir", "rename", "cache pressure"} {
		if !seen[op] {
			t.Fatalf("tmpfs table is missing the %q phase", op)
		}
	}
}

// TestJSONReportShape: the CI artifact must carry both filesystems with
// every measured op at nonzero cost under both builds, the writeback and
// hot-reload phases on each filesystem, the journal phase on minix, the
// concurrency phase, and a bounds block beside every budgeted field.
func TestJSONReportShape(t *testing.T) {
	var all []*fsperf.Costs
	var rls []*fsperf.ReloadCosts
	for _, kind := range []fsperf.Kind{fsperf.Tmpfs, fsperf.Minix} {
		c, err := fsperf.MeasureCosts(kind, 4, mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, c)
		rl, err := fsperf.MeasureReload(kind, mem.PageSize)
		if err != nil {
			t.Fatal(err)
		}
		rls = append(rls, rl)
	}
	conc, err := fsperf.MeasureConcurrency(4, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	jrn, err := fsperf.MeasureJournal(4)
	if err != nil {
		t.Fatal(err)
	}
	out, err := fsperf.JSON(all, conc, rls, []*fsperf.JournalCosts{jrn}, 4, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Bench   string `json:"bench"`
		Files   int    `json:"files"`
		Results []struct {
			FS   string `json:"fs"`
			Rows []struct {
				Op      string  `json:"op"`
				StockNs float64 `json:"stock_ns"`
				LxfiNs  float64 `json:"lxfi_ns"`
			} `json:"rows"`
			Writeback *struct{} `json:"writeback"`
			Reload    *struct {
				Reloads      int     `json:"reloads"`
				StockTotalNs float64 `json:"stock_total_ns"`
				LxfiTotalNs  float64 `json:"lxfi_total_ns"`
				StockCycles  int     `json:"stock_worker_cycles"`
				LxfiCycles   int     `json:"lxfi_worker_cycles"`
				MigratedCaps int     `json:"migrated_caps"`
			} `json:"reload"`
			Journal *struct {
				StockRenameNs   float64 `json:"stock_rename_ns"`
				LxfiRenameNs    float64 `json:"lxfi_rename_ns"`
				StockExchangeNs float64 `json:"stock_exchange_ns"`
				LxfiExchangeNs  float64 `json:"lxfi_exchange_ns"`
				WritesPerOp     float64 `json:"writes_per_op"`
			} `json:"journal"`
		} `json:"results"`
		Concurrency *struct {
			Workers int      `json:"workers"`
			Mounts  []string `json:"mounts"`
			StockNs float64  `json:"stock_ns"`
			LxfiNs  float64  `json:"lxfi_ns"`
		} `json:"concurrency"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if doc.Bench != "fsperf" || doc.Files != 4 || len(doc.Results) != 2 {
		t.Fatalf("bad document shape: %s", out)
	}
	fses := map[string]bool{}
	for _, res := range doc.Results {
		fses[res.FS] = true
		seen := map[string]bool{}
		for _, row := range res.Rows {
			seen[row.Op] = true
			if row.StockNs <= 0 || row.LxfiNs <= 0 {
				t.Fatalf("%s/%s has a zero cost", res.FS, row.Op)
			}
		}
		for _, op := range []string{"create", "readdir", "rename", "cache pressure", "unlink"} {
			if !seen[op] {
				t.Fatalf("%s is missing the %q row", res.FS, op)
			}
		}
		if res.Writeback == nil {
			t.Fatalf("%s result is missing the writeback phase", res.FS)
		}
		rl := res.Reload
		if rl == nil {
			t.Fatalf("%s result is missing the hot-reload phase", res.FS)
		}
		if rl.Reloads < 1 || rl.StockTotalNs <= 0 || rl.LxfiTotalNs <= 0 {
			t.Fatalf("%s: bad reload phase: %+v", res.FS, *rl)
		}
		if rl.StockCycles < 1 || rl.LxfiCycles < 1 {
			t.Fatalf("%s: reload phase ran without live worker traffic", res.FS)
		}
		if rl.MigratedCaps < 1 {
			t.Fatalf("%s: enforced reload migrated no capabilities", res.FS)
		}
		if res.FS != string(fsperf.Minix) {
			if res.Journal != nil {
				t.Fatalf("%s reported a journal phase", res.FS)
			}
			continue
		}
		j := res.Journal
		if j == nil {
			t.Fatal("minix result is missing the journal phase")
		}
		if j.StockRenameNs <= 0 || j.LxfiRenameNs <= 0 || j.StockExchangeNs <= 0 || j.LxfiExchangeNs <= 0 {
			t.Fatalf("journal phase has a zero cost: %+v", *j)
		}
		if j.WritesPerOp < fsperf.JournalMinWritesPerOp || j.WritesPerOp > fsperf.JournalMaxWritesPerOp {
			t.Fatalf("journal writes/op = %.1f, outside [%d,%d]", j.WritesPerOp,
				fsperf.JournalMinWritesPerOp, fsperf.JournalMaxWritesPerOp)
		}
	}
	if !fses[string(fsperf.Tmpfs)] || !fses[string(fsperf.Minix)] {
		t.Fatalf("filesystems = %v, want tmpfs and minix", fses)
	}
	if doc.Concurrency == nil {
		t.Fatal("artifact is missing the multi-mount concurrency phase")
	}
	mounts := append([]string(nil), doc.Concurrency.Mounts...)
	sort.Strings(mounts)
	if doc.Concurrency.Workers < benchio.MinWorkers || strings.Join(mounts, ",") != "minix,tmpfs" {
		t.Fatalf("concurrency phase used %d workers on %v, want tmpfs and minix mounted simultaneously",
			doc.Concurrency.Workers, doc.Concurrency.Mounts)
	}
	if doc.Concurrency.StockNs <= 0 || doc.Concurrency.LxfiNs <= 0 {
		t.Fatalf("concurrency phase has a zero cost: %+v", *doc.Concurrency)
	}

	bounds, missing, err := benchio.Declared(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("bounded fields missing beside their bounds: %v", missing)
	}
	for _, key := range []string{
		"results/tmpfs/reload/lxfi_total_ns", "results/minix/reload/lxfi_total_ns",
		"results/minix/journal/writes_per_op", "concurrency/workers",
	} {
		if _, ok := bounds[key]; !ok {
			t.Fatalf("no bound declared for %s (have %d bounds)", key, len(bounds))
		}
	}
	if b := bounds["results/minix/journal/writes_per_op"]; b.Max == nil || *b.Max != fsperf.JournalMaxWritesPerOp {
		t.Fatalf("journal bound = %+v", b)
	}
}

// TestConcurrencyPhaseRunsWorkersSimultaneously: the multi-mount phase
// must be produced by worker threads whose busy intervals genuinely
// overlap — one worker per mount, tmpfssim and minixsim at once.
func TestConcurrencyPhaseRunsWorkersSimultaneously(t *testing.T) {
	conc, err := fsperf.MeasureConcurrency(8, mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if conc.Workers != 2 {
		t.Fatalf("workers = %d, want 2", conc.Workers)
	}
	if !conc.Overlapped {
		t.Fatal("worker busy intervals never overlapped; the phase ran serialized")
	}
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		if conc.Ns[mode] <= 0 {
			t.Fatalf("mode %s has zero cost", mode)
		}
	}
}

// TestEnforcedCrossingsAreCounted sanity-checks the workload shape: the
// cold-read path must cross into the module once per page, the warm-read
// path not at all.
func TestEnforcedCrossingsAreCounted(t *testing.T) {
	rig, err := fsperf.NewRig(core.Enforce, fsperf.Minix)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.Close()
	v, th, sb := rig.V, rig.Th, rig.SB
	if _, err := v.Create(th, sb, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Write(th, sb, "/f", 0, make([]byte, 2*mem.PageSize)); err != nil {
		t.Fatal(err)
	}
	if err := v.Sync(th, sb); err != nil {
		t.Fatal(err)
	}
	v.DropCaches(sb)
	fills := v.Stats.PageFills.Load()
	if _, err := v.Read(th, sb, "/f", 0, 2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats.PageFills.Load() - fills; got != 2 {
		t.Fatalf("cold read crossed %d times, want 2", got)
	}
	fills = v.Stats.PageFills.Load()
	if _, err := v.Read(th, sb, "/f", 0, 2*mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats.PageFills.Load() - fills; got != 0 {
		t.Fatalf("warm read crossed %d times, want 0", got)
	}
}
