package microbench

import (
	"encoding/json"
	"testing"

	"lxfi/internal/benchio"
)

// TestMeasureCrossings runs the phases at a small iteration count and
// checks the report invariants CI relies on: all nine phases present,
// positive timings, the cached-hit and the four crossing phases bound
// allocation-free (and within that bound), and the contended phase
// carrying its scaling ratio.
func TestMeasureCrossings(t *testing.T) {
	rows, metrics, err := MeasureCrossingsWithMetrics(coldSet)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		"check cold": false, "check cached": false,
		"check contended": false, "revoke storm": false,
		"crossing gate": false, "crossing named": false,
		"crossing batch": false, "crossing traced": false,
		"reload": false,
	}
	for _, r := range rows {
		if _, ok := want[r.Op]; !ok {
			t.Fatalf("unexpected phase %q", r.Op)
		}
		want[r.Op] = true
		if r.StockNs <= 0 || r.LxfiNs <= 0 {
			t.Fatalf("phase %q has non-positive timing: %+v", r.Op, r)
		}
	}
	for op, seen := range want {
		if !seen {
			t.Fatalf("phase %q missing", op)
		}
	}
	allocFree := map[string]bool{}
	for _, r := range rows {
		if b, ok := r.Bounds["allocs_per_op"]; ok {
			allocFree[r.Op] = true
			if *b.Max != AllocFreeMaxPerOp || r.AllocsPerOp > *b.Max {
				t.Fatalf("%s allocates: %f allocs/op (bound %+v)", r.Op, r.AllocsPerOp, b)
			}
		}
		if r.Op == "check contended" && r.ScalingRatio <= 0 {
			t.Fatalf("contended phase missing scaling ratio: %+v", r)
		}
		if r.Op != "check contended" && r.ScalingRatio != 0 {
			t.Fatalf("scaling ratio leaked onto phase %q: %+v", r.Op, r)
		}
		if r.Op != "crossing traced" && r.TraceOverheadPct != 0 {
			t.Fatalf("trace overhead leaked onto phase %q: %+v", r.Op, r)
		}
	}
	for _, op := range []string{"check cached", "crossing gate", "crossing named", "crossing batch", "crossing traced"} {
		if !allocFree[op] {
			t.Fatalf("%s carries no allocation-free bound", op)
		}
	}
	if len(allocFree) != 5 {
		t.Fatalf("allocation-free rows = %v, want exactly five", allocFree)
	}
	// The traced run's sampled latencies must have reached the shared
	// histogram, and the enforced crossings the shared counters.
	if metrics == nil {
		t.Fatal("no metrics snapshot from enforced run")
	}
	if metrics.Mode != "lxfi" {
		t.Fatalf("metrics mode = %q, want lxfi", metrics.Mode)
	}
	if metrics.LatencySamples == 0 {
		t.Fatal("traced crossings produced no latency samples")
	}
	if metrics.FuncEntries == 0 || metrics.CapChecks == 0 {
		t.Fatalf("guard counters empty: %+v", metrics)
	}
}

func TestCrossingsJSONShape(t *testing.T) {
	rows, err := MeasureCrossings(coldSet)
	if err != nil {
		t.Fatal(err)
	}
	out, err := CrossingsJSON(rows, coldSet)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Bench   string `json:"bench"`
		Shards  int    `json:"shards"`
		Results []struct {
			FS   string `json:"fs"`
			Rows []struct {
				Op     string  `json:"op"`
				LxfiNs float64 `json:"lxfi_ns"`
			} `json:"rows"`
		} `json:"results"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Bench != "crossings" || doc.Shards < 1 {
		t.Fatalf("bad header: %+v", doc)
	}
	if len(doc.Results) != 1 || doc.Results[0].FS != "crossings" || len(doc.Results[0].Rows) != 9 {
		t.Fatalf("bad results shape: %+v", doc.Results)
	}
	bounds, missing, err := benchio.Declared(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("bounded fields missing beside their bounds: %v", missing)
	}
	for _, key := range []string{
		"results/crossings/rows/crossing gate/allocs_per_op",
		"results/crossings/rows/crossing traced/trace_overhead_pct",
		"results/crossings/rows/reload/lxfi_ns",
	} {
		if _, ok := bounds[key]; !ok {
			t.Fatalf("no bound declared for %s", key)
		}
	}
}
