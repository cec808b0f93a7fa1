package benchio

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func swap(t *testing.T) (*bytes.Buffer, *bytes.Buffer) {
	t.Helper()
	var out, errw bytes.Buffer
	oldOut, oldErr := Stdout, Stderr
	Stdout, Stderr = &out, &errw
	t.Cleanup(func() { Stdout, Stderr = oldOut, oldErr })
	return &out, &errw
}

func TestEmitReportWritesOnlyStdout(t *testing.T) {
	out, errw := swap(t)
	EmitReport([]byte(`{"bench":"x"}`))
	if got := out.String(); got != "{\"bench\":\"x\"}\n" {
		t.Fatalf("stdout = %q", got)
	}
	if errw.Len() != 0 {
		t.Fatalf("report leaked to stderr: %q", errw.String())
	}
}

// The stderr-only metrics contract: a metrics dump must never reach
// stdout, where it would corrupt an archived BENCH artifact.
func TestEmitMetricsWritesOnlyStderr(t *testing.T) {
	out, errw := swap(t)
	EmitMetrics("fsperf enforced metrics", map[string]int{"guards": 3})
	if out.Len() != 0 {
		t.Fatalf("metrics leaked to stdout: %q", out.String())
	}
	got := errw.String()
	if !strings.HasPrefix(got, "# fsperf enforced metrics\n") {
		t.Fatalf("missing label comment: %q", got)
	}
	if !strings.Contains(got, `"guards": 3`) {
		t.Fatalf("missing payload: %q", got)
	}
}

func TestEmitMetricsIgnoresNil(t *testing.T) {
	out, errw := swap(t)
	EmitMetrics("x", nil)
	var typed *struct{ N int }
	EmitMetrics("y", typed)
	if out.Len() != 0 || errw.Len() != 0 {
		t.Fatal("nil snapshot produced output")
	}
}

func TestFailPathsUseStderrAndExitCodes(t *testing.T) {
	_, errw := swap(t)
	var code int
	oldExit := exit
	exit = func(c int) { code = c }
	defer func() { exit = oldExit }()

	Fail("measurement failed", errString("boom"))
	if code != 1 || !strings.Contains(errw.String(), "measurement failed: boom") {
		t.Fatalf("code=%d stderr=%q", code, errw.String())
	}
	errw.Reset()
	FailUsage("-json requires -crossings")
	if code != 2 || !strings.Contains(errw.String(), "-json requires -crossings") {
		t.Fatalf("code=%d stderr=%q", code, errw.String())
	}
}

type errString string

func (e errString) Error() string { return string(e) }

func TestDeclaredFindsBoundsAndMissingFields(t *testing.T) {
	doc := map[string]any{
		"bench": "x",
		"results": []any{map[string]any{"fs": "tmpfs", "rows": []any{
			map[string]any{"op": "create", "lxfi_ns": 5.0, "bounds": Bounds{"lxfi_ns": AtMost(ReloadMaxNs)}},
		}}},
		"phase": map[string]any{"ratio": 1.2, "bounds": Bounds{
			"ratio":   Within(1, 1.5),
			"dropped": AtMost(0),
		}},
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	bounds, missing, err := Declared(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 3 {
		t.Fatalf("bounds = %v", bounds)
	}
	if b := bounds["results/tmpfs/rows/create/lxfi_ns"]; b.Min != nil || *b.Max != ReloadMaxNs {
		t.Fatalf("row bound = %+v", b)
	}
	if b := bounds["phase/ratio"]; *b.Min != 1 || *b.Max != 1.5 {
		t.Fatalf("phase bound = %+v", b)
	}
	if len(missing) != 1 || missing[0] != "phase/dropped" {
		t.Fatalf("missing = %v, want [phase/dropped]", missing)
	}
	// A zero end is still emitted: "max": 0 must not vanish as empty.
	if !strings.Contains(string(out), `"dropped":{"max":0}`) {
		t.Fatalf("zero bound not encoded: %s", out)
	}
}
