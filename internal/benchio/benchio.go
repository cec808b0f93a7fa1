// Package benchio is the shared report-emission plumbing of the
// benchmark commands (lxfi-fsperf, lxfi-netperf, lxfi-microbench).
//
// Every benchmark command follows the same contract:
//
//   - stdout carries exactly one thing: either the human-readable tables
//     or, with -json, the machine-readable BENCH_*.json artifact that CI
//     archives and perf-gates. Nothing else may be written to stdout.
//   - diagnostics are stderr-only. In particular -metrics (the enforced
//     run's monitor-metrics snapshot) always goes to stderr, so it can
//     never corrupt an archived BENCH report.
//
// The package centralizes the flag registration and the emission helpers
// so the contract is enforced in one place instead of three copies.
package benchio

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"
)

// Stdout and Stderr are the emission targets, swappable in tests.
var (
	Stdout io.Writer = os.Stdout
	Stderr io.Writer = os.Stderr
)

// exit is swappable in tests so Fail paths can be exercised.
var exit = os.Exit

// Flags is the emission-flag set shared by the benchmark commands.
type Flags struct {
	JSON    bool
	Metrics bool
}

// Bind registers the shared -json and -metrics flags on the default flag
// set with command-specific usage strings. Call before flag.Parse.
func Bind(jsonUsage, metricsUsage string) *Flags {
	f := &Flags{}
	flag.BoolVar(&f.JSON, "json", false, jsonUsage)
	flag.BoolVar(&f.Metrics, "metrics", false, metricsUsage)
	return f
}

// Fail reports a runtime failure on stderr and exits 1.
func Fail(context string, err error) {
	fmt.Fprintf(Stderr, "%s: %v\n", context, err)
	exit(1)
}

// FailUsage reports a flag-usage error on stderr and exits 2.
func FailUsage(msg string) {
	fmt.Fprintln(Stderr, msg)
	exit(2)
}

// OverheadPct is x's cost over base in percent; 0 without a base.
func OverheadPct(base, x float64) float64 {
	if base <= 0 {
		return 0
	}
	return 100 * (x - base) / base
}

// EmitReport writes the archived BENCH artifact to stdout — in -json
// mode this must be the only stdout write the command performs.
func EmitReport(out []byte) {
	fmt.Fprintln(Stdout, string(out))
}

// EmitMetrics marshals a metrics snapshot to stderr, never stdout (the
// stderr-only metrics contract). A non-empty label prefixes the dump as
// a "# label" comment line. Nil snapshots are ignored so callers can
// pass through whatever the measurement produced.
func EmitMetrics(label string, m any) {
	if m == nil {
		return
	}
	// Callers pass whatever snapshot pointer the measurement produced; a
	// typed nil (stock-only run) is as empty as an untyped one.
	if v := reflect.ValueOf(m); v.Kind() == reflect.Pointer && v.IsNil() {
		return
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		fmt.Fprintln(Stderr, "encoding metrics:", err)
		return
	}
	if label != "" {
		fmt.Fprintf(Stderr, "# %s\n", label)
	}
	fmt.Fprintln(Stderr, string(out))
}
