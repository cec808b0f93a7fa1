package benchio

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Budgets shared by every perf command that measures the phase.
const (
	// ReloadMaxNs is the service interruption, in ns, one hot reload
	// (quiesce, swap, migrate) may cost, under traffic or not.
	ReloadMaxNs = 50e6
	// MinWorkers is the thread count below which a concurrency phase
	// would measure a serial run.
	MinWorkers = 2
)

// Bound is the inclusive range a report field must lie in; a nil end is
// open. Each report object that owns a budgeted field carries a
// "bounds" block of them beside the field, and scripts/perf_gate.py
// fails a report whose bounded field is missing or out of range.
type Bound struct {
	Min *float64 `json:"min,omitempty"`
	Max *float64 `json:"max,omitempty"`
}

// Bounds is a report object's "bounds" block, keyed by the JSON name of
// the sibling field each bound applies to.
type Bounds map[string]Bound

// AtLeast bounds a field from below.
func AtLeast(lo float64) Bound { return Bound{Min: &lo} }

// AtMost bounds a field from above.
func AtMost(hi float64) Bound { return Bound{Max: &hi} }

// Within bounds a field from both sides.
func Within(lo, hi float64) Bound { return Bound{Min: &lo, Max: &hi} }

// Declared decodes an encoded report and returns every bound its objects
// declare, keyed "<object path>/<field>" (array elements are named by
// their "op" or "fs" label), plus the sorted keys whose field is missing
// or not a number beside its bounds block. Report tests use it so a
// renamed field cannot silently disarm its bound.
func Declared(report []byte) (map[string]Bound, []string, error) {
	var doc any
	if err := json.Unmarshal(report, &doc); err != nil {
		return nil, nil, err
	}
	bounds := map[string]Bound{}
	var missing []string
	var walk func(path string, node any)
	walk = func(path string, node any) {
		switch n := node.(type) {
		case map[string]any:
			bs, _ := n["bounds"].(map[string]any)
			for field, b := range bs {
				key := join(path, field)
				ends, _ := b.(map[string]any)
				bounds[key] = Bound{Min: number(ends["min"]), Max: number(ends["max"])}
				if number(n[field]) == nil {
					missing = append(missing, key)
				}
			}
			for k, v := range n {
				if k != "bounds" {
					walk(join(path, k), v)
				}
			}
		case []any:
			for i, v := range n {
				label := fmt.Sprint(i)
				if obj, ok := v.(map[string]any); ok {
					if s, ok := obj["op"].(string); ok {
						label = s
					} else if s, ok := obj["fs"].(string); ok {
						label = s
					}
				}
				walk(join(path, label), v)
			}
		}
	}
	walk("", doc)
	sort.Strings(missing)
	return bounds, missing, nil
}

func number(v any) *float64 {
	if f, ok := v.(float64); ok {
		return &f
	}
	return nil
}

func join(path, key string) string {
	if path == "" {
		return key
	}
	return path + "/" + key
}
