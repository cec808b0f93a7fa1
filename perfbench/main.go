// Command perfbench is the repository benchmark. It runs one of four
// closed-loop workloads against the LXFI simulator with the monitor
// enforcing, checks every output, and prints the metrics as JSON.
//
//	perfbench --workload net-rr --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured untraced.
// With --trace 1 it splits the time over three passes (enforced
// untraced, enforced traced, stock untraced) and prints the per-layer
// metrics. The last line of standard output is always
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// and the line before it is the report: host facts, the seed and run
// length, and sample counts. README.md maps the metrics to layers.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"lxfi/internal/core"
)

// rig is one booted system under load.
type rig interface {
	// drive runs every load thread's closed loop until stop, thread i
	// recording into recs[i].
	drive(stop time.Time, recs []*recorder) error
	system() *core.System
	counters() substrate
	close()
}

// substrate holds the counters the substrates export.
type substrate struct {
	sectorReads, sectorWrites      uint64
	pagesFlushed, forcedForeground uint64
	pageCachePages                 int
	txDenied                       uint64
}

type workload struct {
	name    string
	threads int
	net     bool // drives the netstack, so prints its per-layer metrics
	boot    func(mode core.Mode, seed uint64) (rig, error)
}

var workloads = []workload{
	{"net-rr", 1, true, bootRR},
	{"net-stream", 1, true, bootStream},
	{"fs-hot", 2, false, bootFS(0)},
	{"fs-evict", 2, false, bootFS(evictBudget)},
	{"fs-evict-1t", 1, false, bootFS(evict1tBudget)},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	outDir   string // where the traced run writes its spans ("" = nowhere)
	commit   string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

// report is the provenance line printed before the result.
type report struct {
	Host      host             `json:"host"`
	Workload  string           `json:"workload"`
	Seed      uint64           `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Threads   int              `json:"load_threads"`
	Samples   map[string]int64 `json:"samples,omitempty"`
	FailRatio float64          `json:"fail_ratio"`
	Spans     string           `json:"spans_file,omitempty"`
}

const (
	// setupRuns is how many extra boots the trace-0 run times for
	// setup_s before each round, beside the round's own boot.
	setupRuns = 8
	// maxWarmup caps the unmeasured warm-up before each pass.
	maxWarmup = 500 * time.Millisecond
	// e2eRounds is how many fresh boots, each with its own derived
	// seed, share an end-to-end run.
	e2eRounds = 5
)

func main() {
	var cfg config
	var trace int
	var cpuprofile string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed for op order, file choice and payload bytes")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	flag.StringVar(&cfg.outDir, "out-dir", "", "directory for the traced run's span file")
	flag.StringVar(&cfg.commit, "commit", "unknown", "source commit recorded in the report")
	flag.StringVar(&cpuprofile, "cpuprofile", "", "write a CPU profile of the run to this file")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fatal(errors.New("--trace must be 0 or 1"))
	}
	cfg.trace = trace == 1
	if cfg.seconds <= 0 {
		fatal(errors.New("--seconds must be positive"))
	}
	var prof *os.File
	if cpuprofile != "" {
		var err error
		if prof, err = os.Create(cpuprofile); err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(prof); err != nil {
			fatal(err)
		}
	}
	rep, res, err := run(cfg)
	if prof != nil {
		pprof.StopCPUProfile()
		if cerr := prof.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(map[string]report{"report": *rep})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// run executes one benchmark run.
func run(cfg config) (*report, *result, error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, nil, err
	}
	rep := &report{
		Host:     hostFacts(cfg.commit),
		Workload: w.name,
		Seed:     cfg.seed,
		Seconds:  cfg.seconds,
		Trace:    cfg.trace,
		Threads:  w.threads,
	}
	total := time.Duration(cfg.seconds * float64(time.Second))
	var res *result
	if cfg.trace {
		res, err = runTraced(cfg, w, total, rep)
	} else {
		res, err = runEndToEnd(cfg, w, total, rep)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.name, err)
	}
	res.Correct = res.Failed == 0
	if res.Attempted > 0 {
		rep.FailRatio = float64(res.Failed) / float64(res.Attempted)
	}
	return rep, res, nil
}

// pass accumulates the measured rounds of one kind of load. Each round
// runs on its own rig; the tracers carry across rounds.
type pass struct {
	threads    int
	tracers    []*tracer   // one per load thread; nil entries when untraced
	byThread   []*recorder // one per load thread, every round merged
	rec        *recorder   // every thread merged, once the last round is done
	elapsed    time.Duration
	warmOps    int64
	warmFailed int64
	violations int64
	rounds     []snapshots
}

// snapshots holds every counter read before and after one round.
type snapshots struct {
	mon0, mon1 core.MetricsSnapshot
	sub0, sub1 substrate
	mem0, mem1 runtime.MemStats
}

func newPass(threads int, traced bool) *pass {
	p := &pass{threads: threads, tracers: make([]*tracer, threads), byThread: make([]*recorder, threads)}
	if traced {
		base := time.Now()
		for i := range p.tracers {
			p.tracers[i] = newTracer(base)
		}
	}
	return p
}

// recorders returns fresh recorders, one per load thread, on the pass's
// tracers.
func (p *pass) recorders() []*recorder {
	recs := make([]*recorder, p.threads)
	for i := range recs {
		recs[i] = &recorder{tr: p.tracers[i]}
	}
	return recs
}

// round warms the rig up (load not recorded, outcomes still checked and
// counted), then drives it for d and snapshots every counter around the
// measured part. Violations the rig's monitor logs count as failures.
func (p *pass) round(r rig, d time.Duration) error {
	warmup := d / 10
	if warmup > maxWarmup {
		warmup = maxWarmup
	}
	warm := make([]*recorder, p.threads)
	for i := range warm {
		warm[i] = &recorder{}
	}
	if err := r.drive(time.Now().Add(warmup), warm); err != nil {
		return err
	}
	wr := merge(warm)
	p.warmOps += wr.ops
	p.warmFailed += wr.failed

	var s snapshots
	sys := r.system()
	s.mon0, s.sub0 = sys.Metrics(), r.counters()
	runtime.ReadMemStats(&s.mem0)
	start := time.Now()
	recs := p.recorders()
	if err := r.drive(start.Add(d), recs); err != nil {
		return err
	}
	p.elapsed += time.Since(start)
	for i, rec := range recs {
		if p.byThread[i] == nil {
			p.byThread[i] = rec
		} else {
			p.byThread[i] = merge([]*recorder{p.byThread[i], rec})
		}
	}
	runtime.ReadMemStats(&s.mem1)
	s.mon1, s.sub1 = sys.Metrics(), r.counters()
	p.rounds = append(p.rounds, s)
	p.violations += int64(len(sys.Mon.Violations()))
	return nil
}

// finish merges the rounds after the last one.
func (p *pass) finish() error {
	p.rec = merge(p.byThread)
	if p.rec.ops == 0 {
		return errors.New("no operation completed in the measured time")
	}
	return nil
}

func (p *pass) attempted() int64 { return p.warmOps + p.rec.ops }
func (p *pass) failed() int64    { return p.warmFailed + p.rec.failed + p.violations }

// delta sums a counter's growth over the measured rounds.
func (p *pass) delta(f func(s *snapshots, after bool) uint64) uint64 {
	var d uint64
	for i := range p.rounds {
		d += f(&p.rounds[i], true) - f(&p.rounds[i], false)
	}
	return d
}

// threadNsPerOp is load-thread time per operation: every thread is
// busy for the whole measured time.
func (p *pass) threadNsPerOp() float64 {
	return float64(p.elapsed.Nanoseconds()) * float64(p.threads) / float64(p.rec.ops)
}

// roundSeed derives the seed of one round's boot, so a run averages
// over several seed-driven systems while the same run seed still gives
// the same inputs.
func roundSeed(seed uint64, round int) uint64 { return seed<<8 | uint64(round) }

// runEndToEnd measures e2eRounds fresh boots, each for an equal share of
// the run length. setup_s is the median boot time over every boot,
// including setupRuns boots before each round made only to be timed, so
// that the boots sample the host at the same points of the run as the
// load does. heap_mb is the live heap with the last round's system still
// booted.
func runEndToEnd(cfg config, w workload, d time.Duration, rep *report) (*result, error) {
	var setups []float64
	boot := func(seed uint64) (rig, error) {
		runtime.GC()
		start := time.Now()
		r, err := w.boot(core.Enforce, seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		return r, nil
	}
	p := newPass(w.threads, false)
	var r rig
	for i := 0; i < e2eRounds; i++ {
		if r != nil {
			r.close()
		}
		for j := 0; j < setupRuns; j++ {
			r, err := boot(roundSeed(cfg.seed, i))
			if err != nil {
				return nil, err
			}
			r.close()
		}
		var err error
		if r, err = boot(roundSeed(cfg.seed, i)); err != nil {
			return nil, err
		}
		if err := p.round(r, d/e2eRounds); err != nil {
			r.close()
			return nil, err
		}
	}
	defer r.close()
	if err := p.finish(); err != nil {
		return nil, err
	}
	res := &result{
		Attempted: p.attempted(),
		Failed:    p.failed(),
		Metrics:   endToEnd(p, median(setups)),
	}
	rep.Samples = map[string]int64{}
	for k, name := range kindNames {
		rep.Samples[name] = p.rec.lat[k].samples()
	}

	p = nil
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.Metrics["heap_mb"] = metric{float64(ms.HeapAlloc) / 1e6, "MB"}
	return res, nil
}

// endToEnd derives the end-to-end metrics of an untraced pass, each
// over the whole measured time of every round, so a collector that runs
// more often or a stall that recurs moves them. A latency quantile is
// taken per load thread and averaged over the threads: fs-hot's threads
// work on mounts whose writes are ~15 µs and ~35 µs, so over both
// threads' samples the median write sits in the gap between the two and
// swings with whichever thread happened to run more operations. The
// tail is p95, not p99: on a two-CPU machine about 1% of operations wait
// out the Go collector's worker or another tenant for a millisecond or
// more, and whether that share lands just above or just below 1% swings
// p99 by several times from run to run.
func endToEnd(p *pass, setup float64) map[string]metric {
	secs := p.elapsed.Seconds()
	m := map[string]metric{
		"ops_per_s":    {float64(p.rec.ops) / secs, "1/s"},
		"goodput_mb_s": {float64(p.rec.bytes) / secs / 1e6, "MB/s"},
		"setup_s":      {setup, "s"},
	}
	quantile := func(k latKind, q float64) float64 {
		sum, n := 0.0, 0
		for _, r := range p.byThread {
			if r.lat[k].samples() > 0 {
				sum += r.lat[k].quantile(q)
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	for k, name := range kindNames {
		m[name+"_p50_us"] = metric{quantile(latKind(k), 0.50), "us"}
		m[name+"_p95_us"] = metric{quantile(latKind(k), 0.95), "us"}
	}
	return m
}

// tracedRounds is how many times a traced run cycles through its three
// kinds of pass; interleaving them keeps drift over the run out of the
// differences between them.
const tracedRounds = 3

// runTraced splits the run length over three kinds of pass, each round
// on a fresh boot: enforced untraced (counters, Go runtime, the
// overhead baseline), enforced traced (spans) and stock untraced
// (substrate time).
func runTraced(cfg config, w workload, d time.Duration, rep *report) (*result, error) {
	slice := d / (3 * tracedRounds)
	untraced, traced, stock := newPass(w.threads, false), newPass(w.threads, true), newPass(w.threads, false)
	kinds := []struct {
		p    *pass
		mode core.Mode
	}{{untraced, core.Enforce}, {traced, core.Enforce}, {stock, core.Off}}
	for i := 0; i < tracedRounds; i++ {
		for _, k := range kinds {
			r, err := w.boot(k.mode, roundSeed(cfg.seed, i))
			if err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			err = k.p.round(r, slice)
			r.close()
			if err != nil {
				return nil, err
			}
		}
	}
	res := &result{}
	for _, k := range kinds {
		if err := k.p.finish(); err != nil {
			return nil, err
		}
		res.Attempted += k.p.attempted()
		res.Failed += k.p.failed()
	}
	res.Metrics = perLayer(untraced, traced, stock, w.net)

	if cfg.outDir != "" {
		rep.Spans = filepath.Join(cfg.outDir, "spans-"+w.name+".csv")
		if err := writeSpans(rep.Spans, traced.tracers); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	rep.Samples = map[string]int64{}
	for _, t := range traced.tracers {
		rep.Samples["spans_kept"] += int64(len(t.spans))
	}
	return res, nil
}

// hostFacts records where the numbers were measured.
func hostFacts(commit string) host {
	return host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
