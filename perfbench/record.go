package main

import (
	"bufio"
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"
	"time"
)

// latKind classifies a latency sample. Every operation records an op
// sample; it also records a read sample (the receiving or reading
// direction) or a write sample (the sending or mutating direction).
type latKind int

const (
	kOp latKind = iota
	kRead
	kWrite
	nKinds
)

var kindNames = [nKinds]string{"op", "read", "write"}

// recorder collects one load thread's outcomes for one pass.
type recorder struct {
	ops    int64 // operations attempted
	failed int64 // operations that failed or returned wrong data
	bytes  int64 // payload bytes moved by the operations
	lat    [nKinds]hist

	// Batch-path counts (net-stream only).
	drains, drained int64
	backlogMax      int

	tr *tracer // nil when the pass is untraced
}

// sample records one latency sample of the given kind.
func (r *recorder) sample(k latKind, d time.Duration, ok bool) {
	if ok {
		r.lat[k].add(int64(d))
	} else {
		r.lat[k].failed++
	}
}

// finish closes one operation that started at start: it counts the
// operation and records its latency as an op sample.
func (r *recorder) finish(start time.Time, ok bool) time.Duration {
	d := time.Since(start)
	r.ops++
	if !ok {
		r.failed++
	}
	r.sample(kOp, d, ok)
	return d
}

// merge folds the recorders of all load threads into one.
func merge(recs []*recorder) *recorder {
	out := &recorder{}
	for _, r := range recs {
		out.ops += r.ops
		out.failed += r.failed
		out.bytes += r.bytes
		out.drains += r.drains
		out.drained += r.drained
		if r.backlogMax > out.backlogMax {
			out.backlogMax = r.backlogMax
		}
		for k := range r.lat {
			out.lat[k].addAll(&r.lat[k])
		}
	}
	return out
}

// hist is a log-linear latency histogram in ns: exact below 2^histSub,
// then 2^(histSub-1) buckets per power of two (under 1% error). Its
// size is fixed, so recording never allocates and never grows the heap
// the system under test shares.
type hist struct {
	n      [histBuckets]int64
	count  int64
	failed int64 // failed operations: slower than any sample
}

const (
	histSub     = 7
	histBuckets = (64 - histSub + 1) << (histSub - 1)
)

// failLatency is the latency a failed operation reads as, in ns: it
// misses every latency limit.
const failLatency = math.MaxInt64

func bucketOf(v int64) int {
	if v < 1<<histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSub
	return shift<<(histSub-1) + int(v>>shift)
}

// bucketMid is the midpoint of bucket i's value range.
func bucketMid(i int) int64 {
	if i < 1<<histSub {
		return int64(i)
	}
	shift := i>>(histSub-1) - 1
	m := int64(i - shift<<(histSub-1))
	return m<<shift + (int64(1)<<shift)/2
}

func (h *hist) add(v int64) {
	h.n[bucketOf(v)]++
	h.count++
}

func (h *hist) addAll(o *hist) {
	for i, c := range o.n {
		h.n[i] += c
	}
	h.count += o.count
	h.failed += o.failed
}

// samples is how many operations the histogram covers.
func (h *hist) samples() int64 { return h.count + h.failed }

// quantile returns the q-quantile (nearest rank) in µs; a rank that
// falls among the failed operations reads as failLatency.
func (h *hist) quantile(q float64) float64 {
	total := h.samples()
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	if rank <= h.count {
		var seen int64
		for i, c := range h.n {
			if seen += c; seen >= rank {
				return float64(bucketMid(i)) / 1e3
			}
		}
	}
	return float64(failLatency) / 1e3
}

// median returns the median of xs (xs is sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// spanName names a traced call. Spans sit at the boundary between the
// benchmark and one layer of the system; "op" is the enclosing span of
// one request.
type spanName uint8

const (
	spanOp spanName = iota
	spanAllocSkb
	spanXmit
	spanEnqueue
	spanDrain
	spanPoll
	spanPopRx
	spanFreeSkb
	spanCreate
	spanWrite
	spanSync
	spanRead
	spanStat
	spanUnlink
	nSpans
)

var spanNames = [nSpans]string{
	"op",
	"netstack.alloc_skb", "netstack.xmit", "netstack.enqueue", "netstack.drain",
	"netstack.poll", "netstack.pop_rx", "netstack.free_skb",
	"vfs.create", "vfs.write", "vfs.sync", "vfs.read", "vfs.stat", "vfs.unlink",
}

// span is one recorded interval: times are ns since the tracer's base,
// parent indexes the enclosing span (-1 for a root or an enclosing span
// that did not fit in the buffer), req identifies the request.
type span struct {
	start, end int64
	req        int64
	parent     int32
	name       spanName
}

type openSpan struct {
	idx   int32
	name  spanName
	start int64
	child int64 // time covered by direct children
}

// spanTotals aggregates every span of one name, including those that
// did not fit in the buffer.
type spanTotals struct {
	n, dur, self int64
}

// tracer records one thread's spans in memory. Self time is computed as
// spans close: a span's duration minus the time its direct children
// cover. All methods are no-ops on a nil tracer, which is how untraced
// passes run.
type tracer struct {
	base   time.Time
	spans  []span // bounded: the first cap(spans) spans are kept for writing out
	stack  []openSpan
	totals [nSpans]spanTotals
}

// maxSpansPerThread bounds the spans kept for writing out (and so the
// heap the traced pass adds); totals cover every span regardless.
const maxSpansPerThread = 1 << 13

func newTracer(base time.Time) *tracer {
	return &tracer{base: base, spans: make([]span, 0, maxSpansPerThread), stack: make([]openSpan, 0, 4)}
}

func (t *tracer) begin(name spanName, req int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.base))
	idx, parent := int32(-1), int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].idx
	}
	if len(t.spans) < cap(t.spans) {
		idx = int32(len(t.spans))
		t.spans = append(t.spans, span{start: now, req: req, parent: parent, name: name})
	}
	t.stack = append(t.stack, openSpan{idx: idx, name: name, start: now})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	now := int64(time.Since(t.base))
	o := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	dur := now - o.start
	tot := &t.totals[o.name]
	tot.n++
	tot.dur += dur
	tot.self += dur - o.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += dur
	}
	if o.idx >= 0 {
		t.spans[o.idx].end = now
	}
}

// mergeTotals sums the span totals of several tracers.
func mergeTotals(trs []*tracer) [nSpans]spanTotals {
	var out [nSpans]spanTotals
	for _, t := range trs {
		for i, x := range t.totals {
			out[i].n += x.n
			out[i].dur += x.dur
			out[i].self += x.self
		}
	}
	return out
}

// writeSpans writes every kept span as CSV: thread, index, name,
// start and end (ns since the pass began), parent index and request id.
func writeSpans(path string, trs []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "thread,index,name,start_ns,end_ns,parent,request")
	for th, t := range trs {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d,%d\n", th, i, spanNames[s.name], s.start, s.end, s.parent, s.req)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
