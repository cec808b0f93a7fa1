package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"time"

	"lxfi/internal/core"
	"lxfi/internal/mem"
	"lxfi/internal/netperf"
)

// payloadPool is how many distinct payloads a load thread draws from;
// the seed fills them and picks among them per operation.
const payloadPool = 64

// payloads draws n seed-determined byte strings of the given size.
func payloads(rng *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		for j := 0; j < size; j += 8 {
			var w [8]byte
			binary.LittleEndian.PutUint64(w[:], rng.Uint64())
			copy(out[i][j:], w[:])
		}
	}
	return out
}

// netRig is the e1000 bench shared by both network workloads.
type netRig struct{ *netperf.Rig }

func (r netRig) system() *core.System { return r.K.Sys }
func (r netRig) counters() substrate  { return substrate{txDenied: r.Stack.TxDenied()} }
func (r netRig) close()               { r.K.Shutdown() }

// pollAll runs NAPI poll rounds until the NIC's RX queue is empty; a
// poll error or a round that delivers nothing while frames wait fails.
func (r netRig) pollAll(th *core.Thread, budget uint64, rec *recorder, req int64) bool {
	for r.Drv.Nic.RxPending() > 0 {
		rec.tr.begin(spanPoll, req)
		n, err := r.Stack.Poll(th, r.Drv.Dev, budget)
		rec.tr.end()
		if err != nil || n == 0 {
			return false
		}
	}
	if rec.tr != nil {
		if n := r.Stack.BacklogLen(); n > rec.backlogMax {
			rec.backlogMax = n
		}
	}
	return true
}

// popRx takes the oldest received skb off the protocol backlog (0 when
// it is empty).
func (r netRig) popRx(rec *recorder, req int64) mem.Addr {
	rec.tr.begin(spanPopRx, req)
	defer rec.tr.end()
	return r.Stack.PopRx()
}

func (r netRig) freeSkb(skb mem.Addr, rec *recorder, req int64) {
	rec.tr.begin(spanFreeSkb, req)
	r.Stack.FreeSkb(skb)
	rec.tr.end()
}

// fillSkb allocates an skb and copies payload into its data buffer.
func (r netRig) fillSkb(payload []byte, rec *recorder, req int64) (mem.Addr, error) {
	st, as := r.Stack, r.K.Sys.AS
	rec.tr.begin(spanAllocSkb, req)
	skb, err := st.AllocSkb(uint64(len(payload)))
	rec.tr.end()
	if err != nil {
		return 0, err
	}
	data, err := as.ReadU64(st.SkbField(skb, "head"))
	if err == nil {
		err = as.Write(mem.Addr(data), payload)
	}
	if err == nil {
		err = as.WriteU64(st.SkbField(skb, "len"), uint64(len(payload)))
	}
	if err != nil {
		st.FreeSkb(skb)
		return 0, err
	}
	return skb, nil
}

// readSkb copies a received skb's frame into buf and returns it.
func (r netRig) readSkb(skb mem.Addr, buf []byte) ([]byte, bool) {
	st, as := r.Stack, r.K.Sys.AS
	n, err := as.ReadU64(st.SkbField(skb, "len"))
	if err != nil || n > uint64(len(buf)) {
		return nil, false
	}
	data, err := as.ReadU64(st.SkbField(skb, "head"))
	if err != nil {
		return nil, false
	}
	if err := as.Read(mem.Addr(data), buf[:n]); err != nil {
		return nil, false
	}
	return buf[:n], true
}

// --- net-rr ---

// net-rr is one thread of 64-byte UDP request/response over the
// per-packet path. A wire peer on the NIC's TX side answers each
// request with one 110-byte reply: the request echoed, then the
// complement of its sequence number.
const (
	rrPayload    = netperf.UDPPayload
	rrReply      = netperf.UDPFrame
	rrPollBudget = 8
)

type rrRig struct {
	netRig
	pool    [][]byte
	req     []byte // request in flight
	buf     []byte // reply read-back scratch
	wire    []byte // reply frame the peer injects
	rng     *rand.Rand
	seq     uint64
	peerBad int64 // frames the peer saw that were not a request
}

func bootRR(mode core.Mode, seed uint64) (rig, error) {
	nr, err := netperf.NewRig(mode)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	r := &rrRig{
		netRig: netRig{nr},
		pool:   payloads(rng, payloadPool, rrPayload),
		req:    make([]byte, rrPayload),
		buf:    make([]byte, rrReply),
		wire:   make([]byte, rrReply),
		rng:    rng,
	}
	r.Drv.Nic.OnTx = r.peer
	return r, nil
}

func (r *rrRig) peer(frame []byte) {
	if len(frame) != rrPayload {
		r.peerBad++
		return
	}
	copy(r.wire, frame)
	binary.LittleEndian.PutUint64(r.wire[rrPayload:], ^binary.LittleEndian.Uint64(frame))
	r.Drv.Nic.InjectRx(r.wire)
}

func (r *rrRig) drive(stop time.Time, recs []*recorder) error {
	rec := recs[0]
	bad := r.peerBad
	for time.Now().Before(stop) {
		r.roundTrip(rec)
	}
	rec.failed += r.peerBad - bad
	return nil
}

// roundTrip sends one request and reads the replies: exactly one must
// arrive, echoing the request.
func (r *rrRig) roundTrip(rec *recorder) {
	r.seq++
	req := int64(r.seq)
	copy(r.req, r.pool[r.rng.IntN(payloadPool)])
	binary.LittleEndian.PutUint64(r.req, r.seq)

	rec.tr.begin(spanOp, req)
	start := time.Now()
	ok := r.send(rec, req)
	sent := time.Now()
	rec.sample(kWrite, sent.Sub(start), ok)

	ok = r.pollAll(r.Th, rrPollBudget, rec, req) && ok
	replies := 0
	for skb := r.popRx(rec, req); skb != 0; skb = r.popRx(rec, req) {
		replies++
		ok = r.checkReply(skb) && ok
		r.freeSkb(skb, rec, req)
	}
	ok = ok && replies == 1
	if ok {
		rec.bytes += 2 * rrPayload
	}
	rec.sample(kRead, time.Since(sent), ok)
	rec.finish(start, ok)
	rec.tr.end()
}

func (r *rrRig) send(rec *recorder, req int64) bool {
	skb, err := r.fillSkb(r.req, rec, req)
	if err != nil {
		return false
	}
	rec.tr.begin(spanXmit, req)
	ret, err := r.Stack.XmitSkb(r.Th, r.Drv.Dev, skb)
	rec.tr.end()
	return err == nil && ret == 0
}

func (r *rrRig) checkReply(skb mem.Addr) bool {
	frame, ok := r.readSkb(skb, r.buf)
	return ok && len(frame) == rrReply &&
		bytes.Equal(frame[:rrPayload], r.req) &&
		binary.LittleEndian.Uint64(frame[rrPayload:]) == ^r.seq
}

// --- net-stream ---

// net-stream is one thread of windowed TCP-like bulk transfer over the
// batch path: segments queue with EnqueueTx and leave through DrainTx
// crossings of up to streamBudget skbs; the peer checks every segment
// for order and content and returns one cumulative ack per
// streamAckEvery segments, which come back through batched NAPI poll.
const (
	streamHeader   = 8 // sequence number
	streamPayload  = netperf.TCPPayload
	streamSeg      = netperf.StreamSegBytes
	streamWindow   = netperf.StreamWindow
	streamBudget   = netperf.StreamBatchBudget
	streamAckEvery = netperf.StreamAckEvery

	// streamStallRounds is how many rounds in a row may pass without
	// sending or acking a segment before the stream counts as stalled.
	streamStallRounds = 1000
)

type streamRig struct {
	netRig
	seed   uint64
	pool   [][]byte
	seg    []byte // segment being built
	ackBuf []byte
	ack    []byte // ack frame the peer injects

	next, acked uint64 // next sequence number to send; cumulative ack
	queued      int    // segments enqueued but not drained
	sentAt      [streamWindow]time.Time
	round       int64

	// Peer state.
	expected uint64
	peerBad  int64 // segments out of order or with wrong payload
}

func bootStream(mode core.Mode, seed uint64) (rig, error) {
	nr, err := netperf.NewRig(mode)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 2))
	s := &streamRig{
		netRig: netRig{nr},
		seed:   seed,
		pool:   payloads(rng, payloadPool, streamPayload),
		seg:    make([]byte, streamSeg),
		ackBuf: make([]byte, 64),
		ack:    make([]byte, 8),
	}
	s.Drv.Nic.SetBatchRx(true)
	s.Drv.Nic.OnTx = s.peer
	return s, nil
}

// payloadFor is the payload of segment seq: a seed-keyed pick from the
// pool that sender and peer compute independently.
func (s *streamRig) payloadFor(seq uint64) []byte {
	x := (seq ^ s.seed) * 0x9e3779b97f4a7c15
	return s.pool[(x>>32)%payloadPool]
}

func (s *streamRig) peer(frame []byte) {
	if len(frame) != streamSeg {
		s.peerBad++
		return
	}
	seq := binary.LittleEndian.Uint64(frame)
	if seq != s.expected || !bytes.Equal(frame[streamHeader:], s.payloadFor(seq)) {
		s.peerBad++
	}
	if seq >= s.expected {
		s.expected = seq + 1
	}
	if s.expected%streamAckEvery == 0 {
		binary.LittleEndian.PutUint64(s.ack, s.expected)
		s.Drv.Nic.InjectRx(s.ack)
	}
}

// drive streams until stop, then finishes the segments in flight:
// sending stops at an ack boundary and every sent segment must be acked
// before drive returns.
func (s *streamRig) drive(stop time.Time, recs []*recorder) error {
	rec := recs[0]
	bad := s.peerBad
	defer func() { rec.failed += s.peerBad - bad }()
	idle := 0
	for {
		stopping := !time.Now().Before(stop)
		if stopping && s.next == s.acked && s.next%streamAckEvery == 0 {
			return nil
		}
		s.round++
		rec.tr.begin(spanOp, s.round)
		before := s.next + s.acked
		for s.next-s.acked < streamWindow && !(stopping && s.next%streamAckEvery == 0) {
			if err := s.send(rec); err != nil {
				rec.tr.end()
				return err
			}
			if s.queued >= streamBudget {
				s.drain(rec)
			}
		}
		s.drain(rec)
		s.takeAcks(rec)
		rec.tr.end()
		if s.next+s.acked == before {
			if idle++; idle > streamStallRounds {
				return fmt.Errorf("net-stream: stalled with %d segments unacked", s.next-s.acked)
			}
		} else {
			idle = 0
		}
	}
}

// send builds the next segment and enqueues it on the qdisc.
func (s *streamRig) send(rec *recorder) error {
	seq := s.next
	binary.LittleEndian.PutUint64(s.seg, seq)
	copy(s.seg[streamHeader:], s.payloadFor(seq))
	skb, err := s.fillSkb(s.seg, rec, s.round)
	if err != nil {
		return fmt.Errorf("net-stream: segment %d: %w", seq, err)
	}
	rec.tr.begin(spanEnqueue, s.round)
	err = s.Stack.EnqueueTx(s.Th, s.Drv.Dev, skb, nil)
	rec.tr.end()
	s.sentAt[seq%streamWindow] = time.Now()
	s.next++
	rec.ops++
	if err != nil {
		// The segment never reaches the wire; the peer sees the gap.
		s.Stack.FreeSkb(skb)
		rec.failed++
		return nil
	}
	s.queued++
	return nil
}

// drain hands the queued segments to the driver, streamBudget per
// batch crossing.
func (s *streamRig) drain(rec *recorder) {
	for s.queued > 0 {
		rec.tr.begin(spanDrain, s.round)
		start := time.Now()
		n, denied, err := s.Stack.DrainTx(s.Th, s.Drv.Dev, streamBudget)
		ok := err == nil && n > 0 && denied == 0
		rec.sample(kWrite, time.Since(start), ok)
		rec.tr.end()
		rec.drains++
		rec.drained += int64(n)
		s.queued -= n + denied
		if !ok {
			rec.failed += int64(denied)
			if err != nil || n+denied == 0 {
				return // the stall check in drive catches a stuck queue
			}
		}
	}
}

// takeAcks polls the acks in and advances the cumulative ack; every
// newly acked segment records its round-trip time as an op sample.
func (s *streamRig) takeAcks(rec *recorder) {
	start := time.Now()
	ok := s.pollAll(s.Th, streamBudget, rec, s.round)
	for skb := s.popRx(rec, s.round); skb != 0; skb = s.popRx(rec, s.round) {
		frame, good := s.readSkb(skb, s.ackBuf)
		s.freeSkb(skb, rec, s.round)
		if !good || len(frame) != 8 {
			ok = false
			continue
		}
		cum := binary.LittleEndian.Uint64(frame)
		if cum > s.next {
			ok = false
			continue
		}
		now := time.Now()
		for ; s.acked < cum; s.acked++ {
			rec.sample(kOp, now.Sub(s.sentAt[s.acked%streamWindow]), true)
			rec.bytes += streamPayload
		}
	}
	rec.sample(kRead, time.Since(start), ok)
	if !ok {
		rec.failed++
	}
}
