package netperf

import (
	"encoding/binary"
	"testing"

	"lxfi/internal/caps"
	"lxfi/internal/core"
	"lxfi/internal/mem"
)

// TestStreamingTransfer runs a small windowed transfer on both builds
// and both data paths; runStream itself asserts complete, in-order
// delivery.
func TestStreamingTransfer(t *testing.T) {
	const segments = 64
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		rig, err := NewRig(mode)
		if err != nil {
			t.Fatalf("[%v] %v", mode, err)
		}
		peer := attachPeer(rig)
		for _, batch := range []bool{false, true} {
			if _, err := runStream(rig, peer, segments, batch); err != nil {
				t.Fatalf("[%v] batch=%v: %v", mode, batch, err)
			}
		}
		if mode == core.Enforce {
			if v := rig.K.Sys.Mon.LastViolation(); v != nil {
				t.Fatalf("violation: %v", v)
			}
		}
		rig.K.Shutdown()
	}
}

// TestStreamingCrossingsReduction pins the batching economics: at batch
// budget StreamBatchBudget the batched path must cross the module
// boundary StreamMinCrossingsReduction times less often per byte than
// the per-packet path.
func TestStreamingCrossingsReduction(t *testing.T) {
	const segments = 128
	rig, err := NewRig(core.Enforce)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.K.Shutdown()
	peer := attachPeer(rig)

	measure := func(batch bool) float64 {
		before := rig.K.Sys.Mon.Stats.Snapshot()
		if _, err := runStream(rig, peer, segments, batch); err != nil {
			t.Fatalf("batch=%v: %v", batch, err)
		}
		d := rig.K.Sys.Mon.Stats.Snapshot().Sub(before)
		return float64(d.FuncEntries)
	}
	perPkt := measure(false)
	batched := measure(true)
	if batched == 0 {
		t.Fatal("batched run crossed the boundary zero times")
	}
	if reduction := perPkt / batched; reduction < StreamMinCrossingsReduction {
		t.Fatalf("crossings reduction = %.2fx (perpkt %.0f, batch %.0f), want >= %dx",
			reduction, perPkt, batched, StreamMinCrossingsReduction)
	}
}

// TestStreamingAcrossReload hot-reloads the driver during a batched
// transfer; the stream must come through complete and in order under
// both builds.
func TestStreamingAcrossReload(t *testing.T) {
	for _, mode := range []core.Mode{core.Off, core.Enforce} {
		dropped, reordered, err := streamAcrossReload(mode, 256)
		if err != nil {
			t.Fatalf("[%v] %v", mode, err)
		}
		if dropped != 0 || reordered != 0 {
			t.Fatalf("[%v] dropped=%d reordered=%d across reload", mode, dropped, reordered)
		}
	}
}

// TestBatchRevocationMidBatch is the revocation-soundness pin for the
// batched TX crossing: a principal's skb capabilities are revoked
// between batch enqueue and batch drain — with the per-thread check
// cache deliberately warmed on every element first — and the drain must
// deny exactly the revoked skbs. A stale cached verdict surviving the
// revocation epoch bump would let a dead capability reach the module.
func TestBatchRevocationMidBatch(t *testing.T) {
	const batch = 8
	rig, err := NewRig(core.Enforce)
	if err != nil {
		t.Fatal(err)
	}
	defer rig.K.Shutdown()
	st, sys := rig.Stack, rig.K.Sys
	owner := rig.Drv.M.Set.Instance(rig.Drv.Dev)

	var skbs [batch]mem.Addr
	var wire []uint64
	rig.Drv.Nic.OnTx = func(frame []byte) {
		wire = append(wire, binary.LittleEndian.Uint64(frame[:8]))
	}
	for i := 0; i < batch; i++ {
		skb, err := st.AllocSkb(64)
		if err != nil {
			t.Fatal(err)
		}
		skbs[i] = skb
		data, _ := sys.AS.ReadU64(st.SkbField(skb, "head"))
		if err := sys.AS.WriteU64(mem.Addr(data), uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := sys.AS.WriteU64(st.SkbField(skb, "len"), 64); err != nil {
			t.Fatal(err)
		}
		sys.Caps.Grant(owner, caps.WriteCap(skb, st.SkbSize()))
		if err := st.EnqueueTx(rig.Th, rig.Drv.Dev, skb, owner); err != nil {
			t.Fatal(err)
		}
		// Warm the per-thread cache with an allow verdict for every
		// element — the stale state a revocation must invalidate.
		if !rig.Th.CheckCached(owner, caps.WriteCap(skb, st.SkbSize())) {
			t.Fatalf("skb %d: owner check failed before revocation", i)
		}
	}

	// Revoke two elements' capabilities between enqueue and drain.
	revoked := map[uint64]bool{2: true, 5: true}
	for seq := range revoked {
		sys.Caps.Revoke(owner, caps.WriteCap(skbs[seq], st.SkbSize()))
	}

	consumed, denied, err := st.DrainTx(rig.Th, rig.Drv.Dev, batch)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != batch-len(revoked) || denied != len(revoked) {
		t.Fatalf("consumed=%d denied=%d, want %d/%d", consumed, denied, batch-len(revoked), len(revoked))
	}
	if st.TxDenied() != uint64(len(revoked)) {
		t.Fatalf("TxDenied = %d", st.TxDenied())
	}
	if len(wire) != batch-len(revoked) {
		t.Fatalf("wire got %d frames, want %d", len(wire), batch-len(revoked))
	}
	for _, seq := range wire {
		if revoked[seq] {
			t.Fatalf("revoked skb %d reached the wire", seq)
		}
	}
	if st.QueuedTx(rig.Drv.Dev) != 0 {
		t.Fatalf("qdisc not drained: %d left", st.QueuedTx(rig.Drv.Dev))
	}
}
