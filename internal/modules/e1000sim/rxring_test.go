package e1000sim

import (
	"encoding/binary"
	"testing"
)

func seqFrame(i int) []byte {
	var f [4]byte
	binary.LittleEndian.PutUint32(f[:], uint32(i))
	return f[:]
}

func seqOf(f []byte) int { return int(binary.LittleEndian.Uint32(f)) }

// TestRxQueueDrainsBurstInOrder: a 10 000-frame burst drains one frame
// at a time while later frames keep arriving, then again in batches
// with most of each batch requeued at the head, and no frame is lost,
// duplicated or reordered.
func TestRxQueueDrainsBurstInOrder(t *testing.T) {
	const burst = 10000
	n := &Nic{}
	sent := 0
	for ; sent < burst; sent++ {
		n.InjectRx(seqFrame(sent))
	}
	for next := 0; next < sent; next++ {
		got := n.takeRx(1)
		if len(got) != 1 || seqOf(got[0]) != next {
			t.Fatalf("take %d: got %v", next, got)
		}
		if next%100 == 0 && sent < burst+50 {
			n.InjectRx(seqFrame(sent))
			sent++
		}
	}
	if got := n.takeRx(1); got != nil {
		t.Fatalf("drained queue returned %v", got)
	}

	for sent = 0; sent < burst; sent++ {
		n.InjectRx(seqFrame(sent))
	}
	for next := 0; next < burst; {
		batch := n.takeRx(RxBatchEntries)
		keep := (len(batch) + 2) / 3 // the rest got no skb
		for _, f := range batch[:keep] {
			if seqOf(f) != next {
				t.Fatalf("batched frame %d: got %d", next, seqOf(f))
			}
			next++
		}
		n.requeueFront(batch[keep:])
	}
	if p := n.RxPending(); p != 0 {
		t.Fatalf("%d frames left", p)
	}
}
