package cluster

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"mmconf/internal/proto"
	"mmconf/internal/room"
)

// The standby tail (replica.apply) in isolation: merge-by-sequence,
// forward-only watermarks, the replicaBuffer cap, and an allocation-free
// steady state.

// refReplica is the straightforward tail the sliding window must agree
// with: append what is new, then cut the prefix at or below the trim
// watermark and everything beyond the newest replicaBuffer events.
type refReplica struct {
	events       []room.Event
	seq, trimmed uint64
}

func (r *refReplica) apply(req *proto.ReplicateReq) {
	var last uint64
	if len(r.events) > 0 {
		last = r.events[len(r.events)-1].Seq
	}
	for _, ev := range req.Events {
		if ev.Seq > last {
			r.events = append(r.events, ev)
			last = ev.Seq
		}
	}
	r.seq = max(r.seq, req.Seq)
	r.trimmed = max(r.trimmed, req.Trimmed)
	drop := 0
	for drop < len(r.events) && r.events[drop].Seq <= r.trimmed {
		drop++
	}
	drop += max(len(r.events)-drop-replicaBuffer, 0)
	if drop > 0 {
		r.trimmed = max(r.trimmed, r.events[drop-1].Seq)
		r.events = append([]room.Event(nil), r.events[drop:]...)
	}
}

func chatEvent(seq uint64) room.Event {
	return room.Event{Seq: seq, Room: "r", Actor: "a", Kind: room.EvChat, Text: fmt.Sprintf("m%d", seq)}
}

// ownerLog is a synthetic owner: a growing log with event-free seq
// advances mixed in and a change buffer trimmed like a room's.
type ownerLog struct {
	events       []room.Event
	seq, trimmed uint64
}

func (o *ownerLog) advance(rng *rand.Rand) (ev *room.Event) {
	o.seq++
	if rng.Intn(8) == 0 {
		return nil // an event-free seq advance
	}
	o.events = append(o.events, chatEvent(o.seq))
	if len(o.events) > replicaBuffer {
		o.trimmed = o.events[0].Seq
		o.events = o.events[1:]
	}
	return &o.events[len(o.events)-1]
}

func (o *ownerLog) snapshot() *proto.ReplicateReq {
	return &proto.ReplicateReq{Room: "r", Seq: o.seq, Trimmed: o.trimmed, Events: append([]room.Event(nil), o.events...)}
}

func tailSeqs(evs []room.Event) []uint64 {
	out := make([]uint64, len(evs))
	for i, ev := range evs {
		out[i] = ev.Seq
	}
	return out
}

// TestReplicaApplyMatchesReference drives the sliding-window tail and
// the reference tail with the same seeded stream — incremental batches,
// overlapping snapshot retransmits, stale duplicates and watermark
// regressions — and checks they agree after every request, alongside
// the tail's own invariants.
func TestReplicaApplyMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var (
			own  ownerLog
			got  replica
			want refReplica
			sent []*proto.ReplicateReq
		)
		for step := 0; step < 1500; step++ {
			var req *proto.ReplicateReq
			switch k := rng.Intn(20); {
			case k == 0:
				req = own.snapshot()
			case k == 1 && len(sent) > 0:
				// A stale, already-applied batch arrives again.
				req = sent[rng.Intn(len(sent))]
			default:
				req = &proto.ReplicateReq{Room: "r"}
				for n := rng.Intn(12); n >= 0; n-- {
					if ev := own.advance(rng); ev != nil {
						req.Events = append(req.Events, *ev)
					}
				}
				req.Seq, req.Trimmed = own.seq, own.trimmed
				if rng.Intn(10) == 0 {
					req.Trimmed = own.seq - uint64(rng.Intn(int(own.seq)+1)) // jump the floor
				}
				sent = append(sent, req)
			}
			prevSeq, prevTrimmed := got.seq, got.trimmed
			got.apply(req)
			want.apply(req)

			tail := got.events()
			if !slices.Equal(tailSeqs(tail), tailSeqs(want.events)) {
				t.Fatalf("seed %d step %d: tail %v, want %v", seed, step, tailSeqs(tail), tailSeqs(want.events))
			}
			if got.seq != want.seq || got.trimmed != want.trimmed {
				t.Fatalf("seed %d step %d: seq/trimmed %d/%d, want %d/%d", seed, step, got.seq, got.trimmed, want.seq, want.trimmed)
			}
			if got.seq < prevSeq || got.trimmed < prevTrimmed {
				t.Fatalf("seed %d step %d: watermark moved back: seq %d->%d trimmed %d->%d", seed, step, prevSeq, got.seq, prevTrimmed, got.trimmed)
			}
			if len(tail) > replicaBuffer {
				t.Fatalf("seed %d step %d: tail holds %d events, cap %d", seed, step, len(tail), replicaBuffer)
			}
			if cap(got.buf) > 2*replicaBuffer {
				t.Fatalf("seed %d step %d: backing array grew to %d", seed, step, cap(got.buf))
			}
			for i, ev := range tail {
				if ev.Seq <= got.trimmed || (i > 0 && ev.Seq <= tail[i-1].Seq) {
					t.Fatalf("seed %d step %d: tail not strictly ascending above trimmed %d: %v", seed, step, got.trimmed, tailSeqs(tail))
				}
				if ev.Text != want.events[i].Text {
					t.Fatalf("seed %d step %d: event %d carries %q", seed, step, ev.Seq, ev.Text)
				}
			}
		}
	}
}

// TestReplicaSnapshotOverlapMerges: a snapshot retransmit that overlaps
// incremental batches adds only what the tail lacks.
func TestReplicaSnapshotOverlapMerges(t *testing.T) {
	var r replica
	batch := func(from, to uint64) *proto.ReplicateReq {
		req := &proto.ReplicateReq{Room: "r", Seq: to}
		for s := from; s <= to; s++ {
			req.Events = append(req.Events, chatEvent(s))
		}
		return req
	}
	r.apply(batch(1, 10))
	r.apply(batch(11, 12))
	r.apply(batch(1, 15)) // snapshot: overlaps both batches
	r.apply(batch(14, 16))
	if got := fmt.Sprint(tailSeqs(r.events())); got != fmt.Sprint(tailSeqs(batch(1, 16).Events)) {
		t.Fatalf("merged tail %s, want 1..16 once each", got)
	}
	// The watermarks never move back, even for a stale, lower request.
	r.apply(&proto.ReplicateReq{Room: "r", Seq: 5, Trimmed: 3})
	r.apply(&proto.ReplicateReq{Room: "r", Seq: 2, Trimmed: 1})
	if r.seq != 16 || r.trimmed != 3 {
		t.Fatalf("seq/trimmed %d/%d after stale requests, want 16/3", r.seq, r.trimmed)
	}
	if first := r.events()[0].Seq; first != 4 {
		t.Fatalf("tail starts at %d after trim to 3, want 4", first)
	}
}

// TestReplicaCapRaisesTrimmed: overflowing the cap drops the oldest
// events and raises trimmed to the last one dropped.
func TestReplicaCapRaisesTrimmed(t *testing.T) {
	var r replica
	req := &proto.ReplicateReq{Room: "r"}
	total := uint64(3*replicaBuffer + 7)
	for s := uint64(1); s <= total; s++ {
		req.Events = append(req.Events[:0], chatEvent(s))
		req.Seq = s
		r.apply(req)
	}
	tail := r.events()
	if len(tail) != replicaBuffer {
		t.Fatalf("tail holds %d events, want %d", len(tail), replicaBuffer)
	}
	if want := total - replicaBuffer; r.trimmed != want || tail[0].Seq != want+1 {
		t.Fatalf("trimmed %d, first %d; want %d, %d", r.trimmed, tail[0].Seq, want, want+1)
	}
}

// TestReplicaApplySteadyStateAllocs: once the tail is full, folding a
// batch in allocates nothing.
func TestReplicaApplySteadyStateAllocs(t *testing.T) {
	var r replica
	batch := make([]room.Event, 5)
	req := &proto.ReplicateReq{Room: "r", Events: batch}
	var seq uint64
	next := func() {
		for i := range batch {
			seq++
			batch[i] = chatEvent(seq)
		}
		req.Seq = seq
	}
	for seq < 3*replicaBuffer {
		next()
		r.apply(req)
	}
	next() // event texts are formatted outside the measured call
	allocs := testing.AllocsPerRun(500, func() {
		for i := range batch {
			batch[i].Seq += uint64(len(batch))
		}
		req.Seq = batch[len(batch)-1].Seq
		r.apply(req)
	})
	if allocs != 0 {
		t.Fatalf("apply on a full tail allocates %.1f times per batch, want 0", allocs)
	}
}

// TestRoomSeedNotAliasedByLaterApply: the events roomSeed hands to the
// server stay intact when the same room's replica is re-created and
// filled afterwards.
func TestRoomSeedNotAliasedByLaterApply(t *testing.T) {
	n := &Node{replicas: make(map[string]*replica)}
	req := &proto.ReplicateReq{Room: "r", DocID: "p1"}
	for s := uint64(1); s <= 2*replicaBuffer; s++ {
		req.Events = append(req.Events, chatEvent(s))
	}
	req.Seq = 2 * replicaBuffer
	n.foldReplica(req)
	snap, ok := n.roomSeed("r")
	if !ok {
		t.Fatal("roomSeed found no replica")
	}
	want := fmt.Sprint(tailSeqs(snap.Events))
	wantText := snap.Events[0].Text
	if _, again := n.roomSeed("r"); again {
		t.Fatal("roomSeed left the replica behind")
	}
	// The room is replicated here again (a later failback, say).
	more := &proto.ReplicateReq{Room: "r", DocID: "p1", Seq: 4 * replicaBuffer}
	for s := uint64(1); s <= 4*replicaBuffer; s++ {
		more.Events = append(more.Events, room.Event{Seq: s, Text: "overwritten"})
	}
	n.foldReplica(more)
	n.foldReplica(more)
	if got := fmt.Sprint(tailSeqs(snap.Events)); got != want || snap.Events[0].Text != wantText {
		t.Fatalf("seeded events changed under a later apply")
	}
	if snap.Seq != 2*replicaBuffer || snap.Trimmed != replicaBuffer || snap.DocID != "p1" {
		t.Fatalf("seed snapshot seq/trimmed/doc %d/%d/%q", snap.Seq, snap.Trimmed, snap.DocID)
	}
}
