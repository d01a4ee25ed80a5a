package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/server"
)

// The partial-dataset replication suite: nodes no longer need
// identically seeded databases. A node that starts with an empty CAS
// receives each standby room's dataset by manifest diff — rows plus
// chunk digests per heartbeat, payload bytes only for chunks it lacks
// — and converges to serving those rooms, media included, after
// failover.

// newReplHarness is newHarness with the listed nodes left unseeded.
func newReplHarness(t *testing.T, nodes int, unseeded ...string) *Harness {
	t.Helper()
	h, err := NewHarness(HarnessOptions{
		Nodes:    nodes,
		Dir:      t.TempDir(),
		Seed:     harnessSeed,
		Unseeded: unseeded,
		Server:   server.Options{SessionGrace: 5 * time.Second},
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.Close)
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return h
}

// roomPlacedOn derives a room name (from prefix) that the full cluster
// places with the given owner and standby — so tests can aim a room's
// replication stream at a chosen node.
func (h *Harness) roomPlacedOn(owner, standby, prefix string) string {
	all := make([]string, len(h.Nodes))
	for i, hn := range h.Nodes {
		all[i] = hn.ID
	}
	place := NewPlacement(all)
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s-%d", prefix, i)
		if place.Owner(name) == owner && place.Standby(name) == standby {
			return name
		}
	}
}

// waitMetric polls a node's metrics until cond accepts them.
func waitMetric(t *testing.T, hn *HarnessNode, what string, cond func(Metrics) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if cond(hn.Node.Metrics()) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %s never reached %s; metrics %+v", hn.ID, what, hn.Node.Metrics())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestReplicationSyncsDatasetToEmptyStandby: a room owned by a seeded
// node replicates to an unseeded standby. The standby must end up with
// the document and byte-identical media under the owner's object ids,
// paid for with pulled chunks — and a balanced refcount ledger.
func TestReplicationSyncsDatasetToEmptyStandby(t *testing.T) {
	h := newReplHarness(t, 3, "n3")
	owner, standby := h.ByID("n1"), h.ByID("n3")
	if _, err := standby.media.GetDocument("p1"); err == nil {
		t.Fatalf("unseeded node started with the document")
	}
	roomName := h.roomPlacedOn("n1", "n3", "board")

	alice := clusterClient(t, h, "alice")
	sa, _, err := alice.Join(roomName, "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustChat(t, sa, "hello")

	waitMetric(t, standby, "dataset adoption", func(m Metrics) bool {
		return m.SyncRowsAdopted > 0 && m.SyncChunkBytesPulled > 0
	})
	doc, err := standby.media.GetDocument("p1")
	if err != nil {
		t.Fatalf("standby GetDocument after sync: %v", err)
	}
	if doc.Title != h.Record.Doc.Title {
		t.Errorf("standby document title %q, want %q", doc.Title, h.Record.Doc.Title)
	}
	for _, id := range []uint64{h.Record.CTID, h.Record.XrayID} {
		want, err := owner.media.GetImage(id)
		if err != nil {
			t.Fatalf("owner GetImage(%d): %v", id, err)
		}
		got, err := standby.media.GetImage(id)
		if err != nil {
			t.Fatalf("standby GetImage(%d) after sync: %v", id, err)
		}
		if !bytes.Equal(got.Data, want.Data) {
			t.Errorf("image %d differs between owner and standby", id)
		}
	}
	if _, err := standby.media.GetAudio(h.Record.VoiceID); err != nil {
		t.Errorf("standby GetAudio: %v", err)
	}
	if _, err := standby.media.GetCmp(h.Record.CmpID); err != nil {
		t.Errorf("standby GetCmp: %v", err)
	}
	if _, missing := standby.db.BlobStats(); missing != 0 {
		t.Errorf("standby has %d dangling blob references", missing)
	}
	if m := owner.Node.Metrics(); m.ManifestSyncs == 0 {
		t.Errorf("owner sent no manifest syncs: %+v", m)
	}
}

// TestReplicationRepeatSyncMovesNoChunks: once the standby converged, a
// forced full re-sync of the unchanged room ships the manifest again
// but adopts no rows and pulls zero chunk bytes.
func TestReplicationRepeatSyncMovesNoChunks(t *testing.T) {
	h := newReplHarness(t, 3, "n3")
	owner, standby := h.ByID("n1"), h.ByID("n3")
	roomName := h.roomPlacedOn("n1", "n3", "board")

	alice := clusterClient(t, h, "alice")
	sa, _, err := alice.Join(roomName, "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustChat(t, sa, "hello")
	waitMetric(t, standby, "dataset adoption", func(m Metrics) bool {
		return m.SyncRowsAdopted > 0 && m.SyncChunkBytesPulled > 0
	})

	before := standby.Node.Metrics()
	syncs := owner.Node.Metrics().ManifestSyncs
	// A placement wobble or lost tap marks every room dirty; the next
	// flush then force-resends the manifest even though nothing changed.
	owner.Node.markAllDirty()
	waitMetric(t, owner, "manifest re-send", func(m Metrics) bool {
		return m.ManifestSyncs > syncs
	})
	after := standby.Node.Metrics()
	if after.SyncChunkBytesPulled != before.SyncChunkBytesPulled || after.SyncChunksPulled != before.SyncChunksPulled {
		t.Errorf("repeat sync pulled chunks: %+v -> %+v", before, after)
	}
	if after.SyncRowsAdopted != before.SyncRowsAdopted {
		t.Errorf("repeat sync adopted rows: %d -> %d", before.SyncRowsAdopted, after.SyncRowsAdopted)
	}
}

// TestReplicationFailoverServesFromEmptyNode is the headline: a node
// that joined with an empty store becomes the owner of a standby room
// when the seeded owner crashes, and serves it fully — the session
// resumes exactly-once on it, and media fetches served from its CAS
// return the payload bytes it pulled over replication.
func TestReplicationFailoverServesFromEmptyNode(t *testing.T) {
	h := newReplHarness(t, 3, "n3")
	owner, standby := h.ByID("n1"), h.ByID("n3")
	roomName := h.roomPlacedOn("n1", "n3", "ward")

	want, err := owner.media.GetImage(h.Record.CTID)
	if err != nil {
		t.Fatal(err)
	}

	alice := clusterClient(t, h, "alice")
	bob := clusterClient(t, h, "bob")
	sa, _, err := alice.Join(roomName, "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bob.Join(roomName, "p1", 0); err != nil {
		t.Fatal(err)
	}
	colB := collect(bob)

	pre := []string{"m0", "m1", "m2"}
	for _, m := range pre {
		mustChat(t, sa, m)
	}
	colB.waitChats(t, pre...)
	h.waitReplicated(t, roomName, h.ownerSeq(t, roomName))
	waitMetric(t, standby, "dataset adoption", func(m Metrics) bool {
		return m.SyncRowsAdopted > 0
	})

	owner.Kill()
	if err := h.WaitConverged(5 * time.Second); err != nil {
		t.Fatal(err)
	}

	post := []string{"m3", "m4", "m5"}
	for _, m := range post {
		mustChat(t, sa, m)
	}
	all := append(append([]string(nil), pre...), post...)
	colB.waitChats(t, all...)
	colB.assertExactChats(t, all...)

	// The room's standby was the empty node; with the owner dead it must
	// be the sole holder.
	if holder := h.waitSoleHolder(t, roomName); holder != standby.ID {
		t.Errorf("room held by %s, want promoted standby %s", holder, standby.ID)
	}
	// And it serves media end to end, from the CAS it filled over
	// replication: a client pinned to the promoted node fetches the CT
	// image byte-identical to the dead owner's copy.
	pinned, err := client.NewOverResolver(h.ClientFaults.DialContext, []string{standby.Addr}, "carol", fastFailover())
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Close()
	got, err := pinned.GetImageBytes(h.Record.CTID)
	if err != nil {
		t.Fatalf("GetImageBytes from promoted node: %v", err)
	}
	if !bytes.Equal(got, want.Data) {
		t.Errorf("promoted node served %d bytes differing from the owner's image", len(got))
	}
}

// settledExports waits until the owner has synced the room's dataset
// and its replication loop has gone quiet (the standby's log caught up
// with the owner's), then returns the owner's metrics.
func settledExports(t *testing.T, h *Harness, owner *HarnessNode, roomName string, minSyncs int64) Metrics {
	t.Helper()
	waitMetric(t, owner, "dataset sync", func(m Metrics) bool { return m.ManifestSyncs >= minSyncs })
	h.waitReplicated(t, roomName, h.ownerSeq(t, roomName))
	return owner.Node.Metrics()
}

// chatsReplicated sends n chats and waits until the standby's log holds
// them: each one went through a replication flush.
func chatsReplicated(t *testing.T, h *Harness, s *client.Session, roomName string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustChat(t, s, fmt.Sprintf("note %d", i))
		h.waitReplicated(t, roomName, h.ownerSeq(t, roomName))
	}
}

// TestReplicationDatasetGateSkipsUnchangedExports: flushes that follow
// no store write skip the dataset export entirely; one write on the
// owner costs exactly one re-export, after which the standby serves the
// new row; ForceResync still re-sends.
func TestReplicationDatasetGateSkipsUnchangedExports(t *testing.T) {
	h := newReplHarness(t, 2)
	owner, standby := h.ByID("n1"), h.ByID("n2")
	roomName := h.roomPlacedOn("n1", "n2", "gate")

	alice := clusterClient(t, h, "alice")
	sa, _, err := alice.Join(roomName, "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustChat(t, sa, "hello")
	base := settledExports(t, h, owner, roomName, 1)

	// Idle flushes: the log streams, the dataset is not re-read.
	chatsReplicated(t, h, sa, roomName, 8)
	if m := owner.Node.Metrics(); m.DatasetExports != base.DatasetExports || m.ManifestSyncs != base.ManifestSyncs {
		t.Fatalf("8 write-free flushes ran %d exports and %d syncs, want 0 and 0",
			m.DatasetExports-base.DatasetExports, m.ManifestSyncs-base.ManifestSyncs)
	}

	// One store write on the owner: exactly one re-export and send.
	const texts = "revised reading: no lesion"
	if err := owner.media.UpdateImageTexts(h.Record.CTID, texts); err != nil {
		t.Fatal(err)
	}
	chatsReplicated(t, h, sa, roomName, 4)
	m := owner.Node.Metrics()
	if m.DatasetExports != base.DatasetExports+1 || m.ManifestSyncs != base.ManifestSyncs+1 {
		t.Fatalf("one write then 4 flushes ran %d exports and %d syncs, want 1 and 1",
			m.DatasetExports-base.DatasetExports, m.ManifestSyncs-base.ManifestSyncs)
	}
	img, err := standby.media.GetImage(h.Record.CTID)
	if err != nil {
		t.Fatal(err)
	}
	if img.Texts != texts {
		t.Errorf("standby serves texts %q, want %q", img.Texts, texts)
	}

	// ForceResync bypasses both gates.
	owner.Node.ForceResync()
	mustChat(t, sa, "after resync")
	waitMetric(t, owner, "forced re-send", func(m2 Metrics) bool {
		return m2.ManifestSyncs > m.ManifestSyncs && m2.DatasetExports > m.DatasetExports
	})
}

// TestReplicationDatasetGateResendsOnStandbyChange: the generation gate
// is per standby — a sync aimed at a different node exports and sends
// even though nothing was written, and so does the switch back.
func TestReplicationDatasetGateResendsOnStandbyChange(t *testing.T) {
	h := newReplHarness(t, 3, "n3")
	owner, other := h.ByID("n1"), h.ByID("n3")
	roomName := h.roomPlacedOn("n1", "n2", "gate")

	alice := clusterClient(t, h, "alice")
	sa, _, err := alice.Join(roomName, "p1", 0)
	if err != nil {
		t.Fatal(err)
	}
	mustChat(t, sa, "hello")
	base := settledExports(t, h, owner, roomName, 1)

	// Aim the dataset at n3 (as a placement change would), with no
	// store write and no dirty mark.
	owner.Node.syncDataset(roomName, "p1", other.ID, false)
	m := owner.Node.Metrics()
	if m.DatasetExports != base.DatasetExports+1 || m.ManifestSyncs != base.ManifestSyncs+1 {
		t.Fatalf("standby change ran %d exports and %d syncs, want 1 and 1",
			m.DatasetExports-base.DatasetExports, m.ManifestSyncs-base.ManifestSyncs)
	}
	if om := other.Node.Metrics(); om.SyncRowsAdopted == 0 {
		t.Errorf("new standby adopted no rows: %+v", om)
	}
	// The next flush targets n2 again: a standby change back. The
	// export follows the log send, so wait for the sync to land.
	mustChat(t, sa, "back")
	waitMetric(t, owner, "re-send to n2", func(m2 Metrics) bool { return m2.ManifestSyncs > m.ManifestSyncs })
	if m2 := owner.Node.Metrics(); m2.DatasetExports != m.DatasetExports+1 || m2.ManifestSyncs != m.ManifestSyncs+1 {
		t.Fatalf("switch back ran %d exports and %d syncs, want 1 and 1",
			m2.DatasetExports-m.DatasetExports, m2.ManifestSyncs-m.ManifestSyncs)
	}
}
