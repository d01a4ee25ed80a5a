package main

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/cluster"
	"mmconf/internal/document"
	"mmconf/internal/media/image"
	"mmconf/internal/room"
)

// cluster-relay: a three-node cluster with forwarding on and the
// production heartbeat. Four members connect to the node that neither
// owns their room nor stands by for it, so every choice, chat and
// annotation is relayed to the owner, which replicates the room's log
// and dataset to its standby. An op ends when all members have the push.
const (
	relayMembers   = 4
	relayGroups    = 3
	relayLeaves    = 6
	relayHeartbeat = 500 * time.Millisecond // the cluster's production default
	relayWarmup    = 1100                   // fills the standby's 1024-event replica tail
)

type relay struct {
	h                     *cluster.Harness
	owner, standby, entry *cluster.HarnessNode
	rec                   *record
	roomName              string
	scan                  uint64
	g                     *group
	script                *choiceScript
	rng                   *rand.Rand
	chk                   checker
	seed                  int64
	n                     int
	dir                   string
}

func setupRelay(e *env) (fixture, error) {
	h, err := cluster.NewHarness(cluster.HarnessOptions{
		Nodes: 3, Dir: e.dir, Seed: e.seed, Forward: true, HeartbeatInterval: relayHeartbeat,
	})
	if err != nil {
		return nil, err
	}
	f := &relay{h: h, seed: e.seed, rng: rand.New(rand.NewSource(e.seed + 2)), scan: h.Record.CTID, dir: e.dir}
	if err := h.WaitConverged(20 * relayHeartbeat); err != nil {
		f.close()
		return nil, err
	}
	scan := &document.Component{Name: "scan", Label: "Abdominal CT", Presentations: []document.Presentation{
		{Name: "full", Kind: document.KindImage, ObjectID: f.scan, Bytes: 64 << 10},
		{Name: "icon", Kind: document.KindIcon, ObjectID: f.scan, Bytes: 64 << 10},
		{Name: document.HiddenValue, Kind: document.KindHidden},
	}}
	if f.rec, err = choiceRecord(e.seed, "relay-record", relayGroups, relayLeaves, scan); err != nil {
		f.close()
		return nil, err
	}
	for _, hn := range h.Nodes {
		if err := hn.Media().PutDocument(f.rec.doc); err != nil {
			f.close()
			return nil, err
		}
	}
	f.roomName = h.RoomOwnedBy("n1", "relay")
	place := cluster.NewPlacement([]string{"n1", "n2", "n3"})
	f.owner, f.standby = h.ByID(place.Owner(f.roomName)), h.ByID(place.Standby(f.roomName))
	for _, hn := range h.Nodes {
		if hn != f.owner && hn != f.standby {
			f.entry = hn
		}
	}
	f.script = newChoiceScript(e.seed+1, f.rec, pinLimit)
	f.g = &group{rec: f.rec, chk: &f.chk}
	for i := 0; i < relayMembers; i++ {
		name := fmt.Sprintf("r%d", i)
		c, err := client.Dial(f.entry.Addr, name)
		if err != nil {
			f.close()
			return nil, err
		}
		s, _, err := c.Join(f.roomName, f.rec.doc.ID, 0)
		if err != nil {
			c.Close()
			f.close()
			return nil, err
		}
		f.g.members = append(f.g.members, newMember(c, s, name))
	}
	f.g.drain()
	var warm recorder
	for i := 0; i < relayWarmup; i++ {
		f.round(0, &warm, nil)
	}
	if warm.failed > 0 {
		f.close()
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %v", warm.failed, warm.attempted, warm.errs[0])
	}
	// The first snapshot and dataset sync have run once replication and
	// manifest counters stop moving.
	settle(f.replication, 3*relayHeartbeat, 15*time.Second)
	return f, nil
}

func (f *relay) callers() int { return 1 }

// relayMix is the op cycle: four choices, a chat and an annotation. A
// fixed cycle gives every window the same mix, and with choices the
// slowest two thirds of ops the median sits inside one op type.
const relayMix = "ccxcca"

// round runs one op of the cycle by a seeded member, relayed through the
// entry node.
func (f *relay) round(_ int, rec *recorder, tr *tracer) {
	actor := f.g.members[f.rng.Intn(len(f.g.members))]
	op := tr.op()
	kind := relayMix[f.n%len(relayMix)]
	f.n++
	switch kind {
	case 'c':
		variable, value := f.script.next()
		want := f.rec.optimal(f.script.evidence)
		start := time.Now()
		end := tr.begin(spanChoice, op, "op")
		err := actor.s.Choice(variable, value)
		end()
		if err != nil {
			rec.done(start, err)
			return
		}
		acked := time.Now()
		err = f.g.await(room.EvChoice, matchChoice(actor.name, variable, value), want)
		tr.add(spanLag, op, "op", acked, time.Since(acked))
		rec.done(start, err)
	case 'x':
		text := fmt.Sprintf("relay note %d", f.n)
		start := time.Now()
		err := actor.s.Chat(text)
		if err == nil {
			err = f.g.await(room.EvChat, func(ev room.Event) error {
				if ev.Actor != actor.name || ev.Text != text {
					return fmt.Errorf("chat %s %q, want %s %q", ev.Actor, ev.Text, actor.name, text)
				}
				return nil
			}, nil)
		}
		rec.done(start, err)
	default:
		ann := image.Annotation{Kind: image.TextElement, X1: f.rng.Intn(256), Y1: f.rng.Intn(256),
			Text: fmt.Sprintf("mark %d", f.n), Intensity: float64(f.rng.Intn(100)) / 100}
		start := time.Now()
		id, err := actor.s.AnnotateText(f.scan, ann.X1, ann.Y1, ann.Text, ann.Intensity)
		if err == nil {
			ann.ID = id
			err = f.g.await(room.EvAnnotate, func(ev room.Event) error {
				if ev.Actor != actor.name || ev.ObjectID != f.scan || ev.Annotation != ann {
					return fmt.Errorf("annotation %s %d %+v, want %s %d %+v", ev.Actor, ev.ObjectID, ev.Annotation, actor.name, f.scan, ann)
				}
				return nil
			}, nil)
		}
		rec.done(start, err)
	}
}

// verify checks, once replication has settled, that the standby's
// dataset for the room's record equals the owner's, digest for digest,
// and that every node's blob store passes fsck.
func (f *relay) verify() error {
	settle(f.replication, 3*relayHeartbeat, 15*time.Second)
	f.g.checkSeqs()
	own, err := datasetDigests(f.owner, f.rec.doc.ID)
	if err != nil {
		return err
	}
	stb, err := datasetDigests(f.standby, f.rec.doc.ID)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(own, stb) {
		f.chk.fail("standby %s dataset digests %v differ from owner %s's %v", f.standby.ID, stb, f.owner.ID, own)
	}
	for _, hn := range f.h.Nodes {
		rep, err := hn.Media().DB().FsckBlobs()
		if err != nil {
			return fmt.Errorf("fsck %s: %w", hn.ID, err)
		}
		if !rep.Clean() {
			f.chk.fail("fsck %s: %d missing, %d corrupt, %d orphans, %d refcount mismatches",
				hn.ID, len(rep.Missing), len(rep.Corrupt), rep.Orphans, rep.RefMismatches)
		}
	}
	return f.chk.result()
}

// datasetDigests lists the payload digests of a node's dataset for doc.
func datasetDigests(hn *cluster.HarnessNode, doc string) ([]string, error) {
	ds, err := hn.Media().ExportDataset(doc)
	if err != nil {
		return nil, fmt.Errorf("export dataset on %s: %w", hn.ID, err)
	}
	var out []string
	for _, h := range ds.Handles() {
		out = append(out, h.Digest.String())
	}
	sort.Strings(out)
	return out, nil
}

// replication reads the counters the first snapshot and dataset sync move.
func (f *relay) replication() counters {
	c := counters{}
	for _, hn := range f.h.Nodes {
		m := hn.Node.Metrics()
		c.add("cluster.replicated", float64(m.Replicated))
		c.add("cluster.manifest_syncs", float64(m.ManifestSyncs))
		c.add("cluster.sync_chunk_bytes", float64(m.SyncChunkBytesPulled))
		c.add("cluster.sync_rows", float64(m.SyncRowsAdopted))
	}
	return c
}

func (f *relay) counters() counters {
	c := f.replication()
	for _, hn := range f.h.Nodes {
		serverCounters(hn.Node.Server(), c)
		c.add("cluster.forwards", float64(hn.Node.Metrics().Forwards))
	}
	return c
}

func (f *relay) summaries() map[string]float64 {
	m := map[string]float64{}
	methodP50s(f.owner.Node.Server(), m)
	standby := map[string]float64{}
	methodP50s(f.standby.Node.Server(), standby)
	m["node.replicate"] = standby["node.replicate"]
	return m
}

func (f *relay) probe(tr *tracer) error {
	if err := probeEngine(tr, f.owner.Media(), f.rec, relayMembers, f.seed+3); err != nil {
		return err
	}
	return probeStore(tr, f.owner.Media(), f.rec.doc.ID, []uint64{f.scan}, nil)
}

func (f *relay) close() {
	if f.g != nil {
		f.g.close()
	}
	f.h.Close()
	os.RemoveAll(f.dir)
}
