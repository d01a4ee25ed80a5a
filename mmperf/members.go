package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/mediadb"
	"mmconf/internal/room"
	"mmconf/internal/server"
	"mmconf/internal/store"
)

// eventWait bounds how long an op waits for one pushed event.
const eventWait = 10 * time.Second

// member is one room member's client, read by the op driver: every push
// the op caused is taken from the member's event stream in order.
type member struct {
	name  string
	c     *client.Client
	s     *client.Session
	last  uint64 // highest seq delivered to this member
	timer *time.Timer
}

func newMember(c *client.Client, s *client.Session, name string) *member {
	t := time.NewTimer(time.Hour)
	t.Stop()
	return &member{name: name, c: c, s: s, timer: t}
}

// next returns the member's next delivered event.
func (m *member) next() (room.Event, error) {
	select {
	case ev := <-m.c.Events():
		return ev, nil
	default:
	}
	m.timer.Reset(eventWait)
	select {
	case ev := <-m.c.Events():
		if !m.timer.Stop() {
			<-m.timer.C
		}
		return ev, nil
	case <-m.timer.C:
		return room.Event{}, fmt.Errorf("member %s: no event within %v", m.name, eventWait)
	}
}

// drain discards events until the stream has been quiet for quiet.
func (m *member) drain(quiet time.Duration) {
	for {
		select {
		case ev := <-m.c.Events():
			if ev.Seq > m.last {
				m.last = ev.Seq
			}
		case <-time.After(quiet):
			return
		}
	}
}

// group is a room's members as one op driver sees them. It checks every
// member's stream: each broadcast arrives exactly once and in order at
// every member, with the same seq everywhere; a choice's presentation
// follows its choice event; and the room's seq advances by exactly what
// the ops caused (one per broadcast, one per member presentation) plus
// one per presentation the QoS loop pushed to a single member when it
// retuned that member's bandwidth level (such pushes must carry the
// current presentation).
type group struct {
	rec     *record
	members []*member
	expect  uint64            // seq the next broadcast must carry (0: not yet known)
	want    map[string]string // the presentation now in force (nil: not yet known)
	gaps    uint64            // broadcast seqs skipped past expect
	retunes uint64            // single-member presentation pushes seen while expect was known
	chk     *checker
}

// await takes from every member the broadcast an op caused (checked by
// match) and, for a choice, the presentation push that follows it, which
// must equal want. It returns an error only when an event never arrives.
func (g *group) await(kind room.EventKind, match func(room.Event) error, want map[string]string) error {
	n := uint64(len(g.members))
	var seq uint64
	for i, m := range g.members {
		ev, err := g.nextBroadcast(m)
		if err != nil {
			return err
		}
		if i == 0 {
			seq = ev.Seq
			if g.expect != 0 && seq > g.expect {
				g.gaps += seq - g.expect
			}
		}
		switch {
		case ev.Kind != kind:
			g.chk.fail("member %s: got %v event (seq %d), want %v", m.name, ev.Kind, ev.Seq, kind)
		case ev.Seq <= m.last:
			g.chk.fail("member %s: seq %d delivered again (last %d)", m.name, ev.Seq, m.last)
		case ev.Seq != seq || g.expect != 0 && ev.Seq < g.expect:
			g.chk.fail("member %s: broadcast seq %d, want %d (first member %d)", m.name, ev.Seq, g.expect, seq)
		case ev.Resync:
			g.chk.fail("member %s: resync hint at seq %d", m.name, ev.Seq)
		default:
			if err := match(ev); err != nil {
				g.chk.fail("member %s: %v", m.name, err)
			}
		}
		m.last = ev.Seq
		if kind != room.EvChoice {
			continue
		}
		pe, err := m.next()
		if err != nil {
			return err
		}
		switch {
		case pe.Kind != room.EvPresentation:
			g.chk.fail("member %s: got %v after choice %d, want a presentation", m.name, pe.Kind, ev.Seq)
		case pe.Seq <= ev.Seq || pe.Seq > ev.Seq+n:
			g.chk.fail("member %s: presentation seq %d outside (%d, %d]", m.name, pe.Seq, ev.Seq, ev.Seq+n)
		case pe.Resync:
			g.chk.fail("member %s: resync hint at seq %d", m.name, pe.Seq)
		default:
			if err := g.rec.compare(pe.Outcome, want); err != nil {
				g.chk.fail("member %s, presentation %d: %v", m.name, pe.Seq, err)
			}
		}
		m.last = pe.Seq
	}
	g.expect = seq + 1
	if kind == room.EvChoice {
		g.expect += n
		g.want = want
	}
	return nil
}

// nextBroadcast returns the member's next event, first passing over the
// presentations the QoS loop pushed to this member alone.
func (g *group) nextBroadcast(m *member) (room.Event, error) {
	for {
		ev, err := m.next()
		if err != nil || ev.Kind != room.EvPresentation {
			return ev, err
		}
		if ev.Seq <= m.last {
			g.chk.fail("member %s: presentation seq %d delivered again (last %d)", m.name, ev.Seq, m.last)
		}
		m.last = ev.Seq
		if g.expect == 0 {
			continue
		}
		g.retunes++
		if g.want != nil {
			if err := g.rec.compare(ev.Outcome, g.want); err != nil {
				g.chk.fail("member %s, retuned presentation %d: %v", m.name, ev.Seq, err)
			}
		}
	}
}

// checkSeqs reports seq advances no op or retuning push explains.
func (g *group) checkSeqs() {
	if g.gaps != g.retunes {
		g.chk.fail("broadcast seqs skipped %d past the ops' own, but %d retuning pushes were delivered", g.gaps, g.retunes)
	}
}

func (g *group) drain() {
	for _, m := range g.members {
		m.drain(50 * time.Millisecond)
	}
	g.expect, g.want = 0, nil
}

func (g *group) close() {
	for _, m := range g.members {
		m.c.Close()
	}
}

// matchChoice checks a choice event against what the presenter sent.
func matchChoice(actor, variable, value string) func(room.Event) error {
	return func(ev room.Event) error {
		if ev.Actor != actor || ev.Variable != variable || ev.Value != value {
			return fmt.Errorf("choice %s %s=%q, want %s %s=%q", ev.Actor, ev.Variable, ev.Value, actor, variable, value)
		}
		return nil
	}
}

// standalone is one interaction server over a fresh store, serving on a
// loopback TCP listener.
type standalone struct {
	dir  string
	db   *store.DB
	mdb  *mediadb.MediaDB
	srv  *server.Server
	addr string
	done chan struct{}
}

func startServer(dir string, opts server.Options, populate func(*mediadb.MediaDB) error) (*standalone, error) {
	db, err := store.Open(filepath.Join(dir, "store"), store.Options{Sync: store.SyncNever})
	if err != nil {
		return nil, err
	}
	mdb, err := mediadb.Open(db)
	if err != nil {
		db.Close()
		return nil, err
	}
	if err := populate(mdb); err != nil {
		db.Close()
		return nil, err
	}
	srv, err := server.NewWith(mdb, opts)
	if err != nil {
		db.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	st := &standalone{dir: dir, db: db, mdb: mdb, srv: srv, addr: l.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(st.done)
		_ = srv.Serve(l)
	}()
	return st, nil
}

func (st *standalone) close() {
	st.srv.Close()
	<-st.done
	st.db.Close()
	os.RemoveAll(st.dir)
}

// serverCounters adds a server's sys.stats counters into c.
func serverCounters(srv *server.Server, c counters) {
	for k, v := range srv.MetricsSnapshot().Counters {
		c.add(k, float64(v))
	}
}

// methodP50s reads the p50 (ms) of every method summary in sys.stats.
func methodP50s(srv *server.Server, into map[string]float64) {
	for name, ms := range srv.MetricsSnapshot().Methods {
		into[name] = float64(ms.P50.Nanoseconds()) / 1e6
	}
}

// settle waits until read returns the same counters twice, quiet apart,
// or until limit passes: the lazy work those counters count is done.
func settle(read func() counters, quiet, limit time.Duration) {
	deadline := time.Now().Add(limit)
	prev := read()
	for time.Now().Before(deadline) {
		time.Sleep(quiet)
		cur := read()
		if equalCounters(prev, cur) {
			return
		}
		prev = cur
	}
}

func equalCounters(a, b counters) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}
