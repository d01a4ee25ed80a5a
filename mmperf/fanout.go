package main

import (
	"fmt"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/mediadb"
	"mmconf/internal/room"
	"mmconf/internal/server"
)

// choice-fanout: one room of 8 members on a generated 41-variable
// record; one presenter issues room.choice, and an op ends when every
// member's client has delivered the presentation push the choice caused.
const (
	fanoutMembers = 8
	fanoutGroups  = 4
	fanoutLeaves  = 9
	pinLimit      = 8    // pinned variables before the oldest pin is retracted
	warmupChoices = 1100 // fills the room's 1024-event change buffer
)

type fanout struct {
	st     *standalone
	rec    *record
	g      *group
	script *choiceScript
	chk    checker
	seed   int64
}

func setupFanout(e *env) (fixture, error) {
	rec, err := choiceRecord(e.seed, "fanout-record", fanoutGroups, fanoutLeaves, nil)
	if err != nil {
		return nil, err
	}
	st, err := startServer(e.dir, server.Options{}, func(m *mediadb.MediaDB) error { return m.PutDocument(rec.doc) })
	if err != nil {
		return nil, err
	}
	f := &fanout{st: st, rec: rec, seed: e.seed, script: newChoiceScript(e.seed+1, rec, pinLimit)}
	f.g = &group{rec: rec, chk: &f.chk}
	for i := 0; i < fanoutMembers; i++ {
		name := fmt.Sprintf("m%d", i)
		c, err := client.Dial(st.addr, name)
		if err != nil {
			f.close()
			return nil, err
		}
		s, _, err := c.Join("fanout", rec.doc.ID, 0)
		if err != nil {
			c.Close()
			f.close()
			return nil, err
		}
		f.g.members = append(f.g.members, newMember(c, s, name))
	}
	f.g.drain()
	var warm recorder
	for i := 0; i < warmupChoices; i++ {
		f.round(0, &warm, nil)
	}
	if warm.failed > 0 {
		f.close()
		return nil, fmt.Errorf("warm-up: %d of %d choices failed: %v", warm.failed, warm.attempted, warm.errs[0])
	}
	settle(f.counters, 600*time.Millisecond, 5*time.Second)
	return f, nil
}

func (f *fanout) callers() int { return 1 }

func (f *fanout) round(_ int, rec *recorder, tr *tracer) {
	op := tr.op()
	presenter := f.g.members[0]
	variable, value := f.script.next()
	want := f.rec.optimal(f.script.evidence)
	start := time.Now()
	endAck := tr.begin(spanChoice, op, "op")
	err := presenter.s.Choice(variable, value)
	endAck()
	if err != nil {
		rec.done(start, err)
		return
	}
	acked := time.Now()
	err = f.g.await(room.EvChoice, matchChoice(presenter.name, variable, value), want)
	tr.add(spanLag, op, "op", acked, time.Since(acked))
	rec.done(start, err)
}

func (f *fanout) verify() error {
	f.g.checkSeqs()
	return f.chk.result()
}

func (f *fanout) counters() counters {
	c := counters{}
	serverCounters(f.st.srv, c)
	return c
}

func (f *fanout) summaries() map[string]float64 {
	m := map[string]float64{}
	methodP50s(f.st.srv, m)
	return m
}

func (f *fanout) probe(tr *tracer) error {
	if err := probeEngine(tr, f.st.mdb, f.rec, fanoutMembers, f.seed+2); err != nil {
		return err
	}
	return probeStore(tr, f.st.mdb, f.rec.doc.ID, nil, nil)
}

func (f *fanout) close() {
	if f.g != nil {
		f.g.close()
	}
	f.st.close()
}
