package main

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"mmconf/internal/client"
	"mmconf/internal/document"
	"mmconf/internal/media/compress"
	"mmconf/internal/media/image"
	"mmconf/internal/mediadb"
	"mmconf/internal/room"
	"mmconf/internal/server"
)

// conference: two callers each run seeded sessions of 3 members in small
// rooms, one room per medical record. A member joins (fetching the
// document), displays the presentation's media, makes choices, chats and
// annotates; at session end one member saves the minutes and everyone
// leaves. Every client runs with the §4.4 session buffer and the digest
// cache, so a display is answered by the buffer, a NotModified reply or a
// full payload. Each record takes confSaves sessions and is
// then retired: every save adds a minutes-N component the server finds
// by a linear name search, so saving into one record all run long would
// slow every op as the run goes.
const (
	confMembers  = 3
	confRounds   = 10      // choice + displays + chat + annotation per round
	confSaves    = 8       // sessions (one save each) per record
	confDocRate  = 16      // records pooled per caller per timed second
	confDocSpare = 32      // records pooled per caller for warm-up
	confWarmup   = 12      // warm-up sessions per caller
	confBuffer   = 1 << 20 // session buffer bytes
	confDigests  = 8 << 20 // client digest cache bytes
)

// confDoc is one record, its room, and the benchmark's own account of
// what the room's sessions wrote.
type confDoc struct {
	rec     *record
	room    string
	chats   []chatLine                    // every chat in the room, in order
	anns    map[uint64][]image.Annotation // the room's overlay per object
	saves   int                           // minutes saved so far
	checked int                           // saves whose minutes were checked
	saved   []confSnap                    // state at each unchecked save
}

type chatLine struct{ actor, text string }

type confSnap struct {
	chats []chatLine
	anns  map[uint64][]image.Annotation
}

// confCaller is one caller's members, its private media objects, and its
// pool of records.
type confCaller struct {
	rng           *rand.Rand
	members       []*member
	ct, xray, cmp uint64
	docs          []*confDoc
	next          int // index of the record in use
	n             int // running number for chat and mark texts
}

type conference struct {
	st      *standalone
	cs      []*confCaller
	streams []mediaStream
	chk     checker
	fetches atomic.Int64 // display fetches
	hits    atomic.Int64 // display fetches served by the buffer or a NotModified
}

func setupConference(e *env) (fixture, error) {
	f := &conference{}
	ndocs := confDocSpare + int(e.seconds*confDocRate)
	type media struct{ ct, xray []byte }
	var objs []media
	for c := 0; c < 2; c++ {
		seed := e.seed*1000 + int64(c)*10
		ct, err := image.Phantom(64, 64, seed)
		if err != nil {
			return nil, err
		}
		xray, err := image.Phantom(48, 48, seed+1)
		if err != nil {
			return nil, err
		}
		g, err := image.Phantom(64, 64, seed+2)
		if err != nil {
			return nil, err
		}
		enc, err := compress.Encode(g, compress.Options{})
		if err != nil {
			return nil, err
		}
		header, body, err := enc.Marshal()
		if err != nil {
			return nil, err
		}
		objs = append(objs, media{ct.Encode(), xray.Encode()})
		f.streams = append(f.streams, mediaStream{header: header, body: body, base: enc.PrefixBytes(1)})
		f.cs = append(f.cs, &confCaller{rng: rand.New(rand.NewSource(seed + 3))})
	}
	// Push-prefetch stays off: its QoS tick ranks candidates over the room's
	// CP-net holding only the engine lock, while saving minutes adds a
	// component to that network under the room lock, and the two together
	// crash the process with a concurrent map access (see CHANGES.md).
	st, err := startServer(e.dir, server.Options{PrefetchBudget: -1}, func(m *mediadb.MediaDB) error {
		for c, cc := range f.cs {
			var err error
			if cc.ct, err = m.PutImage(100, "", 0.05, objs[c].ct); err != nil {
				return err
			}
			if cc.xray, err = m.PutImage(100, "", 0.08, objs[c].xray); err != nil {
				return err
			}
			if cc.cmp, err = m.PutCmp(fmt.Sprintf("ct-%d.mml", c), f.streams[c].header, f.streams[c].body); err != nil {
				return err
			}
			f.streams[c].id = cc.cmp
			for i := 0; i < ndocs; i++ {
				id := fmt.Sprintf("patient-%d-%04d", c, i)
				rec, err := consultRecord(e.seed*100000+int64(c*ndocs+i), id, cc.ct, cc.xray, cc.cmp)
				if err != nil {
					return err
				}
				if err := m.PutDocument(rec.doc); err != nil {
					return err
				}
				cc.docs = append(cc.docs, &confDoc{rec: rec, room: "consult-" + id, anns: map[uint64][]image.Annotation{}})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	f.st = st
	for c, cc := range f.cs {
		for i := 0; i < confMembers; i++ {
			name := fmt.Sprintf("dr-%d%c", c, 'a'+i)
			cl, err := client.DialWith(st.addr, name, client.Options{DigestCacheBytes: confDigests})
			if err != nil {
				f.close()
				return nil, err
			}
			cc.members = append(cc.members, newMember(cl, nil, name))
		}
	}
	var warm recorder
	for i := 0; i < confWarmup; i++ {
		for c := range f.cs {
			f.round(c, &warm, nil)
		}
	}
	if warm.failed > 0 {
		f.close()
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %v", warm.failed, warm.attempted, warm.errs[0])
	}
	settle(f.counters, 600*time.Millisecond, 5*time.Second)
	return f, nil
}

// consultRecord generates one medical record: a CT (full, segmented,
// low-resolution stream), a correlated X-ray, labs and notes. Random rows
// reorder the visible forms only, so a record shows everything until a
// member hides something.
func consultRecord(seed int64, id string, ct, xray, cmp uint64) (*record, error) {
	rng := rand.New(rand.NewSource(seed))
	hidden := document.Presentation{Name: document.HiddenValue, Kind: document.KindHidden}
	root := &document.Component{Name: "record", Label: "Medical record " + id, Children: []*document.Component{
		{Name: "imaging", Label: "Imaging studies", Children: []*document.Component{
			{Name: "ct", Label: "Abdominal CT", Presentations: []document.Presentation{
				{Name: "full", Kind: document.KindImage, ObjectID: ct, Bytes: 16 << 10},
				{Name: "segmented", Kind: document.KindSegmentedImage, ObjectID: ct, Bytes: 16 << 10},
				{Name: "lowres", Kind: document.KindImageLowRes, ObjectID: cmp, Bytes: 16 << 10},
				hidden}},
			{Name: "xray", Label: "Chest X-ray", Presentations: []document.Presentation{
				{Name: "full", Kind: document.KindImage, ObjectID: xray, Bytes: 9 << 10},
				{Name: "icon", Kind: document.KindIcon, ObjectID: xray, Bytes: 9 << 10},
				hidden}},
		}},
		{Name: "labs", Label: "Test results", Presentations: []document.Presentation{
			{Name: "table", Kind: document.KindTable, Inline: []byte(fmt.Sprintf("WBC %.1f", 4+6*rng.Float64())), Bytes: 160},
			hidden}},
		{Name: "notes", Label: "Attending notes", Presentations: []document.Presentation{
			{Name: "text", Kind: document.KindText, Inline: []byte("stable, follow-up in 6 weeks"), Bytes: 48},
			{Name: "summary", Kind: document.KindTable, Inline: []byte("stable"), Bytes: 48},
			hidden}},
	}}
	return buildRecord(rng, id, "Medical record "+id, root, true, func(leaf int) int {
		return min(leaf, 2) // ct stands alone; xray on ct; labs and notes on two earlier leaves
	})
}

func (f *conference) callers() int { return len(f.cs) }

// round runs one whole session on the caller's current record.
func (f *conference) round(caller int, rec *recorder, tr *tracer) {
	cc := f.cs[caller]
	d := cc.docs[cc.next%len(cc.docs)]
	timed := func(span string, call func() error) error {
		op := tr.op()
		start := time.Now()
		end := tr.begin(span, op, "op")
		err := call()
		end()
		rec.done(start, err)
		return err
	}
	joined := 0
	defer func() {
		for _, m := range cc.members[:joined] {
			timed("client.leave", func() error { return m.s.Leave() })
		}
	}()
	for _, m := range cc.members {
		err := timed(spanJoin, func() error {
			s, _, err := m.c.Join(d.room, d.rec.doc.ID, confBuffer)
			m.s = s
			return err
		})
		if err != nil {
			return
		}
		joined++
		rec.sessions++
	}
	evidence := map[string]string{}
	f.displayAll(cc, d, evidence, rec, tr)
	var sent []chatLine
	for r := 0; r < confRounds; r++ {
		actor := cc.members[cc.rng.Intn(len(cc.members))]
		v := d.rec.vars[1+cc.rng.Intn(len(d.rec.vars)-1)] // any but the root
		val := v.domain[cc.rng.Intn(len(v.domain))]
		if timed(spanChoice, func() error { return actor.s.Choice(v.name, val) }) != nil {
			return
		}
		evidence[v.name] = val
		f.displayAll(cc, d, evidence, rec, tr)

		cc.n++
		line := chatLine{actor.name, fmt.Sprintf("round %d: finding %d reviewed", r, cc.n)}
		if timed("client.chat", func() error { return actor.s.Chat(line.text) }) != nil {
			return
		}
		sent = append(sent, line)
		d.chats = append(d.chats, line)

		obj := cc.ct
		if cc.rng.Intn(2) == 1 {
			obj = cc.xray
		}
		ann := image.Annotation{Kind: image.TextElement, X1: cc.rng.Intn(48), Y1: cc.rng.Intn(48),
			Text: fmt.Sprintf("mark %d", cc.n), Intensity: float64(cc.rng.Intn(100)) / 100}
		if timed("client.annotate", func() error {
			var err error
			ann.ID, err = actor.s.AnnotateText(obj, ann.X1, ann.Y1, ann.Text, ann.Intensity)
			return err
		}) != nil {
			return
		}
		d.anns[obj] = append(d.anns[obj], ann)
	}

	saver := cc.members[0]
	var component string
	if timed("client.save_minutes", func() error {
		var err error
		component, err = saver.s.SaveMinutes()
		return err
	}) != nil {
		return
	}
	d.saves++
	d.saved = append(d.saved, confSnap{chats: append([]chatLine(nil), d.chats...), anns: cloneAnns(d.anns)})
	if want := fmt.Sprintf("minutes-%d", d.saves); component != want {
		f.chk.fail("%s: saved minutes as %q, want %q", d.room, component, want)
	}
	notice := chatLine{saver.name, fmt.Sprintf("discussion minutes saved as component %q", component)}
	d.chats = append(d.chats, notice)
	f.checkTexts(d)
	for _, m := range cc.members {
		f.checkTranscript(d, m, append(sent, notice))
	}
	if d.saves%confSaves == 0 {
		f.checkDoc(d)
		cc.next++
	}
}

// displayAll has every member display the presentation the benchmark
// computes for evidence: each visible image-backed form is fetched
// through the session buffer (or, for the low-resolution form, as a
// one-layer stream) and decoded.
func (f *conference) displayAll(cc *confCaller, d *confDoc, evidence map[string]string, rec *recorder, tr *tracer) {
	outcome := d.rec.optimal(evidence)
	vis := d.rec.visible(outcome)
	for _, m := range cc.members {
		for _, leaf := range []string{"ct", "xray"} {
			if !vis[leaf] {
				continue
			}
			c, err := d.rec.doc.Component(leaf)
			if err != nil {
				f.chk.fail("%s: %v", d.room, err)
				return
			}
			p, err := c.Presentation(outcome[leaf])
			if err != nil {
				f.chk.fail("%s: %v", d.room, err)
				return
			}
			f.display(m, p, rec, tr)
		}
	}
}

func (f *conference) display(m *member, p document.Presentation, rec *recorder, tr *tracer) {
	op := tr.op()
	start := time.Now()
	digestHits := m.c.DigestCacheStats().Hits
	hit := false
	var err error
	if p.Kind == document.KindImageLowRes {
		end := tr.begin(spanCmp, op, "op")
		_, _, err = m.c.GetCmp(p.ObjectID, 1)
		end()
	} else {
		hit = m.s.Buffer.Cache.Contains(p.ObjectID)
		span := spanFetch // a buffer miss fetches the raw payload
		if hit {
			span = "client.buffer"
		}
		var data []byte
		end := tr.begin(span, op, "op")
		data, err = m.s.Buffer.Demand(p.ObjectID)
		end()
		if err == nil {
			end = tr.begin(spanImgDecode, op, "op")
			_, err = image.Decode(data)
			end()
		}
	}
	rec.done(start, err)
	f.fetches.Add(1)
	if hit || m.c.DigestCacheStats().Hits != digestHits {
		f.hits.Add(1)
	}
}

// checkTexts compares each annotated object's stored texts with the
// overlay the room's sessions wrote (the last save writes all of it).
func (f *conference) checkTexts(d *confDoc) {
	for obj, want := range d.anns {
		img, err := f.st.mdb.GetImage(obj)
		if err != nil {
			f.chk.fail("%s: object %d: %v", d.room, obj, err)
			continue
		}
		got, err := image.UnmarshalAnnotations([]byte(img.Texts))
		if err != nil {
			f.chk.fail("%s: object %d texts: %v", d.room, obj, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			f.chk.fail("%s: object %d stores %d marks, want %d as annotated", d.room, obj, len(got), len(want))
		}
	}
}

// checkTranscript reads a member's pushed events up to the save notice
// and compares the chats among them with what the session sent.
func (f *conference) checkTranscript(d *confDoc, m *member, want []chatLine) {
	var got []chatLine
	last := want[len(want)-1]
	for {
		ev, err := m.next()
		if err != nil {
			f.chk.fail("%s: member %s: %v", d.room, m.name, err)
			return
		}
		if ev.Kind != room.EvChat || ev.Room != d.room {
			continue
		}
		got = append(got, chatLine{ev.Actor, ev.Text})
		if got[len(got)-1] == last {
			break
		}
	}
	if !reflect.DeepEqual(got, want) {
		f.chk.fail("%s: member %s received chats %v, want %v", d.room, m.name, got, want)
	}
}

// checkDoc compares each minutes component saved since the last check
// with the transcript the benchmark expects at that save: a header, each
// chat line in order, then each mark by object.
func (f *conference) checkDoc(d *confDoc) {
	doc, err := f.st.mdb.GetDocument(d.rec.doc.ID)
	if err != nil {
		f.chk.fail("%s: %v", d.room, err)
		return
	}
	for i, snap := range d.saved {
		name := fmt.Sprintf("minutes-%d", d.checked+i+1)
		c, err := doc.Component(name)
		if err != nil {
			f.chk.fail("%s: stored record lacks %s", d.room, name)
			continue
		}
		p, err := c.Presentation("text")
		if err != nil {
			f.chk.fail("%s: %s: %v", d.room, name, err)
			continue
		}
		if err := matchTranscript(string(p.Inline), d.room, snap); err != nil {
			f.chk.fail("%s: %s: %v", d.room, name, err)
		}
	}
	d.checked += len(d.saved)
	d.saved = nil
}

func matchTranscript(t, roomName string, snap confSnap) error {
	lines := strings.Split(strings.TrimSuffix(t, "\n"), "\n")
	if lines[0] != "discussion minutes — room "+roomName {
		return fmt.Errorf("header %q", lines[0])
	}
	lines = lines[1:]
	if len(lines) < len(snap.chats) {
		return fmt.Errorf("%d lines, want at least %d chats", len(lines), len(snap.chats))
	}
	var lastSeq int
	for i, want := range snap.chats {
		var seq int
		var rest string
		if _, err := fmt.Sscanf(lines[i], "[%d]", &seq); err != nil || seq <= lastSeq {
			return fmt.Errorf("chat line %q: bad or unordered seq", lines[i])
		}
		lastSeq = seq
		if _, rest, _ = strings.Cut(lines[i], "] "); rest != fmt.Sprintf("<%s> %s", want.actor, want.text) {
			return fmt.Errorf("chat line %q, want <%s> %s", lines[i], want.actor, want.text)
		}
	}
	var marks []string
	for _, obj := range sortedKeys(snap.anns) {
		for _, a := range snap.anns[obj] {
			marks = append(marks, fmt.Sprintf("mark on object %d at (%d,%d): %s", obj, a.X1, a.Y1, a.Text))
		}
	}
	if got := lines[len(snap.chats):]; !reflect.DeepEqual(got, marks) && !(len(got) == 0 && len(marks) == 0) {
		return fmt.Errorf("marks %q, want %q", got, marks)
	}
	return nil
}

func sortedKeys(m map[uint64][]image.Annotation) []uint64 {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

func cloneAnns(m map[uint64][]image.Annotation) map[uint64][]image.Annotation {
	out := make(map[uint64][]image.Annotation, len(m))
	for k, v := range m {
		out[k] = append([]image.Annotation(nil), v...)
	}
	return out
}

// verify checks the records still in use: their stored minutes must
// match what their sessions wrote so far.
func (f *conference) verify() error {
	for _, cc := range f.cs {
		if d := cc.docs[cc.next%len(cc.docs)]; len(d.saved) > 0 {
			f.checkDoc(d)
		}
	}
	return f.chk.result()
}

func (f *conference) counters() counters {
	c := counters{}
	serverCounters(f.st.srv, c)
	c.add("client.display_fetches", float64(f.fetches.Load()))
	c.add("client.display_hits", float64(f.hits.Load()))
	return c
}

func (f *conference) summaries() map[string]float64 {
	m := map[string]float64{}
	methodP50s(f.st.srv, m)
	return m
}

func (f *conference) probe(tr *tracer) error {
	for i := 0; i < 4*len(f.streams); i++ {
		s := f.streams[i%len(f.streams)]
		end := tr.begin(spanCmpDecode, 0, "probe")
		_, err := decodeStream(s.header, s.body[:s.base])
		end()
		if err != nil {
			return err
		}
	}
	cc := f.cs[0]
	d := cc.docs[0]
	if err := probeEngine(tr, f.st.mdb, d.rec, confMembers, 7); err != nil {
		return err
	}
	return probeStore(tr, f.st.mdb, d.rec.doc.ID, []uint64{cc.ct, cc.xray}, []uint64{cc.cmp})
}

func (f *conference) close() {
	for _, cc := range f.cs {
		for _, m := range cc.members {
			m.c.Close()
		}
	}
	if f.st != nil {
		f.st.close()
	}
}
