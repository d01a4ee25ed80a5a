package main

import (
	"fmt"
	"math/rand"
	"strings"

	"mmconf/internal/core"
	"mmconf/internal/cpnet"
	"mmconf/internal/document"
)

// record is a generated document together with the benchmark's own copy
// of its CP-net: variables in topological order, each with its parents
// and its CPT. The expected presentation is computed from this copy by
// the benchmark's own forward sweep, never through the core or cpnet
// solvers it checks.
type record struct {
	doc  *document.Document
	vars []netVar
	root *document.Component
}

type netVar struct {
	name    string
	domain  []string
	parents []int               // indices of earlier variables
	rows    map[string][]string // parents' values joined by "|" -> preference order
}

// optimal is the optimal completion of evidence: every variable the
// evidence fixes takes its fixed value, every other takes the top value
// of its CPT row given its parents' values.
func (r *record) optimal(evidence map[string]string) map[string]string {
	out := make(map[string]string, len(r.vars))
	for _, v := range r.vars {
		if val, ok := evidence[v.name]; ok {
			out[v.name] = val
			continue
		}
		out[v.name] = v.rows[r.rowKey(v, out)][0]
	}
	return out
}

func (r *record) rowKey(v netVar, assign map[string]string) string {
	if len(v.parents) == 0 {
		return ""
	}
	vals := make([]string, len(v.parents))
	for i, p := range v.parents {
		vals[i] = assign[r.vars[p].name]
	}
	return strings.Join(vals, "|")
}

// compare checks a delivered outcome against the expected one. The
// server may add its bandwidth-tuning variable; nothing else.
func (r *record) compare(got cpnet.Outcome, want map[string]string) error {
	for _, v := range r.vars {
		if got[v.name] != want[v.name] {
			return fmt.Errorf("variable %s = %q, want %q", v.name, got[v.name], want[v.name])
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok && name != core.BandwidthVariable {
			return fmt.Errorf("unexpected variable %s in outcome", name)
		}
	}
	return nil
}

// visible derives effective visibility from an outcome: a component is
// shown when neither it nor any ancestor is hidden.
func (r *record) visible(outcome map[string]string) map[string]bool {
	vis := make(map[string]bool)
	var walk func(c *document.Component, up bool)
	walk = func(c *document.Component, up bool) {
		own := outcome[c.Name] != document.VisHidden && outcome[c.Name] != document.HiddenValue
		vis[c.Name] = up && own
		for _, ch := range c.Children {
			walk(ch, up && own)
		}
	}
	walk(r.root, true)
	return vis
}

// buildRecord assembles a document over root and gives it a generated
// CP-net. Composites prefer shown. A leaf with no parents prefers its
// declared order (hidden last, as the server's bandwidth templates
// assume); a leaf with parents, chosen by pick among earlier leaves, gets
// a random order per parent context (with fixHidden, a random order of
// its visible forms, hidden kept last). Visible forms of one leaf declare
// equal sizes, so the server's bandwidth re-ranking leaves every row as
// authored at every level and the expected outcome does not depend on
// the measured link.
func buildRecord(rng *rand.Rand, id, title string, root *document.Component, fixHidden bool, pick func(leaf int) int) (*record, error) {
	doc, err := document.New(id, title, root)
	if err != nil {
		return nil, err
	}
	r := &record{doc: doc, root: root}
	var leaves []int
	for _, c := range doc.Components() {
		v := netVar{name: c.Name, domain: c.Domain(), rows: map[string][]string{}}
		if !c.Composite() {
			n := pick(len(leaves))
			perm := rng.Perm(len(leaves))
			for _, p := range perm[:min(n, len(leaves))] {
				v.parents = append(v.parents, leaves[p])
			}
			leaves = append(leaves, len(r.vars))
		}
		if len(v.parents) == 0 {
			v.rows[""] = v.domain
			if err := doc.Prefs.SetUnconditional(v.name, v.domain); err != nil {
				return nil, err
			}
		} else {
			names := make([]string, len(v.parents))
			for i, p := range v.parents {
				names[i] = r.vars[p].name
			}
			if err := doc.Prefs.SetParents(v.name, names); err != nil {
				return nil, err
			}
			if err := r.fillRows(rng, &v, fixHidden, 0, nil, cpnet.Outcome{}); err != nil {
				return nil, err
			}
		}
		r.vars = append(r.vars, v)
	}
	if err := doc.Prefs.Validate(); err != nil {
		return nil, err
	}
	return r, nil
}

// fillRows gives v one random row per combination of its parents' values.
func (r *record) fillRows(rng *rand.Rand, v *netVar, fixHidden bool, i int, vals []string, ctx cpnet.Outcome) error {
	if i == len(v.parents) {
		order := append([]string(nil), v.domain...)
		n := len(order)
		if fixHidden && order[n-1] == document.HiddenValue {
			n--
		}
		rng.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
		v.rows[strings.Join(vals, "|")] = order
		return r.doc.Prefs.SetPreference(v.name, ctx.Clone(), order)
	}
	p := r.vars[v.parents[i]]
	for _, val := range p.domain {
		ctx[p.name] = val
		if err := r.fillRows(rng, v, fixHidden, i+1, append(vals, val), ctx); err != nil {
			return err
		}
	}
	delete(ctx, p.name)
	return nil
}

// textLeaf is a leaf whose forms are all inline (no stored object): the
// server's prefetch and the CAS have nothing to do for it.
func textLeaf(name string, rng *rand.Rand) *document.Component {
	note := []byte(fmt.Sprintf("%s: finding %d, value %.2f", name, rng.Intn(1000), rng.Float64()*10))
	return &document.Component{
		Name:  name,
		Label: "Finding " + name,
		Presentations: []document.Presentation{
			{Name: "full", Kind: document.KindText, Inline: note, Bytes: 2048},
			{Name: "summary", Kind: document.KindTable, Inline: note[:16], Bytes: 2048},
			{Name: "brief", Kind: document.KindAudioTranscript, Inline: note[:8], Bytes: 2048},
			{Name: "hidden", Kind: document.KindHidden},
		},
	}
}

// choiceRecord generates the choice-fanout record: a root over groups of
// text leaves, each leaf conditioned on 0, 1 or 2 earlier leaves in turn —
// only which leaves and the rows' orders depend on the seed. With
// groups=4, leaves=9 that is 41 CP-net variables. extra, when non-nil,
// is appended to the root as one more (parentless) component.
func choiceRecord(seed int64, id string, groups, leaves int, extra *document.Component) (*record, error) {
	rng := rand.New(rand.NewSource(seed))
	root := &document.Component{Name: "record", Label: "Clinical record " + id}
	for g := 0; g < groups; g++ {
		grp := &document.Component{Name: fmt.Sprintf("g%d", g), Label: fmt.Sprintf("Section %d", g)}
		for l := 0; l < leaves; l++ {
			grp.Children = append(grp.Children, textLeaf(fmt.Sprintf("g%d-c%d", g, l), rng))
		}
		root.Children = append(root.Children, grp)
	}
	if extra != nil {
		root.Children = append(root.Children, extra)
	}
	return buildRecord(rng, id, "Clinical record "+id, root, false, func(leaf int) int {
		if leaf >= groups*leaves { // extra stands alone
			return 0
		}
		return leaf % 3 // the same shape on every seed: 0, 1 or 2 parents in turn
	})
}

// choiceScript yields a seeded endless sequence of choices over a record
// that keeps the evidence bounded: at most pinLimit variables are pinned,
// and once the limit is reached the oldest pin is retracted (an empty
// value), so the solver always completes most of the network.
type choiceScript struct {
	rng      *rand.Rand
	rec      *record
	pins     []string
	evidence map[string]string
	pinLimit int
}

func newChoiceScript(seed int64, rec *record, pinLimit int) *choiceScript {
	return &choiceScript{rng: rand.New(rand.NewSource(seed)), rec: rec, evidence: map[string]string{}, pinLimit: pinLimit}
}

// next returns the next (variable, value) and updates the evidence.
func (cs *choiceScript) next() (string, string) {
	if len(cs.pins) >= cs.pinLimit {
		v := cs.pins[0]
		cs.pins = cs.pins[1:]
		delete(cs.evidence, v)
		return v, ""
	}
	v := cs.rec.vars[cs.rng.Intn(len(cs.rec.vars))]
	val := v.domain[cs.rng.Intn(len(v.domain))]
	if _, pinned := cs.evidence[v.name]; !pinned {
		cs.pins = append(cs.pins, v.name)
	}
	cs.evidence[v.name] = val
	return v.name, val
}
