// Package core is the presentation module of the conferencing system —
// the paper's primary contribution (§4). It orchestrates, for one shared
// document under concurrent viewing, everything the interaction server
// needs: the accumulated viewer choices (the evidence of the constrained
// optimization), per-viewer overlay networks for private operation
// variables (§4.2), the bandwidth/buffer tuning variables of §4.4, and
// the recomputation of the optimal presentation after every event.
//
// The flow mirrors Fig. 4 of the paper: on document retrieval the engine
// serves defaultPresentation(); on every viewer choice the interaction
// server calls Choice/Operation and pushes the resulting views to all
// clients.
package core

import (
	"fmt"
	"sort"
	"sync"

	"mmconf/internal/cpnet"
	"mmconf/internal/document"
	"mmconf/internal/prefetch"
)

// Engine manages the presentation state of one document in one room.
// All methods are safe for concurrent use.
type Engine struct {
	mu sync.Mutex
	// doc is the shared document (hierarchy + author network).
	doc *document.Document
	// choices is the accumulated evidence: the most recent explicit
	// presentation selection per variable, across all viewers.
	choices cpnet.Outcome
	// choiceBy remembers which viewer pinned each variable, so a
	// viewer's choices can be retracted when they leave.
	choiceBy map[string]string
	// overlays holds each viewer's private extension network.
	overlays map[string]*cpnet.Overlay
	// env holds per-viewer environment evidence — measured facts about
	// one viewer's situation (e.g. the QoS loop's bandwidth level) that
	// condition only that viewer's view, unlike the shared choices.
	env map[string]cpnet.Outcome
}

// NewEngine wraps a document for cooperative presentation.
func NewEngine(doc *document.Document) (*Engine, error) {
	if doc == nil {
		return nil, fmt.Errorf("core: nil document")
	}
	if err := doc.Prefs.Validate(); err != nil {
		return nil, fmt.Errorf("core: document %s: %w", doc.ID, err)
	}
	return &Engine{
		doc:      doc,
		choices:  cpnet.Outcome{},
		choiceBy: make(map[string]string),
		overlays: make(map[string]*cpnet.Overlay),
		env:      make(map[string]cpnet.Outcome),
	}, nil
}

// Document returns the engine's document.
func (e *Engine) Document() *document.Document { return e.doc }

// Join registers a viewer, creating their private overlay, and returns
// their initial view.
func (e *Engine) Join(viewer string) (document.View, error) {
	if viewer == "" {
		return document.View{}, fmt.Errorf("core: empty viewer name")
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.overlays[viewer]; dup {
		return document.View{}, fmt.Errorf("core: viewer %q already joined", viewer)
	}
	e.overlays[viewer] = e.doc.NewOverlay()
	return e.viewForLocked(viewer)
}

// Leave retracts the viewer's choices and discards their overlay. It
// returns true if the shared presentation changed (the server should then
// push fresh views to the remaining viewers).
func (e *Engine) Leave(viewer string) (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.overlays[viewer]; !ok {
		return false, fmt.Errorf("core: viewer %q not joined", viewer)
	}
	delete(e.overlays, viewer)
	delete(e.env, viewer)
	changed := false
	for variable, by := range e.choiceBy {
		if by == viewer {
			delete(e.choices, variable)
			delete(e.choiceBy, variable)
			changed = true
		}
	}
	return changed, nil
}

// Viewers lists the joined viewers, sorted.
func (e *Engine) Viewers() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.overlays))
	for v := range e.overlays {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Choice records a viewer's explicit presentation selection — "a click
// indicating his desire to view some item in a particular form" — and
// returns the viewer's updated view. Passing an empty value retracts the
// viewer's previous choice on that variable.
func (e *Engine) Choice(viewer, variable, value string) (document.View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ov, ok := e.overlays[viewer]
	if !ok {
		return document.View{}, fmt.Errorf("core: viewer %q not joined", viewer)
	}
	if value == "" {
		if e.choiceBy[variable] != "" {
			delete(e.choices, variable)
			delete(e.choiceBy, variable)
		}
		return e.viewForViewerLocked(viewer, ov)
	}
	// Validate against the shared network or the viewer's own overlay.
	if e.doc.Prefs.HasVariable(variable) {
		dom, err := e.doc.Prefs.Domain(variable)
		if err != nil {
			return document.View{}, err
		}
		if !contains(dom, value) {
			return document.View{}, fmt.Errorf("core: variable %q has no value %q", variable, value)
		}
		e.choices[variable] = value
		e.choiceBy[variable] = viewer
		return e.viewForViewerLocked(viewer, ov)
	}
	// Private extension variable: pin it in the viewer's own evidence by
	// treating it as a per-view choice (stored in choices but scoped by
	// the overlay resolution in viewForViewerLocked).
	owned := false
	for _, name := range ov.ExtensionNames() {
		if name == variable {
			owned = true
			break
		}
	}
	if !owned {
		return document.View{}, fmt.Errorf("core: unknown variable %q", variable)
	}
	e.choices[variable] = value
	e.choiceBy[variable] = viewer
	return e.viewForViewerLocked(viewer, ov)
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// Operation records a media operation per §4.2. If private is false the
// derived variable enters the shared network and every viewer sees it;
// otherwise it lives only in this viewer's overlay ("the viewer can decide
// about the importance of this operation for the rest of the viewers").
func (e *Engine) Operation(viewer, component, op, activeWhen string, private bool) (string, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ov, ok := e.overlays[viewer]
	if !ok {
		return "", fmt.Errorf("core: viewer %q not joined", viewer)
	}
	if private {
		return e.doc.ApplyOperationPrivate(ov, component, op, activeWhen)
	}
	return e.doc.ApplyOperation(component, op, activeWhen)
}

// AddComponent grows the shared document online by one primitive
// component (document.AddComponent) under the engine lock, so the
// network mutation cannot race readers that hold only this lock — the
// QoS loop's PrefetchRank among them.
func (e *Engine) AddComponent(parent string, c *document.Component, netParents, defaultOrder []string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.doc.AddComponent(parent, c, netParents, defaultOrder)
}

// ViewFor computes the current optimal view for one viewer: the shared
// completion under all accumulated choices, extended by the viewer's
// private overlay.
func (e *Engine) ViewFor(viewer string) (document.View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.viewForLocked(viewer)
}

func (e *Engine) viewForLocked(viewer string) (document.View, error) {
	ov, ok := e.overlays[viewer]
	if !ok {
		return document.View{}, fmt.Errorf("core: viewer %q not joined", viewer)
	}
	return e.viewForViewerLocked(viewer, ov)
}

// viewForViewerLocked resolves the viewer's view: shared choices that name
// base variables apply to everyone; choices naming overlay extension
// variables apply only when this viewer owns them.
func (e *Engine) viewForViewerLocked(viewer string, ov *cpnet.Overlay) (document.View, error) {
	ev := cpnet.Outcome{}
	owned := make(map[string]bool)
	for _, name := range ov.ExtensionNames() {
		owned[name] = true
	}
	for variable, value := range e.env[viewer] {
		if e.doc.Prefs.HasVariable(variable) {
			ev[variable] = value
		}
	}
	for variable, value := range e.choices {
		if e.doc.Prefs.HasVariable(variable) || owned[variable] {
			if _, measured := e.env[viewer][variable]; measured && e.choiceBy[variable] == "" {
				// A per-viewer measurement beats the global environment
				// pin; an explicit viewer choice still wins below.
				continue
			}
			ev[variable] = value
		}
	}
	return e.doc.ReconfigPresentationFor(ov, ev)
}

// Views computes the current view of every joined viewer — what the
// interaction server broadcasts after a change.
func (e *Engine) Views() (map[string]document.View, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[string]document.View, len(e.overlays))
	for viewer, ov := range e.overlays {
		v, err := e.viewForViewerLocked(viewer, ov)
		if err != nil {
			return nil, err
		}
		out[viewer] = v
	}
	return out, nil
}

// PrefetchRank computes the push-prefetch candidate ranking for one
// viewer under the engine lock, so a concurrent media operation cannot
// mutate the document mid-rank. Evidence is the viewer's measured
// environment with the shared explicit choices layered on top.
func (e *Engine) PrefetchRank(viewer string) ([]prefetch.Candidate, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.overlays[viewer]; !ok {
		return nil, fmt.Errorf("core: viewer %q not joined", viewer)
	}
	ev := cpnet.Outcome{}
	for variable, value := range e.env[viewer] {
		if e.doc.Prefs.HasVariable(variable) {
			ev[variable] = value
		}
	}
	for variable, value := range e.choices {
		if e.doc.Prefs.HasVariable(variable) {
			ev[variable] = value
		}
	}
	return prefetch.Rank(e.doc, ev)
}

// Choices returns a copy of the accumulated shared evidence.
func (e *Engine) Choices() cpnet.Outcome {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.choices.Clone()
}
