package room

import (
	"fmt"
	"sort"
	"strings"

	"mmconf/internal/document"
	"mmconf/internal/media/image"
)

// This file implements the storage of discussion results the paper's
// introduction promises: "The results of the discussions, either in forms
// of text, or marks on the images, or speech discussions may be stored in
// the file or in other locations for future search and reference." The
// room exposes a snapshot of the discussion (Minutes) and can fold a
// rendered transcript back into the document as a new component; the
// interaction server persists both (see the room.save RPC).

// Minutes is a snapshot of one room discussion's durable results.
type Minutes struct {
	Room string
	// Chat holds the chat events in order.
	Chat []Event
	// Searches holds the shared word/speaker search events.
	Searches []Event
	// Annotations maps image object ids to their current overlays.
	Annotations map[uint64][]image.Annotation
}

// Minutes snapshots the discussion's durable results from the change
// buffer and annotation state.
func (r *Room) Minutes() Minutes {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := Minutes{Room: r.Name, Annotations: make(map[uint64][]image.Annotation)}
	for _, ev := range r.buf {
		switch ev.Kind {
		case EvChat:
			m.Chat = append(m.Chat, ev)
		case EvWordSearch, EvSpeakerSearch:
			m.Searches = append(m.Searches, ev)
		}
	}
	for id, ann := range r.anns {
		if len(ann.Annotations) > 0 {
			m.Annotations[id] = append([]image.Annotation(nil), ann.Annotations...)
		}
	}
	return m
}

// Transcript renders the minutes as the text stored in the document.
func (m Minutes) Transcript() string {
	var b strings.Builder
	fmt.Fprintf(&b, "discussion minutes — room %s\n", m.Room)
	for _, ev := range m.Chat {
		fmt.Fprintf(&b, "[%d] <%s> %s\n", ev.Seq, ev.Actor, ev.Text)
	}
	for _, ev := range m.Searches {
		fmt.Fprintf(&b, "[%d] %s searched %q: %d hit(s)\n", ev.Seq, ev.Actor, ev.Keyword, len(ev.Hits))
	}
	ids := make([]uint64, 0, len(m.Annotations))
	for id := range m.Annotations {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		for _, a := range m.Annotations[id] {
			if a.Kind == image.TextElement {
				fmt.Fprintf(&b, "mark on object %d at (%d,%d): %s\n", id, a.X1, a.Y1, a.Text)
			} else {
				fmt.Fprintf(&b, "line on object %d (%d,%d)-(%d,%d)\n", id, a.X1, a.Y1, a.X2, a.Y2)
			}
		}
	}
	return b.String()
}

// AddMinutesComponent folds a transcript into the shared document as a new
// text component under the root and propagates the change. The component
// name is returned; it is unique per call.
func (r *Room) AddMinutesComponent(actor, transcript string) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.members[actor]; !ok {
		return "", fmt.Errorf("room %s: no member %q", r.Name, actor)
	}
	doc := r.engine.Document()
	// Find a free minutes-N name.
	name := ""
	for i := 1; ; i++ {
		candidate := fmt.Sprintf("minutes-%d", i)
		if _, err := doc.Component(candidate); err != nil {
			name = candidate
			break
		}
	}
	comp := &document.Component{
		Name:  name,
		Label: fmt.Sprintf("Discussion minutes (%s)", r.Name),
		Presentations: []document.Presentation{
			{Name: "text", Kind: document.KindText, Inline: []byte(transcript), Bytes: int64(len(transcript))},
			{Name: "hidden", Kind: document.KindHidden},
		},
	}
	// Through the engine: its lock is what PrefetchRank reads under.
	if err := r.engine.AddComponent(doc.Root.Name, comp, nil, []string{"text", "hidden"}); err != nil {
		return "", err
	}
	r.bumpDocLocked() // the document grew a component: drop the cached snapshot
	r.broadcastLocked(Event{Actor: actor, Kind: EvChat,
		Text: fmt.Sprintf("discussion minutes saved as component %q", name)}, true)
	return name, nil
}
