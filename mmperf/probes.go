package main

import (
	"context"
	"fmt"
	"sync"

	"mmconf/internal/core"
	"mmconf/internal/document"
	"mmconf/internal/mediadb"
	"mmconf/internal/room"
	"mmconf/internal/wire"
)

// probeCalls is how many direct calls each probe times.
const probeCalls = 200

// Probes time direct calls into single layers, on the workload's own
// document and store, after the traced phase. They run in the traced
// run only and feed the per-layer metrics, never the end-to-end ones.

// serverDoc loads a stored document the way the server prepares a room's
// copy: with the bandwidth-tuning variable its QoS loop adds.
func serverDoc(mdb *mediadb.MediaDB, id string) (*document.Document, error) {
	doc, err := mdb.GetDocument(id)
	if err != nil {
		return nil, err
	}
	if tpl := core.AutoBandwidthTemplates(doc, 0); len(tpl) > 0 && !doc.Prefs.HasVariable(core.BandwidthVariable) {
		if err := core.AddBandwidthTuning(doc, tpl); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// probeEngine times core.Engine.Choice and Views, a room.Room.Choice with
// n in-process members attached and drained, and the binary codec of a
// presentation event, all on the record the workload serves.
func probeEngine(tr *tracer, mdb *mediadb.MediaDB, rec *record, n int, seed int64) error {
	doc, err := serverDoc(mdb, rec.doc.ID)
	if err != nil {
		return err
	}
	eng, err := core.NewEngine(doc)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := eng.Join(fmt.Sprintf("m%d", i)); err != nil {
			return err
		}
	}
	script := newChoiceScript(seed, rec, pinLimit)
	var last document.View
	for i := 0; i < probeCalls; i++ {
		v, val := script.next()
		end := tr.begin(spanCoreChoice, 0, "probe")
		_, err := eng.Choice("m0", v, val)
		end()
		if err != nil {
			return err
		}
		end = tr.begin(spanCoreViews, 0, "probe")
		views, err := eng.Views()
		end()
		if err != nil {
			return err
		}
		last = views["m0"]
	}

	ev := room.Event{Seq: 1, Room: "probe", Actor: "m0", Kind: room.EvPresentation, Outcome: last.Outcome, Visible: last.Visible}
	for i := 0; i < probeCalls; i++ {
		end := tr.begin(spanEncode, 0, "probe")
		data, err := room.MarshalEventBinary(ev)
		end()
		if err != nil {
			return err
		}
		var got room.Event
		end = tr.begin(spanDecode, 0, "probe")
		err = wire.DecodeBodyBytes(data, &got)
		end()
		if err != nil {
			return err
		}
	}

	doc, err = serverDoc(mdb, rec.doc.ID)
	if err != nil {
		return err
	}
	r, err := room.New("probe", doc)
	if err != nil {
		return err
	}
	var wg sync.WaitGroup
	defer func() {
		r.Close()
		wg.Wait()
	}()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		m, _, _, err := r.Join(ctx, fmt.Sprintf("m%d", i))
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ev := range m.Events() {
				m.Consumed(ev)
			}
		}()
	}
	script = newChoiceScript(seed+1, rec, pinLimit)
	for i := 0; i < probeCalls; i++ {
		v, val := script.next()
		end := tr.begin(spanRoomChoice, 0, "probe")
		err := r.Choice(ctx, "m0", v, val)
		end()
		if err != nil {
			return err
		}
	}
	return nil
}

// probeStore times direct mediadb and blob-store calls on the workload's
// store: object reads, a dataset export and the blob reads behind it,
// image-text updates and document writes.
func probeStore(tr *tracer, mdb *mediadb.MediaDB, docID string, images, cmps []uint64) error {
	for i := 0; i < probeCalls && len(images) > 0; i++ {
		end := tr.begin(spanGetImage, 0, "probe")
		_, err := mdb.GetImage(images[i%len(images)])
		end()
		if err != nil {
			return err
		}
	}
	for i := 0; i < probeCalls && len(cmps) > 0; i++ {
		end := tr.begin(spanGetCmp, 0, "probe")
		_, err := mdb.GetCmp(cmps[i%len(cmps)])
		end()
		if err != nil {
			return err
		}
	}
	var ds *mediadb.Dataset
	for i := 0; i < probeCalls/10; i++ {
		end := tr.begin(spanExport, 0, "probe")
		var err error
		ds, err = mdb.ExportDataset(docID)
		end()
		if err != nil {
			return err
		}
	}
	handles := ds.Handles()
	for i := 0; i < probeCalls; i++ {
		end := tr.begin(spanGetBlob, 0, "probe")
		_, err := mdb.DB().GetBlob(handles[i%len(handles)])
		end()
		if err != nil {
			return err
		}
	}
	for i := 0; i < probeCalls && len(images) > 0; i++ {
		end := tr.begin(spanTexts, 0, "probe")
		err := mdb.UpdateImageTexts(images[i%len(images)], fmt.Sprintf(`[{"ID":%d}]`, i))
		end()
		if err != nil {
			return err
		}
	}
	doc, err := mdb.GetDocument(docID)
	if err != nil {
		return err
	}
	for i := 0; i < probeCalls/10; i++ {
		end := tr.begin(spanPutDoc, 0, "probe")
		err := mdb.PutDocument(doc)
		end()
		if err != nil {
			return err
		}
	}
	return nil
}
