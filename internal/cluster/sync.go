package cluster

import (
	"context"
	"crypto/sha256"
	"fmt"

	"mmconf/internal/blob"
	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/wire"
)

// This file is the dataset half of standby replication: alongside each
// room's event log (links.go), the owner ships the room's media dataset
// — table rows with payloads by digest, plus the chunk manifests behind
// them. The standby adopts the rows and pulls only the chunks its own
// CAS is missing, so a node can join with an empty store and converge
// by transferring exactly the bytes it lacks; payloads shared across
// rooms or already present from any earlier sync cost nothing. This is
// what removed the "equivalently seeded databases" restriction the
// cluster launched with.

// fetchChunkBatch bounds one MNodeFetchChunks request: 256 chunks of at
// most 64 KiB stay far inside the 64 MiB frame cap.
const fetchChunkBatch = 256

// syncDataset exports the room's document dataset and ships it to the
// standby when it changed since the last successful sync to that node
// (or when force re-sends after a dirty/standby-change full sync). The
// frame carries rows and manifests only — never payload bytes — so an
// unchanged-room resend costs one manifest-sized frame and zero chunks.
//
// Two gates keep the unchanged case cheap. The first is the store's
// write generation: it is read before the export, and recorded only
// once the standby holds what that export saw (the send succeeded or
// the fingerprint already matched). If no table changed since, the
// export could only reproduce the same frame, so it is skipped outright
// — no document read, no decode, no hash. A write racing the export
// bumps the generation past the recorded one, so the next flush
// re-exports. The SHA-256 fingerprint of the frame is the second gate,
// for writes that left this room's dataset as it was.
func (n *Node) syncDataset(roomName, docID, standby string, force bool) {
	if docID == "" || n.db == nil {
		return
	}
	gen := n.db.DB().Generation()
	n.repMu.Lock()
	st := n.rep[roomName]
	if st == nil {
		st = &repState{}
		n.rep[roomName] = st
	}
	if !force && st.dataStandby == standby && st.dataGen == gen {
		n.repMu.Unlock()
		return
	}
	n.repMu.Unlock()
	n.datasetExports.Add(1)
	ds, err := n.db.ExportDataset(docID)
	if err != nil {
		n.logf("cluster %s: export dataset for room %q: %v", n.id, roomName, err)
		return
	}
	req, err := n.buildSyncReq(roomName, ds)
	if err != nil {
		n.logf("cluster %s: manifest build for room %q: %v", n.id, roomName, err)
		return
	}
	fp := sha256.Sum256(wire.MarshalBody(req))
	n.repMu.Lock()
	if !force && st.dataStandby == standby && st.dataFP == fp {
		st.dataGen = gen
		n.repMu.Unlock()
		return
	}
	n.repMu.Unlock()
	if err := n.sendSyncManifest(standby, req); err != nil {
		n.logf("cluster %s: dataset sync of %q to %s failed: %v", n.id, roomName, standby, err)
		n.markDirty(roomName)
		return
	}
	n.manifestSyncs.Add(1)
	n.repMu.Lock()
	st.dataStandby = standby
	st.dataFP = fp
	st.dataGen = gen
	n.repMu.Unlock()
}

// buildSyncReq flattens a dataset and its blob manifests into the wire
// frame.
func (n *Node) buildSyncReq(roomName string, ds *mediadb.Dataset) (*proto.SyncManifestReq, error) {
	req := &proto.SyncManifestReq{
		Room: roomName, Node: n.id, DocID: ds.DocID, Title: ds.Title,
		DocBlob: refOf(ds.DocBlob),
	}
	for _, r := range ds.Images {
		req.Images = append(req.Images, proto.SyncImageRow{
			ID: r.ID, Quality: r.Quality, Texts: r.Texts, CM: r.CM, Data: refOf(r.Data),
		})
	}
	for _, r := range ds.Audios {
		req.Audios = append(req.Audios, proto.SyncAudioRow{
			ID: r.ID, Filename: r.Filename, Sectors: r.Sectors, Data: refOf(r.Data),
		})
	}
	for _, r := range ds.Cmps {
		req.Cmps = append(req.Cmps, proto.SyncCmpRow{
			ID: r.ID, Filename: r.Filename, FileSize: r.FileSize, Position: r.Position,
			Header: refOf(r.Header), Data: refOf(r.Data),
		})
	}
	for _, h := range ds.Handles() {
		chunks, err := n.db.DB().BlobManifest(h)
		if err != nil {
			return nil, err
		}
		m := proto.BlobManifest{Digest: append([]byte(nil), h.Digest[:]...), Length: h.Length}
		for _, cd := range chunks {
			m.Chunks = append(m.Chunks, append([]byte(nil), cd[:]...))
		}
		req.Manifests = append(req.Manifests, m)
	}
	return req, nil
}

// refOf flattens a handle for the wire; the zero handle stays zero.
func refOf(h blob.Handle) proto.BlobRef {
	if h.IsZero() {
		return proto.BlobRef{}
	}
	return proto.BlobRef{Digest: append([]byte(nil), h.Digest[:]...), Length: h.Length}
}

// handleOf rebuilds a blob handle from its wire form.
func handleOf(r proto.BlobRef) (blob.Handle, error) {
	if len(r.Digest) == 0 && r.Length == 0 {
		return blob.Handle{}, nil
	}
	d, err := digestOf(r.Digest)
	if err != nil {
		return blob.Handle{}, err
	}
	return blob.Handle{Digest: d, Length: r.Length}, nil
}

func digestOf(b []byte) (blob.Digest, error) {
	var d blob.Digest
	if len(b) != len(d) {
		return d, fmt.Errorf("cluster: digest is %d bytes, want %d", len(b), len(d))
	}
	copy(d[:], b)
	return d, nil
}

// sendSyncManifest ships one dataset sync over the control link to the
// standby.
func (n *Node) sendSyncManifest(target string, req *proto.SyncManifestReq) error {
	n.mu.Lock()
	ps := n.peers[target]
	n.mu.Unlock()
	if ps == nil {
		return fmt.Errorf("cluster: unknown sync target %s", target)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*n.cfg.SuspectAfter)
	defer cancel()
	rpc, err := ps.link.get(ctx, n)
	if err != nil {
		return err
	}
	var resp proto.SyncManifestResp
	return rpc.CallCtx(ctx, proto.MNodeSyncManifest, req, &resp)
}

// handleSyncManifest is the standby side: adopt the shipped rows,
// pulling each payload this node's CAS cannot assemble locally back
// from the sender by chunk digest. Adoption is idempotent — a resend of
// an unchanged dataset touches no rows and pulls no chunks.
func (n *Node) handleSyncManifest(ctx context.Context, p *wire.Peer, req *proto.SyncManifestReq) (*proto.SyncManifestResp, error) {
	if n.db == nil {
		return nil, fmt.Errorf("cluster %s: no database to sync into", n.id)
	}
	type manifestInfo struct {
		length uint32
		chunks []blob.Digest
	}
	manifests := make(map[blob.Digest]manifestInfo, len(req.Manifests))
	for _, m := range req.Manifests {
		d, err := digestOf(m.Digest)
		if err != nil {
			return nil, err
		}
		mi := manifestInfo{length: m.Length, chunks: make([]blob.Digest, 0, len(m.Chunks))}
		for _, cb := range m.Chunks {
			cd, err := digestOf(cb)
			if err != nil {
				return nil, err
			}
			mi.chunks = append(mi.chunks, cd)
		}
		manifests[d] = mi
	}
	ds, err := datasetOf(req)
	if err != nil {
		return nil, err
	}

	var chunksPulled uint32
	var bytesPulled uint64
	ensure := func(h blob.Handle) error {
		mi, ok := manifests[h.Digest]
		if !ok {
			return fmt.Errorf("cluster: sync of %q ships no manifest for %s", req.Room, h)
		}
		missing := n.db.DB().MissingBlobChunks(mi.chunks)
		data := make(map[blob.Digest][]byte, len(missing))
		for len(missing) > 0 {
			batch := missing
			if len(batch) > fetchChunkBatch {
				batch = batch[:fetchChunkBatch]
			}
			missing = missing[len(batch):]
			chunks, err := n.fetchChunks(ctx, req.Node, batch)
			if err != nil {
				return err
			}
			for i, cd := range batch {
				if len(chunks[i]) == 0 {
					return fmt.Errorf("cluster: node %s no longer holds chunk %x", req.Node, cd[:8])
				}
				data[cd] = chunks[i]
				chunksPulled++
				bytesPulled += uint64(len(chunks[i]))
			}
		}
		_, err := n.db.DB().PutBlobFromChunks(h.Digest, mi.length, mi.chunks, data)
		return err
	}
	adopted, err := n.db.AdoptDataset(ds, ensure)
	if err != nil {
		return nil, err
	}
	if adopted > 0 || chunksPulled > 0 {
		n.logf("cluster %s: adopted %d rows of %q from %s (%d chunks, %d bytes pulled)",
			n.id, adopted, req.Room, req.Node, chunksPulled, bytesPulled)
	}
	n.syncRowsAdopted.Add(int64(adopted))
	n.syncChunksPulled.Add(int64(chunksPulled))
	n.syncChunkBytes.Add(int64(bytesPulled))
	return &proto.SyncManifestResp{
		Node: n.id, RowsAdopted: uint32(adopted),
		ChunksPulled: chunksPulled, ChunkBytesPulled: bytesPulled,
	}, nil
}

// datasetOf rebuilds the mediadb dataset from its wire form.
func datasetOf(req *proto.SyncManifestReq) (*mediadb.Dataset, error) {
	docBlob, err := handleOf(req.DocBlob)
	if err != nil {
		return nil, err
	}
	ds := &mediadb.Dataset{DocID: req.DocID, Title: req.Title, DocBlob: docBlob}
	for _, r := range req.Images {
		h, err := handleOf(r.Data)
		if err != nil {
			return nil, err
		}
		ds.Images = append(ds.Images, mediadb.ImageRow{
			ID: r.ID, Quality: r.Quality, Texts: r.Texts, CM: r.CM, Data: h,
		})
	}
	for _, r := range req.Audios {
		h, err := handleOf(r.Data)
		if err != nil {
			return nil, err
		}
		ds.Audios = append(ds.Audios, mediadb.AudioRow{
			ID: r.ID, Filename: r.Filename, Sectors: r.Sectors, Data: h,
		})
	}
	for _, r := range req.Cmps {
		hh, err := handleOf(r.Header)
		if err != nil {
			return nil, err
		}
		dh, err := handleOf(r.Data)
		if err != nil {
			return nil, err
		}
		ds.Cmps = append(ds.Cmps, mediadb.CmpRow{
			ID: r.ID, Filename: r.Filename, FileSize: r.FileSize, Position: r.Position,
			Header: hh, Data: dh,
		})
	}
	return ds, nil
}

// fetchChunks pulls one batch of chunks from the named peer over the
// control link.
func (n *Node) fetchChunks(ctx context.Context, from string, digests []blob.Digest) ([][]byte, error) {
	n.mu.Lock()
	ps := n.peers[from]
	n.mu.Unlock()
	if ps == nil {
		return nil, fmt.Errorf("cluster: unknown chunk source %s", from)
	}
	cctx, cancel := context.WithTimeout(ctx, 2*n.cfg.SuspectAfter)
	defer cancel()
	rpc, err := ps.link.get(cctx, n)
	if err != nil {
		return nil, err
	}
	req := &proto.FetchChunksReq{Node: n.id, Digests: make([][]byte, 0, len(digests))}
	for _, cd := range digests {
		req.Digests = append(req.Digests, append([]byte(nil), cd[:]...))
	}
	var resp proto.FetchChunksResp
	if err := rpc.CallCtx(cctx, proto.MNodeFetchChunks, req, &resp); err != nil {
		return nil, err
	}
	if len(resp.Chunks) != len(digests) {
		return nil, fmt.Errorf("cluster: asked %s for %d chunks, got %d", from, len(digests), len(resp.Chunks))
	}
	return resp.Chunks, nil
}

// handleFetchChunks serves a chunk batch by digest — the sender side of
// the standby's pull. Unknown digests return empty entries; the puller
// treats that as a hard error for chunks it was just promised.
func (n *Node) handleFetchChunks(ctx context.Context, p *wire.Peer, req *proto.FetchChunksReq) (*proto.FetchChunksResp, error) {
	if n.db == nil {
		return nil, fmt.Errorf("cluster %s: no database to serve chunks from", n.id)
	}
	if len(req.Digests) > 4*fetchChunkBatch {
		return nil, fmt.Errorf("cluster: chunk batch of %d exceeds the %d limit", len(req.Digests), 4*fetchChunkBatch)
	}
	resp := &proto.FetchChunksResp{Chunks: make([][]byte, len(req.Digests))}
	for i, db := range req.Digests {
		cd, err := digestOf(db)
		if err != nil {
			continue // malformed digest: empty entry, same as unknown
		}
		if chunk, err := n.db.DB().GetBlobChunk(cd); err == nil {
			resp.Chunks[i] = chunk
		}
	}
	return resp, nil
}
