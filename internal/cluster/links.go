package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"mmconf/internal/proto"
	"mmconf/internal/room"
	"mmconf/internal/server"
	"mmconf/internal/wire"
)

// This file is the node-link half of the cluster: the control links
// (hello + heartbeat pings + event-log replication) every node keeps to
// every peer, and the per-client ingress links a forwarding node opens
// to relay a wrong-node client's requests — and the owner's pushes —
// byte-for-byte.

// --- control links and liveness ---

// get returns the live control link to this peer, dialing (and
// identifying with a hello) when absent or dead.
func (l *peerLink) get(ctx context.Context, n *Node) (*wire.Client, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.rpc != nil {
		select {
		case <-l.rpc.Done():
			l.rpc = nil
		default:
			return l.rpc, nil
		}
	}
	conn, err := n.cfg.Dial(ctx, l.addr)
	if err != nil {
		return nil, err
	}
	rpc := wire.NewClient(conn)
	rpc.SetCallTimeout(2 * n.cfg.SuspectAfter)
	var resp proto.NodeHelloResp
	if err := rpc.CallCtx(ctx, proto.MNodeHello, &proto.NodeHelloReq{Node: n.id, Addr: n.cfg.Addr, Epoch: n.epoch}, &resp); err != nil {
		rpc.Close()
		return nil, err
	}
	if resp.Node != l.id {
		rpc.Close()
		return nil, fmt.Errorf("cluster: dialed %s expecting node %s, reached %s", l.addr, l.id, resp.Node)
	}
	l.rpc = rpc
	return rpc, nil
}

// close tears the control link down (the next get redials).
func (l *peerLink) close() {
	l.mu.Lock()
	if l.rpc != nil {
		l.rpc.Close()
		l.rpc = nil
	}
	l.mu.Unlock()
}

// pinger heartbeats one peer for the node's lifetime. Liveness is
// symmetric — each side both sends pings and observes received ones —
// so a one-way dial failure still converges.
func (n *Node) pinger(ps *peerState) {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		n.pingOnce(ps)
		select {
		case <-n.closed:
			return
		case <-t.C:
		}
	}
}

// pingOnce sends one heartbeat and folds the outcome into the liveness
// view.
func (n *Node) pingOnce(ps *peerState) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.SuspectAfter)
	defer cancel()
	rpc, err := ps.link.get(ctx, n)
	if err != nil {
		n.markDead(ps.id, false)
		return
	}
	var resp proto.NodePingResp
	if err := rpc.CallCtx(ctx, proto.MNodePing, &proto.NodePingReq{Node: n.id, Epoch: n.epoch, Draining: n.isDraining()}, &resp); err != nil {
		ps.link.close()
		n.markDead(ps.id, false)
		return
	}
	n.markLive(ps.id)
}

// handleHello identifies a dialing peer and marks it live.
func (n *Node) handleHello(ctx context.Context, p *wire.Peer, req *proto.NodeHelloReq) (*proto.NodeHelloResp, error) {
	n.markLive(req.Node)
	return &proto.NodeHelloResp{Node: n.id, Epoch: n.epoch}, nil
}

// handlePing answers a heartbeat: record the sender's liveness (or its
// drain announcement) and report this node's current live view — the
// convergence hint the ping protocol carries.
func (n *Node) handlePing(ctx context.Context, p *wire.Peer, req *proto.NodePingReq) (*proto.NodePingResp, error) {
	if req.Draining {
		n.markDead(req.Node, true)
	} else {
		n.markLive(req.Node)
	}
	place, _ := n.view()
	return &proto.NodePingResp{Node: n.id, Epoch: n.epoch, Live: place.Nodes()}, nil
}

// --- ingress forwarding ---

// ingressSet is a forwarding node's per-client bundle of relay links,
// keyed by owner node id. Each origin client gets its own connection to
// each owner it reaches through this node, so the owner sees one
// session scope per client (exactly as if the client had dialed it) and
// pushes relay back to the right client.
type ingressSet struct {
	mu    sync.Mutex
	links map[string]*ingressLink
}

// handleIngress marks the calling connection as a node-link ingress:
// requests relayed on it were originated by a client of req.Node, and
// this node must never re-forward them (one hop only — if placement
// moved again, the origin gets a redirect instead).
func (n *Node) handleIngress(ctx context.Context, p *wire.Peer, req *proto.NodeIngressReq) (*proto.NodeIngressResp, error) {
	p.SetMeta(metaIngress, req.Node)
	return &proto.NodeIngressResp{Node: n.id}, nil
}

// forward relays a room-scoped request to its owner over the origin
// client's ingress link and returns the owner's response payload
// verbatim. Owner-side handler errors relay as RemoteError (typed
// errors like redirects survive — the strings cross unmodified);
// transport failures surface as cluster-unavailable, and the dead link
// is dropped so the next request redials.
func (n *Node) forward(ctx context.Context, p *wire.Peer, owner, method string, payload []byte) (any, error) {
	enc := wire.ContextPayloadEnc(ctx)
	rpc, err := n.ingressLinkFor(ctx, p, owner)
	if err != nil {
		n.forwardErrs.Add(1)
		return nil, &wire.UnavailableError{Node: n.id, Reason: "relay to " + owner + " failed"}
	}
	body, err := rpc.CallRaw(ctx, method, enc, payload)
	if err != nil {
		if re, ok := err.(*wire.RemoteError); ok {
			// The relay worked; the owner's handler said no. Pass its
			// message through untouched.
			n.forwards.Add(1)
			return nil, re
		}
		n.forwardErrs.Add(1)
		n.dropIngressLink(p, owner, rpc)
		return nil, &wire.UnavailableError{Node: n.id, Reason: "relay to " + owner + " failed"}
	}
	n.forwards.Add(1)
	return wire.RawResult{Enc: body.Enc, Payload: body.Data}, nil
}

// ingressLinkFor returns (dialing on demand) the origin peer's relay
// link to owner. A link found dead is dropped and redialed once.
func (n *Node) ingressLinkFor(ctx context.Context, p *wire.Peer, owner string) (*wire.Client, error) {
	set := p.MetaSetDefault(metaIngressLinks, newIngressSet()).(*ingressSet)
	for attempt := 0; attempt < 2; attempt++ {
		set.mu.Lock()
		lk := set.links[owner]
		if lk == nil {
			lk = &ingressLink{ready: make(chan struct{})}
			set.links[owner] = lk
			set.mu.Unlock()
			lk.rpc, lk.err = n.dialIngress(ctx, p, owner)
			close(lk.ready)
		} else {
			set.mu.Unlock()
			select {
			case <-lk.ready:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if lk.err != nil {
			n.dropIngressLink(p, owner, nil)
			return nil, lk.err
		}
		select {
		case <-lk.rpc.Done():
			// Stale link from a previous owner incarnation; retry fresh.
			n.dropIngressLink(p, owner, lk.rpc)
			continue
		default:
		}
		return lk.rpc, nil
	}
	return nil, fmt.Errorf("cluster: relay link to %s will not stay up", owner)
}

// ingressLink is one lazily dialed relay connection; ready closes once
// the dial (by whichever request got there first) settles.
type ingressLink struct {
	ready chan struct{}
	rpc   *wire.Client
	err   error
}

func newIngressSet() *ingressSet {
	return &ingressSet{links: make(map[string]*ingressLink)}
}

// closeAll tears down every relay link (the origin client is gone).
func (s *ingressSet) closeAll() {
	s.mu.Lock()
	links := s.links
	s.links = make(map[string]*ingressLink)
	s.mu.Unlock()
	for _, lk := range links {
		go func(lk *ingressLink) {
			<-lk.ready
			if lk.rpc != nil {
				lk.rpc.Close()
			}
		}(lk)
	}
}

// dropIngressLink forgets (and closes) the peer's relay link to owner.
func (n *Node) dropIngressLink(p *wire.Peer, owner string, rpc *wire.Client) {
	v, ok := p.Meta(metaIngressLinks)
	if !ok {
		return
	}
	set := v.(*ingressSet)
	set.mu.Lock()
	lk := set.links[owner]
	if lk != nil {
		select {
		case <-lk.ready:
		default:
			lk = nil // still dialing; leave it alone
		}
	}
	if lk != nil && (rpc == nil || lk.rpc == rpc) {
		delete(set.links, owner)
	}
	set.mu.Unlock()
	if rpc != nil {
		rpc.Close()
	}
}

// dialIngress opens a relay connection to owner on behalf of origin
// peer p: identify with an ingress mark, relay every push the owner
// sends back to the origin client byte-for-byte, and — should the link
// die while the client lives — close the client's connection so its
// reconnect supervisor redials and resumes on whatever node owns its
// rooms now.
func (n *Node) dialIngress(ctx context.Context, p *wire.Peer, owner string) (*wire.Client, error) {
	addr := n.cfg.Peers[owner]
	if addr == "" {
		return nil, fmt.Errorf("cluster: no address for node %s", owner)
	}
	dctx, cancel := context.WithTimeout(ctx, n.cfg.SuspectAfter)
	defer cancel()
	conn, err := n.cfg.Dial(dctx, addr)
	if err != nil {
		return nil, err
	}
	rpc := wire.NewClient(conn)
	rpc.SetCallTimeout(2 * n.cfg.SuspectAfter)
	var resp proto.NodeIngressResp
	if err := rpc.CallCtx(dctx, proto.MNodeIngress, &proto.NodeIngressReq{Node: n.id, PeerID: p.ID}, &resp); err != nil {
		rpc.Close()
		return nil, err
	}
	rpc.OnPush(func(method string, body wire.Body) {
		_ = p.PushRaw(method, body.Enc, body.Data)
	})
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		select {
		case <-rpc.Done():
			// The owner (or the path to it) died mid-session: the client's
			// forwarded sessions are marooned. Kill its connection; the
			// resume machinery takes it from there.
			_ = p.Close()
		case <-n.closed:
			rpc.Close()
		}
	}()
	return rpc, nil
}

// --- event-log replication ---

// replicaBuffer bounds a replicated room log, mirroring the room's own
// change buffer: a standby holds at most this many trailing events.
const replicaBuffer = 1024

// replica is a standby's copy of one room's event log.
//
// The tail is a sliding window over buf: the live events are
// buf[head:], never more than replicaBuffer of them, and buf never
// grows past 2×replicaBuffer. Trimming only advances head; when an
// append finds buf full, the live window (at most half of it) is copied
// back to the front. So a full tail absorbs each batch without
// allocating, and each event is copied O(1) times on average.
type replica struct {
	docID   string
	buf     []room.Event
	head    int
	seq     uint64 // log high-water (includes event-free seq advances)
	trimmed uint64 // highest sequence dropped from the tail
}

// events returns the live tail (aliases buf; the caller must not keep it
// across a later apply).
func (r *replica) events() []room.Event { return r.buf[r.head:] }

// apply folds one replication request in. Events merge by sequence
// (snapshot retransmits overlap incremental batches), the high-waters
// only move forward, and the buffer cap trims from the front.
func (r *replica) apply(req *proto.ReplicateReq) {
	var last uint64
	if len(r.buf) > r.head {
		last = r.buf[len(r.buf)-1].Seq
	}
	for i := range req.Events {
		if ev := &req.Events[i]; ev.Seq > last {
			r.push(ev)
			last = ev.Seq
		}
	}
	if req.Seq > r.seq {
		r.seq = req.Seq
	}
	if req.Trimmed > r.trimmed {
		r.trimmed = req.Trimmed
	}
	for r.head < len(r.buf) && r.buf[r.head].Seq <= r.trimmed {
		r.head++
	}
}

// push appends one event to the tail, dropping the oldest live event
// (and raising trimmed to it) once the tail holds replicaBuffer.
func (r *replica) push(ev *room.Event) {
	if len(r.buf) == cap(r.buf) {
		live := r.buf[r.head:]
		if r.head > 0 && r.head >= len(live) {
			// At least half of buf is dead prefix: slide the window
			// down in place and clear the vacated slots.
			n := copy(r.buf, live)
			clear(r.buf[n:])
			r.buf = r.buf[:n]
		} else {
			// Still filling: grow toward the 2×replicaBuffer ceiling.
			grown := make([]room.Event, len(live), min(max(2*len(live), 16), 2*replicaBuffer))
			copy(grown, live)
			r.buf = grown
		}
		r.head = 0
	}
	r.buf = append(r.buf, *ev)
	if len(r.buf)-r.head > replicaBuffer {
		if s := r.buf[r.head].Seq; s > r.trimmed {
			r.trimmed = s
		}
		r.head++
	}
}

// handleReplicate accepts an owner's event-log stream for a room this
// node stands by for. A replicated log strictly ahead of a live local
// room exposes the local copy as stale — this node served the room
// while partitioned away or before a handoff — so the local room is
// evicted rather than ever shadowing the authoritative log.
func (n *Node) handleReplicate(ctx context.Context, p *wire.Peer, req *proto.ReplicateReq) (*proto.ReplicateResp, error) {
	if snap, ok := n.srv.SnapshotRoom(req.Room); ok && req.Seq > snap.Seq {
		n.evictRoom(req.Room, "newer replicated log")
	}
	return &proto.ReplicateResp{Seq: n.foldReplica(req)}, nil
}

// foldReplica applies req to the room's replica, creating it on first
// contact, and returns the replica's log high-water.
func (n *Node) foldReplica(req *proto.ReplicateReq) uint64 {
	n.replMu.Lock()
	defer n.replMu.Unlock()
	r := n.replicas[req.Room]
	if r == nil {
		r = &replica{docID: req.DocID}
		n.replicas[req.Room] = r
	}
	r.apply(req)
	return r.seq
}

// repEvent is one tap observation in flight to the replication loop.
type repEvent struct {
	room, docID  string
	ev           *room.Event
	seq, trimmed uint64
}

// repState is the owner-side replication cursor for one room.
type repState struct {
	standby string // node the log last streamed to
	dirty   bool   // lost updates or failed send: re-snapshot
	// dataStandby/dataFP/dataGen are the dataset-sync cursor: the node
	// the room's media manifest last shipped to, the fingerprint of what
	// it saw, and the store write generation that export started from.
	// A matching standby and generation skips the export; a matching
	// standby and fingerprint skips the send (sync.go).
	dataStandby string
	dataFP      [32]byte
	dataGen     uint64
}

// roomTap observes every local room event-log advance (called under the
// room lock — it must not block): queue the update for the replication
// loop, or mark the room for a full re-snapshot when the queue is full.
func (n *Node) roomTap(roomName, docID string, ev *room.Event, seq, trimmed uint64) {
	re := repEvent{room: roomName, docID: docID, seq: seq, trimmed: trimmed}
	if ev != nil {
		cp := *ev
		re.ev = &cp
	}
	select {
	case n.repCh <- re:
	default:
		n.markDirty(roomName)
	}
}

func (n *Node) markDirty(roomName string) {
	n.repMu.Lock()
	st := n.rep[roomName]
	if st == nil {
		st = &repState{}
		n.rep[roomName] = st
	}
	st.dirty = true
	n.repMu.Unlock()
}

// ForceResync marks every replicated room dirty: the next replication
// round re-sends full snapshots and dataset manifests even if nothing
// changed. Tests and experiments use it to measure the cost of a
// no-op re-sync (manifest frame, zero chunks).
func (n *Node) ForceResync() { n.markAllDirty() }

// markAllDirty forces a re-snapshot of every replicated room — the
// placement changed, so standbys may have too.
func (n *Node) markAllDirty() {
	n.repMu.Lock()
	for _, st := range n.rep {
		st.dirty = true
	}
	n.repMu.Unlock()
}

// replLoop streams the node's room event logs to each room's standby:
// incremental batches on the hot path, full snapshots after a standby
// change, a lost update, or a failed send.
func (n *Node) replLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.HeartbeatInterval)
	defer t.Stop()
	pending := make(map[string]*pendingRep)
	flush := func() {
		for name, pr := range pending {
			n.flushRoom(name, pr)
			delete(pending, name)
		}
	}
	for {
		select {
		case <-n.closed:
			return
		case re := <-n.repCh:
			foldRep(pending, re)
		drain:
			for i := 0; i < 1024; i++ {
				select {
				case re := <-n.repCh:
					foldRep(pending, re)
				default:
					break drain
				}
			}
			flush()
		case <-t.C:
			flush()
			n.retryDirty()
		}
	}
}

// pendingRep is a batched set of untransmitted advances for one room.
type pendingRep struct {
	docID        string
	events       []room.Event
	seq, trimmed uint64
}

func foldRep(pending map[string]*pendingRep, re repEvent) {
	pr := pending[re.room]
	if pr == nil {
		pr = &pendingRep{docID: re.docID}
		pending[re.room] = pr
	}
	if re.ev != nil {
		pr.events = append(pr.events, *re.ev)
	}
	if re.seq > pr.seq {
		pr.seq = re.seq
	}
	if re.trimmed > pr.trimmed {
		pr.trimmed = re.trimmed
	}
}

// flushRoom transmits one room's pending advances to its standby.
func (n *Node) flushRoom(name string, pr *pendingRep) {
	place, quorum := n.view()
	if !quorum {
		// A minority node must not replicate: its log may be the stale
		// side of a healed split.
		n.markDirty(name)
		return
	}
	standby := place.Standby(name)
	if standby == "" || standby == n.id {
		return
	}
	n.repMu.Lock()
	st := n.rep[name]
	if st == nil {
		st = &repState{}
		n.rep[name] = st
	}
	full := st.dirty || st.standby != standby
	n.repMu.Unlock()
	req := &proto.ReplicateReq{Room: name, DocID: pr.docID, Seq: pr.seq, Trimmed: pr.trimmed, Events: pr.events}
	if full {
		snap, ok := n.srv.SnapshotRoom(name)
		if !ok {
			// The room is gone (evicted or closed): nothing to stream.
			n.repMu.Lock()
			delete(n.rep, name)
			n.repMu.Unlock()
			return
		}
		req = &proto.ReplicateReq{Room: snap.Room, DocID: snap.DocID, Seq: snap.Seq, Trimmed: snap.Trimmed, Events: snap.Events}
	}
	if err := n.sendReplicate(standby, req); err != nil {
		n.markDirty(name)
		return
	}
	n.repMu.Lock()
	st.standby = standby
	if full {
		st.dirty = false
	}
	n.repMu.Unlock()
	// The log landed; make sure the standby can also materialize the
	// room's media. Manifests only — the standby pulls what it lacks.
	n.syncDataset(name, req.DocID, standby, full)
}

// retryDirty re-flushes rooms whose replication fell behind.
func (n *Node) retryDirty() {
	n.repMu.Lock()
	var names []string
	for name, st := range n.rep {
		if st.dirty {
			names = append(names, name)
		}
	}
	n.repMu.Unlock()
	for _, name := range names {
		n.flushRoom(name, &pendingRep{})
	}
}

// sendReplicate ships one replication request over the control link.
func (n *Node) sendReplicate(target string, req *proto.ReplicateReq) error {
	n.mu.Lock()
	ps := n.peers[target]
	n.mu.Unlock()
	if ps == nil {
		return fmt.Errorf("cluster: unknown replication target %s", target)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*n.cfg.SuspectAfter)
	defer cancel()
	rpc, err := ps.link.get(ctx, n)
	if err != nil {
		return err
	}
	var resp proto.ReplicateResp
	if err := rpc.CallCtx(ctx, proto.MNodeReplicate, req, &resp); err != nil {
		return err
	}
	n.replicated.Add(1)
	return nil
}

// sendSnapshot best-effort ships a full room snapshot to target (the
// drain/handoff path).
func (n *Node) sendSnapshot(target string, snap server.RoomSnapshot) {
	if err := n.sendReplicate(target, &proto.ReplicateReq{
		Room: snap.Room, DocID: snap.DocID, Seq: snap.Seq, Trimmed: snap.Trimmed, Events: snap.Events,
	}); err != nil {
		n.logf("cluster %s: snapshot of %q to %s failed: %v", n.id, snap.Room, target, err)
	}
}
