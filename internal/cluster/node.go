package cluster

import (
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mmconf/internal/mediadb"
	"mmconf/internal/proto"
	"mmconf/internal/server"
	"mmconf/internal/wire"
)

// Config describes one node's place in the cluster.
type Config struct {
	// ID is this node's cluster-unique name; Addr the client address it
	// advertises in redirects.
	ID   string
	Addr string
	// Peers maps every other node's id to its client address. The same
	// address serves clients and node links — node methods ride the
	// ordinary wire protocol at control priority.
	Peers map[string]string
	// Dial opens node-link connections (nil: plain TCP). The harness
	// passes a netsim-faulted dialer here so node links partition and
	// die with their node.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
	// Forward makes this node relay wrong-node requests from protocol-v2
	// clients transparently to the owner instead of redirecting (gob
	// clients always get redirects — a relay must preserve payload
	// encodings end-to-end, which only v2 frames carry). Joins and
	// mid-session operations forward alike; pushed events relay back
	// over the same per-client link.
	Forward bool
	// HeartbeatInterval paces node pings (default 500ms); SuspectAfter
	// is how stale a peer's last pong may be before it is presumed dead
	// (default 3× the interval).
	HeartbeatInterval time.Duration
	SuspectAfter      time.Duration
	// Logf, when set, receives node lifecycle diagnostics.
	Logf func(format string, args ...any)
}

func (c *Config) normalize() error {
	if c.ID == "" {
		return fmt.Errorf("cluster: node needs an ID")
	}
	if _, self := c.Peers[c.ID]; self {
		return fmt.Errorf("cluster: node %s lists itself as a peer", c.ID)
	}
	if c.Dial == nil {
		c.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 3 * c.HeartbeatInterval
	}
	return nil
}

// Metrics counts the node's routing and replication activity.
type Metrics struct {
	// Redirects counts requests answered with a redirect to the owner;
	// Forwards counts requests relayed to the owner over a node link;
	// ForwardErrors counts relays that failed at the transport (the
	// origin client was told the cluster is unavailable).
	Redirects, Forwards, ForwardErrors int64
	// Unavailable counts requests refused for lack of a cluster
	// majority (split-brain rejection) or mid-drain.
	Unavailable int64
	// Replicated counts replication RPCs sent; Evictions counts local
	// rooms dropped because placement moved them to another node.
	Replicated, Evictions int64
	// ManifestSyncs counts dataset manifest frames sent to standbys;
	// the Sync* counters aggregate what this node adopted as a standby:
	// rows applied, and chunks (with their payload bytes) pulled because
	// its CAS lacked them. An unchanged resend moves none of the three.
	ManifestSyncs                                           int64
	SyncRowsAdopted, SyncChunksPulled, SyncChunkBytesPulled int64
	// DatasetExports counts dataset exports the owner ran to build a
	// manifest frame; flushes with no store write since the last sync
	// to the same standby skip the export and do not count.
	DatasetExports int64
}

// Node is one cluster member: an interaction server plus the routing
// tier that steers each room to its rendezvous owner, the liveness view
// that gates serving on a majority, and the event-log replication that
// makes failover resume exact. Build with New, serve with Serve.
type Node struct {
	cfg   Config
	id    string
	epoch uint64
	srv   *server.Server
	db    *mediadb.MediaDB

	mu       sync.Mutex
	peers    map[string]*peerState
	place    *Placement
	placeKey string
	lastRec  string // live-set key the reconciler last acted on
	// roomPeers tracks, per locally served room, the connections with a
	// member in it — the set reconciliation disconnects when ownership
	// moves away.
	roomPeers map[string]map[*wire.Peer]struct{}
	draining  bool

	// replicas holds event logs replicated here for rooms this node
	// stands by for; becoming owner consumes them as room seeds.
	replMu   sync.Mutex
	replicas map[string]*replica

	// repCh carries owner-side event-log advances to the replication
	// loop; rep tracks per-room replication state.
	repCh chan repEvent
	repMu sync.Mutex
	rep   map[string]*repState

	closed    chan struct{}
	closeOnce sync.Once
	recNotify chan struct{}
	wg        sync.WaitGroup

	redirects, forwards, forwardErrs  atomic.Int64
	unavailable, replicated           atomic.Int64
	evictions, manifestSyncs          atomic.Int64
	syncRowsAdopted, syncChunksPulled atomic.Int64
	syncChunkBytes, datasetExports    atomic.Int64
}

// peerState is this node's view of one configured peer.
type peerState struct {
	id, addr string
	link     peerLink
	// lastSeen is the last successful contact (zero: presumed dead);
	// draining marks a peer that announced an orderly departure.
	lastSeen time.Time
	draining bool
}

// peerLink is the lazily dialed control connection to one peer —
// heartbeats and replication share it. It carries its own lock so link
// churn never contends with the liveness view.
type peerLink struct {
	id, addr string
	mu       sync.Mutex
	rpc      *wire.Client
}

// New builds a cluster node around a server constructed with opts. The
// cluster installs its routing interceptor, room seed/tap hooks and
// peer-close hook into opts; the caller's own values for those fields
// must be nil. Call Serve to accept, Close (or Drain) to stop.
func New(db *mediadb.MediaDB, opts server.Options, cfg Config) (*Node, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if opts.Intercept != nil || opts.RoomSeed != nil || opts.RoomTap != nil || opts.OnPeerClose != nil {
		return nil, fmt.Errorf("cluster: server options already carry cluster hooks")
	}
	n := &Node{
		cfg:       cfg,
		id:        cfg.ID,
		db:        db,
		epoch:     uint64(time.Now().UnixNano()),
		peers:     make(map[string]*peerState, len(cfg.Peers)),
		roomPeers: make(map[string]map[*wire.Peer]struct{}),
		replicas:  make(map[string]*replica),
		repCh:     make(chan repEvent, 4096),
		rep:       make(map[string]*repState),
		closed:    make(chan struct{}),
		recNotify: make(chan struct{}, 1),
	}
	for id, addr := range cfg.Peers {
		n.peers[id] = &peerState{id: id, addr: addr, link: peerLink{id: id, addr: addr}}
	}
	opts.NodeID = cfg.ID
	opts.Intercept = n.intercept
	opts.RoomSeed = n.roomSeed
	opts.RoomTap = n.roomTap
	opts.OnPeerClose = n.peerClosed
	srv, err := server.NewWith(db, opts)
	if err != nil {
		return nil, err
	}
	n.srv = srv
	srv.Register(proto.MNodeHello, wire.Typed(n.handleHello))
	srv.Register(proto.MNodePing, wire.Typed(n.handlePing))
	srv.Register(proto.MNodeIngress, wire.Typed(n.handleIngress))
	srv.Register(proto.MNodeReplicate, wire.Typed(n.handleReplicate))
	srv.Register(proto.MNodeSyncManifest, wire.Typed(n.handleSyncManifest))
	srv.Register(proto.MNodeFetchChunks, wire.Typed(n.handleFetchChunks))
	for _, ps := range n.peers {
		n.wg.Add(1)
		go n.pinger(ps)
	}
	n.wg.Add(1)
	go n.replLoop()
	n.wg.Add(1)
	go n.reconciler()
	return n, nil
}

// Server exposes the node's interaction server (stats, shutdown seams).
func (n *Node) Server() *server.Server { return n.srv }

// ID returns the node's cluster id.
func (n *Node) ID() string { return n.id }

// Metrics returns a snapshot of the node's routing counters.
func (n *Node) Metrics() Metrics {
	return Metrics{
		Redirects:     n.redirects.Load(),
		Forwards:      n.forwards.Load(),
		ForwardErrors: n.forwardErrs.Load(),
		Unavailable:   n.unavailable.Load(),
		Replicated:    n.replicated.Load(),
		Evictions:     n.evictions.Load(),

		ManifestSyncs:        n.manifestSyncs.Load(),
		SyncRowsAdopted:      n.syncRowsAdopted.Load(),
		SyncChunksPulled:     n.syncChunksPulled.Load(),
		SyncChunkBytesPulled: n.syncChunkBytes.Load(),
		DatasetExports:       n.datasetExports.Load(),
	}
}

// Serve accepts client and node-link connections on l until it closes.
func (n *Node) Serve(l net.Listener) error { return n.srv.Serve(l) }

// Close stops the node abruptly: background loops halt, node links
// close, and the server shuts down with its default drain budget.
func (n *Node) Close() error {
	n.closeOnce.Do(func() { close(n.closed) })
	err := n.srv.Close()
	n.mu.Lock()
	peers := make([]*peerState, 0, len(n.peers))
	for _, ps := range n.peers {
		peers = append(peers, ps)
	}
	n.mu.Unlock()
	for _, ps := range peers {
		ps.link.close()
	}
	n.wg.Wait()
	return err
}

// Drain hands the node's rooms off and shuts down: peers learn the node
// is leaving (so placement moves before clients reconnect), every local
// room's event log is pushed to its post-drain owner and standby, then
// the server shuts down gracefully — members get the shutdown
// announcement, reconnect, follow the redirect, and resume on the new
// owner from the replicated log.
func (n *Node) Drain(ctx context.Context) error {
	n.mu.Lock()
	n.draining = true
	peers := make([]*peerState, 0, len(n.peers))
	for _, ps := range n.peers {
		peers = append(peers, ps)
	}
	n.mu.Unlock()
	// Announce the departure on every live link.
	for _, ps := range peers {
		pctx, cancel := context.WithTimeout(ctx, n.cfg.SuspectAfter)
		if rpc, err := ps.link.get(pctx, n); err == nil {
			var resp proto.NodePingResp
			_ = rpc.CallCtx(pctx, proto.MNodePing, &proto.NodePingReq{Node: n.id, Epoch: n.epoch, Draining: true}, &resp)
		}
		cancel()
	}
	// Final flush: the post-drain placement excludes this node.
	after := n.placementWithout(n.id)
	for _, snap := range n.srv.SnapshotRooms() {
		for _, target := range []string{after.Owner(snap.Room), after.Standby(snap.Room)} {
			if target == "" || target == n.id {
				continue
			}
			n.sendSnapshot(target, snap)
		}
	}
	n.closeOnce.Do(func() { close(n.closed) })
	err := n.srv.Shutdown(ctx)
	for _, ps := range peers {
		ps.link.close()
	}
	n.wg.Wait()
	return err
}

// placementWithout builds the placement over the current live set minus
// the given node.
func (n *Node) placementWithout(id string) *Placement {
	place, _ := n.view()
	nodes := make([]string, 0, place.Len())
	for _, m := range place.Nodes() {
		if m != id {
			nodes = append(nodes, m)
		}
	}
	return NewPlacement(nodes)
}

func (n *Node) isDraining() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.draining
}

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// view computes the node's current placement and whether it holds a
// cluster majority. Liveness is heartbeat-driven: a peer is live if it
// answered (or sent) a ping within SuspectAfter and has not announced a
// drain. The placement is cached per distinct live set.
func (n *Node) view() (*Placement, bool) {
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	live := []string{n.id}
	for id, ps := range n.peers {
		if !ps.draining && !ps.lastSeen.IsZero() && now.Sub(ps.lastSeen) <= n.cfg.SuspectAfter {
			live = append(live, id)
		}
	}
	sort.Strings(live)
	key := strings.Join(live, ",")
	if key != n.placeKey {
		n.placeKey = key
		n.place = NewPlacement(live)
	}
	total := 1 + len(n.peers)
	return n.place, 2*len(live) > total
}

// Live returns the node's current view of the live member set (itself
// included), sorted — the harness and tests assert convergence on it.
func (n *Node) Live() []string {
	place, _ := n.view()
	return place.Nodes()
}

// HasQuorum reports whether this node currently holds a cluster
// majority and is therefore willing to serve room-scoped requests.
func (n *Node) HasQuorum() bool {
	_, q := n.view()
	return q
}

// OwnerOf returns which node this one believes owns room, and whether
// that belief is backed by a majority view.
func (n *Node) OwnerOf(room string) (string, bool) {
	place, q := n.view()
	return place.Owner(room), q
}

// markLive records contact with a peer and nudges the reconciler.
func (n *Node) markLive(id string) {
	n.mu.Lock()
	if ps, ok := n.peers[id]; ok {
		ps.lastSeen = time.Now()
		ps.draining = false
	}
	n.mu.Unlock()
	n.kickReconcile()
}

// markDead forgets a peer immediately (failed ping or drain notice) —
// faster convergence than waiting out SuspectAfter.
func (n *Node) markDead(id string, draining bool) {
	n.mu.Lock()
	if ps, ok := n.peers[id]; ok {
		ps.lastSeen = time.Time{}
		ps.draining = draining
	}
	n.mu.Unlock()
	n.kickReconcile()
}

// kickReconcile schedules a reconciliation pass without blocking the
// caller (ping handlers and pingers call it; the reconciler's snapshot
// sends must never delay a heartbeat).
func (n *Node) kickReconcile() {
	select {
	case n.recNotify <- struct{}{}:
	default:
	}
}

// reconciler runs placement reconciliation off the heartbeat paths. It
// also ticks on the suspect interval so silent staleness (a peer that
// just stopped answering) is acted on without a state-change nudge.
func (n *Node) reconciler() {
	defer n.wg.Done()
	t := time.NewTicker(n.cfg.SuspectAfter)
	defer t.Stop()
	for {
		select {
		case <-n.closed:
			return
		case <-n.recNotify:
		case <-t.C:
		}
		n.reconcile()
	}
}

// reconcile reacts to a placement change: rooms this node no longer
// owns are handed off (final snapshot to the new owner), dropped
// locally, and their member connections closed so clients reconnect to
// the right node. Single-ownership rests on this: a placement-moved
// room never keeps serving from its old node.
func (n *Node) reconcile() {
	place, quorum := n.view()
	n.mu.Lock()
	key := n.placeKey
	if key == n.lastRec {
		n.mu.Unlock()
		return
	}
	n.lastRec = key
	n.mu.Unlock()
	n.logf("cluster %s: live set now {%s} quorum=%v", n.id, key, quorum)
	for _, name := range n.srv.Rooms() {
		owner := place.Owner(name)
		if owner == n.id || owner == "" {
			continue
		}
		if quorum {
			if snap, ok := n.srv.SnapshotRoom(name); ok {
				n.sendSnapshot(owner, snap)
			}
		}
		n.evictRoom(name, "ownership moved to "+owner)
	}
	// Standbys may have changed: force the next replication round to
	// re-snapshot every room this node still owns.
	n.markAllDirty()
}

// evictRoom drops a local room and disconnects its members' peers.
func (n *Node) evictRoom(name, why string) {
	if !n.srv.DropRoom(name) {
		return
	}
	n.evictions.Add(1)
	n.logf("cluster %s: evicting room %q (%s)", n.id, name, why)
	n.mu.Lock()
	peers := n.roomPeers[name]
	delete(n.roomPeers, name)
	n.mu.Unlock()
	for p := range peers {
		_ = p.Close()
	}
}

// trackRoomPeer records that peer has a member in a locally served room.
func (n *Node) trackRoomPeer(name string, p *wire.Peer) {
	n.mu.Lock()
	set := n.roomPeers[name]
	if set == nil {
		set = make(map[*wire.Peer]struct{})
		n.roomPeers[name] = set
	}
	set[p] = struct{}{}
	n.mu.Unlock()
}

// peerClosed is the server's peer-teardown hook: forget the peer's room
// tracking and tear down any ingress links relaying for it (the owner
// node sees those conns die and detaches the forwarded sessions, which
// stay resumable for the grace period).
func (n *Node) peerClosed(p *wire.Peer) {
	n.mu.Lock()
	for name, set := range n.roomPeers {
		delete(set, p)
		if len(set) == 0 {
			delete(n.roomPeers, name)
		}
	}
	n.mu.Unlock()
	if v, ok := p.Meta(metaIngressLinks); ok {
		v.(*ingressSet).closeAll()
	}
}

// --- routing ---

// metaIngress marks a server-side peer as a node-link ingress (value:
// origin node id); metaIngressLinks holds a client peer's per-owner
// relay links on the forwarding node.
const (
	metaIngress      = "cluster.ingress"
	metaIngressLinks = "cluster.links"
)

// intercept is the routing tier, inserted between tracing and admission
// (a redirected or forwarded request never consumes an admission slot).
// Room-scoped requests are steered to the room's owner: served here,
// redirected, or — for v2 clients on a forwarding node — relayed
// transparently. Requests with no room scope (object fetches, stats)
// serve anywhere.
func (n *Node) intercept(next wire.Handler) wire.Handler {
	return func(ctx context.Context, p *wire.Peer, payload []byte) (any, error) {
		method, _ := wire.ContextMethod(ctx)
		if !proto.RoomScoped(method) {
			return next(ctx, p, payload)
		}
		roomName, ok := proto.RoomOf(method, wire.ContextPayloadEnc(ctx), payload)
		if !ok {
			// Undecodable: let the handler produce the real error.
			return next(ctx, p, payload)
		}
		if n.isDraining() {
			n.unavailable.Add(1)
			return nil, &wire.UnavailableError{Node: n.id, Reason: "draining"}
		}
		place, quorum := n.view()
		if !quorum {
			// Split-brain rejection: a minority node must not serve (or
			// relay) room mutations — the majority side may already have
			// moved the room and be accepting writes.
			n.unavailable.Add(1)
			return nil, &wire.UnavailableError{Node: n.id, Reason: "no cluster majority"}
		}
		owner := place.Owner(roomName)
		if owner == n.id || owner == "" {
			result, err := next(ctx, p, payload)
			if err == nil && method == proto.MJoinRoom {
				n.trackRoomPeer(roomName, p)
			}
			return result, err
		}
		if _, ingress := p.Meta(metaIngress); ingress {
			// A relayed request landing on a non-owner: placement moved
			// under the relay. The redirect travels back through the
			// forwarding node verbatim; the origin client follows it.
			n.redirects.Add(1)
			return nil, n.redirectTo(owner)
		}
		if n.cfg.Forward && p.ProtoVersion() >= wire.ProtoV2 {
			return n.forward(ctx, p, owner, method, payload)
		}
		n.redirects.Add(1)
		return nil, n.redirectTo(owner)
	}
}

// redirectTo builds the typed redirect for the owner node.
func (n *Node) redirectTo(owner string) error {
	return &wire.RedirectError{Node: owner, Addr: n.cfg.Peers[owner]}
}

// roomSeed is the server's room-construction hook: a room being built
// here that has a replicated log (this node was its standby, or
// received a handoff snapshot) restores that log first, so resuming
// clients replay their outage exactly — same sequences, no duplicates.
func (n *Node) roomSeed(roomName string) (server.RoomSnapshot, bool) {
	n.replMu.Lock()
	defer n.replMu.Unlock()
	r := n.replicas[roomName]
	if r == nil {
		return server.RoomSnapshot{}, false
	}
	// The live room becomes the authority; the replica entry would only
	// go stale under it. Deleting it also hands the tail's backing array
	// over: no later apply can write into the returned events.
	delete(n.replicas, roomName)
	return server.RoomSnapshot{
		Room:    roomName,
		DocID:   r.docID,
		Seq:     r.seq,
		Trimmed: r.trimmed,
		Events:  r.events(),
	}, true
}
