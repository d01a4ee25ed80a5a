package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"mmconf/internal/blob"
)

// Options configure a DB.
type Options struct {
	// Sync selects the WAL durability mode. The zero value is SyncAlways.
	Sync SyncMode
	// GroupSize is the group-commit batch for SyncGroup (default 64).
	GroupSize int
	// Blob tunes the content-addressed blob store (chunk size, segment
	// size, background compaction threshold). Zero values select the
	// blob package defaults.
	Blob blob.Options
}

// DB is the database server's storage engine: a directory holding a
// snapshot, a write-ahead log, and a content-addressed blob store. Open
// replays the WAL over the snapshot, so a crash at any point loses at
// most the operations the sync mode had not yet flushed. Blob reference
// counts are derived state: every Open recomputes them from the
// surviving TBlob cells, so they self-heal after any crash.
type DB struct {
	mu    sync.RWMutex
	dir   string
	opts  Options
	wal   *wal
	blobs *blob.Store
	state map[string]*table
	// replaySkipped counts WAL records recovery could not apply and
	// skipped (poisoned legacy records, or records a checkpoint already
	// covers after a crash between snapshot rename and WAL truncation).
	replaySkipped int
	// blobMissing holds digests that some TBlob cell references but the
	// blob store does not hold. The WAL's pre-sync hook makes payloads
	// durable before the rows that reference them, so this is empty in
	// normal operation; it can still fill under SyncNever (rows durable
	// only by OS writeback) or torn segment writes. Reads of those
	// cells fail loudly; fsck reports them.
	blobMissing []blob.Digest
	// migratedBlobs counts payloads moved out of a pre-CAS heap.blob by
	// this Open.
	migratedBlobs int
	// gen is the write generation: logAndApply bumps it once per applied
	// record, so two equal readings bracket a span in which no table
	// changed. Readers of derived state (the cluster's dataset export)
	// compare it instead of re-reading rows.
	gen atomic.Uint64

	// relMu guards pendingRel: blob releases queued until the WAL
	// records that justify them (row deletes/updates) are fsynced.
	// Releasing earlier could free payload bytes whose delete is lost in
	// a crash; queued handles lost in a crash merely leak until the next
	// Open's refcount recompute reclaims them.
	relMu      sync.Mutex
	pendingRel []blob.Handle
}

const (
	snapshotFile = "snapshot.gob"
	walFile      = "wal.log"
	// legacyHeapFile is the first-generation offset-addressed heap. Open
	// migrates it into casDir and renames it away.
	legacyHeapFile = "heap.blob"
	casDir         = "cas"
)

// Open opens (or creates) a database in dir. If the directory holds a
// pre-CAS heap.blob, its payloads are migrated into the content-addressed
// store one-shot, the handles in every TBlob cell are rewritten, and the
// old heap is renamed to heap.blob.migrated.
func Open(dir string, opts Options) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: mkdir %s: %w", dir, err)
	}
	db := &DB{dir: dir, opts: opts, state: make(map[string]*table)}
	if err := db.loadSnapshot(); err != nil {
		return nil, err
	}
	skipped, err := replayWAL(filepath.Join(dir, walFile), db.apply)
	if err != nil {
		return nil, err
	}
	db.replaySkipped = skipped
	w, err := openWAL(filepath.Join(dir, walFile), opts.Sync, opts.GroupSize)
	if err != nil {
		return nil, err
	}
	db.wal = w
	bs, err := blob.Open(filepath.Join(dir, casDir), opts.Blob)
	if err != nil {
		w.close()
		return nil, err
	}
	db.blobs = bs
	w.onSync = db.drainBlobReleases
	// Blob payloads must never lag the rows that reference them: fsync
	// dirty blob segments before every WAL fsync, so a record carrying a
	// new handle only becomes durable after its payload bytes are.
	w.onBeforeSync = bs.Sync
	if err := db.migrateLegacyHeap(); err != nil {
		db.wal.close()
		db.blobs.Close()
		return nil, err
	}
	// Refcounts are not journaled: recompute them from the rows that
	// actually survived recovery. Orphans (payloads put by operations
	// whose rows never became durable) are freed here.
	db.blobMissing = db.blobs.ResetRefs(db.blobRefCountsLocked())
	return db, nil
}

// blobRefCountsLocked counts, per digest, how many TBlob cells reference
// each stored object. Caller holds db.mu (or is single-threaded in Open).
func (db *DB) blobRefCountsLocked() map[blob.Digest]int64 {
	counts := make(map[blob.Digest]int64)
	for _, tb := range db.state {
		for ci, col := range tb.schema {
			if col.Type != TBlob {
				continue
			}
			for _, vals := range tb.rows {
				if h := vals[ci].H; !h.IsZero() && !h.Legacy() {
					counts[h.Digest]++
				}
			}
		}
	}
	return counts
}

// drainBlobReleases performs the releases queued behind WAL durability.
// Called by the WAL after every successful fsync and by checkpoints.
func (db *DB) drainBlobReleases() {
	db.relMu.Lock()
	pending := db.pendingRel
	db.pendingRel = nil
	db.relMu.Unlock()
	for _, h := range pending {
		// ErrNotFound here means a concurrent recount already dropped
		// the object; nothing to unwind.
		_ = db.blobs.Release(h)
	}
}

// Close flushes and closes the database.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var first error
	if err := db.wal.flush(); err != nil {
		first = err
	}
	db.drainBlobReleases()
	if err := db.blobs.Sync(); err != nil && first == nil {
		first = err
	}
	if err := db.wal.close(); err != nil && first == nil {
		first = err
	}
	if err := db.blobs.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// Flush forces pending group-committed WAL records and blob writes to disk.
func (db *DB) Flush() error {
	if err := db.blobs.Sync(); err != nil {
		return err
	}
	return db.wal.flush()
}

// tableLocked returns the internal table; the caller holds db.mu.
func (db *DB) tableLocked(name string) (*table, error) {
	tb, ok := db.state[name]
	if !ok {
		return nil, fmt.Errorf("store: no table %q", name)
	}
	return tb, nil
}

// logAndApply validates rec against the current state, logs it, then
// applies it. Validation MUST come first: a record that cannot apply
// must never reach the WAL — it would be replayed at every future Open,
// and a hard replay failure would brick the database over one bad
// operation. Caller holds db.mu.
func (db *DB) logAndApply(rec walRecord) error {
	if err := db.validateLocked(rec); err != nil {
		return err
	}
	if err := db.wal.append(rec); err != nil {
		return err
	}
	// Bump even if apply fails: validation passed, so a failure here is
	// an internal fault that may have left the state half-changed.
	err := db.apply(rec)
	db.gen.Add(1)
	return err
}

// Generation returns the write generation: a counter that every
// committed table mutation (insert, update, delete, create/drop table,
// create index) advances. An unchanged reading means no row changed in
// between; reads, blob puts and rejected writes leave it alone.
func (db *DB) Generation() uint64 {
	return db.gen.Load()
}

// validateLocked checks that apply(rec) will succeed against the current
// state, mutating nothing. It mirrors apply's error paths exactly (plus
// a dry run of the index maintenance) so the WAL only ever holds
// records that fold cleanly. Caller holds db.mu.
func (db *DB) validateLocked(rec walRecord) error {
	switch rec.Op {
	case opCreateTable:
		if _, dup := db.state[rec.Table]; dup {
			return fmt.Errorf("store: table %q already exists", rec.Table)
		}
		_, err := newTable(rec.Table, rec.Schema)
		return err
	case opDropTable:
		_, err := db.tableLocked(rec.Table)
		return err
	}
	tb, err := db.tableLocked(rec.Table)
	if err != nil {
		return err
	}
	switch rec.Op {
	case opInsert:
		if _, dup := tb.rows[rec.ID]; dup {
			return fmt.Errorf("store: table %q: duplicate row id %d", rec.Table, rec.ID)
		}
		return tb.validateRow(rec.Vals)
	case opUpdate:
		if _, ok := tb.rows[rec.ID]; !ok {
			return fmt.Errorf("store: table %q: no row %d", rec.Table, rec.ID)
		}
		return tb.validateRow(rec.Vals)
	case opDelete:
		if _, ok := tb.rows[rec.ID]; !ok {
			return fmt.Errorf("store: table %q: no row %d", rec.Table, rec.ID)
		}
		return nil
	case opCreateIndex:
		return tb.validateIndex(rec.Col)
	default:
		return fmt.Errorf("store: unknown wal op %d", rec.Op)
	}
}

// apply folds one WAL record into the in-memory state. It must stay a
// pure function of (state, record) so recovery replays deterministically.
func (db *DB) apply(rec walRecord) error {
	switch rec.Op {
	case opCreateTable:
		if _, dup := db.state[rec.Table]; dup {
			return fmt.Errorf("store: table %q already exists", rec.Table)
		}
		tb, err := newTable(rec.Table, rec.Schema)
		if err != nil {
			return err
		}
		db.state[rec.Table] = tb
		return nil
	case opDropTable:
		if _, ok := db.state[rec.Table]; !ok {
			return fmt.Errorf("store: no table %q", rec.Table)
		}
		delete(db.state, rec.Table)
		return nil
	}
	tb, err := db.tableLocked(rec.Table)
	if err != nil {
		return err
	}
	switch rec.Op {
	case opInsert:
		return tb.insert(rec.ID, rec.Vals)
	case opUpdate:
		return tb.update(rec.ID, rec.Vals)
	case opDelete:
		return tb.delete(rec.ID)
	case opCreateIndex:
		return tb.createIndex(rec.Col)
	default:
		return fmt.Errorf("store: unknown wal op %d", rec.Op)
	}
}

// CreateTable creates a new relation.
func (db *DB) CreateTable(name string, schema []Column) (*Table, error) {
	if _, err := newTable(name, schema); err != nil {
		return nil, err // validate before logging
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.state[name]; dup {
		return nil, fmt.Errorf("store: table %q already exists", name)
	}
	if err := db.logAndApply(walRecord{Op: opCreateTable, Table: name, Schema: schema}); err != nil {
		return nil, err
	}
	return &Table{db: db, name: name}, nil
}

// DropTable removes a relation and all its rows. Blob payloads referenced
// only by the dropped rows remain on disk until CompactBlobs (or the next
// Open) recomputes reference counts and reclaims them.
func (db *DB) DropTable(name string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.state[name]; !ok {
		return fmt.Errorf("store: no table %q", name)
	}
	return db.logAndApply(walRecord{Op: opDropTable, Table: name})
}

// Table returns a handle to an existing relation.
func (db *DB) Table(name string) (*Table, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if _, ok := db.state[name]; !ok {
		return nil, fmt.Errorf("store: no table %q", name)
	}
	return &Table{db: db, name: name}, nil
}

// HasTable reports whether the relation exists.
func (db *DB) HasTable(name string) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	_, ok := db.state[name]
	return ok
}

// Tables lists the relation names, sorted.
func (db *DB) Tables() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.state))
	for n := range db.state {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PutBlob stores a payload in the content-addressed store and returns
// its handle, to be kept in a TBlob column. Identical payloads share
// storage: a re-put only bumps the object's reference count. The chunk
// bytes are not fsynced here; the WAL's pre-sync hook syncs dirty blob
// segments before any record fsync, so the row that carries the handle
// cannot become durable ahead of the payload it references.
func (db *DB) PutBlob(data []byte) (blob.Handle, error) {
	return db.blobs.Put(data)
}

// GetBlob fetches a payload by handle. The zero handle returns
// blob.ErrNoBlob.
func (db *DB) GetBlob(h blob.Handle) ([]byte, error) {
	return db.blobs.Get(h)
}

// ReleaseBlob drops one reference to the payload behind h, called when a
// row that held the handle is deleted or overwritten. The space is not
// reclaimed before the WAL record of that delete is durable: until the
// next fsync the release sits in a queue, so a crash can only leak (the
// next Open recomputes refcounts from rows and reclaims), never free a
// payload whose delete got lost.
func (db *DB) ReleaseBlob(h blob.Handle) error {
	if h.IsZero() {
		return blob.ErrNoBlob
	}
	if db.wal.isClean() {
		return db.blobs.Release(h)
	}
	db.relMu.Lock()
	db.pendingRel = append(db.pendingRel, h)
	db.relMu.Unlock()
	return nil
}

// ContainsBlob reports whether the local store already holds the
// payload h names — the whole-object fast path of digest replication.
func (db *DB) ContainsBlob(h blob.Handle) bool {
	return db.blobs.Contains(h)
}

// BlobManifest returns the ordered chunk digest list of the stored
// payload behind h — the sender side of digest replication.
func (db *DB) BlobManifest(h blob.Handle) ([]blob.Digest, error) {
	return db.blobs.Manifest(h)
}

// MissingBlobChunks reports which of the given chunk digests the local
// store lacks — the receiver-side manifest diff of digest replication.
func (db *DB) MissingBlobChunks(chunks []blob.Digest) []blob.Digest {
	return db.blobs.MissingChunks(chunks)
}

// GetBlobChunk reads one stored chunk's payload by digest, for shipping
// to a replicating peer.
func (db *DB) GetBlobChunk(cd blob.Digest) ([]byte, error) {
	return db.blobs.GetChunk(cd)
}

// PutBlobFromChunks materializes a replicated payload from its manifest
// plus the transferred chunks (locally held chunks are shared, not
// rewritten). Durability follows PutBlob: the WAL pre-sync hook syncs
// blob segments before any row referencing the handle becomes durable.
func (db *DB) PutBlobFromChunks(d blob.Digest, length uint32, chunks []blob.Digest, data map[blob.Digest][]byte) (blob.Handle, error) {
	return db.blobs.PutFromChunks(d, length, chunks, data)
}

// BlobStats returns the blob store's counters and gauges (dedup hits,
// live/free bytes, compactions, ...) plus how many row-referenced digests
// are missing from the store.
func (db *DB) BlobStats() (blob.Stats, int) {
	db.mu.RLock()
	missing := len(db.blobMissing)
	db.mu.RUnlock()
	return db.blobs.Stats(), missing
}

// MigratedBlobs reports how many payloads this Open moved out of a
// pre-CAS heap.blob file. Zero unless the database predates the
// content-addressed store.
func (db *DB) MigratedBlobs() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.migratedBlobs
}

// WALStats reports cumulative WAL appends and fsyncs (for the E4 group-
// commit ablation).
func (db *DB) WALStats() (appends, syncs int64) {
	return db.wal.stats()
}

// ReplaySkipped reports how many WAL records the last Open skipped
// because they no longer applied (see replayWAL). Zero in normal
// operation.
func (db *DB) ReplaySkipped() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.replaySkipped
}

// snapshot is the gob form of the full relational state.
type dbSnapshot struct {
	Tables []tableSnapshot
}

type tableSnapshot struct {
	Name    string
	Schema  []Column
	NextID  uint64
	IDs     []uint64
	Rows    [][]value
	Indexes []string
}

// Checkpoint writes the current state as a snapshot and truncates the WAL.
// The snapshot goes through a temp file and atomic rename, so a crash
// mid-checkpoint recovers from the previous snapshot plus the intact WAL.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked()
}

func (db *DB) checkpointLocked() error {
	var snap dbSnapshot
	names := make([]string, 0, len(db.state))
	for n := range db.state {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		tb := db.state[n]
		ts := tableSnapshot{Name: n, Schema: tb.schema, NextID: tb.nextID}
		ids := make([]uint64, 0, len(tb.rows))
		for id := range tb.rows {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			ts.IDs = append(ts.IDs, id)
			ts.Rows = append(ts.Rows, tb.rows[id])
		}
		for col := range tb.indexes {
			ts.Indexes = append(ts.Indexes, col)
		}
		sort.Strings(ts.Indexes)
		snap.Tables = append(snap.Tables, ts)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return fmt.Errorf("store: snapshot encode: %w", err)
	}
	tmp := filepath.Join(db.dir, snapshotFile+".tmp")
	if err := os.WriteFile(tmp, buf.Bytes(), 0o644); err != nil {
		return fmt.Errorf("store: snapshot write: %w", err)
	}
	f, err := os.Open(tmp)
	if err == nil {
		_ = f.Sync()
		_ = f.Close()
	}
	if err := os.Rename(tmp, filepath.Join(db.dir, snapshotFile)); err != nil {
		return fmt.Errorf("store: snapshot rename: %w", err)
	}
	// The rename made the snapshot visible, but only in the in-memory
	// directory: fsync the directory before truncating the WAL, or a
	// power loss could forget the rename after the WAL is already gone —
	// losing every operation since the previous checkpoint.
	if err := syncDir(db.dir); err != nil {
		return err
	}
	// Flush (not just sync) the blob store: the index snapshot it writes
	// lets the next Open skip the segment recovery scan.
	if err := db.blobs.Flush(); err != nil {
		return err
	}
	// truncate fires the WAL's onSync hook: the snapshot now covers
	// every logged delete, so queued blob releases drain here too.
	return db.wal.truncate()
}

// syncDir fsyncs a directory, making recent renames in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("store: sync dir %s: %w", dir, err)
	}
	return nil
}

// CompactBlobs reconciles blob reference counts against the TBlob cells
// and forces a full segment compaction, returning the file bytes
// reclaimed. Unlike the pre-CAS vacuum this never rewrites a handle —
// digests are stable across moves — so no checkpoint is required and a
// crash mid-compaction at worst leaves duplicate blocks the next Open's
// recovery scan dedups. Day-to-day reclamation does not need this call:
// deletes feed the free lists and the background compactor directly; it
// remains the hammer for recounting after bulk table drops.
func (db *DB) CompactBlobs() (reclaimed int64, err error) {
	db.mu.Lock()
	if err := db.wal.flush(); err != nil {
		db.mu.Unlock()
		return 0, err
	}
	db.drainBlobReleases()
	db.blobMissing = db.blobs.ResetRefs(db.blobRefCountsLocked())
	db.mu.Unlock()
	// The segment moves proceed without db.mu: readers keep reading
	// (digests never change), writers keep writing into other segments.
	return db.blobs.Compact()
}

// loadSnapshot restores state from the snapshot file, if present.
func (db *DB) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(db.dir, snapshotFile))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read snapshot: %w", err)
	}
	var snap dbSnapshot
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&snap); err != nil {
		return fmt.Errorf("store: decode snapshot: %w", err)
	}
	for _, ts := range snap.Tables {
		tb, err := newTable(ts.Name, ts.Schema)
		if err != nil {
			return err
		}
		if len(ts.IDs) != len(ts.Rows) {
			return fmt.Errorf("store: snapshot table %q shape mismatch", ts.Name)
		}
		for i, id := range ts.IDs {
			if err := tb.insert(id, ts.Rows[i]); err != nil {
				return err
			}
		}
		tb.nextID = ts.NextID
		for _, col := range ts.Indexes {
			if err := tb.createIndex(col); err != nil {
				return err
			}
		}
		db.state[ts.Name] = tb
	}
	return nil
}
