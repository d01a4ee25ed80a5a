package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mmconf/internal/blob"
)

func openTestDB(t *testing.T, opts Options) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db, dir
}

var imageSchema = []Column{
	{Name: "FLD_QUALITY", Type: TInt},
	{Name: "FLD_TEXTS", Type: TString},
	{Name: "FLD_CM", Type: TFloat},
	{Name: "FLD_META", Type: TBytes},
	{Name: "FLD_DATA", Type: TBlob},
}

func TestCreateTableAndCRUD(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	tbl, err := db.CreateTable("IMAGE_OBJECTS_TABLE", imageSchema)
	if err != nil {
		t.Fatalf("CreateTable: %v", err)
	}
	h, err := db.PutBlob([]byte("jpeg-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	id, err := tbl.Insert(Row{int64(90), "ct axial", 2.5, []byte{1, 2}, h})
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	if id != 1 {
		t.Errorf("first id = %d", id)
	}
	row, ok, err := tbl.Get(id)
	if err != nil || !ok {
		t.Fatalf("Get: %v %v", ok, err)
	}
	if row[0].(int64) != 90 || row[1].(string) != "ct axial" || row[2].(float64) != 2.5 {
		t.Errorf("row = %v", row)
	}
	data, err := db.GetBlob(row[4].(blob.Handle))
	if err != nil || string(data) != "jpeg-bytes" {
		t.Errorf("blob = %q, %v", data, err)
	}
	// Update.
	if err := tbl.Update(id, Row{int64(70), "ct axial lowq", 2.5, []byte{3}, h}); err != nil {
		t.Fatalf("Update: %v", err)
	}
	row, _, _ = tbl.Get(id)
	if row[0].(int64) != 70 {
		t.Errorf("update not applied: %v", row)
	}
	// Delete.
	if err := tbl.Delete(id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, ok, _ := tbl.Get(id); ok {
		t.Error("deleted row still present")
	}
	if err := tbl.Delete(id); err == nil {
		t.Error("double delete accepted")
	}
	if err := tbl.Update(id, Row{int64(1), "x", 0.0, nil, blob.Handle{}}); err == nil {
		t.Error("update of missing row accepted")
	}
	if n, _ := tbl.Len(); n != 0 {
		t.Errorf("Len = %d", n)
	}
}

func TestSchemaValidation(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	if _, err := db.CreateTable("", imageSchema); err == nil {
		t.Error("empty table name accepted")
	}
	if _, err := db.CreateTable("t", nil); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "", Type: TInt}}); err == nil {
		t.Error("empty column name accepted")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "a", Type: TInt}, {Name: "a", Type: TInt}}); err == nil {
		t.Error("duplicate column accepted")
	}
	tbl, err := db.CreateTable("t", []Column{{Name: "a", Type: TInt}, {Name: "b", Type: TString}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("t", imageSchema); err == nil {
		t.Error("duplicate table accepted")
	}
	// Wrong arity and wrong types.
	if _, err := tbl.Insert(Row{int64(1)}); err == nil {
		t.Error("short row accepted")
	}
	if _, err := tbl.Insert(Row{"not-int", "s"}); err == nil {
		t.Error("mistyped int accepted")
	}
	if _, err := tbl.Insert(Row{int64(1), 42}); err == nil {
		t.Error("mistyped string accepted")
	}
}

func TestTableLookupOperations(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	tbl, err := db.CreateTable("objs", []Column{
		{Name: "kind", Type: TString},
		{Name: "size", Type: TInt},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		kind := "image"
		if i%3 == 0 {
			kind = "audio"
		}
		if _, err := tbl.Insert(Row{kind, int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tbl.CreateIndex("kind"); err != nil {
		t.Fatalf("CreateIndex: %v", err)
	}
	if err := tbl.CreateIndex("kind"); err == nil {
		t.Error("duplicate index accepted")
	}
	if err := tbl.CreateIndex("nosuch"); err == nil {
		t.Error("index on unknown column accepted")
	}
	ids, err := tbl.LookupString("kind", "audio")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 7 { // i = 0,3,6,9,12,15,18
		t.Errorf("audio rows = %d, want 7", len(ids))
	}
	// Index maintenance across update and delete.
	if err := tbl.Update(ids[0], Row{"image", int64(999)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Delete(ids[1]); err != nil {
		t.Fatal(err)
	}
	ids2, _ := tbl.LookupString("kind", "audio")
	if len(ids2) != 5 {
		t.Errorf("audio rows after update+delete = %d, want 5", len(ids2))
	}
	if _, err := tbl.LookupString("size", "x"); err == nil {
		t.Error("lookup on unindexed column accepted")
	}
	// Int index.
	if err := tbl.CreateIndex("size"); err != nil {
		t.Fatal(err)
	}
	ids3, err := tbl.LookupInt("size", 999)
	if err != nil || len(ids3) != 1 {
		t.Errorf("LookupInt = %v, %v", ids3, err)
	}
}

func TestScan(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	tbl, _ := db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	for i := 0; i < 10; i++ {
		tbl.Insert(Row{int64(i * i)})
	}
	var got []uint64
	err := tbl.Scan(func(id uint64, row Row) bool {
		got = append(got, id)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i] <= got[i-1] {
			t.Fatalf("scan not in id order: %v", got)
		}
	}
	if len(got) != 10 {
		t.Errorf("scanned %d rows", len(got))
	}
	// Early stop.
	count := 0
	tbl.Scan(func(id uint64, row Row) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop at %d", count)
	}
}

func TestDropTable(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	if !db.HasTable("t") {
		t.Fatal("table missing")
	}
	if err := db.DropTable("t"); err != nil {
		t.Fatalf("DropTable: %v", err)
	}
	if db.HasTable("t") {
		t.Error("table survived drop")
	}
	if err := db.DropTable("t"); err == nil {
		t.Error("double drop accepted")
	}
	if _, err := db.Table("t"); err == nil {
		t.Error("handle to dropped table granted")
	}
}

func TestTablesListing(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	db.CreateTable("b", []Column{{Name: "v", Type: TInt}})
	db.CreateTable("a", []Column{{Name: "v", Type: TInt}})
	names := db.Tables()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Tables = %v", names)
	}
}

func TestRecoveryFromWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", []Column{{Name: "s", Type: TString}, {Name: "d", Type: TBlob}})
	h, _ := db.PutBlob([]byte("payload"))
	id, _ := tbl.Insert(Row{"alpha", h})
	tbl.Insert(Row{"beta", h})
	tbl.CreateIndex("s")
	db.blobs.Sync()
	// Simulate crash: no Close, no Checkpoint. Reopen from WAL alone.
	db.wal.close()
	db.blobs.Close()

	db2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	tbl2, err := db2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	row, ok, err := tbl2.Get(id)
	if err != nil || !ok || row[0].(string) != "alpha" {
		t.Fatalf("row after recovery: %v %v %v", row, ok, err)
	}
	data, err := db2.GetBlob(row[1].(blob.Handle))
	if err != nil || string(data) != "payload" {
		t.Errorf("blob after recovery: %q %v", data, err)
	}
	ids, err := tbl2.LookupString("s", "beta")
	if err != nil || len(ids) != 1 {
		t.Errorf("index after recovery: %v %v", ids, err)
	}
	// New ids keep ascending after recovery.
	id3, _ := tbl2.Insert(Row{"gamma", h})
	if id3 <= 2 {
		t.Errorf("id after recovery = %d", id3)
	}
}

func TestRecoveryFromSnapshotPlusWAL(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	for i := 0; i < 5; i++ {
		tbl.Insert(Row{int64(i)})
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Post-checkpoint mutations land in the fresh WAL.
	tbl.Insert(Row{int64(100)})
	tbl.Delete(1)
	db.wal.close()
	db.blobs.Close()

	db2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	tbl2, _ := db2.Table("t")
	n, _ := tbl2.Len()
	if n != 5 { // 5 inserted, 1 more, 1 deleted
		t.Errorf("rows after snapshot+wal recovery = %d, want 5", n)
	}
	if _, ok, _ := tbl2.Get(1); ok {
		t.Error("deleted row resurrected")
	}
	if row, ok, _ := tbl2.Get(6); !ok || row[0].(int64) != 100 {
		t.Errorf("post-checkpoint insert lost: %v %v", row, ok)
	}
}

func TestTornWALTailIgnored(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	tbl.Insert(Row{int64(7)})
	db.wal.close()
	db.blobs.Close()
	// Append garbage to the WAL simulating a torn write.
	f, err := os.OpenFile(filepath.Join(dir, walFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{9, 0, 0, 0, 1, 2, 3, 4, 42})
	f.Close()

	db2, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer db2.Close()
	tbl2, _ := db2.Table("t")
	if n, _ := tbl2.Len(); n != 1 {
		t.Errorf("rows = %d, want 1", n)
	}
	// The torn tail must have been truncated so new appends are readable.
	tbl2.Insert(Row{int64(8)})
	db2.wal.close()
	db2.blobs.Close()
	db3, err := Open(dir, Options{Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	tbl3, _ := db3.Table("t")
	if n, _ := tbl3.Len(); n != 2 {
		t.Errorf("rows after second recovery = %d, want 2", n)
	}
}

func TestGroupCommitStats(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncGroup, GroupSize: 10})
	tbl, _ := db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	for i := 0; i < 25; i++ {
		tbl.Insert(Row{int64(i)})
	}
	appends, syncs := db.WALStats()
	if appends != 26 { // create + 25 inserts
		t.Errorf("appends = %d", appends)
	}
	if syncs < 2 || syncs > 3 {
		t.Errorf("group syncs = %d, want 2-3 for 26 appends at group size 10", syncs)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	_, syncs2 := db.WALStats()
	if syncs2 != syncs+1 {
		t.Errorf("flush did not sync: %d -> %d", syncs, syncs2)
	}
}

func TestSyncModesDurability(t *testing.T) {
	for _, mode := range []SyncMode{SyncAlways, SyncGroup, SyncNever} {
		t.Run(fmt.Sprint(mode), func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, Options{Sync: mode, GroupSize: 4})
			if err != nil {
				t.Fatal(err)
			}
			tbl, _ := db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
			tbl.Insert(Row{int64(1)})
			if err := db.Close(); err != nil { // clean close flushes in every mode
				t.Fatal(err)
			}
			db2, err := Open(dir, Options{Sync: mode})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			tbl2, err := db2.Table("t")
			if err != nil {
				t.Fatal(err)
			}
			if n, _ := tbl2.Len(); n != 1 {
				t.Errorf("rows = %d", n)
			}
		})
	}
}

func TestBytesRowsAreCopied(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	tbl, _ := db.CreateTable("t", []Column{{Name: "b", Type: TBytes}})
	src := []byte{1, 2, 3}
	id, _ := tbl.Insert(Row{src})
	src[0] = 99 // caller mutation must not reach the stored row
	row, _, _ := tbl.Get(id)
	got := row[0].([]byte)
	if got[0] != 1 {
		t.Error("stored bytes alias the caller's slice")
	}
	got[1] = 98 // reader mutation must not reach the stored row
	row2, _, _ := tbl.Get(id)
	if row2[0].([]byte)[1] != 2 {
		t.Error("returned bytes alias the stored row")
	}
}

func TestConcurrentInserts(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	tbl, _ := db.CreateTable("t", []Column{{Name: "v", Type: TInt}})
	const workers = 8
	const per = 100
	done := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				if _, err := tbl.Insert(Row{int64(w*1000 + i)}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < workers; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := tbl.Len(); n != workers*per {
		t.Errorf("rows = %d, want %d", n, workers*per)
	}
	// Ids must be unique and dense.
	seen := make(map[uint64]bool)
	tbl.Scan(func(id uint64, row Row) bool {
		if seen[id] {
			t.Errorf("duplicate id %d", id)
		}
		seen[id] = true
		return true
	})
}

func TestBlobRoundTripThroughTable(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	tbl, _ := db.CreateTable("t", []Column{{Name: "d", Type: TBlob}})
	payload := bytes.Repeat([]byte{0xC7}, 100_000)
	h, err := db.PutBlob(payload)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := tbl.Insert(Row{h})
	row, _, _ := tbl.Get(id)
	got, err := db.GetBlob(row[0].(blob.Handle))
	if err != nil || !bytes.Equal(got, payload) {
		t.Errorf("blob round trip failed: %d bytes, %v", len(got), err)
	}
}

func TestCompactBlobsReclaimsGarbage(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.CreateTable("t", []Column{{Name: "d", Type: TBlob}})
	// Distinct payloads: identical ones would dedup to a single object
	// and leave nothing to reclaim (see TestCompactBlobsDedup).
	mkPayload := func(i int) []byte {
		p := bytes.Repeat([]byte{byte(i)}, 10_000)
		p[0] = byte(i >> 8)
		return p
	}
	var keepIDs []uint64
	for i := 0; i < 20; i++ {
		h, err := db.PutBlob(mkPayload(i))
		if err != nil {
			t.Fatal(err)
		}
		id, err := tbl.Insert(Row{h})
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			keepIDs = append(keepIDs, id)
		} else if err := tbl.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	// Rows were deleted through the raw table API (no ReleaseBlob), so
	// the payloads linger until CompactBlobs recounts references from
	// the surviving rows and drains the sparse segments.
	reclaimed, err := db.CompactBlobs()
	if err != nil {
		t.Fatalf("CompactBlobs: %v", err)
	}
	if reclaimed < 10*10_000 {
		t.Errorf("reclaimed %d bytes, want ≥ 100000", reclaimed)
	}
	// Survivors read back intact — handles are digests, stable across
	// compaction.
	for i, id := range keepIDs {
		row, ok, err := tbl.Get(id)
		if err != nil || !ok {
			t.Fatalf("row %d: %v %v", id, ok, err)
		}
		data, err := db.GetBlob(row[0].(blob.Handle))
		if err != nil || !bytes.Equal(data, mkPayload(2*i)) {
			t.Fatalf("blob of row %d corrupted: %v", id, err)
		}
	}
	// State survives a reopen.
	db.Close()
	db2, err := Open(dir, Options{Sync: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	tbl2, _ := db2.Table("t")
	for i, id := range keepIDs {
		row, ok, err := tbl2.Get(id)
		if err != nil || !ok {
			t.Fatalf("row %d after reopen: %v %v", id, ok, err)
		}
		data, err := db2.GetBlob(row[0].(blob.Handle))
		if err != nil || !bytes.Equal(data, mkPayload(2*i)) {
			t.Fatalf("blob of row %d after reopen: %v", id, err)
		}
	}
	// New writes still work.
	h, err := db2.PutBlob([]byte("fresh"))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := db2.GetBlob(h); err != nil || string(got) != "fresh" {
		t.Fatalf("post-compaction put: %q %v", got, err)
	}
}

// TestGenerationCountsCommittedWrites: the write generation advances
// once per committed table mutation and never on reads, blob puts or
// writes that validation rejects.
func TestGenerationCountsCommittedWrites(t *testing.T) {
	db, _ := openTestDB(t, Options{Sync: SyncNever})
	gen := db.Generation()
	step := func(what string, want uint64) {
		t.Helper()
		if got := db.Generation(); got != gen+want {
			t.Fatalf("%s: generation %d, want %d", what, got, gen+want)
		}
		gen = db.Generation()
	}
	tbl, err := db.CreateTable("IMAGE_OBJECTS_TABLE", imageSchema)
	if err != nil {
		t.Fatal(err)
	}
	step("create table", 1)
	h, err := db.PutBlob([]byte("jpeg-bytes"))
	if err != nil {
		t.Fatal(err)
	}
	step("blob put", 0)
	id, err := tbl.Insert(Row{int64(90), "ct axial", 2.5, []byte{1}, h})
	if err != nil {
		t.Fatal(err)
	}
	step("insert", 1)
	if err := tbl.Update(id, Row{int64(80), "ct axial, revised", 2.5, []byte{1}, h}); err != nil {
		t.Fatal(err)
	}
	step("update", 1)
	if err := tbl.CreateIndex("FLD_TEXTS"); err != nil {
		t.Fatal(err)
	}
	step("create index", 1)

	// Reads.
	if _, _, err := tbl.Get(id); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.LookupString("FLD_TEXTS", "ct axial, revised"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Len(); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Scan(func(uint64, Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetBlob(h); err != nil {
		t.Fatal(err)
	}
	step("reads", 0)

	// Writes validation rejects never reach the WAL or the generation.
	if _, err := tbl.Insert(Row{"not an int", "x", 1.0, []byte{1}, h}); err == nil {
		t.Fatal("ill-typed insert accepted")
	}
	if err := tbl.InsertWithID(id, Row{int64(1), "dup", 1.0, []byte{1}, h}); err == nil {
		t.Fatal("duplicate-id insert accepted")
	}
	if err := tbl.Update(id+100, Row{int64(1), "x", 1.0, []byte{1}, h}); err == nil {
		t.Fatal("update of a missing row accepted")
	}
	if err := tbl.Delete(id + 100); err == nil {
		t.Fatal("delete of a missing row accepted")
	}
	if err := tbl.CreateIndex("NO_SUCH_COLUMN"); err == nil {
		t.Fatal("index on a missing column accepted")
	}
	if _, err := db.CreateTable("IMAGE_OBJECTS_TABLE", imageSchema); err == nil {
		t.Fatal("duplicate table accepted")
	}
	step("rejected writes", 0)

	if err := tbl.Delete(id); err != nil {
		t.Fatal(err)
	}
	step("delete", 1)
	if err := db.DropTable("IMAGE_OBJECTS_TABLE"); err != nil {
		t.Fatal(err)
	}
	step("drop table", 1)
}
