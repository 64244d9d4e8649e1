package db

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"lexequal/internal/store"
)

// mvccTable opens a WAL-enabled database with one (id INT, val STRING)
// table holding seed committed rows 0..seed-1.
func mvccTable(t *testing.T, seed int) (*DB, *Table) {
	t.Helper()
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	tbl, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}, {Name: "val", Type: TString}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < seed; i++ {
		if _, err := tbl.Insert(Row{Int(int64(i)), Str("seed")}); err != nil {
			t.Fatal(err)
		}
	}
	return d, tbl
}

// findRID resolves the RID of the row with the given id as snapshot s
// sees it; ok is false when no visible row carries it.
func findRID(t *testing.T, tbl *Table, s *Snap, id int64) (store.RID, bool) {
	t.Helper()
	var rid store.RID
	found := false
	err := tbl.ScanSnap(s, func(r store.RID, row Row) error {
		if row[0].I == id {
			rid, found = r, true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rid, found
}

// TestMVCCWriteWriteConflict exercises first-writer-wins claims: the
// second transaction to claim a row gets ErrSerializationFailure, rolls
// back, and on retry under a fresh snapshot no longer sees the row the
// winner deleted.
func TestMVCCWriteWriteConflict(t *testing.T) {
	d, tbl := mvccTable(t, 4)

	a, err := d.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	rid, ok := findRID(t, tbl, a.Snapshot(), 2)
	if !ok {
		t.Fatal("seed row 2 missing")
	}
	if err := tbl.DeleteTx(a, rid); err != nil {
		t.Fatalf("winner's claim: %v", err)
	}
	err = tbl.DeleteTx(b, rid)
	if !errors.Is(err, ErrSerializationFailure) {
		t.Fatalf("second claim: got %v, want ErrSerializationFailure", err)
	}
	before := d.MVCCStats()
	if before.Conflicts == 0 {
		t.Error("conflict counter did not move")
	}
	if err := b.Rollback(); err != nil {
		t.Fatalf("loser rollback: %v", err)
	}
	if _, err := a.CommitNoWait(); err != nil {
		t.Fatalf("winner commit: %v", err)
	}

	// Retry: a fresh transaction no longer sees the row, so the retried
	// delete resolves to a no-op instead of a conflict.
	c, err := d.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := findRID(t, tbl, c.Snapshot(), 2); ok {
		t.Error("retry snapshot still sees the deleted row")
	}
	if _, err := c.CommitNoWait(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCSnapshotIsolation pins down reader visibility: an uncommitted
// insert is invisible to concurrent snapshots, a snapshot taken before
// a commit never sees it (repeatable reads), and one taken after does.
func TestMVCCSnapshotIsolation(t *testing.T) {
	d, tbl := mvccTable(t, 2)

	old := d.AcquireSnap()
	defer d.ReleaseSnap(old)

	w, err := d.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.InsertTx(w, Row{Int(100), Str("new")}); err != nil {
		t.Fatal(err)
	}
	count := func(s *Snap) int {
		n := 0
		if err := tbl.ScanSnap(s, func(store.RID, Row) error { n++; return nil }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if got := count(d.AcquireSnap()); got != 2 {
		t.Errorf("concurrent snapshot sees %d rows, want 2 (insert uncommitted)", got)
	}
	if got := count(w.Snapshot()); got != 3 {
		t.Errorf("writer sees %d rows, want 3 (own write visible)", got)
	}
	if _, err := w.CommitNoWait(); err != nil {
		t.Fatal(err)
	}
	if got := count(old); got != 2 {
		t.Errorf("pre-commit snapshot sees %d rows, want 2 (repeatable reads)", got)
	}
	if got := count(d.AcquireSnap()); got != 3 {
		t.Errorf("post-commit snapshot sees %d rows, want 3", got)
	}
}

// TestMVCCDisjointWritersBothCommit runs concurrent transactions over
// disjoint rows: none may block or abort, and every write must land.
func TestMVCCDisjointWritersBothCommit(t *testing.T) {
	d, tbl := mvccTable(t, 0)
	const workers, perTx = 8, 5

	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx, err := d.BeginTx()
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < perTx; i++ {
				if _, err := tbl.InsertTx(tx, Row{Int(int64(w*perTx + i)), Str("w")}); err != nil {
					errs <- err
					tx.Rollback()
					return
				}
			}
			if _, err := tx.CommitNoWait(); err != nil {
				errs <- err
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("disjoint writer failed: %v", err)
	}
	n := 0
	if err := tbl.ScanSnap(nil, func(store.RID, Row) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != workers*perTx {
		t.Errorf("committed %d rows, want %d", n, workers*perTx)
	}
	if st := d.MVCCStats(); st.Conflicts != 0 {
		t.Errorf("disjoint writers recorded %d conflicts, want 0", st.Conflicts)
	}
}

// mvccOp is one recorded operation of the serial-equivalence schedule:
// an insert of a unique id or a delete of a seed key (resolved by key,
// not RID, so the serial replay can re-resolve it on its own heap).
type mvccOp struct {
	insert bool
	id     int64
}

// TestMVCCSerialEquivalence runs a randomized concurrent schedule and
// replays the transactions that committed — serially, in commit-LSN
// order — on a fresh database. The final visible states must be
// byte-identical. Inserted ids are globally unique and never deleted,
// and deletes target only pre-seeded keys, so first-writer-wins claim
// resolution makes the committed schedule equivalent to its commit
// order. Run under -race this doubles as the data-race probe over the
// whole registry/claim/visibility machinery.
func TestMVCCSerialEquivalence(t *testing.T) {
	const seedRows, workers, txPerWorker = 40, 6, 8
	d, tbl := mvccTable(t, seedRows)

	type committed struct {
		lsn uint64
		ops []mvccOp // the ops that actually applied (noops dropped)
	}
	var mu sync.Mutex
	var log []committed

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 17))
			for txi := 0; txi < txPerWorker; txi++ {
				tx, err := d.BeginTx()
				if err != nil {
					t.Error(err)
					return
				}
				var ops []mvccOp
				aborted := false
				for op := 0; op < 1+rng.Intn(5); op++ {
					if rng.Intn(10) < 6 {
						id := int64(1000 + w*1000 + txi*10 + op)
						if _, err := tbl.InsertTx(tx, Row{Int(id), Str(fmt.Sprintf("w%d", w))}); err != nil {
							t.Error(err)
							aborted = true
							break
						}
						ops = append(ops, mvccOp{insert: true, id: id})
					} else {
						key := int64(rng.Intn(seedRows))
						rid, ok := findRID(t, tbl, tx.Snapshot(), key)
						if !ok {
							continue // already deleted in this snapshot: noop
						}
						if err := tbl.DeleteTx(tx, rid); err != nil {
							if !errors.Is(err, ErrSerializationFailure) {
								t.Errorf("delete key %d: %v", key, err)
							}
							aborted = true
							break
						}
						ops = append(ops, mvccOp{id: key})
					}
				}
				// A random fraction of clean transactions abort too, to
				// keep compensation in the schedule.
				if aborted || rng.Intn(8) == 0 {
					if err := tx.Rollback(); err != nil {
						t.Errorf("rollback: %v", err)
					}
					continue
				}
				lsn, err := tx.CommitNoWait()
				if err != nil {
					t.Errorf("commit: %v", err)
					continue
				}
				mu.Lock()
				log = append(log, committed{lsn: lsn, ops: ops})
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Serial replay on a fresh database, in commit order.
	rd, rtbl := mvccTable(t, seedRows)
	sort.Slice(log, func(i, j int) bool { return log[i].lsn < log[j].lsn })
	for _, c := range log {
		tx, err := rd.BeginTx()
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range c.ops {
			if op.insert {
				if _, err := rtbl.InsertTx(tx, Row{Int(op.id), Str("replay")}); err != nil {
					t.Fatal(err)
				}
				continue
			}
			rid, ok := findRID(t, rtbl, tx.Snapshot(), op.id)
			if !ok {
				t.Fatalf("serial replay: key %d deleted twice", op.id)
			}
			if err := rtbl.DeleteTx(tx, rid); err != nil {
				t.Fatalf("serial replay delete %d: %v", op.id, err)
			}
		}
		if _, err := tx.CommitNoWait(); err != nil {
			t.Fatal(err)
		}
	}

	// The val column differs by construction; equivalence is over the
	// visible key sets, which the claim protocol must make identical.
	visible := func(tb *Table) []int64 {
		var ids []int64
		if err := tb.ScanSnap(nil, func(_ store.RID, row Row) error {
			ids = append(ids, row[0].I)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		return ids
	}
	got, want := visible(tbl), visible(rtbl)
	if len(got) != len(want) {
		t.Fatalf("concurrent state has %d rows, serial replay %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("state diverges at row %d: concurrent id %d, serial id %d", i, got[i], want[i])
		}
	}
	if len(d.Check()) != 0 {
		t.Errorf("consistency check after concurrent schedule: %v", d.Check())
	}
}

// TestMVCCConcurrentAutocommit: autocommit Table.Insert calls from
// several goroutines, each under the shared query lock as SQL's
// autocommit statements take it, run as concurrent transactions on an
// indexed table. Every row commits exactly once, and the database
// checks clean live and after reopen.
func TestMVCCConcurrentAutocommit(t *testing.T) {
	const writers, perWriter = 4, 50
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tbl, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}, {Name: "val", Type: TString}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateIndex("t_id_idx", "t", "id"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				d.QueryLock().RLock()
				_, err := tbl.Insert(Row{Int(int64(w*perWriter + i)), Str(fmt.Sprintf("w%d", w))})
				d.QueryLock().RUnlock()
				if err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rows := func(d *DB) map[int64]int {
		tb, ok := d.Table("t")
		if !ok {
			t.Fatal("table t missing")
		}
		counts := map[int64]int{}
		if err := tb.Scan(func(_ store.RID, row Row) error {
			counts[row[0].I]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return counts
	}
	check := func(label string, counts map[int64]int) {
		if len(counts) != writers*perWriter {
			t.Fatalf("%s: %d distinct rows, want %d", label, len(counts), writers*perWriter)
		}
		for id, n := range counts {
			if n != 1 {
				t.Fatalf("%s: id %d occurs %d times", label, id, n)
			}
		}
	}
	check("live", rows(d))
	if issues := d.Check(); len(issues) != 0 {
		t.Fatalf("check after concurrent autocommit: %v", issues)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	check("reopen", dumpIDs(t, "reopen", dir))
}
