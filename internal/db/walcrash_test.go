package db

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"lexequal/internal/store"
)

// The crash-torture workload: DDL, autocommit DML, a committed
// transaction, a rolled-back transaction, and a transaction left open
// at Close. Ids tell the stories apart after recovery:
//
//	0..3  autocommit inserts — durable once acknowledged
//	4,5   one committed transaction — atomic, durable once acknowledged
//	6,7   a rolled-back transaction — must never persist
//	8     open at Close — rolled back by Close, must never persist
var neverIDs = []int64{6, 7, 8}

func crashRow(id int64) Row {
	return Row{Int(id), Str("payload")}
}

// runCrashWorkload drives the workload against dir over fs, which may
// fault at any point. It returns the ids whose commit was acknowledged
// before the fault (these must survive recovery) and the atomic groups
// that were in flight when an operation failed (these must recover
// all-or-nothing).
func runCrashWorkload(dir string, fs store.VFS) (acked []int64, inflight [][]int64) {
	d, err := OpenOpts(dir, Options{FS: fs})
	if err != nil {
		return nil, nil
	}
	// Close is part of the faultable surface (WAL sync, catalog write,
	// pager flushes, log truncation); its error means the crash hit
	// there and recovery picks up the pieces.
	defer func() { _ = d.Close() }()

	t, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}, {Name: "name", Type: TString}})
	if err != nil {
		return nil, nil
	}
	if _, err := d.CreateIndex("t_id_idx", "t", "id"); err != nil {
		return acked, nil
	}
	for id := int64(0); id < 4; id++ {
		if _, err := t.Insert(crashRow(id)); err != nil {
			return acked, [][]int64{{id}}
		}
		acked = append(acked, id)
	}

	// Committed transaction: 4 and 5 appear atomically.
	tx, err := d.BeginTx()
	if err != nil {
		return acked, nil
	}
	for _, id := range []int64{4, 5} {
		if _, err := t.InsertTx(tx, crashRow(id)); err != nil {
			return acked, [][]int64{{4, 5}}
		}
	}
	if err := tx.Commit(); err != nil {
		return acked, [][]int64{{4, 5}}
	}
	acked = append(acked, 4, 5)

	// Rolled-back transaction: 6 and 7 must never persist.
	tx, err = d.BeginTx()
	if err != nil {
		return acked, nil
	}
	for _, id := range []int64{6, 7} {
		if _, err := t.InsertTx(tx, crashRow(id)); err != nil {
			return acked, nil
		}
	}
	if err := tx.Rollback(); err != nil {
		return acked, nil
	}

	// Transaction left open at Close: 8 must never persist.
	tx, err = d.BeginTx()
	if err != nil {
		return acked, nil
	}
	if _, err := t.InsertTx(tx, crashRow(8)); err != nil {
		return acked, nil
	}
	return acked, nil
}

// dumpIDs opens dir cleanly and returns how often each id occurs in t
// (nil map if the table does not exist), failing the test on any
// integrity issue.
func dumpIDs(t *testing.T, label, dir string) map[int64]int {
	t.Helper()
	d, err := Open(dir)
	if err != nil {
		t.Fatalf("%s: reopen after crash: %v", label, err)
	}
	defer func() {
		if err := d.Close(); err != nil {
			t.Fatalf("%s: close after recovery: %v", label, err)
		}
	}()
	for _, is := range d.Check() {
		t.Errorf("%s: integrity: %s", label, is)
	}
	for _, is := range d.CheckWAL() {
		t.Errorf("%s: wal check: %s", label, is)
	}
	if t.Failed() {
		t.FailNow()
	}
	tab, ok := d.Table("t")
	if !ok {
		return nil
	}
	counts := map[int64]int{}
	err = tab.Scan(func(_ store.RID, row Row) error {
		counts[row[0].I]++
		return nil
	})
	if err != nil {
		t.Fatalf("%s: scan after recovery: %v", label, err)
	}
	return counts
}

// verifyCrashOutcome asserts the recovery contract for one crash point.
func verifyCrashOutcome(t *testing.T, label, dir string, acked []int64, inflight [][]int64) {
	t.Helper()
	counts := dumpIDs(t, label, dir)
	if counts == nil && len(acked) > 0 {
		t.Fatalf("%s: table t vanished with %d acknowledged rows", label, len(acked))
	}
	for _, id := range acked {
		if counts[id] != 1 {
			t.Fatalf("%s: acknowledged id %d occurs %d times, want 1 (counts %v)", label, id, counts[id], counts)
		}
	}
	for _, id := range neverIDs {
		if counts[id] != 0 {
			t.Fatalf("%s: loser id %d persisted %d times", label, id, counts[id])
		}
	}
	for _, group := range inflight {
		present := 0
		for _, id := range group {
			if counts[id] > 0 {
				present++
			}
		}
		if present != 0 && present != len(group) {
			t.Fatalf("%s: in-flight group %v recovered partially (%d of %d present)", label, group, present, len(group))
		}
	}
}

// TestCrashTortureSweep kills the workload at every write point and
// every sync point, reopens cleanly, and asserts recovery: integrity
// checks pass, acknowledged commits survive, losers vanish, in-flight
// work is all-or-nothing. Write faults rotate through the clean-error,
// short-write, and torn-sector modes.
func TestCrashTortureSweep(t *testing.T) {
	// Size the sweep from a clean run.
	counter := &store.FaultFS{}
	baseAcked, _ := runCrashWorkload(t.TempDir(), counter)
	if want := []int{6}; len(baseAcked) != want[0] {
		t.Fatalf("clean workload acknowledged %d commits, want %d", len(baseAcked), want[0])
	}
	writes, syncs := counter.Writes(), counter.Syncs()
	if writes+syncs < 50 {
		t.Fatalf("sweep covers only %d write + %d sync points, want >= 50", writes, syncs)
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}

	modes := []store.FaultMode{store.FaultError, store.FaultShort, store.FaultTorn}
	for n := 1; n <= writes; n += stride {
		mode := modes[n%len(modes)]
		dir := filepath.Join(t.TempDir(), "db")
		acked, inflight := runCrashWorkload(dir, &store.FaultFS{FailWrite: n, Mode: mode})
		label := "write " + mode.String() + " point " + itoa(n)
		verifyCrashOutcome(t, label, dir, acked, inflight)
	}
	for n := 1; n <= syncs; n += stride {
		dir := filepath.Join(t.TempDir(), "db")
		acked, inflight := runCrashWorkload(dir, &store.FaultFS{FailSync: n})
		label := "sync point " + itoa(n)
		verifyCrashOutcome(t, label, dir, acked, inflight)
	}
}

// oneShotFailFS delegates to the OS filesystem but, once armed, fails
// the next WriteAt cleanly and then keeps working — a transient I/O
// error rather than FaultFS's fail-stop crash. It targets the
// in-process aftermath of a failed commit append, where the database
// must roll the transaction back and stay usable.
type oneShotFailFS struct {
	failNext bool
}

func (fs *oneShotFailFS) OpenFile(path string, flag int, perm os.FileMode) (store.File, error) {
	f, err := store.OSFS{}.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &oneShotFailFile{fs: fs, File: f}, nil
}

func (fs *oneShotFailFS) Rename(o, n string) error           { return store.OSFS{}.Rename(o, n) }
func (fs *oneShotFailFS) Remove(p string) error              { return store.OSFS{}.Remove(p) }
func (fs *oneShotFailFS) RemoveAll(p string) error           { return store.OSFS{}.RemoveAll(p) }
func (fs *oneShotFailFS) Stat(p string) (os.FileInfo, error) { return store.OSFS{}.Stat(p) }
func (fs *oneShotFailFS) MkdirAll(p string, perm os.FileMode) error {
	return store.OSFS{}.MkdirAll(p, perm)
}

type oneShotFailFile struct {
	fs *oneShotFailFS
	store.File
}

func (f *oneShotFailFile) WriteAt(p []byte, off int64) (int, error) {
	if f.fs.failNext {
		f.fs.failNext = false
		return 0, store.ErrInjected
	}
	return f.File.WriteAt(p, off)
}

// TestCommitAppendFailureRollsBack arms a transient write failure for
// exactly the commit record's append and asserts the transaction is
// fully rolled back in place: the failed transaction's rows never
// surface (neither to the live handle nor after reopen), and the
// database stays usable for later transactions.
func TestCommitAppendFailureRollsBack(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	ffs := &oneShotFailFS{}
	d, err := OpenOpts(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}, {Name: "name", Type: TString}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(crashRow(1)); err != nil {
		t.Fatal(err)
	}

	tx, err := d.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.InsertTx(tx, crashRow(2)); err != nil {
		t.Fatal(err)
	}
	// The next WriteAt is the commit record's append.
	ffs.failNext = true
	if err := tx.Commit(); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("commit after injected append failure: %v", err)
	}

	scan := func(label string) map[int64]int {
		t.Helper()
		// The in-place recovery rebuilt the storage objects; stale
		// handles are discarded, so re-fetch the table.
		cur, ok := d.Table("t")
		if !ok {
			t.Fatalf("%s: table t missing", label)
		}
		counts := map[int64]int{}
		err := cur.Scan(func(_ store.RID, row Row) error {
			counts[row[0].I]++
			return nil
		})
		if err != nil {
			t.Fatalf("%s: scan: %v", label, err)
		}
		return counts
	}
	if counts := scan("after failed commit"); counts[1] != 1 || counts[2] != 0 {
		t.Fatalf("after failed commit: counts = %v, want only id 1", counts)
	}

	// The database must remain usable: a later transaction commits.
	tab2, _ := d.Table("t")
	if _, err := tab2.Insert(crashRow(3)); err != nil {
		t.Fatalf("insert after recovered commit failure: %v", err)
	}
	if counts := scan("after later insert"); counts[3] != 1 {
		t.Fatalf("after later insert: counts = %v", counts)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	counts := dumpIDs(t, "reopen", dir)
	if counts[1] != 1 || counts[2] != 0 || counts[3] != 1 {
		t.Fatalf("reopen: counts = %v, want ids 1 and 3 only", counts)
	}
}

// TestCommitAppendFailureDropsDDL is TestCommitAppendFailureRollsBack
// for a catalog change, which compensation cannot undo: a CREATE TABLE
// whose commit record fails to append must be gone from the live
// handle, after a clean close and reopen, and after crash recovery of a
// copy of the directory taken before the close.
func TestCommitAppendFailureDropsDDL(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	ffs := &oneShotFailFS{}
	d, err := OpenOpts(dir, Options{FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	tab, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}, {Name: "name", Type: TString}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert(crashRow(1)); err != nil {
		t.Fatal(err)
	}
	tx, err := d.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.createTableTx(tx, "ghost", Schema{{Name: "x", Type: TInt}}); err != nil {
		t.Fatal(err)
	}
	// The next WriteAt is the commit record's append.
	ffs.failNext = true
	if err := tx.Commit(); !errors.Is(err, store.ErrInjected) {
		t.Fatalf("commit after injected append failure: %v", err)
	}
	if got := d.Tables(); len(got) != 1 || got[0] != "t" {
		t.Fatalf("live handle after failed commit: tables %v, want [t]", got)
	}
	if _, err := d.CreateTable("after", Schema{{Name: "x", Type: TInt}}); err != nil {
		t.Fatalf("DDL after the failed commit: %v", err)
	}
	crashed := filepath.Join(t.TempDir(), "crashed")
	copyDir(t, dir, crashed)
	if err := d.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	for _, c := range []struct{ label, dir string }{{"reopen", dir}, {"crash recovery", crashed}} {
		counts := dumpIDs(t, c.label, c.dir)
		if len(counts) != 1 || counts[1] != 1 {
			t.Fatalf("%s: counts = %v, want id 1 only", c.label, counts)
		}
		r, err := Open(c.dir)
		if err != nil {
			t.Fatal(err)
		}
		got := r.Tables()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 || got[0] != "after" || got[1] != "t" {
			t.Fatalf("%s: tables %v, want [after t]", c.label, got)
		}
	}
}

// TestEscalateRefusesWhileInUse: rolling back a catalog change needs
// in-place recovery, which is sound only on an idle database. With
// another transaction in flight, or a reader holding the query lock,
// the rollback refuses instead, every later operation reports the
// database unusable, and the next open recovers exactly the committed
// state: no uncommitted row, no uncommitted table.
func TestEscalateRefusesWhileInUse(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		// busy makes the database busy before the rollback; the
		// returned func ends that after it.
		busy func(t *testing.T, d *DB, tab *Table) func()
	}{
		{"other transaction in flight", "other transactions in flight", func(t *testing.T, d *DB, tab *Table) func() {
			a, err := d.BeginTx()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tab.InsertTx(a, crashRow(2)); err != nil {
				t.Fatal(err)
			}
			return func() {
				if err := a.Commit(); err == nil {
					t.Error("a transaction in flight committed on an unusable database")
				}
			}
		}},
		{"reader holds the query lock", "while the database is in use", func(t *testing.T, d *DB, tab *Table) func() {
			d.QueryLock().RLock()
			return d.QueryLock().RUnlock
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			d, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			tab, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}, {Name: "name", Type: TString}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tab.Insert(crashRow(1)); err != nil {
				t.Fatal(err)
			}
			release := tc.busy(t, d, tab)
			b, err := d.BeginTx()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.createTableTx(b, "ghost", Schema{{Name: "x", Type: TInt}}); err != nil {
				t.Fatal(err)
			}
			err = b.Rollback()
			release()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rollback of a catalog change on a busy database: %v, want %q", err, tc.want)
			}
			if _, err := tab.Insert(crashRow(3)); err == nil {
				t.Error("insert succeeded on an unusable database")
			}
			if _, err := d.BeginTx(); err == nil {
				t.Error("BeginTx succeeded on an unusable database")
			}
			if _, err := d.CreateTable("later", Schema{{Name: "x", Type: TInt}}); err == nil {
				t.Error("CreateTable succeeded on an unusable database")
			}
			if err := d.Close(); err == nil {
				t.Error("Close reported no error on an unusable database")
			}

			counts := dumpIDs(t, "reopen", dir)
			if len(counts) != 1 || counts[1] != 1 {
				t.Fatalf("reopen: counts = %v, want id 1 only", counts)
			}
			r, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			got := r.Tables()
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			if len(got) != 1 || got[0] != "t" {
				t.Fatalf("reopen: tables %v, want [t]", got)
			}
		})
	}
}

// Concurrent crash torture: several writers run independent MVCC
// transactions when the fault fires, so the log carries interleaved
// trails — begin/page/commit records of different transactions mixed
// together — and some writers die mid-transaction. Recovery must keep
// exactly the committed trails: per transaction all-or-nothing, with
// acknowledged (durably synced) commits guaranteed to survive.
const (
	ccWriters      = 3
	ccTxPerWriter  = 3
	ccRowsPerTx    = 3
	ccGroupsPerRun = ccWriters * ccTxPerWriter
)

// ccGroup returns the ids of one writer transaction's atomic row group.
func ccGroup(w, txi int) []int64 {
	ids := make([]int64, ccRowsPerTx)
	for k := range ids {
		ids[k] = int64(1000 + w*100 + txi*10 + k)
	}
	return ids
}

// runConcurrentCrashWorkload drives ccWriters goroutines of BeginTx /
// InsertTx / CommitNoWait / WaitDurable against dir over fs, which may
// fault at any point. Goroutines that hit an error simply stop, like
// threads of a crashing process: no tidy rollback. It returns the ids
// whose commit was acknowledged durable before the fault (these must
// survive recovery) and every atomic group that was attempted (each
// must recover all-or-nothing).
func runConcurrentCrashWorkload(dir string, fs store.VFS) (acked []int64, groups [][]int64) {
	d, err := OpenOpts(dir, Options{FS: fs})
	if err != nil {
		return nil, nil
	}
	defer func() { _ = d.Close() }()

	tbl, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}, {Name: "name", Type: TString}})
	if err != nil {
		return nil, nil
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < ccWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for txi := 0; txi < ccTxPerWriter; txi++ {
				ids := ccGroup(w, txi)
				mu.Lock()
				groups = append(groups, ids)
				mu.Unlock()
				tx, err := d.BeginTx()
				if err != nil {
					return
				}
				for _, id := range ids {
					if _, err := tbl.InsertTx(tx, crashRow(id)); err != nil {
						return
					}
				}
				lsn, err := tx.CommitNoWait()
				if err != nil {
					return
				}
				if err := d.WaitDurable(lsn); err != nil {
					return
				}
				mu.Lock()
				acked = append(acked, ids...)
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	return acked, groups
}

// verifyConcurrentOutcome asserts the recovery contract for one crash
// point of the concurrent workload.
func verifyConcurrentOutcome(t *testing.T, label, dir string, acked []int64, groups [][]int64) {
	t.Helper()
	counts := dumpIDs(t, label, dir)
	if counts == nil {
		if len(acked) > 0 {
			t.Fatalf("%s: table t vanished with %d acknowledged rows", label, len(acked))
		}
		return
	}
	for id, n := range counts {
		if n != 1 {
			t.Fatalf("%s: id %d occurs %d times after recovery", label, id, n)
		}
	}
	for _, id := range acked {
		if counts[id] != 1 {
			t.Fatalf("%s: acknowledged id %d missing after recovery (counts %v)", label, id, counts)
		}
	}
	for _, group := range groups {
		present := 0
		for _, id := range group {
			if counts[id] > 0 {
				present++
			}
		}
		if present != 0 && present != len(group) {
			t.Fatalf("%s: transaction group %v recovered partially (%d of %d rows)", label, group, present, len(group))
		}
	}
}

// TestConcurrentCrashTortureSweep kills the concurrent-writer workload
// at every write and sync point and asserts recovery lands on a
// committed-only state: integrity checks pass, durably acknowledged
// transactions survive, and every transaction — including the ones the
// crash caught mid-flight, their trails interleaved with the
// survivors' — is all-or-nothing. The concurrency makes fault points
// land nondeterministically inside the schedule; the bookkeeping is
// recorded per run, so every interleaving verifies against its own
// ground truth.
func TestConcurrentCrashTortureSweep(t *testing.T) {
	counter := &store.FaultFS{}
	baseAcked, baseGroups := runConcurrentCrashWorkload(t.TempDir(), counter)
	if len(baseGroups) != ccGroupsPerRun || len(baseAcked) != ccGroupsPerRun*ccRowsPerTx {
		t.Fatalf("clean run committed %d rows in %d groups, want %d in %d",
			len(baseAcked), len(baseGroups), ccGroupsPerRun*ccRowsPerTx, ccGroupsPerRun)
	}
	writes, syncs := counter.Writes(), counter.Syncs()
	if writes+syncs < 30 {
		t.Fatalf("sweep covers only %d write + %d sync points, want >= 30", writes, syncs)
	}
	stride := 2
	if testing.Short() {
		stride = 7
	}

	modes := []store.FaultMode{store.FaultError, store.FaultShort, store.FaultTorn}
	for n := 1; n <= writes; n += stride {
		mode := modes[n%len(modes)]
		dir := filepath.Join(t.TempDir(), "db")
		acked, groups := runConcurrentCrashWorkload(dir, &store.FaultFS{FailWrite: n, Mode: mode})
		verifyConcurrentOutcome(t, "concurrent write "+mode.String()+" point "+itoa(n), dir, acked, groups)
	}
	for n := 1; n <= syncs; n += stride {
		dir := filepath.Join(t.TempDir(), "db")
		acked, groups := runConcurrentCrashWorkload(dir, &store.FaultFS{FailSync: n})
		verifyConcurrentOutcome(t, "concurrent sync point "+itoa(n), dir, acked, groups)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// copyDir clones a database directory with plain os calls (tests sit
// outside the VFS seam on purpose: the clone must not disturb fault
// accounting).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copy %s -> %s: %v", src, dst, err)
	}
}

// damagedDir produces one mid-workload crash image to recover from.
func damagedDir(t *testing.T) (string, []int64, [][]int64) {
	t.Helper()
	counter := &store.FaultFS{}
	runCrashWorkload(t.TempDir(), counter)
	dir := filepath.Join(t.TempDir(), "db")
	// Two thirds in: after several commits, before the clean close.
	point := counter.Writes() * 2 / 3
	acked, inflight := runCrashWorkload(dir, &store.FaultFS{FailWrite: point, Mode: store.FaultTorn})
	return dir, acked, inflight
}

// TestRecoveryIdempotent recovers the same crash image twice — once on
// the original, once (twice over) on a byte-for-byte copy — and
// demands identical row state: redo must be stable under repetition.
func TestRecoveryIdempotent(t *testing.T) {
	dir, acked, inflight := damagedDir(t)
	clone := filepath.Join(t.TempDir(), "clone")
	copyDir(t, dir, clone)

	verifyCrashOutcome(t, "original", dir, acked, inflight)
	// First recovery of the clone.
	first := dumpIDs(t, "clone pass 1", clone)
	// Reopening recovers again (the log was truncated at close, so this
	// also proves a checkpointed reopen changes nothing).
	second := dumpIDs(t, "clone pass 2", clone)
	if len(first) != len(second) {
		t.Fatalf("recover twice diverged: %v vs %v", first, second)
	}
	for id, n := range first {
		if second[id] != n {
			t.Fatalf("recover twice diverged at id %d: %d vs %d", id, n, second[id])
		}
	}
	original := dumpIDs(t, "original recheck", dir)
	for id, n := range first {
		if original[id] != n {
			t.Fatalf("clone diverged from original at id %d: %d vs %d", id, n, original[id])
		}
	}
}

// TestCrashDuringRecovery crashes recovery itself at every write and
// sync point of the redo pass, then recovers cleanly and compares
// against a control recovery of the same image: a half-applied redo
// must not change the final state.
func TestCrashDuringRecovery(t *testing.T) {
	dir, acked, inflight := damagedDir(t)
	control := filepath.Join(t.TempDir(), "control")
	copyDir(t, dir, control)
	controlState := dumpIDs(t, "control", control)

	// Size the recovery sweep: count the ops a recovery (open + close)
	// performs on a fresh copy of the image.
	probe := filepath.Join(t.TempDir(), "probe")
	copyDir(t, dir, probe)
	counter := &store.FaultFS{}
	if d, err := OpenOpts(probe, Options{FS: counter}); err == nil {
		d.Close()
	}
	writes, syncs := counter.Writes(), counter.Syncs()
	if writes == 0 {
		t.Fatal("recovery performed no writes; the crash image is not damaged")
	}
	stride := 1
	if testing.Short() {
		stride = 5
	}

	run := func(label string, ffs *store.FaultFS) {
		work := filepath.Join(t.TempDir(), "work")
		copyDir(t, dir, work)
		if d, err := OpenOpts(work, Options{FS: ffs}); err == nil {
			_ = d.Close() // the armed fault may only fire at close time
		}
		verifyCrashOutcome(t, label, work, acked, inflight)
		state := dumpIDs(t, label+" state", work)
		for id, n := range controlState {
			if state[id] != n {
				t.Fatalf("%s: diverged from control at id %d: %d vs %d", label, id, state[id], n)
			}
		}
		for id, n := range state {
			if controlState[id] != n {
				t.Fatalf("%s: extra id %d (%d occurrences) vs control", label, id, n)
			}
		}
	}
	for n := 1; n <= writes; n += stride {
		run("recovery write point "+itoa(n), &store.FaultFS{FailWrite: n, Mode: store.FaultTorn})
	}
	for n := 1; n <= syncs; n += stride {
		run("recovery sync point "+itoa(n), &store.FaultFS{FailSync: n})
	}
}
