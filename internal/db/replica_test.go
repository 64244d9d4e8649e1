package db

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"lexequal/internal/core"
	"lexequal/internal/script"
	"lexequal/internal/store"
	"lexequal/internal/wal"
)

// primaryWorkload drives a representative history against a primary:
// DDL, autocommit DML, a committed multi-row transaction, a rolled-back
// transaction, a delete, a second table created and dropped, and one
// transaction left open (in flight on the primary when the stream is
// captured). It returns the open transaction so callers can finish it.
func primaryWorkload(t *testing.T, d *DB) *Tx {
	t.Helper()
	tab, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}, {Name: "name", Type: TString}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateIndex("t_id_idx", "t", "id"); err != nil {
		t.Fatal(err)
	}
	for id := int64(0); id < 6; id++ {
		if _, err := tab.Insert(Row{Int(id), Str(fmt.Sprintf("row-%d", id))}); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := d.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{6, 7} {
		if _, err := tab.InsertTx(tx, Row{Int(id), Str("txn")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx, err = d.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int64{8, 9} {
		if _, err := tab.InsertTx(tx, Row{Int(id), Str("never")}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	// Delete one committed row so tombstones replicate too.
	var victim store.RID
	found := false
	err = tab.Scan(func(rid store.RID, row Row) error {
		if row[0].I == 3 {
			victim, found = rid, true
		}
		return nil
	})
	if err != nil || !found {
		t.Fatalf("victim row not found (err %v)", err)
	}
	if err := tab.Delete(victim); err != nil {
		t.Fatal(err)
	}
	// DDL churn: a table that comes and goes exercises the replica's
	// catalog apply drop path.
	if _, err := d.CreateTable("ephemeral", Schema{{Name: "x", Type: TInt}}); err != nil {
		t.Fatal(err)
	}
	if err := d.DropTable("ephemeral"); err != nil {
		t.Fatal(err)
	}
	// One transaction stays open: in flight on the primary while the
	// stream below is captured.
	open, err := d.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.InsertTx(open, Row{Int(100), Str("open")}); err != nil {
		t.Fatal(err)
	}
	return open
}

// captureRaws syncs the log and reads every durable record's raw bytes
// from LSN 1.
func captureRaws(t *testing.T, d *DB) [][]byte {
	t.Helper()
	l := d.WAL()
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	last := l.DurableLSN()
	sr, err := l.NewStreamReader(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Close()
	var raws [][]byte
	for {
		raw, rec, err := sr.Next()
		if err != nil {
			t.Fatalf("capture: %v", err)
		}
		raws = append(raws, raw)
		if rec.LSN >= last {
			return raws
		}
	}
}

// applyRaws feeds raw records to the replica in batches of batchSize
// records, skipping records at or below its current log tail (the
// resume rule the follower's handshake implements over the network).
func applyRaws(d *DB, raws [][]byte, batchSize int) error {
	tail := d.WAL().LastLSN()
	var batch []byte
	n := 0
	flush := func() error {
		if n == 0 {
			return nil
		}
		_, err := d.ApplyBatch(batch)
		batch, n = nil, 0
		return err
	}
	for _, raw := range raws {
		lsn, _, _, _, err := wal.ParseRawHeader(raw)
		if err != nil {
			return err
		}
		if lsn <= tail {
			continue
		}
		batch = append(batch, raw...)
		if n++; n >= batchSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// visibleRows returns table t's committed rows as "id:name" strings in
// sorted order, read through a snapshot — the view a SQL session gets,
// where in-flight transactions' rows are hidden by the MVCC registry.
func visibleRows(t *testing.T, d *DB) []string {
	t.Helper()
	tab, ok := d.Table("t")
	if !ok {
		t.Fatal("table t missing")
	}
	snap := d.AcquireSnap()
	defer d.ReleaseSnap(snap)
	var out []string
	err := tab.ScanSnap(snap, func(_ store.RID, row Row) error {
		out = append(out, fmt.Sprintf("%d:%s", row[0].I, row[1].S))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestReplicaAppliesStream proves a replica fed the primary's raw
// record stream converges to the same visible rows, rejects writes,
// survives restart, and sees a later commit of a transaction that was
// in flight at capture time.
func TestReplicaAppliesStream(t *testing.T) {
	primDir, replDir := t.TempDir(), t.TempDir()
	prim, err := Open(primDir)
	if err != nil {
		t.Fatal(err)
	}
	open := primaryWorkload(t, prim)
	raws := captureRaws(t, prim)
	wantMid := visibleRows(t, prim)

	repl, err := OpenOpts(replDir, Options{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := applyRaws(repl, raws, 3); err != nil {
		t.Fatalf("apply: %v", err)
	}
	if got, want := repl.AppliedLSN(), prim.WAL().DurableLSN(); got != want {
		t.Fatalf("applied lsn %d, want %d", got, want)
	}
	if got := visibleRows(t, repl); !equalStrings(got, wantMid) {
		t.Fatalf("replica rows %v, primary rows %v", got, wantMid)
	}
	if _, ok := repl.Table("ephemeral"); ok {
		t.Fatal("dropped table survives on the replica")
	}
	// The open transaction's row must be invisible on both sides.
	for _, row := range visibleRows(t, repl) {
		if row == "100:open" {
			t.Fatal("in-flight transaction's row is visible on the replica")
		}
	}

	// Writes are refused.
	if _, err := repl.BeginTx(); err == nil {
		t.Fatal("replica accepted BeginTx")
	} else if !errors.Is(err, ErrReplica) {
		t.Fatalf("BeginTx error %v does not mark ErrReplica", err)
	}
	if _, err := repl.CreateTable("nope", Schema{{Name: "x", Type: TInt}}); err == nil {
		t.Fatal("replica accepted CreateTable")
	}

	// Restart: close and reopen in replica mode; rows persist.
	if err := repl.Close(); err != nil {
		t.Fatalf("replica close: %v", err)
	}
	repl, err = OpenOpts(replDir, Options{Replica: true})
	if err != nil {
		t.Fatalf("replica reopen: %v", err)
	}
	if got := visibleRows(t, repl); !equalStrings(got, wantMid) {
		t.Fatalf("after restart: replica rows %v, want %v", got, wantMid)
	}
	// A plain Open must refuse the replica directory.
	if _, err := Open(replDir); err == nil {
		t.Fatal("non-replica Open accepted a replica directory")
	}

	// The primary commits the open transaction; the replica applies the
	// new records (as a reconnected follower would) and sees the row.
	if err := open.Commit(); err != nil {
		t.Fatal(err)
	}
	raws = captureRaws(t, prim)
	if err := applyRaws(repl, raws, 2); err != nil {
		t.Fatalf("apply after commit: %v", err)
	}
	wantEnd := visibleRows(t, prim)
	if got := visibleRows(t, repl); !equalStrings(got, wantEnd) {
		t.Fatalf("after late commit: replica rows %v, want %v", got, wantEnd)
	}

	for _, is := range repl.Check() {
		t.Errorf("replica integrity: %s", is)
	}
	for _, is := range repl.CheckWAL() {
		t.Errorf("replica wal: %s", is)
	}
	if err := repl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := prim.Close(); err != nil {
		t.Fatal(err)
	}

	// Byte-compare the data files: the stream ships verbatim page
	// images, so with both sides flushed the heaps and indexes must be
	// identical.
	for _, name := range []string{"t.heap", "t_id_idx.idx"} {
		p, err := os.ReadFile(filepath.Join(primDir, name))
		if err != nil {
			t.Fatalf("read primary %s: %v", name, err)
		}
		r, err := os.ReadFile(filepath.Join(replDir, name))
		if err != nil {
			t.Fatalf("read replica %s: %v", name, err)
		}
		if !bytes.Equal(p, r) {
			t.Errorf("%s differs between primary and replica (%d vs %d bytes)", name, len(p), len(r))
		}
	}
}

// TestReplicaCheckpointBoundsRestart proves a replica checkpoint
// persists the floor so restart replays only the tail, and that local
// segment GC never strands the replica.
func TestReplicaCheckpointBoundsRestart(t *testing.T) {
	primDir, replDir := t.TempDir(), t.TempDir()
	prim, err := Open(primDir)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	open := primaryWorkload(t, prim)
	defer open.Rollback()
	raws := captureRaws(t, prim)
	want := visibleRows(t, prim)

	repl, err := OpenOpts(replDir, Options{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := applyRaws(repl, raws, 4); err != nil {
		t.Fatal(err)
	}
	if err := repl.ReplicaCheckpoint(); err != nil {
		t.Fatalf("replica checkpoint: %v", err)
	}
	if err := repl.Close(); err != nil {
		t.Fatal(err)
	}

	repl, err = OpenOpts(replDir, Options{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	if got := visibleRows(t, repl); !equalStrings(got, want) {
		t.Fatalf("after checkpointed restart: rows %v, want %v", got, want)
	}
	// The open transaction (no terminator in the log) must be live
	// again after restart: its images were applied but stay invisible.
	if live := repl.applier.Live(); len(live) != 1 {
		t.Fatalf("replay found %d live transactions, want 1", len(live))
	}
	repl.tmu.RLock()
	registered := len(repl.inflight)
	repl.tmu.RUnlock()
	if registered != 1 {
		t.Fatalf("%d transactions registered in flight after restart, want 1", registered)
	}
}

// TestReplicaRestartAtEveryRecord stops a replica at every record
// boundary of a stream, restarts it, and applies the rest. The stream
// holds CREATE and DROP TABLE, a rollback, and a transaction that stays
// open across most boundaries while a concurrent one aborts inside it
// and it creates a table of its own, so restarts land with transactions
// live and a catalog image pending. Each restarted replica must end
// with the rows and data-file bytes of an uninterrupted replica and of
// the primary.
func TestReplicaRestartAtEveryRecord(t *testing.T) {
	primDir := t.TempDir()
	prim, err := Open(primDir)
	if err != nil {
		t.Fatal(err)
	}
	open := primaryWorkload(t, prim)
	tab, _ := prim.Table("t")
	aborted, err := prim.BeginTx()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.InsertTx(aborted, Row{Int(200), Str("aborted")}); err != nil {
		t.Fatal(err)
	}
	if err := aborted.Rollback(); err != nil {
		t.Fatal(err)
	}
	late, err := prim.CreateTable("late", Schema{{Name: "x", Type: TInt}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := late.Insert(Row{Int(7)}); err != nil {
		t.Fatal(err)
	}
	if err := open.Commit(); err != nil {
		t.Fatal(err)
	}
	raws := captureRaws(t, prim)
	want := visibleRows(t, prim)
	if err := prim.Close(); err != nil {
		t.Fatal(err)
	}

	files := []string{"t.heap", "t_id_idx.idx", "late.heap"}
	readFiles := func(dir string) [][]byte {
		t.Helper()
		out := make([][]byte, len(files))
		for i, name := range files {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b
		}
		return out
	}
	// finish applies the rest of the stream, checks the replica, closes
	// it and returns its data files.
	finish := func(label string, d *DB) [][]byte {
		t.Helper()
		if err := applyRaws(d, raws, 3); err != nil {
			t.Fatalf("%s: apply: %v", label, err)
		}
		if got := visibleRows(t, d); !equalStrings(got, want) {
			t.Fatalf("%s: rows %v, want %v", label, got, want)
		}
		if lt, ok := d.Table("late"); !ok || lt.Count() != 1 {
			t.Fatalf("%s: table late missing or wrong size", label)
		}
		for _, is := range d.Check() {
			t.Errorf("%s: integrity: %s", label, is)
		}
		for _, is := range d.CheckWAL() {
			t.Errorf("%s: wal: %s", label, is)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
		return readFiles(d.dir)
	}

	// step is the uninterrupted replica, fed in lockstep: after each
	// restart the restarted replica must hold the same live set and
	// show the same rows before it applies the rest.
	step, err := OpenOpts(t.TempDir(), Options{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	wantFiles := readFiles(primDir)
	for k := 1; k < len(raws); k++ {
		label := fmt.Sprintf("restart after %d of %d records", k, len(raws))
		if err := applyRaws(step, raws[:k], 4); err != nil {
			t.Fatalf("%s: uninterrupted apply: %v", label, err)
		}
		dir := t.TempDir()
		d, err := OpenOpts(dir, Options{Replica: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := applyRaws(d, raws[:k], 4); err != nil {
			t.Fatalf("%s: apply: %v", label, err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}
		if d, err = OpenOpts(dir, Options{Replica: true}); err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		if got, want := d.applier.Live(), step.applier.Live(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: live %v, uninterrupted replica %v", label, got, want)
		}
		if got, want := replicaView(t, d), replicaView(t, step); !equalStrings(got, want) {
			t.Fatalf("%s: rows %v, uninterrupted replica %v", label, got, want)
		}
		for i, b := range finish(label, d) {
			if !bytes.Equal(b, wantFiles[i]) {
				t.Fatalf("%s: %s differs from the primary's", label, files[i])
			}
		}
	}
	for i, b := range finish("uninterrupted", step) {
		if !bytes.Equal(b, wantFiles[i]) {
			t.Fatalf("uninterrupted replica: %s differs from the primary's", files[i])
		}
	}
}

// replicaView renders every table's snapshot-visible rows.
func replicaView(t *testing.T, d *DB) []string {
	t.Helper()
	snap := d.AcquireSnap()
	defer d.ReleaseSnap(snap)
	var out []string
	for _, name := range d.Tables() {
		tab, _ := d.Table(name)
		err := tab.ScanSnap(snap, func(_ store.RID, row Row) error {
			out = append(out, fmt.Sprintf("%s:%v", name, row))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	sort.Strings(out)
	return out
}

// TestReplicaCrashTorture kills the replica apply path at every write
// and every sync point, then restarts it and resumes the stream,
// verifying the replica converges to the primary's exact rows with no
// divergence and clean integrity. This is the follower half of the
// crash contract: durability-before-apply plus restart replay must
// cover any torn state.
func TestReplicaCrashTorture(t *testing.T) {
	primDir := t.TempDir()
	prim, err := Open(primDir)
	if err != nil {
		t.Fatal(err)
	}
	defer prim.Close()
	open := primaryWorkload(t, prim)
	defer open.Rollback()
	raws := captureRaws(t, prim)
	want := visibleRows(t, prim)

	// Count run: how many writes and syncs a clean apply performs.
	counter := &store.FaultFS{}
	cleanDir := t.TempDir()
	repl, err := OpenOpts(cleanDir, Options{Replica: true, FS: counter})
	if err != nil {
		t.Fatal(err)
	}
	if err := applyRaws(repl, raws, 3); err != nil {
		t.Fatal(err)
	}
	if err := repl.ReplicaCheckpoint(); err != nil {
		t.Fatal(err)
	}
	if err := repl.Close(); err != nil {
		t.Fatal(err)
	}
	writes, syncs := counter.Writes(), counter.Syncs()
	if writes == 0 || syncs == 0 {
		t.Fatalf("count run saw %d writes, %d syncs", writes, syncs)
	}

	step := 1
	if testing.Short() {
		step = 5
	}
	sweep := func(label string, total int, arm func(n int) *store.FaultFS) {
		for n := 1; n <= total; n += step {
			t.Run(fmt.Sprintf("%s-%d", label, n), func(t *testing.T) {
				dir := t.TempDir()
				crash := arm(n)
				d, err := OpenOpts(dir, Options{Replica: true, FS: crash})
				if err != nil {
					// The open itself hit the fault; restart below covers it.
					if !crash.Tripped() {
						t.Fatalf("open failed without the fault firing: %v", err)
					}
				} else {
					if err := applyRaws(d, raws, 3); err == nil {
						if err := d.ReplicaCheckpoint(); err == nil {
							// The fault may land in Close's flush path.
							_ = d.Close()
						} else {
							_ = d.Close()
						}
					} else {
						_ = d.Close()
					}
				}
				if !crash.Tripped() {
					t.Skip("fault index beyond this run's operations")
				}

				// Restart with a clean filesystem and resume the stream.
				d, err = OpenOpts(dir, Options{Replica: true})
				if err != nil {
					t.Fatalf("reopen after crash: %v", err)
				}
				defer d.Close()
				if err := applyRaws(d, raws, 3); err != nil {
					t.Fatalf("resume after crash: %v", err)
				}
				if got, wantLSN := d.AppliedLSN(), prim.WAL().DurableLSN(); got != wantLSN {
					t.Fatalf("applied lsn %d after resume, want %d", got, wantLSN)
				}
				if got := visibleRows(t, d); !equalStrings(got, want) {
					t.Fatalf("diverged after crash at %s %d: rows %v, want %v", label, n, got, want)
				}
				for _, is := range d.Check() {
					t.Errorf("integrity after crash at %s %d: %s", label, n, is)
				}
				for _, is := range d.CheckWAL() {
					t.Errorf("wal check after crash at %s %d: %s", label, n, is)
				}
			})
		}
	}
	sweep("write", writes, func(n int) *store.FaultFS {
		return &store.FaultFS{FailWrite: n, Mode: store.FaultShort}
	})
	sweep("sync", syncs, func(n int) *store.FaultFS {
		return &store.FaultFS{FailSync: n}
	})
	// Torn writes: the nastiest manifestation, on a subsample.
	tornStep := step * 3
	for n := 1; n <= writes; n += tornStep {
		n := n
		t.Run(fmt.Sprintf("torn-%d", n), func(t *testing.T) {
			dir := t.TempDir()
			crash := &store.FaultFS{FailWrite: n, Mode: store.FaultTorn}
			d, err := OpenOpts(dir, Options{Replica: true, FS: crash})
			if err == nil {
				_ = applyRaws(d, raws, 3)
				_ = d.Close()
			}
			if !crash.Tripped() {
				t.Skip("fault index beyond this run's operations")
			}
			d, err = OpenOpts(dir, Options{Replica: true})
			if err != nil {
				t.Fatalf("reopen after torn write: %v", err)
			}
			defer d.Close()
			if err := applyRaws(d, raws, 3); err != nil {
				t.Fatalf("resume after torn write: %v", err)
			}
			if got := visibleRows(t, d); !equalStrings(got, want) {
				t.Fatalf("diverged after torn write %d: rows %v, want %v", n, got, want)
			}
			for _, is := range d.Check() {
				t.Errorf("integrity after torn write %d: %s", n, is)
			}
		})
	}
}

// TestReplicaAppliesNameTableLoad: a follower applies a WAL-backed
// CreateNameTable. The rows stream as page images; the index builds are
// not logged, so the follower rebuilds all three from the rows it holds,
// the gram index included. Its gram index and its q-gram answers equal
// the primary's, Check and CheckWAL are clean on both, and all of it
// holds again after the follower restarts.
func TestReplicaAppliesNameTableLoad(t *testing.T) {
	op := core.MustNew(core.Options{})
	texts := generatedTexts(t, op, 600)
	prim := openDB(t)
	if _, err := CreateNameTable(prim, "names", op, texts, NameTableSpec{WithAux: true, WithIndexes: true}); err != nil {
		t.Fatal(err)
	}
	raws := captureRaws(t, prim)
	queries := append([]core.Text{{Value: "Ha", Lang: script.English}}, texts[:40]...)
	view := func(label string, d *DB) ([]coverEntry, [][]int64) {
		t.Helper()
		cfg, err := ResolveLexConfig(d, "names", op)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.CoverIndex == nil || cfg.IDIndex == nil {
			t.Fatalf("%s: the gram or the id index did not resolve", label)
		}
		var answers [][]int64
		for _, q := range queries {
			answers = append(answers, planIDs(t, NewLexScanQGram(cfg, q, 0.25, nil), cfg.IDCol))
		}
		for _, is := range append(d.Check(), d.CheckWAL()...) {
			t.Errorf("%s: %s", label, is)
		}
		return coverEntries(t, cfg.CoverIndex), answers
	}
	wantEntries, want := view("primary", prim)

	dir := t.TempDir()
	repl, err := OpenOpts(dir, Options{Replica: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := applyRaws(repl, raws, 16); err != nil {
		repl.Close()
		t.Fatalf("apply: %v", err)
	}
	for _, label := range []string{"follower", "restarted follower"} {
		entries, got := view(label, repl)
		if !reflect.DeepEqual(entries, wantEntries) {
			t.Errorf("%s: gram index of %d entries, the primary's holds %d or differs", label, len(entries), len(wantEntries))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: q-gram answers %v, the primary's %v", label, got, want)
		}
		if err := repl.Close(); err != nil {
			t.Fatal(err)
		}
		if repl, err = OpenOpts(dir, Options{Replica: true}); err != nil {
			t.Fatal(err)
		}
	}
	repl.Close()
}
