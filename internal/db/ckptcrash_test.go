package db

import (
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"lexequal/internal/store"
	"lexequal/internal/wal"
)

// ckptSegBytes keeps WAL segments tiny so the checkpoint workloads span
// many of them and segment GC has something to reclaim.
const ckptSegBytes = int64(2 * store.PageSize)

// runCheckpointWorkload is runCrashWorkload with fuzzy checkpoints
// interleaved (three on a clean run) over tiny WAL segments, so a fault
// sweep also kills inside checkpoint page flushes, data fsyncs, the
// checkpoint WAL records, the GC floor pointer write, and the GC
// unlinks themselves. Checkpoint errors are deliberately swallowed: a
// checkpoint that dies must never lose acknowledged data, which is
// exactly what the verifier then checks.
func runCheckpointWorkload(dir string, fs store.VFS) (acked []int64, inflight [][]int64) {
	d, err := OpenOpts(dir, Options{FS: fs, WALSegmentBytes: ckptSegBytes})
	if err != nil {
		return nil, nil
	}
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
		if id%2 == 1 {
			_, _ = d.Checkpoint()
		}
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
	_, _ = d.Checkpoint()

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

// TestCheckpointCrashTortureSweep kills the checkpointing workload at
// every write, sync, and unlink point — covering the checkpoint's page
// write-backs, data fsyncs, its two WAL records, the GC floor pointer,
// and each segment unlink — then reopens cleanly and asserts the same
// recovery contract as the plain torture sweep: acknowledged commits
// survive, losers vanish, integrity and WAL checks pass.
func TestCheckpointCrashTortureSweep(t *testing.T) {
	counter := &store.FaultFS{}
	baseAcked, _ := runCheckpointWorkload(t.TempDir(), counter)
	if len(baseAcked) != 6 {
		t.Fatalf("clean workload acknowledged %d commits, want 6", len(baseAcked))
	}
	writes, syncs, removes := counter.Writes(), counter.Syncs(), counter.Removes()
	if removes == 0 {
		t.Fatal("clean checkpoint workload unlinked no WAL segments; GC has no kill points")
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}

	modes := []store.FaultMode{store.FaultError, store.FaultShort, store.FaultTorn}
	for n := 1; n <= writes; n += stride {
		mode := modes[n%len(modes)]
		dir := filepath.Join(t.TempDir(), "db")
		acked, inflight := runCheckpointWorkload(dir, &store.FaultFS{FailWrite: n, Mode: mode})
		verifyCrashOutcome(t, "ckpt write "+mode.String()+" point "+itoa(n), dir, acked, inflight)
	}
	for n := 1; n <= syncs; n += stride {
		dir := filepath.Join(t.TempDir(), "db")
		acked, inflight := runCheckpointWorkload(dir, &store.FaultFS{FailSync: n})
		verifyCrashOutcome(t, "ckpt sync point "+itoa(n), dir, acked, inflight)
	}
	// GC unlinks are few; sweep every one of them.
	for n := 1; n <= removes; n++ {
		dir := filepath.Join(t.TempDir(), "db")
		acked, inflight := runCheckpointWorkload(dir, &store.FaultFS{FailRemove: n})
		verifyCrashOutcome(t, "gc unlink point "+itoa(n), dir, acked, inflight)
	}
}

// walSegments returns the count and lowest sequence number of the WAL
// segment files under dir.
func walSegments(t *testing.T, dir string) (count int, first uint32) {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, "wal"))
	if err != nil {
		t.Fatalf("read wal dir: %v", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".wal") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 32)
		if err != nil {
			continue
		}
		count++
		if first == 0 || uint32(seq) < first {
			first = uint32(seq)
		}
	}
	return count, first
}

// TestBoundedRecoveryAfterCheckpoints is the bounded-recovery property
// test: a soak with several checkpoint cycles, crashed by cloning the
// live directory, must recover from the last complete checkpoint's
// floor — skipping everything at or below it and replaying strictly
// less than an identical soak that never checkpointed — and its on-disk
// segment chain must be GC'd down to a bounded suffix of the log.
func TestBoundedRecoveryAfterCheckpoints(t *testing.T) {
	const perCycle, cycles, tail = 3, 4, 2
	total := int64(perCycle*cycles + tail)
	// Segments big enough that the segment holding a checkpoint also
	// holds committed records from just below its floor (so recovery has
	// something to skip), small enough that the soak spans many and GC
	// reclaims some.
	const segBytes = int64(8 * store.PageSize)

	type image struct {
		dir       string
		floor     uint64 // last complete checkpoint's floor (0 = never checkpointed)
		segs      int
		firstSeg  uint32
		reclaimed int
	}
	build := func(name string, checkpoint bool) image {
		dir := filepath.Join(t.TempDir(), name)
		d, err := OpenOpts(dir, Options{WALSegmentBytes: segBytes})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}, {Name: "name", Type: TString}})
		if err != nil {
			t.Fatal(err)
		}
		img := image{}
		id := int64(0)
		for c := 0; c < cycles; c++ {
			for k := 0; k < perCycle; k++ {
				if _, err := tab.Insert(crashRow(id)); err != nil {
					t.Fatal(err)
				}
				id++
			}
			if !checkpoint {
				continue
			}
			st, err := d.Checkpoint()
			if err != nil {
				t.Fatalf("checkpoint cycle %d: %v", c, err)
			}
			if st.Floor < img.floor {
				t.Fatalf("checkpoint floor regressed: %d after %d", st.Floor, img.floor)
			}
			img.floor = st.Floor
			img.reclaimed += st.SegmentsRemoved
		}
		// Tail work past the last checkpoint: what recovery must replay.
		for k := 0; k < tail; k++ {
			if _, err := tab.Insert(crashRow(id)); err != nil {
				t.Fatal(err)
			}
			id++
		}
		// The crash: clone the live directory, then abandon the original.
		img.dir = filepath.Join(t.TempDir(), name+"-crash")
		copyDir(t, dir, img.dir)
		img.segs, img.firstSeg = walSegments(t, img.dir)
		_ = d.Close()
		return img
	}

	ckpt := build("ckpt", true)
	ctrl := build("ctrl", false)

	if ckpt.floor == 0 {
		t.Fatal("checkpointed soak never declared a redo floor")
	}
	if ckpt.reclaimed == 0 {
		t.Fatal("checkpointed soak never reclaimed a WAL segment")
	}
	if ckpt.firstSeg <= 1 {
		t.Fatalf("checkpointed image still starts at segment %d; GC never advanced the log", ckpt.firstSeg)
	}
	if ckpt.segs >= ctrl.segs {
		t.Fatalf("checkpointed image holds %d segments, control %d; GC did not bound the log", ckpt.segs, ctrl.segs)
	}

	// Partition the surviving log's committed records around the floor
	// now — recovery below truncates the log once it has replayed it.
	expSkipped, expReplayed := countRedoClasses(t, ckpt.dir, ckpt.floor)

	openStats := func(img image) RecoveryStats {
		d, err := Open(img.dir)
		if err != nil {
			t.Fatalf("%s: reopen after crash: %v", img.dir, err)
		}
		rs := d.RecoveryStats()
		for _, is := range d.Check() {
			t.Errorf("%s: integrity: %s", img.dir, is)
		}
		for _, is := range d.CheckWAL() {
			t.Errorf("%s: wal check: %s", img.dir, is)
		}
		tab, ok := d.Table("t")
		if !ok {
			t.Fatalf("%s: table t missing after recovery", img.dir)
		}
		counts := map[int64]int{}
		if err := tab.Scan(func(_ store.RID, row Row) error {
			counts[row[0].I]++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for id := int64(0); id < total; id++ {
			if counts[id] != 1 {
				t.Fatalf("%s: id %d occurs %d times after recovery, want 1", img.dir, id, counts[id])
			}
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return rs
	}

	rsCkpt := openStats(ckpt)
	rsCtrl := openStats(ctrl)

	if !rsCkpt.Ran || !rsCtrl.Ran {
		t.Fatalf("recovery did not run: ckpt=%v ctrl=%v", rsCkpt.Ran, rsCtrl.Ran)
	}
	if rsCkpt.Redo.Floor != ckpt.floor {
		t.Fatalf("recovery floor %d, want last complete checkpoint's floor %d", rsCkpt.Redo.Floor, ckpt.floor)
	}
	if rsCtrl.Redo.Floor != 0 || rsCtrl.Redo.Skipped != 0 {
		t.Fatalf("uncheckpointed control recovered with floor %d, skipped %d; want origin",
			rsCtrl.Redo.Floor, rsCtrl.Redo.Skipped)
	}
	if rsCkpt.Redo.Replayed == 0 {
		t.Fatal("recovery replayed nothing; the tail work vanished")
	}
	if rsCkpt.Redo.Replayed >= rsCtrl.Redo.Replayed {
		t.Fatalf("bounded recovery replayed %d records, unbounded control %d",
			rsCkpt.Redo.Replayed, rsCtrl.Redo.Replayed)
	}
	// The partition must be exact: every committed page/catalog record in
	// the surviving log at or below the floor is skipped, every one above
	// it is replayed — nothing more, nothing less.
	if rsCkpt.Redo.Skipped != expSkipped || rsCkpt.Redo.Replayed != expReplayed {
		t.Fatalf("recovery skipped %d and replayed %d; the surviving log holds %d committed records at or below floor %d and %d above it",
			rsCkpt.Redo.Skipped, rsCkpt.Redo.Replayed, expSkipped, ckpt.floor, expReplayed)
	}
}

// countRedoClasses scans the crash image's surviving WAL and partitions
// its committed page/catalog records around floor: those at or below it
// (recovery must skip them) and those above (recovery must replay).
func countRedoClasses(t *testing.T, dir string, floor uint64) (skipped, replayed int) {
	t.Helper()
	l, err := wal.Open(dir, store.OSFS{})
	if err != nil {
		t.Fatalf("open crash image wal: %v", err)
	}
	defer l.Close()
	committed := map[uint64]bool{}
	if err := l.Records(func(r wal.Record) error {
		if r.Type == wal.RecCommit {
			committed[r.TxID] = true
		}
		return nil
	}); err != nil {
		t.Fatalf("scan crash image wal: %v", err)
	}
	err = l.Records(func(r wal.Record) error {
		if (r.Type == wal.RecPage || r.Type == wal.RecCatalog) && committed[r.TxID] {
			if r.LSN <= floor {
				skipped++
			} else {
				replayed++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scan crash image wal: %v", err)
	}
	return skipped, replayed
}

// damagedCheckpointDir crashes the checkpointing workload late enough
// that at least one checkpoint completed: the resulting image recovers
// from a non-origin redo floor over a GC'd segment chain.
func damagedCheckpointDir(t *testing.T) (string, []int64, [][]int64) {
	t.Helper()
	counter := &store.FaultFS{}
	runCheckpointWorkload(t.TempDir(), counter)
	dir := filepath.Join(t.TempDir(), "db")
	point := counter.Writes() * 5 / 6
	acked, inflight := runCheckpointWorkload(dir, &store.FaultFS{FailWrite: point, Mode: store.FaultTorn})

	// The sweep below is only meaningful if the image really carries a
	// checkpoint: probe a clone and demand a non-origin floor.
	probe := filepath.Join(t.TempDir(), "probe")
	copyDir(t, dir, probe)
	d, err := Open(probe)
	if err != nil {
		t.Fatalf("probe recovery: %v", err)
	}
	rs := d.RecoveryStats()
	_ = d.Close()
	if !rs.Ran || rs.Redo.Floor == 0 {
		t.Fatalf("crash image recovers from origin (ran=%v floor=%d); move the crash point", rs.Ran, rs.Redo.Floor)
	}
	return dir, acked, inflight
}

// TestRecoveryIdempotentAcrossCheckpoints recovers a checkpointed crash
// image twice over and demands identical row state: redo from a
// non-origin floor must be as repeatable as redo from the origin.
func TestRecoveryIdempotentAcrossCheckpoints(t *testing.T) {
	dir, acked, inflight := damagedCheckpointDir(t)
	clone := filepath.Join(t.TempDir(), "clone")
	copyDir(t, dir, clone)

	verifyCrashOutcome(t, "original", dir, acked, inflight)
	first := dumpIDs(t, "clone pass 1", clone)
	second := dumpIDs(t, "clone pass 2", clone)
	if len(first) != len(second) {
		t.Fatalf("recover twice diverged: %v vs %v", first, second)
	}
	for id, n := range first {
		if second[id] != n {
			t.Fatalf("recover twice diverged at id %d: %d vs %d", id, n, second[id])
		}
	}
}

// TestCrashDuringRecoveryAfterCheckpoint crashes recovery itself — at
// every write and sync point of a redo pass that starts from a
// non-origin checkpoint floor — then recovers cleanly and compares
// against a control recovery of the same image.
func TestCrashDuringRecoveryAfterCheckpoint(t *testing.T) {
	dir, acked, inflight := damagedCheckpointDir(t)
	control := filepath.Join(t.TempDir(), "control")
	copyDir(t, dir, control)
	controlState := dumpIDs(t, "control", control)

	probe := filepath.Join(t.TempDir(), "probe2")
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
		run("ckpt recovery write point "+itoa(n), &store.FaultFS{FailWrite: n, Mode: store.FaultTorn})
	}
	for n := 1; n <= syncs; n += stride {
		run("ckpt recovery sync point "+itoa(n), &store.FaultFS{FailSync: n})
	}
}

// TestCheckpointENOSPCDegradesGracefully injects a disk-full error at
// every write the checkpoint performs — page write-backs, the deferred
// catalog, the checkpoint WAL records, the GC floor pointer — and
// demands graceful degradation, not a crash: the checkpoint fails with
// an error wrapping ENOSPC, the database keeps serving writes, a
// retried checkpoint succeeds once space is back, and a clean reopen
// sees every acknowledged row. Unless the fault landed in the
// best-effort GC phase (by which point the checkpoint is already
// durable), the log must keep its old redo floor.
func TestCheckpointENOSPCDegradesGracefully(t *testing.T) {
	setup := func(dir string, fs store.VFS) (*DB, *Table) {
		t.Helper()
		d, err := OpenOpts(dir, Options{FS: fs, WALSegmentBytes: ckptSegBytes})
		if err != nil {
			t.Fatal(err)
		}
		tab, err := d.CreateTable("t", Schema{{Name: "id", Type: TInt}, {Name: "name", Type: TString}})
		if err != nil {
			t.Fatal(err)
		}
		for id := int64(0); id < 3; id++ {
			if _, err := tab.Insert(crashRow(id)); err != nil {
				t.Fatal(err)
			}
		}
		return d, tab
	}

	// Probe a clean run for the write-op window the checkpoint spans.
	probeFS := &store.FaultFS{}
	pd, _ := setup(filepath.Join(t.TempDir(), "probe"), probeFS)
	before := probeFS.Writes()
	if _, err := pd.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := probeFS.Writes()
	if err := pd.Close(); err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatal("checkpoint performed no writes; nothing to sweep")
	}

	for n := before + 1; n <= after; n++ {
		label := "enospc at write " + itoa(n)
		dir := filepath.Join(t.TempDir(), "db")
		d, tab := setup(dir, &store.FaultFS{FailWrite: n, Mode: store.FaultDiskFull})

		_, err := d.Checkpoint()
		if err == nil {
			t.Fatalf("%s: checkpoint succeeded with a disk-full fault armed inside it", label)
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("%s: error %v does not wrap ENOSPC", label, err)
		}
		ws := d.WALStats()
		if ws.CheckpointFailures != 1 {
			t.Fatalf("%s: CheckpointFailures = %d, want 1", label, ws.CheckpointFailures)
		}
		if !strings.Contains(err.Error(), "checkpoint gc") && ws.RedoFloor != 0 {
			t.Fatalf("%s: failed checkpoint moved the redo floor to %d", label, ws.RedoFloor)
		}

		// Disk-full is transient here: serving continues ...
		if _, err := tab.Insert(crashRow(100)); err != nil {
			t.Fatalf("%s: insert after failed checkpoint: %v", label, err)
		}
		// ... and the retried checkpoint succeeds and declares a floor.
		st, err := d.Checkpoint()
		if err != nil {
			t.Fatalf("%s: retried checkpoint: %v", label, err)
		}
		if st.Floor == 0 {
			t.Fatalf("%s: retried checkpoint declared no floor", label)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("%s: close: %v", label, err)
		}

		counts := dumpIDs(t, label, dir)
		for _, id := range []int64{0, 1, 2, 100} {
			if counts[id] != 1 {
				t.Fatalf("%s: id %d occurs %d times after reopen, want 1", label, id, counts[id])
			}
		}
	}
}
