package db

import (
	"errors"
	"fmt"
	"time"

	"lexequal/internal/store"
	"lexequal/internal/wal"
)

// Tx is a write transaction under snapshot isolation: it reads from
// the snapshot taken at BeginTx (plus its own writes) and its writes
// become visible to others atomically at Commit. Independent
// transactions run concurrently; two that claim the same row resolve
// by first writer wins, the loser getting ErrSerializationFailure.
// Any number may be in flight, each used by one goroutine at a time.
// A Tx is finished by exactly one of Commit or Rollback.
type Tx struct {
	d    *DB
	id   uint64
	done bool
	snap *Snap
	// writes is the compensation log: every heap write in order, undone
	// in reverse on rollback. Guarded by d.stmu.
	writes []txWrite
	// tainted marks a failed mutation that left unlogged dirty pages —
	// compensation cannot undo it; rollback must recover in place.
	// Guarded by d.stmu.
	tainted bool
	// ddl marks a catalog change, which compensation cannot undo
	// either. Guarded by d.stmu.
	ddl bool
}

// errTxDone is returned by operations on a finished transaction.
var errTxDone = errors.New("db: transaction already finished")

// txLogger adapts the log to store.PageLogger for one transaction:
// captured page images are stamped with its ID. It carries the
// transaction explicitly, so any number can log concurrently —
// including a rollback compensating a transaction that is already
// finished.
type txLogger struct {
	d  *DB
	tx *Tx
}

func (w txLogger) LogPage(path string, id store.PageID, payload []byte) (uint64, error) {
	return w.d.wal.LogPage(w.tx.id, path, id, payload)
}

// BeginTx opens a write transaction. It never blocks behind other
// transactions; conflicts surface later as ErrSerializationFailure
// from the row that loses a claim race. The database must have been
// opened with the WAL enabled (the default).
//
// The begin record's LSN is the transaction's ID; the transaction is
// registered in flight with its snapshot before it is returned, so no
// row can carry an ID the registry has not seen.
func (d *DB) BeginTx() (*Tx, error) {
	if d.wal == nil {
		return nil, errors.New("db: transactions require the write-ahead log (database opened with DisableWAL)")
	}
	if err := d.usable(); err != nil {
		return nil, err
	}
	if d.replica {
		return nil, fmt.Errorf("%w: writes must go to the primary", ErrReplica)
	}
	id, err := d.wal.BeginAuto()
	if err != nil {
		return nil, err
	}
	tx := &Tx{d: d, id: id}
	d.tmu.Lock()
	d.inflight[id] = tx
	tx.snap = &Snap{h: d.maxCommit, self: id, reg: true}
	d.snaps[tx.snap] = struct{}{}
	d.tmu.Unlock()
	return tx, nil
}

// Snapshot returns the transaction's read snapshot (taken at BeginTx:
// repeatable reads, plus the transaction's own writes).
func (tx *Tx) Snapshot() *Snap { return tx.snap }

// Done reports whether the transaction has been finished by Commit or
// Rollback (directly, or by a failed statement aborting it).
func (tx *Tx) Done() bool {
	tx.d.stmu.Lock()
	defer tx.d.stmu.Unlock()
	return tx.done
}

// usableTx fails operations on a finished or tainted transaction.
func (tx *Tx) usableTx() error {
	d := tx.d
	d.stmu.Lock()
	defer d.stmu.Unlock()
	if tx.done {
		return errTxDone
	}
	if tx.tainted {
		return errors.New("db: transaction unusable after a failed mutation; roll it back")
	}
	return nil
}

// noteStoreErr inspects a failed storage mutation: one that left
// unlogged dirty pages behind taints the transaction (compensation can
// no longer prove a clean state; rollback will recover in place). A
// nil receiver (unlogged bulk mode) ignores it.
func (tx *Tx) noteStoreErr(err error) {
	if tx == nil || err == nil || !errors.Is(err, store.ErrUnloggedDirt) {
		return
	}
	d := tx.d
	d.stmu.Lock()
	tx.tainted = true
	d.stmu.Unlock()
}

// track appends one write to the transaction's compensation log. A nil
// receiver (unlogged bulk mode) ignores it.
func (tx *Tx) track(w txWrite) {
	if tx == nil {
		return
	}
	d := tx.d
	d.stmu.Lock()
	tx.writes = append(tx.writes, w)
	d.stmu.Unlock()
}

// markDDL flags the transaction as carrying a catalog change.
func (tx *Tx) markDDL() {
	if tx == nil {
		return
	}
	d := tx.d
	d.stmu.Lock()
	tx.ddl = true
	d.stmu.Unlock()
}

// autoBegin opens the transaction one autocommitting operation runs
// in: a fresh BeginTx, or nil when the WAL is disabled (unlogged bulk
// mode, where the operation writes through untracked).
func (d *DB) autoBegin() (*Tx, error) {
	if d.wal == nil {
		return nil, nil
	}
	return d.BeginTx()
}

// autoEnd finishes an autoBegin transaction: commit on success, roll
// back on failure.
func (d *DB) autoEnd(tx *Tx, err error) error {
	if tx == nil {
		return err
	}
	if err != nil {
		if rbErr := tx.Rollback(); rbErr != nil {
			return errors.Join(err, rbErr)
		}
		return err
	}
	return tx.Commit()
}

// finish marks tx finished exactly once.
func (tx *Tx) finish() error {
	d := tx.d
	d.stmu.Lock()
	defer d.stmu.Unlock()
	if tx.done {
		return errTxDone
	}
	tx.done = true
	return nil
}

// CommitNoWait appends the commit record and returns without waiting
// for durability. The returned LSN can be passed to WaitDurable later —
// splitting the two lets a session release its locks before blocking
// on the fsync, so concurrent committers batch into one group-commit
// flush.
func (tx *Tx) CommitNoWait() (uint64, error) {
	d := tx.d
	// A database marked unusable (a failed in-place recovery) cannot
	// vouch for what its caches hold, so nothing more commits.
	if err := d.usable(); err != nil {
		return 0, err
	}
	d.stmu.Lock()
	tainted := tx.tainted
	d.stmu.Unlock()
	if tainted {
		// The cache holds changes no log record describes; committing
		// would publish them as durable. Refuse, and take the rollback
		// path the taint demands.
		err := errors.New("db: cannot commit after a failed mutation")
		if rbErr := tx.Rollback(); rbErr != nil && !errors.Is(rbErr, errTxDone) {
			err = errors.Join(err, rbErr)
		}
		return 0, err
	}
	if err := tx.finish(); err != nil {
		return 0, err
	}
	lsn, err := d.commitTx(tx)
	if err != nil {
		// The commit record never reached the log (disk full, I/O
		// error), so the transaction must not look committed — but its
		// writes are live in the page caches and would be served to
		// later snapshots once this ID fell out of the in-flight
		// registry. Undo them while the transaction is still registered.
		return 0, errors.Join(fmt.Errorf("db: commit: %w", err), tx.undo())
	}
	d.ReleaseSnap(tx.snap)
	tx.snap = nil
	d.stmu.Lock()
	d.commits++
	d.stmu.Unlock()
	return lsn, nil
}

// Commit makes the transaction durable: all of its writes survive any
// crash from here on.
func (tx *Tx) Commit() error {
	lsn, err := tx.CommitNoWait()
	if err != nil {
		return err
	}
	return tx.d.WaitDurable(lsn)
}

// WaitDurable blocks until every log record at or below lsn is on
// durable storage (joining the group-commit batch in progress, if any).
func (d *DB) WaitDurable(lsn uint64) error {
	if d.wal == nil || lsn == 0 {
		return nil
	}
	return d.wal.WaitDurable(lsn)
}

// Rollback abandons the transaction. Ordinary row writes are undone in
// place by logged compensation — inserts tombstoned, delete claims
// cleared — so concurrent transactions are untouched. A transaction
// that changed the catalog, or whose failed mutation left unlogged
// dirty pages, cannot be compensated; its rollback falls back to
// in-place recovery (drop every cache, replay the log), which needs the
// database idle: no other transaction in flight and the query lock
// free (escalate). If recovery is impossible or fails, the database is
// marked unusable and every later operation reports the error.
func (tx *Tx) Rollback() error {
	if err := tx.finish(); err != nil {
		return err
	}
	return tx.undo()
}

// undo reverses a finished transaction that did not commit — the one
// undo decision Rollback and a failed commit share. Ordinary row writes
// are compensated and the trail terminated with an abort record. A
// catalog change, or a failed mutation's unlogged dirty pages, cannot
// be compensated: the trail is forgotten without a terminator — redo
// discards terminator-less trails wholesale and the loser purge removes
// whatever they left embedded in finished page images — and the caches
// are rebuilt from the log in place.
func (tx *Tx) undo() error {
	d := tx.d
	d.stmu.Lock()
	tainted, ddl := tx.tainted, tx.ddl
	d.stmu.Unlock()
	if tainted || ddl {
		d.wal.Forget(tx.id)
		return d.escalate(tx, nil)
	}
	if err := tx.compensate(); err != nil {
		d.wal.Forget(tx.id)
		return d.escalate(tx, err)
	}
	if err := d.abortTx(tx); err != nil {
		return d.escalate(tx, err)
	}
	d.deregister(tx)
	return nil
}

// compensate undoes the transaction's tracked writes in reverse order
// with fresh logged mutations under the same ID. The transaction must
// still be in flight: clearing a claim while its claimant is
// registered is what lets DeleteTx treat any standing claim as
// serious.
func (tx *Tx) compensate() error {
	d := tx.d
	d.stmu.Lock()
	writes := tx.writes
	tx.writes = nil
	d.stmu.Unlock()
	lg := txLogger{d, tx}
	var zero [8]byte
	for i := len(writes) - 1; i >= 0; i-- {
		w := writes[i]
		var err error
		if w.claim {
			d.wmu.Lock()
			err = w.t.Heap.PatchTx(w.rid, verXmaxOff, zero[:], lg)
			d.wmu.Unlock()
		} else {
			err = w.t.Heap.DeleteTx(w.rid, lg)
			if errors.Is(err, store.ErrDeleted) {
				err = nil // already tombstoned by an earlier partial pass
			}
		}
		if err != nil {
			return fmt.Errorf("db: rollback compensation of %s at %v: %w", w.t.Name, w.rid, err)
		}
	}
	return nil
}

// abortTx appends the abort record, which terminates the trail and
// makes it replayable: the forward images followed by the compensation
// images land redo on the undone state, so pages carrying the trail's
// LSNs are safe to flush under no-steal. On append failure the
// transaction is forgotten instead — the trail has no terminator and
// redo will discard it wholesale, which no longer matches the
// compensated state the caches hold — so the caller must escalate to
// in-place recovery.
func (d *DB) abortTx(tx *Tx) error {
	_, err := d.wal.Abort(tx.id)
	if err != nil {
		d.wal.Forget(tx.id)
	}
	return err
}

// escalate is the rollback path of last resort: the transaction's
// effects cannot be (or failed to be) compensated, so the caches are
// dropped and the committed state replayed from the log. That is only
// sound when the database is idle — no other transaction in flight
// (their cached writes would be lost) and no reader mid-plan (the
// catalog maps and storage caches are swapped out wholesale) — and the
// database is otherwise marked unusable. cause, if non-nil, is the
// compensation failure that forced this.
func (d *DB) escalate(tx *Tx, cause error) error {
	d.tmu.RLock()
	_, still := d.inflight[tx.id]
	sole := still && len(d.inflight) == 1
	d.tmu.RUnlock()
	d.deregister(tx)
	if !sole {
		err := fmt.Errorf("db: rollback requires in-place recovery with other transactions in flight; database unusable (cause: %w)", firstErr(cause, errors.New("uncompensatable transaction")))
		d.markUnusable(err)
		return err
	}
	// Readers are fenced by the query lock, so claim it exclusively for
	// the rebuild — TryLock, not Lock, because the rolling-back session
	// may itself still hold it (shared for MVCC statements, exclusive
	// for DDL) and a blocking acquire would self-deadlock. Contention
	// means the database is in use; recovery cannot run safely.
	if !d.qmu.TryLock() {
		err := fmt.Errorf("db: rollback requires in-place recovery while the database is in use; database unusable (cause: %w)", firstErr(cause, errors.New("uncompensatable transaction")))
		d.markUnusable(err)
		return err
	}
	defer d.qmu.Unlock()
	if err := d.recoverInPlace(); err != nil {
		err = fmt.Errorf("db: rollback recovery failed, database unusable: %w", errors.Join(cause, err))
		d.markUnusable(err)
		return err
	}
	return nil
}

// firstErr returns the first non-nil error.
func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// recoverInPlace drops every page cache without write-back and rebuilds
// the on-disk state from the log: redo re-applies committed images,
// loser records are skipped, rows the losers left embedded in committed
// images are purged by version header, and the catalog and all storage
// objects are reloaded from the recovered files. Callers must ensure no
// other transaction is in flight and no reader is mid-scan (escalate
// checks the first and holds the query lock exclusively).
func (d *DB) recoverInPlace() error {
	for _, t := range d.tables {
		if err := t.Heap.Discard(); err != nil {
			return err
		}
	}
	for _, ix := range d.indexes {
		if err := ix.Tree.Discard(); err != nil {
			return err
		}
	}
	d.tables = make(map[string]*Table)
	d.indexes = make(map[string]*Index)
	if _, err := d.recoverFiles(); err != nil {
		return err
	}
	// Redo published the last committed catalog image (if any), so the
	// deferred catalog write is no longer pending.
	d.stmu.Lock()
	d.catDirty = false
	d.stmu.Unlock()
	return d.openObjects()
}

// recoverFiles is crash recovery over the data files, run with no
// storage object open: redo re-applies the finished transactions' page
// images and publishes the last committed catalog, then rows the losers
// left embedded in finished images are purged by version header. Both
// steps are idempotent, and the log is left in place, so a crash
// mid-way reruns them from the same records.
func (d *DB) recoverFiles() (RecoveryStats, error) {
	started := time.Now()
	stats, err := wal.Redo(d.wal, d.dir, d.fs)
	if err != nil {
		return RecoveryStats{}, err
	}
	purged, err := d.purgeLosers(stats.Losers)
	if err != nil {
		return RecoveryStats{}, err
	}
	return RecoveryStats{
		Ran:      true,
		Duration: time.Since(started),
		Purged:   purged,
		Redo: RedoSummary{
			Floor:    stats.Floor,
			Scanned:  stats.Scanned,
			Skipped:  stats.Skipped,
			Replayed: stats.Replayed,
			Applied:  stats.Applied,
		},
	}, nil
}

// usable returns the sticky error that makes the database unusable, if
// any: a failed in-place recovery or a completed Close.
func (d *DB) usable() error {
	d.stmu.Lock()
	defer d.stmu.Unlock()
	if d.recoveryErr != nil {
		return d.recoveryErr
	}
	if d.closed {
		return errors.New("db: database is closed")
	}
	return nil
}

// attachHeap wires a heap file into the WAL: its pager enforces the
// WAL rule and no-steal. Mutations log through per-transaction loggers
// (txLogger), not an ambient per-file one.
func (d *DB) attachHeap(h *store.HeapFile) {
	if d.wal == nil {
		return
	}
	h.Pager().SetWAL(d.wal)
}

// attachTree is attachHeap for B-trees.
func (d *DB) attachTree(bt *store.BTree) {
	if d.wal == nil {
		return
	}
	bt.Pager().SetWAL(d.wal)
}

// WALStats reports write-ahead log activity.
type WALStats struct {
	// Enabled is whether the database has a WAL at all.
	Enabled bool
	// Commits is the number of committed write transactions.
	Commits uint64
	// Syncs is the number of fsyncs the log has issued; with group
	// commit under concurrent load it is much smaller than Commits.
	Syncs uint64
	// DurableLSN and LastLSN are the durable and appended high-water
	// marks.
	DurableLSN, LastLSN uint64
	// FlushInterval is the group-commit collection window.
	FlushInterval time.Duration
	// Checkpoints and CheckpointFailures count completed and failed
	// checkpoint attempts this process life.
	Checkpoints, CheckpointFailures uint64
	// LastCheckpoint describes the most recent completed checkpoint
	// (zero-value until one completes).
	LastCheckpoint CheckpointStats
	// RedoFloor is the redo floor currently installed in the log;
	// SinceCheckpoint is how many WAL bytes have accumulated above it.
	RedoFloor       uint64
	SinceCheckpoint int64
	// FirstSegment and Segments describe the live WAL segment run
	// (FirstSegment > 1 once GC has reclaimed history); SegmentsGCed
	// counts segments unlinked this process life.
	FirstSegment uint32
	Segments     int
	SegmentsGCed uint64
}

// WALStats returns a snapshot of log activity.
func (d *DB) WALStats() WALStats {
	if d.wal == nil {
		return WALStats{}
	}
	d.stmu.Lock()
	commits := d.commits
	ckpts := d.ckptCount
	ckptFails := d.ckptFailures
	lastCkpt := d.lastCkpt
	gcRemoved := d.gcRemoved
	d.stmu.Unlock()
	first, count := d.wal.Segments()
	return WALStats{
		Enabled:            true,
		Commits:            commits,
		Syncs:              d.wal.Syncs(),
		DurableLSN:         d.wal.DurableLSN(),
		LastLSN:            d.wal.LastLSN(),
		FlushInterval:      d.wal.FlushInterval(),
		Checkpoints:        ckpts,
		CheckpointFailures: ckptFails,
		LastCheckpoint:     lastCkpt,
		RedoFloor:          d.wal.RedoFloor(),
		SinceCheckpoint:    d.wal.SinceCheckpoint(),
		FirstSegment:       first,
		Segments:           count,
		SegmentsGCed:       gcRemoved,
	}
}

// SetWALFlushInterval adjusts the group-commit collection window: how
// long the first committer in a batch waits for followers before
// issuing the shared fsync. Zero syncs immediately per commit. No-op
// when the WAL is disabled.
func (d *DB) SetWALFlushInterval(dur time.Duration) {
	if d.wal == nil {
		return
	}
	d.wal.SetFlushInterval(dur)
}
