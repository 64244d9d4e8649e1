package db

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"lexequal/internal/store"
)

// This file implements multi-version concurrency control (DESIGN.md
// §15). Every heap record carries a 16-byte version header — the IDs
// of the transaction that created it (xmin) and, once claimed, the
// transaction that deleted it (xmax). Transaction IDs are the LSNs of
// their begin records, commit timestamps are the LSNs of their commit
// records, and a snapshot is a single number: the highest commit LSN
// at acquisition. A row is in a snapshot when its creator committed at
// or below that horizon and its deleter (if any) did not — so readers
// never block behind writers, and writers conflict only when they
// claim the same row (first writer wins).

// verHdr is the size of the version header prepended to every encoded
// row: xmin then xmax, little-endian uint64 each.
const verHdr = 16

// verXmaxOff is the byte offset of xmax within a heap record — the
// eight bytes a delete claims (and an aborted delete clears) in place.
const verXmaxOff = 8

// ErrSerializationFailure is returned when a write transaction loses a
// first-writer-wins conflict: the row it tried to delete was already
// claimed (or created and not yet committed) by a concurrent
// transaction. The losing transaction should be rolled back and
// retried. Match with errors.Is.
var ErrSerializationFailure = errors.New("db: serialization failure (concurrent write conflict)")

// stampVersion prepends a version header to an encoded row body. An
// xmin of zero is the frozen marker: always visible, used for unlogged
// (DisableWAL) databases and bulk builds. It can never collide with a
// real transaction ID because IDs are begin-record LSNs, which start
// at one and never restart across log resets.
func stampVersion(xmin uint64, body []byte) []byte {
	rec := make([]byte, verHdr+len(body))
	binary.LittleEndian.PutUint64(rec, xmin)
	copy(rec[verHdr:], body)
	return rec
}

// splitVersion splits a heap record into its version header and row
// body. A record too short to carry the header is damage, not a legal
// row: every write path stamps one.
func splitVersion(rec []byte) (xmin, xmax uint64, body []byte, err error) {
	if len(rec) < verHdr {
		return 0, 0, nil, fmt.Errorf("db: record of %d bytes is shorter than the version header: %w",
			len(rec), store.ErrCorrupt)
	}
	return binary.LittleEndian.Uint64(rec),
		binary.LittleEndian.Uint64(rec[verXmaxOff:]),
		rec[verHdr:], nil
}

// Snap is a consistent read snapshot: everything committed at or below
// horizon h is in it, everything later (or still in flight) is not. A
// transaction's snapshot also sees the transaction's own writes (self
// is its ID). Snapshots are registered with the database so version
// garbage collection never removes a row some open snapshot can still
// see; release them promptly.
type Snap struct {
	h    uint64
	self uint64
	reg  bool
}

// AcquireSnap registers a read snapshot at the current commit horizon.
// It returns nil when the database has no WAL (single-writer bulk mode
// has only one state to read); every read helper treats a nil snapshot
// as "latest committed state".
func (d *DB) AcquireSnap() *Snap {
	if d.wal == nil {
		return nil
	}
	d.tmu.Lock()
	s := &Snap{h: d.maxCommit, reg: true}
	d.snaps[s] = struct{}{}
	d.tmu.Unlock()
	return s
}

// ReleaseSnap deregisters a snapshot, letting version GC advance past
// its horizon. Releasing nil or twice is a no-op.
func (d *DB) ReleaseSnap(s *Snap) {
	if s == nil || !s.reg {
		return
	}
	d.tmu.Lock()
	delete(d.snaps, s)
	d.tmu.Unlock()
	s.reg = false
}

// visible reports whether a row version (xmin, xmax) is in snapshot s.
//
// A nil snapshot means the latest committed state — the view every
// pre-MVCC reader had: creation is taken at face value and any claim
// hides the row (claims are cleared in place when their transaction
// aborts, so a standing claim is either committed or in flight and
// about to be).
//
// An ID found in neither the in-flight registry nor the commit
// registry is from before the registry's memory: a transaction that
// committed in an earlier log life, or whose commit record was pruned
// at the GC horizon. Either way it committed below every live
// snapshot's horizon — so an unknown xmin is visible (frozen) and an
// unknown nonzero xmax hides the row.
//
// A frozen, never-claimed version (xmin = xmax = 0: every bulk-loaded
// row) is in every snapshot, and is decided before the registry lock is
// taken.
func (d *DB) visible(s *Snap, xmin, xmax uint64) bool {
	if xmin == 0 && xmax == 0 {
		return true
	}
	if s == nil {
		return xmax == 0
	}
	d.tmu.RLock()
	defer d.tmu.RUnlock()
	if xmin != 0 && xmin != s.self {
		if _, live := d.inflight[xmin]; live {
			return false
		}
		if at, ok := d.committedAt[xmin]; ok && at > s.h {
			return false
		}
	}
	switch {
	case xmax == 0:
		return true
	case xmax == s.self:
		return false // deleted by this transaction itself
	}
	if _, live := d.inflight[xmax]; live {
		return true // deleter has not committed; the row is still ours
	}
	at, ok := d.committedAt[xmax]
	return ok && at > s.h
}

// oldestHorizonLocked returns the lowest horizon any registered
// snapshot holds (the commit horizon itself when none are open).
// Caller holds tmu.
func (d *DB) oldestHorizonLocked() uint64 {
	h := d.maxCommit
	for s := range d.snaps {
		if s.h < h {
			h = s.h
		}
	}
	return h
}

// commitTx appends the commit record and publishes the commit
// timestamp atomically: no snapshot acquired while the record is in
// flight can observe the commit half-registered. On error nothing is
// published and the transaction is still in flight.
func (d *DB) commitTx(tx *Tx) (uint64, error) {
	d.tmu.Lock()
	defer d.tmu.Unlock()
	lsn, err := d.wal.CommitNoWait(tx.id)
	if err != nil {
		return 0, err
	}
	d.committedAt[tx.id] = lsn
	if lsn > d.maxCommit {
		d.maxCommit = lsn
	}
	delete(d.inflight, tx.id)
	return lsn, nil
}

// deregister removes a transaction from the in-flight registry and
// releases its snapshot (the abort path; commit goes through commitTx).
func (d *DB) deregister(tx *Tx) {
	d.tmu.Lock()
	delete(d.inflight, tx.id)
	d.tmu.Unlock()
	if tx.snap != nil {
		d.ReleaseSnap(tx.snap)
		tx.snap = nil
	}
}

// markUnusable installs the sticky error that fails every later
// operation, if none is installed yet.
func (d *DB) markUnusable(err error) {
	d.stmu.Lock()
	if d.recoveryErr == nil {
		d.recoveryErr = err
	}
	d.stmu.Unlock()
}

// conflictInc counts one lost write-write conflict.
func (d *DB) conflictInc() {
	d.tmu.Lock()
	d.conflicts++
	d.tmu.Unlock()
}

// MVCCStats is a snapshot of the transaction registry.
type MVCCStats struct {
	// Enabled is whether the database runs under MVCC at all (it does
	// whenever the WAL is enabled).
	Enabled bool
	// InFlight and Snapshots count open write transactions and
	// registered read snapshots.
	InFlight  int
	Snapshots int
	// MaxCommit is the commit horizon (the newest commit LSN).
	MaxCommit uint64
	// Conflicts counts write-write conflicts lost (serialization
	// failures returned) this process life.
	Conflicts uint64
	// CommitRegistry is the number of commit timestamps held for
	// visibility checks, pending horizon pruning.
	CommitRegistry int
}

// MVCCStats returns transaction-registry counters.
func (d *DB) MVCCStats() MVCCStats {
	if d.wal == nil {
		return MVCCStats{}
	}
	d.tmu.RLock()
	defer d.tmu.RUnlock()
	return MVCCStats{
		Enabled:        true,
		InFlight:       len(d.inflight),
		Snapshots:      len(d.snaps),
		MaxCommit:      d.maxCommit,
		Conflicts:      d.conflicts,
		CommitRegistry: len(d.committedAt),
	}
}

// txWrite is one tracked heap write of a transaction, in the order
// made. Rolling back replays them in reverse: an insert is tombstoned,
// a claim (delete intent) has its xmax cleared.
type txWrite struct {
	t     *Table
	rid   store.RID
	claim bool
}

// --- versioned table operations ---

// validateRow checks a row against the table schema.
func (t *Table) validateRow(row Row) error {
	if len(row) != len(t.Columns) {
		return fmt.Errorf("db: %s: row has %d values, schema has %d", t.Name, len(row), len(t.Columns))
	}
	for i, v := range row {
		if v.T == TNull {
			continue
		}
		if v.T != t.Columns[i].Type {
			return fmt.Errorf("db: %s.%s: value type %v, column type %v",
				t.Name, t.Columns[i].Name, v.T, t.Columns[i].Type)
		}
	}
	return nil
}

// InsertTx appends a row stamped with tx's ID: invisible to every
// other transaction until tx commits. A nil tx is allowed only without
// a WAL and stamps the frozen marker. Index entries are inserted
// eagerly and never compensated — index readers re-check visibility
// against the heap, so an entry for an aborted row is inert.
func (t *Table) InsertTx(tx *Tx, row Row) (store.RID, error) {
	if err := t.validateRow(row); err != nil {
		return store.RID{}, err
	}
	d := t.db
	var xmin uint64
	var lg store.PageLogger
	if tx != nil {
		if err := tx.usableTx(); err != nil {
			return store.RID{}, err
		}
		xmin = tx.id
		lg = txLogger{d, tx}
	} else if d.wal != nil {
		return store.RID{}, errors.New("db: insert without a transaction on a WAL-enabled database")
	}
	rid, err := t.Heap.InsertTx(stampVersion(xmin, row.Encode()), lg)
	if err != nil {
		tx.noteStoreErr(err)
		return store.RID{}, err
	}
	tx.track(txWrite{t: t, rid: rid})
	for _, ix := range d.indexes {
		if !strings.EqualFold(ix.Def.Table, t.Name) {
			continue
		}
		if ix.Def.Kind == IndexGram {
			continue // it covers the rows of its build only (DESIGN.md §4b)
		}
		ci := t.Columns.ColIndex(ix.Def.Column)
		if ci < 0 || row[ci].T != TInt {
			continue
		}
		if err := ix.Tree.InsertTx(uint64(row[ci].I), rid.Pack(), lg); err != nil {
			tx.noteStoreErr(err)
			return store.RID{}, err
		}
	}
	return rid, nil
}

// DeleteTx claims the row at rid for deletion by tx: its xmax is
// stamped in place, hiding the row from tx (immediately) and from
// everyone else once tx commits. First writer wins — if another
// transaction already claimed the row, or created it and has not
// committed, DeleteTx returns ErrSerializationFailure and the caller
// should retry its transaction. The physical record is removed later
// by version GC, once no snapshot can see it.
func (t *Table) DeleteTx(tx *Tx, rid store.RID) error {
	d := t.db
	if tx == nil {
		if d.wal == nil {
			return t.Heap.DeleteTx(rid, nil)
		}
		return errors.New("db: delete without a transaction on a WAL-enabled database")
	}
	if err := tx.usableTx(); err != nil {
		return err
	}
	// The claim itself runs under wmu; bookkeeping on tx — the taint
	// note, the compensation log — takes the db-tier state mutex, which
	// must not nest inside the claim tier, so it happens after the lock
	// is released. The transaction is driven by one goroutine, so no
	// rollback can run between the stamped claim and its track entry.
	if err := t.claimRow(tx, rid); err != nil {
		tx.noteStoreErr(err)
		return err
	}
	tx.track(txWrite{t: t, rid: rid, claim: true})
	return nil
}

// claimRow decides and stamps tx's delete claim on rid. wmu serializes
// the decision against other claims and against abort-time claim
// clearing: between the read and the patch no other transaction can
// stamp or clear this row's xmax.
func (t *Table) claimRow(tx *Tx, rid store.RID) error {
	d := t.db
	self := tx.id
	d.wmu.Lock()
	defer d.wmu.Unlock()
	rec, err := t.Heap.Get(rid)
	if err != nil {
		return err
	}
	xmin, xmax, _, err := splitVersion(rec)
	if err != nil {
		return err
	}
	if xmax == self {
		return fmt.Errorf("db: %s at %v: %w", t.Name, rid, store.ErrDeleted)
	}
	if xmax != 0 {
		// Any standing foreign claim loses us the row: aborted claims
		// are cleared in place while their claimant is still in flight,
		// so a nonzero xmax belongs to a live or committed deleter.
		d.conflictInc()
		return fmt.Errorf("db: delete %s at %v: row claimed by transaction %d: %w",
			t.Name, rid, xmax, ErrSerializationFailure)
	}
	if xmin != 0 && xmin != self {
		d.tmu.RLock()
		_, live := d.inflight[xmin]
		at, known := d.committedAt[xmin]
		d.tmu.RUnlock()
		if live || (known && tx.snap != nil && at > tx.snap.h) {
			// The row's creator is uncommitted or committed after our
			// snapshot: deleting a row we cannot (yet) see is the same
			// write-write race, reported the same way.
			d.conflictInc()
			return fmt.Errorf("db: delete %s at %v: row created by concurrent transaction %d: %w",
				t.Name, rid, xmin, ErrSerializationFailure)
		}
	}
	var selfB [8]byte
	binary.LittleEndian.PutUint64(selfB[:], self)
	return t.Heap.PatchTx(rid, verXmaxOff, selfB[:], txLogger{d, tx})
}

// GetSnap fetches the row at rid as snapshot s sees it; a version
// outside the snapshot reports store.ErrDeleted, same as a tombstone.
func (t *Table) GetSnap(s *Snap, rid store.RID) (row Row, err error) {
	err = t.viewBody(s, rid, func(body []byte) error {
		row, err = DecodeRow(body, len(t.Columns))
		return err
	})
	return row, err
}

// viewBody is GetSnap short of decoding: fn sees the encoded row body,
// aliasing the pinned page — valid only until fn returns.
func (t *Table) viewBody(s *Snap, rid store.RID, fn func(body []byte) error) error {
	return t.Heap.View(rid, func(rec []byte) error {
		xmin, xmax, body, err := splitVersion(rec)
		if err != nil {
			return err
		}
		if !t.db.visible(s, xmin, xmax) {
			return fmt.Errorf("db: %s at %v: %w", t.Name, rid, store.ErrDeleted)
		}
		return fn(body)
	})
}

// ScanSnap invokes fn for each row snapshot s sees, in RID order.
func (t *Table) ScanSnap(s *Snap, fn func(rid store.RID, row Row) error) error {
	n := len(t.Columns)
	return t.scanBodies(s, 1, store.InvalidPage, func(rid store.RID, body []byte) error {
		row, err := DecodeRow(body, n)
		if err != nil {
			return fmt.Errorf("db: %s at %v: %w", t.Name, rid, err)
		}
		return fn(rid, row)
	})
}

// scanBodies is ScanSnap short of decoding, over the heap's data pages
// in [lo, hi): fn sees the encoded body of each row in the snapshot,
// aliasing the pinned page — valid only until fn returns.
func (t *Table) scanBodies(s *Snap, lo, hi store.PageID, fn func(rid store.RID, body []byte) error) error {
	return t.Heap.ScanPages(lo, hi, func(rid store.RID, rec []byte) error {
		xmin, xmax, body, err := splitVersion(rec)
		if err != nil {
			return fmt.Errorf("db: %s at %v: %w", t.Name, rid, err)
		}
		if !t.db.visible(s, xmin, xmax) {
			return nil
		}
		return fn(rid, body)
	})
}

// scanVersions invokes fn for every physical record — live, claimed,
// or dead — with its version header split off. Bulk index builds use
// it: entries for invisible rows are inert (readers re-check the
// heap), while omitting one would break older snapshots for good.
func (t *Table) scanVersions(fn func(rid store.RID, xmin, xmax uint64, row Row) error) error {
	n := len(t.Columns)
	return t.Heap.Scan(func(rid store.RID, rec []byte) error {
		xmin, xmax, body, err := splitVersion(rec)
		if err != nil {
			return fmt.Errorf("db: %s at %v: %w", t.Name, rid, err)
		}
		row, err := DecodeRow(body, n)
		if err != nil {
			return fmt.Errorf("db: %s at %v: %w", t.Name, rid, err)
		}
		return fn(rid, xmin, xmax, row)
	})
}

// --- loser purge (crash recovery) ---

// purgeLosers removes the on-disk debris of transactions the log shows
// in flight at a crash. Redo skips a loser's own page images, but a
// committed image logged after a loser touched the same page embeds
// the loser's rows; this pass deletes rows a loser created and clears
// claims a loser stamped, by version header. It runs on raw storage
// before the database opens for service (and is idempotent: a crash
// mid-purge reruns redo and purge from the same log).
func (d *DB) purgeLosers(losers map[uint64]bool) (int, error) {
	if len(losers) == 0 {
		return 0, nil
	}
	cat, err := d.loadCatalog()
	if err != nil {
		return 0, err
	}
	purged := 0
	var zero [8]byte
	for _, td := range cat.Tables {
		h, err := store.OpenHeapFS(d.heapPath(td.Name), d.cachePages, d.fs)
		if err != nil {
			return purged, err
		}
		type fix struct {
			rid    store.RID
			remove bool
		}
		var fixes []fix
		err = h.Scan(func(rid store.RID, rec []byte) error {
			if len(rec) < verHdr {
				return nil // not a versioned row; nothing of a loser in it
			}
			xmin, xmax, _, _ := splitVersion(rec)
			switch {
			case losers[xmin]:
				fixes = append(fixes, fix{rid: rid, remove: true})
			case xmax != 0 && losers[xmax]:
				fixes = append(fixes, fix{rid: rid})
			}
			return nil
		})
		// Apply after the scan: Scan holds the heap latch shared for its
		// whole run, so mutating from inside the callback would deadlock.
		if err == nil {
			for _, f := range fixes {
				if f.remove {
					err = h.DeleteTx(f.rid, nil)
				} else {
					err = h.PatchTx(f.rid, verXmaxOff, zero[:], nil)
				}
				if err != nil {
					break
				}
				purged++
			}
		}
		if err == nil {
			err = h.Flush()
		}
		if cErr := h.Close(); err == nil {
			err = cErr
		}
		if err != nil {
			return purged, fmt.Errorf("db: purge crashed-transaction rows of %s: %w", td.Name, err)
		}
	}
	return purged, nil
}

// --- version garbage collection ---

// gcVersions physically removes dead row versions: rows whose deleter
// committed at or below every open snapshot's horizon (or is older
// than the registry remembers). No current or future snapshot can see
// them. The removals run as a regular logged transaction, so a crash
// mid-GC recovers cleanly; afterwards commit-registry entries at or
// below the horizon are pruned — the unknown-ID convention in visible
// gives the same answers without them.
func (d *DB) gcVersions() (int, error) {
	if d.wal == nil {
		return 0, nil
	}
	d.tmu.RLock()
	horizon := d.oldestHorizonLocked()
	d.tmu.RUnlock()
	type victim struct {
		t   *Table
		rid store.RID
	}
	var victims []victim
	d.qmu.RLock()
	tables := make([]*Table, 0, len(d.tables))
	for _, t := range d.tables {
		tables = append(tables, t)
	}
	d.qmu.RUnlock()
	for _, t := range tables {
		err := t.Heap.Scan(func(rid store.RID, rec []byte) error {
			if len(rec) < verHdr {
				return nil
			}
			_, xmax, _, _ := splitVersion(rec)
			if xmax == 0 {
				return nil
			}
			d.tmu.RLock()
			_, live := d.inflight[xmax]
			at, known := d.committedAt[xmax]
			d.tmu.RUnlock()
			if live || (known && at > horizon) {
				return nil // claim still undecided, or some snapshot sees the row
			}
			victims = append(victims, victim{t, rid})
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	if len(victims) > 0 {
		tx, err := d.BeginTx()
		if err != nil {
			return 0, err
		}
		lg := txLogger{d, tx}
		for _, v := range victims {
			if err := v.t.Heap.DeleteTx(v.rid, lg); err != nil {
				if errors.Is(err, store.ErrDeleted) {
					continue // already physically removed
				}
				tx.noteStoreErr(err)
				return 0, errors.Join(err, tx.Rollback())
			}
		}
		if err := tx.Commit(); err != nil {
			return 0, err
		}
	}
	d.tmu.Lock()
	for id, at := range d.committedAt {
		if at <= horizon {
			delete(d.committedAt, id)
		}
	}
	d.tmu.Unlock()
	return len(victims), nil
}
