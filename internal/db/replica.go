package db

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"lexequal/internal/store"
	"lexequal/internal/wal"
)

// This file is the follower half of WAL-shipping replication
// (DESIGN.md §16): a database opened with Options.Replica applies the
// primary's raw log records — appended to its own local log with their
// primary LSNs preserved, made durable, then installed through the
// buffer pool — and serves read-only snapshots at its applied horizon.
// The primary half (streaming, retention) lives in internal/wal and
// internal/repl.

// ErrReplica is returned (wrapped) by every mutating operation on a
// replica database: writes originate on the primary only.
var ErrReplica = errors.New("db: read-only replica")

// replStateName is the replica state file in the database directory:
// its presence marks the directory as a replica (a normal Open refuses
// it; deleting the file is the promotion step), and its floor field is
// the replica's checkpoint redo floor — the local log is replayed from
// there on restart. Layout: 8-byte magic, floor uint64, applied uint64
// (the applied LSN at the last checkpoint, for diagnostics), CRC32-C
// over the first 24 bytes.
const replStateName = "replstate"

// IsReplicaDir reports whether dir carries the replica state marker —
// callers use it to pick Options.Replica before opening (the marker is
// what makes a plain Open refuse the directory).
func IsReplicaDir(dir string) bool {
	_, err := store.OSFS{}.Stat(filepath.Join(dir, replStateName))
	return err == nil
}

const replStateMagic = "LXQLREPL"

// readReplState loads the replica state file. ok reports whether one
// exists; a present-but-damaged file is corruption (losing the floor
// silently would replay from the log origin, which after local GC no
// longer exists).
func readReplState(fs store.VFS, dir string) (floor, applied uint64, ok bool, err error) {
	path := filepath.Join(dir, replStateName)
	data, err := store.ReadFile(fs, path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, 0, false, nil
	}
	if err != nil {
		return 0, 0, false, fmt.Errorf("db: read replica state: %w", err)
	}
	if len(data) != 28 || string(data[:8]) != replStateMagic ||
		crc32.Checksum(data[:24], crc32.MakeTable(crc32.Castagnoli)) != binary.LittleEndian.Uint32(data[24:]) {
		return 0, 0, false, &store.CorruptFileError{Path: path, Reason: "replica state file fails verification"}
	}
	return binary.LittleEndian.Uint64(data[8:]), binary.LittleEndian.Uint64(data[16:]), true, nil
}

// writeReplState durably publishes the replica state file (write-temp +
// fsync + rename + dir sync, like every other pointer file here).
func writeReplState(fs store.VFS, dir string, floor, applied uint64) error {
	buf := make([]byte, 28)
	copy(buf, replStateMagic)
	binary.LittleEndian.PutUint64(buf[8:], floor)
	binary.LittleEndian.PutUint64(buf[16:], applied)
	binary.LittleEndian.PutUint32(buf[24:], crc32.Checksum(buf[:24], crc32.MakeTable(crc32.Castagnoli)))
	path := filepath.Join(dir, replStateName)
	tmp := path + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("db: write replica state: %w", err)
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		return errors.Join(fmt.Errorf("db: write replica state: %w", err), f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(fmt.Errorf("db: sync replica state: %w", err), f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, path); err != nil {
		return fmt.Errorf("db: publish replica state: %w", err)
	}
	return store.SyncDir(fs, dir)
}

// openReplica is the replica arm of OpenOpts: instead of winner/loser
// crash recovery it steps the local log through an Applier with no
// policy — every page image above the persisted floor applies to the
// raw files, because the live apply loop applies them too, leaving
// visibility to the MVCC version headers. OpenOpts switches the same
// machine to the pagers once the objects are open, so transactions in
// flight on the primary stay live and their catalog images stay
// pending until the stream brings their terminators. The log is left
// intact (its LSNs belong to the primary; Reset would sever the
// stream).
func (d *DB) openReplica() error {
	l := d.wal
	floor, _, _, err := readReplState(d.fs, d.dir)
	if err != nil {
		return err
	}
	files := wal.NewFileSink(d.dir, d.fs)
	defer files.Close()
	d.applier = wal.NewApplier(files, floor, nil)
	if err := l.Records(d.applier.Step); err != nil {
		return fmt.Errorf("db: replica replay: %w", err)
	}
	if err := files.Finish(); err != nil {
		return fmt.Errorf("db: replica replay: %w", err)
	}
	live := d.applier.Live()
	l.SeedLiveTxs(live)
	if floor > 0 {
		if _, err := l.DeclareFloor(floor); err != nil {
			return err
		}
	}
	for txid := range live {
		// Presence in the registry is all visibility needs; there is no
		// local Tx to roll back (the primary owns these transactions),
		// and Close knows not to try.
		d.inflight[txid] = nil
	}
	// Horizon seed: every commit in the local log is at or below the
	// last LSN, so a snapshot at LastLSN sees all of them (the registry
	// is empty — unknown xmin reads as anciently committed).
	d.maxCommit = l.LastLSN()
	d.appliedLSN = l.LastLSN()
	return nil
}

// rebuildMissingIndexes recreates index files the catalog names but the
// directory lacks — the crash window between a replicated catalog
// publish and the local index rebuild it triggers. Must run with the
// database private (open path) or qmu held exclusively.
func (d *DB) rebuildMissingIndexes(missing []string) error {
	for _, name := range missing {
		ix, ok := d.indexes[strings.ToLower(name)]
		if !ok {
			continue
		}
		// openObjects opened a fresh empty tree at the final path (the
		// pager creates absent files); discard it and rebuild staged.
		if err := ix.Tree.Discard(); err != nil {
			return err
		}
		if err := d.fs.Remove(d.indexPath(name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		if err := d.rebuildIndex(ix); err != nil {
			return err
		}
	}
	return nil
}

// rebuildIndex bulk-builds one index from its table's current heap
// state, staged at a temporary path and renamed into place, mirroring
// the primary's unlogged CreateIndex build (bulk index builds are not
// in the log, so every replica rebuilds locally; the apply loop is at
// the catalog record's transaction commit when it calls this, which
// under the primary's exclusive DDL lock is exactly the state the
// primary built from). The caller owns exclusivity and the index map
// entry; this fills in ix.Tree.
func (d *DB) rebuildIndex(ix *Index) error {
	t, ok := d.tables[strings.ToLower(ix.Def.Table)]
	if !ok {
		return fmt.Errorf("db: replica index %s references missing table %s", ix.Def.Name, ix.Def.Table)
	}
	ci, err := ix.Def.column(t)
	if err != nil {
		return fmt.Errorf("db: replica: %w", err)
	}
	build := d.indexPath(ix.Def.Name) + ".build"
	if err := d.fs.Remove(build); err != nil && !errors.Is(err, os.ErrNotExist) {
		return err
	}
	bt, err := store.OpenBTreeFS(build, d.cachePages, d.fs)
	if err != nil {
		return err
	}
	if err = fillIndex(bt, t, ix.Def, ci); err == nil {
		err = bt.Flush()
	}
	if cerr := bt.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return errors.Join(err, d.fs.Remove(build))
	}
	if err := d.fs.Rename(build, d.indexPath(ix.Def.Name)); err != nil {
		return err
	}
	if err := store.SyncDir(d.fs, d.dir); err != nil {
		return err
	}
	tree, err := store.OpenBTreeFS(d.indexPath(ix.Def.Name), d.cachePages, d.fs)
	if err != nil {
		return err
	}
	d.attachTree(tree)
	ix.Tree = tree
	return nil
}

// pendingPager returns (opening if needed) the bare pager replicated
// page images land in when their file is not yet named by the catalog —
// a CREATE TABLE's data pages stream before its catalog record. The
// pager has no WAL hook: the apply loop syncs the log before applying a
// batch, so the WAL rule holds by construction, and steal is safe on a
// replica (restart replay reapplies everything above the floor).
func (d *DB) pendingPager(name string) (*store.Pager, error) {
	if pg, ok := d.pending[name]; ok {
		return pg, nil
	}
	pg, err := store.OpenPagerFS(filepath.Join(d.dir, name), d.cachePages, d.fs)
	if err != nil {
		return nil, err
	}
	if d.pending == nil {
		d.pending = make(map[string]*store.Pager)
	}
	d.pending[name] = pg
	return pg, nil
}

// applyPage installs one replicated page image into whichever object
// owns the record's file. Holds qmu shared: the maps stay put, and the
// object's own exclusive latch (inside ApplyImage) excludes readers of
// that structure; other structures keep serving.
func (d *DB) applyPage(r wal.Record) error {
	d.qmu.RLock()
	defer d.qmu.RUnlock()
	for _, t := range d.tables {
		if filepath.Base(d.heapPath(t.Name)) == r.File {
			return t.Heap.ApplyImage(r.Page, r.Payload, r.LSN)
		}
	}
	for _, ix := range d.indexes {
		if filepath.Base(d.indexPath(ix.Def.Name)) == r.File {
			return ix.Tree.ApplyImage(r.Page, r.Payload, r.LSN)
		}
	}
	if r.File == filepath.Base(d.catalogPath()) {
		return fmt.Errorf("db: replica apply: page record targets the catalog file")
	}
	d.pmu.Lock()
	pg, err := d.pendingPager(r.File)
	d.pmu.Unlock()
	if err != nil {
		return err
	}
	return pg.ApplyImage(r.Page, r.Payload, r.LSN)
}

// applyCatalog installs a replicated catalog image at its transaction's
// commit: surviving objects are left open (closing them would drop
// in-flight dirty pages another transaction still needs), dropped ones
// are discarded and their files removed, new tables adopt any pending
// bare pager for their file, and new indexes are rebuilt locally (bulk
// builds are not logged). The new catalog is published to disk last, so
// a crash replays this record's transaction and converges.
func (d *DB) applyCatalog(data []byte) error {
	var cat catalogFile
	if err := json.Unmarshal(data, &cat); err != nil {
		return fmt.Errorf("db: replica parse catalog image: %v: %w", err, store.ErrCorrupt)
	}
	d.qmu.Lock()
	defer d.qmu.Unlock()
	newTables := make(map[string]tableDef, len(cat.Tables))
	for _, td := range cat.Tables {
		newTables[strings.ToLower(td.Name)] = td
	}
	newIndexes := make(map[string]IndexDef, len(cat.Indexes))
	for _, id := range cat.Indexes {
		newIndexes[strings.ToLower(id.Name)] = id
	}
	var errs []error
	for key, ix := range d.indexes {
		if _, keep := newIndexes[key]; keep {
			continue
		}
		errs = append(errs, ix.Tree.Discard())
		if err := d.fs.Remove(d.indexPath(ix.Def.Name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			errs = append(errs, err)
		}
		delete(d.indexes, key)
	}
	for key, t := range d.tables {
		if _, keep := newTables[key]; keep {
			continue
		}
		errs = append(errs, t.Heap.Discard())
		if err := d.fs.Remove(d.heapPath(t.Name)); err != nil && !errors.Is(err, os.ErrNotExist) {
			errs = append(errs, err)
		}
		delete(d.tables, key)
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for key, td := range newTables {
		if t, ok := d.tables[key]; ok {
			t.Name, t.Columns = td.Name, td.Columns
			continue
		}
		base := filepath.Base(d.heapPath(td.Name))
		d.pmu.Lock()
		pg, pend := d.pending[base]
		if pend {
			delete(d.pending, base)
		}
		d.pmu.Unlock()
		if pend {
			// The streamed pages are in this pager's cache; flush them
			// so the heap open below reads a complete file. Their WAL
			// records are already durable (ApplyBatch syncs before it
			// applies), so the direct flush cannot outrun the log.
			//lint:ignore walonly pending pagers hold pre-publish streamed pages whose records are already durable
			if err := errors.Join(pg.Flush(), pg.Close()); err != nil {
				return err
			}
		}
		h, err := store.OpenHeapFS(d.heapPath(td.Name), d.cachePages, d.fs)
		if err != nil {
			return err
		}
		d.attachHeap(h)
		d.tables[key] = &Table{Name: td.Name, Columns: td.Columns, Heap: h, db: d}
	}
	for key, def := range newIndexes {
		if _, ok := d.indexes[key]; ok {
			continue
		}
		ix := &Index{Def: def}
		if err := d.rebuildIndex(ix); err != nil {
			return err
		}
		d.indexes[key] = ix
	}
	raw, err := d.marshalCatalog()
	if err != nil {
		return err
	}
	return d.writeCatalogNow(raw)
}

// replicaSink is the live replica's wal.Sink. Records arrive in LSN
// order, and the registry transitions keep concurrent read snapshots
// consistent: a row's images are all applied before its commit becomes
// visible.
type replicaSink struct{ d *DB }

func (s replicaSink) Page(r wal.Record) (bool, error) { return true, s.d.applyPage(r) }

func (s replicaSink) Catalog(r wal.Record) error { return s.d.applyCatalog(r.Payload) }

func (s replicaSink) Begin(txid uint64) {
	s.d.tmu.Lock()
	s.d.inflight[txid] = nil
	s.d.tmu.Unlock()
}

func (s replicaSink) Commit(txid, lsn uint64) {
	d := s.d
	d.tmu.Lock()
	d.committedAt[txid] = lsn
	if lsn > d.maxCommit {
		d.maxCommit = lsn
	}
	delete(d.inflight, txid)
	d.tmu.Unlock()
	d.stmu.Lock()
	d.commits++
	d.stmu.Unlock()
}

// Abort drops the registration: the abort trail's compensation images
// were applied like any others, so the undone state becomes the
// visible one.
func (s replicaSink) Abort(txid uint64) {
	s.d.tmu.Lock()
	delete(s.d.inflight, txid)
	s.d.tmu.Unlock()
}

// ApplyBatch appends one batch of raw records received from the
// primary to the local log, makes them durable, and applies them. The
// batch is the concatenation of whole encoded records in LSN order (a
// replication 'W' frame). Durability before application is the crash
// invariant: everything applied is re-derivable from the local log, so
// restart replays to at least the served horizon and the follower's
// reads never travel back in time. Returns the new applied LSN.
//
// Not safe for concurrent calls; the single repl apply loop is the one
// caller.
func (d *DB) ApplyBatch(batch []byte) (uint64, error) {
	if err := d.usable(); err != nil {
		return 0, err
	}
	if !d.replica {
		return 0, errors.New("db: ApplyBatch on a non-replica database")
	}
	recs := make([]wal.Record, 0, 16)
	var last uint64
	for off := 0; off < len(batch); {
		_, _, _, total, err := wal.ParseRawHeader(batch[off:])
		if err != nil {
			return 0, fmt.Errorf("db: replica batch: %w", err)
		}
		rec, err := d.wal.AppendReplica(batch[off : off+total])
		if err != nil {
			return 0, err
		}
		recs = append(recs, rec)
		last = rec.LSN
		off += total
	}
	if len(recs) == 0 {
		return d.AppliedLSN(), nil
	}
	if err := d.wal.EnsureDurable(last); err != nil {
		return 0, err
	}
	for _, r := range recs {
		if err := d.applier.Step(r); err != nil {
			// The local log holds the batch; restart replay converges.
			// Until then the in-memory state is suspect — stop serving.
			d.markUnusable(fmt.Errorf("db: replica apply at lsn %d: %w", r.LSN, err))
			return 0, err
		}
	}
	d.stmu.Lock()
	d.appliedLSN = last
	d.stmu.Unlock()
	if err := d.maybeReplicaCheckpoint(); err != nil {
		return 0, err
	}
	return last, nil
}

// maybeReplicaCheckpoint runs a replica checkpoint when the local log
// has grown past the auto-checkpoint threshold since the last one.
func (d *DB) maybeReplicaCheckpoint() error {
	d.stmu.Lock()
	limit := d.autoCkptBytes
	d.stmu.Unlock()
	if limit <= 0 {
		limit = DefaultAutoCheckpointBytes
	}
	if d.wal.SinceCheckpoint() < limit {
		return nil
	}
	return d.ReplicaCheckpoint()
}

// ReplicaCheckpoint is the replica's fuzzy checkpoint: flush committed
// pages, take the dirty-page floor, persist it in the replica state
// file (the replica appends no checkpoint records — its log carries
// only the primary's LSNs), and garbage-collect local segments below
// it. The same no-steal/minRec reasoning as the primary's checkpoint
// applies; there is no version GC (row purges replicate from the
// primary) and no catalog publish (the apply loop publishes eagerly).
func (d *DB) ReplicaCheckpoint() error {
	if err := d.usable(); err != nil {
		return err
	}
	if !d.replica {
		return errors.New("db: ReplicaCheckpoint on a non-replica database")
	}
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()
	// Phase 1: flush committed pages under the shared lock; readers
	// keep running.
	d.qmu.RLock()
	objs := d.snapshotObjectsLocked()
	d.pmu.Lock()
	for _, pg := range d.pending {
		objs = append(objs, ckptObject{flush: pg.FlushCommitted, sync: pg.SyncFile, minRec: pg.MinRecLSN})
	}
	d.pmu.Unlock()
	d.qmu.RUnlock()
	for _, o := range objs {
		if err := o.flush(); err != nil {
			return err
		}
	}
	// Phase 2: floor snapshot under the exclusive lock (excludes the
	// nothing that could write, but keeps the read of minRec atomic
	// against the apply loop's own flushes).
	d.qmu.Lock()
	var minRec uint64
	anyDirty := false
	for _, o := range objs {
		if rec, ok := o.minRec(); ok {
			if !anyDirty || rec < minRec {
				minRec = rec
			}
			anyDirty = true
		}
	}
	d.stmu.Lock()
	applied := d.appliedLSN
	d.stmu.Unlock()
	d.qmu.Unlock()
	floor := applied
	if anyDirty {
		floor = minRec - 1
	}
	// Phase 3: make the flushed images durable, then move the floor.
	for _, o := range objs {
		if err := o.sync(); err != nil {
			return err
		}
	}
	if err := store.SyncDir(d.fs, d.dir); err != nil {
		return err
	}
	floor, err := d.wal.DeclareFloor(floor)
	if err != nil {
		return err
	}
	if err := writeReplState(d.fs, d.dir, floor, applied); err != nil {
		return err
	}
	removed, err := d.wal.GC()
	d.stmu.Lock()
	d.ckptCount++
	d.gcRemoved += uint64(removed)
	d.stmu.Unlock()
	return err
}

// IsReplica reports whether this database was opened as a read
// replica.
func (d *DB) IsReplica() bool { return d.replica }

// AppliedLSN returns the replica's applied horizon (0 on a primary).
func (d *DB) AppliedLSN() uint64 {
	d.stmu.Lock()
	defer d.stmu.Unlock()
	return d.appliedLSN
}

// WAL exposes the underlying log for the replication layer (stream
// readers on the primary, handshake state on the follower). Nil when
// the database runs without a WAL.
func (d *DB) WAL() *wal.Log { return d.wal }
