package db

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"lexequal/internal/store"
	"lexequal/internal/wal"
)

// Column describes one table column.
type Column struct {
	Name string `json:"name"`
	Type Type   `json:"type"`
}

// Schema is an ordered column list.
type Schema []Column

// ColIndex returns the index of the named column, or -1.
func (s Schema) ColIndex(name string) int {
	for i, c := range s {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

func (s Schema) String() string {
	parts := make([]string, len(s))
	for i, c := range s {
		parts[i] = c.Name + " " + c.Type.String()
	}
	return strings.Join(parts, ", ")
}

// IndexDef describes a secondary B-tree index of a table. An index of
// the zero kind maps the values of one INT column to the rows holding
// them; a gram index (IndexGram) holds the q-gram postings of the
// STRING column of stored phonemes, projected under the cluster set it
// names (see gramindex.go). Either is fully determined by its def and
// the rows of its table.
type IndexDef struct {
	Name     string    `json:"name"`
	Table    string    `json:"table"`
	Column   string    `json:"column"`
	Kind     IndexKind `json:"kind,omitempty"`
	Clusters string    `json:"clusters,omitempty"`
}

// IndexKind tells how an index derives its entries from its table.
type IndexKind string

// IndexGram is the kind of the gram index.
const IndexGram IndexKind = "gram"

// column resolves the indexed column of t: an INT for a column index, a
// STRING for a gram index.
func (def IndexDef) column(t *Table) (int, error) {
	want := TInt
	if def.Kind == IndexGram {
		want = TString
	}
	ci := t.Columns.ColIndex(def.Column)
	if ci < 0 {
		return -1, fmt.Errorf("db: index %s: no column %q in table %q", def.Name, def.Column, t.Name)
	}
	if t.Columns[ci].Type != want {
		return -1, fmt.Errorf("db: index %s: column %s.%s must be %v (got %v)", def.Name, t.Name, def.Column, want, t.Columns[ci].Type)
	}
	return ci, nil
}

// tableDef is the persisted form of a table.
type tableDef struct {
	Name    string `json:"name"`
	Columns Schema `json:"columns"`
}

type catalogFile struct {
	Tables  []tableDef `json:"tables"`
	Indexes []IndexDef `json:"indexes"`
}

// Table is an open table: schema plus heap file.
type Table struct {
	Name    string
	Columns Schema
	Heap    *store.HeapFile
	db      *DB
}

// Index is an open secondary index.
type Index struct {
	Def  IndexDef
	Tree *store.BTree
}

// DB is a database: a directory holding a JSON catalog, one heap file
// per table and one B-tree file per index.
//
// Concurrency: the database carries a query-level read/write lock
// (QueryLock). Reads and row writes take it shared — MVCC isolates
// concurrent transactions — and DDL takes it exclusively, because it
// rewrites the catalog maps in place. The SQL session layer acquires
// it per statement; callers driving the db API directly across
// goroutines must do the same. The storage structures underneath
// carry their own latches, so read-only access is safe even without
// the query lock.
type DB struct {
	dir        string
	cachePages int
	fs         store.VFS
	// qmu is the database-level query lock: reads and row writes take
	// it shared, statements that change the catalog take it
	// exclusively. It guards the catalog maps.
	qmu     sync.RWMutex
	tables  map[string]*Table
	indexes map[string]*Index

	// wal is the write-ahead log; nil when opened with DisableWAL.
	wal *wal.Log
	// stmu guards the small mutable transaction/lifecycle state below.
	stmu    sync.Mutex
	commits uint64

	// tmu guards the MVCC transaction registry: which transactions are
	// in flight, when finished ones committed, and which snapshots are
	// open. Taken briefly per visibility check (shared) and per
	// begin/commit/snapshot transition (exclusive); never held across a
	// storage-latch acquisition (the order is latch, then tmu).
	tmu sync.RWMutex
	// inflight maps open transaction IDs to their Tx.
	inflight map[uint64]*Tx
	// committedAt maps finished transaction IDs to their commit LSNs;
	// entries at or below every open snapshot's horizon are pruned by
	// version GC (visible treats unknown IDs as anciently committed).
	committedAt map[uint64]uint64
	// maxCommit is the commit horizon: the newest commit LSN.
	maxCommit uint64
	// snaps is the registry of open read snapshots, bounding version GC.
	snaps map[*Snap]struct{}
	// conflicts counts first-writer-wins conflicts lost.
	conflicts uint64
	// wmu serializes row-claim decisions (DeleteTx's read-check-stamp)
	// and abort-time claim clearing against each other.
	wmu sync.Mutex
	// catDirty means the catalog has committed changes that are logged
	// but not yet written to catalog.json (the write is deferred to
	// Close; recovery re-creates it from the log after a crash).
	catDirty bool
	closed   bool
	closeErr error
	// recoveryErr is set when an in-place rollback recovery failed;
	// the database is unusable and every operation returns it.
	recoveryErr error

	// replica marks a database opened as a WAL-shipping read replica
	// (Options.Replica): writes are refused, records arriving from the
	// primary are applied via ApplyBatch, and the local log keeps the
	// primary's LSNs (never Reset). Immutable after Open.
	replica bool
	// appliedLSN is the replica's applied horizon (guarded by stmu).
	appliedLSN uint64
	// pmu guards pending.
	pmu sync.Mutex
	// pending holds bare pagers for replicated page images whose file
	// the catalog does not name yet (a CREATE TABLE's data pages stream
	// before its catalog record commits).
	pending map[string]*store.Pager
	// applier interprets replicated records: the restart replay's
	// machine, continued into the pagers. Used by the open path and the
	// single apply loop only.
	applier *wal.Applier

	// ckptMu serializes checkpoints (never held together with qmu —
	// the checkpoint takes qmu shared in short rounds).
	ckptMu sync.Mutex
	// The remaining checkpoint state is guarded by stmu.
	autoCkptBytes int64
	ckptCount     uint64
	ckptFailures  uint64
	gcRemoved     uint64
	lastCkpt      CheckpointStats
	// recovery describes the crash-recovery pass Open ran.
	recovery RecoveryStats
}

// QueryLock exposes the database-level read/write lock. SELECTs and
// row DML run under RLock (MVCC isolates them), DDL under Lock.
func (d *DB) QueryLock() *sync.RWMutex { return &d.qmu }

// ErrCorrupt re-exports the storage corruption sentinel: every
// detected-damage error (checksum, structure, catalog) matches it with
// errors.Is.
var ErrCorrupt = store.ErrCorrupt

// Options configures Open.
type Options struct {
	// CachePages is the per-file buffer-pool capacity in pages
	// (0 selects the store default).
	CachePages int
	// FS is the virtual filesystem all I/O goes through (nil selects
	// the real one). Tests inject faults here.
	FS store.VFS
	// DisableWAL opens the database without a write-ahead log: no
	// transactions, no crash recovery, mutations reach disk only on
	// Close/flush. Used for one-shot bulk builds that are made atomic
	// by other means (BuildAtomic's stage-and-rename).
	DisableWAL bool
	// WALFlushInterval is the group-commit collection window (0 selects
	// the wal default). Ignored with DisableWAL.
	WALFlushInterval time.Duration
	// WALSegmentBytes overrides the WAL segment roll size (0 selects
	// the wal default of 16 MiB; tests shrink it to exercise
	// multi-segment logs and GC cheaply). Ignored with DisableWAL.
	WALSegmentBytes int64
	// AutoCheckpointBytes is the WAL-growth threshold at which
	// CheckpointIfNeeded fires (0 selects DefaultAutoCheckpointBytes).
	// Ignored with DisableWAL.
	AutoCheckpointBytes int64
	// Replica opens the database as a WAL-shipping read replica: every
	// write is refused, the local log is replayed (not recovered) on
	// open and never reset, and the replication layer feeds primary
	// records in via ApplyBatch. Incompatible with DisableWAL.
	Replica bool
}

// Open opens (creating if necessary) a database directory.
func Open(dir string) (*DB, error) {
	return OpenOpts(dir, Options{})
}

// OpenWithCache opens a database with an explicit per-file buffer-pool
// capacity in pages (0 selects the store default).
func OpenWithCache(dir string, cachePages int) (*DB, error) {
	return OpenOpts(dir, Options{CachePages: cachePages})
}

// OpenOpts opens a database with full options. Unless DisableWAL is
// set, opening runs crash recovery first: committed transactions found
// in the write-ahead log are re-applied to the data files, in-flight
// ones are discarded, and the log is then truncated (a checkpoint —
// everything it proved is now durably in the files).
func OpenOpts(dir string, opts Options) (*DB, error) {
	fs := opts.FS
	if fs == nil {
		fs = store.OSFS{}
	}
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("db: create dir: %w", err)
	}
	d := &DB{
		dir:         dir,
		cachePages:  opts.CachePages,
		fs:          fs,
		tables:      make(map[string]*Table),
		indexes:     make(map[string]*Index),
		inflight:    make(map[uint64]*Tx),
		committedAt: make(map[uint64]uint64),
		snaps:       make(map[*Snap]struct{}),
		replica:     opts.Replica,
	}
	if opts.Replica && opts.DisableWAL {
		return nil, errors.New("db: a replica requires the WAL")
	}
	if !opts.Replica {
		// A directory carrying a replica state file belongs to a
		// follower: opening it as a primary would run winner/loser
		// recovery and reset a log whose LSNs the primary owns,
		// destroying the follower's ability to resume. Promotion is the
		// explicit step of deleting the state file.
		if _, _, isReplica, err := readReplState(fs, dir); err != nil {
			return nil, err
		} else if isReplica {
			return nil, fmt.Errorf("db: %s is a replica directory; delete its %q file to promote it", dir, replStateName)
		}
	}
	if !opts.DisableWAL {
		l, err := wal.Open(dir, fs)
		if err != nil {
			return nil, fmt.Errorf("db: open wal: %w", err)
		}
		d.wal = l
		if opts.WALFlushInterval > 0 {
			l.SetFlushInterval(opts.WALFlushInterval)
		}
		if opts.WALSegmentBytes > 0 {
			l.SetSegmentBytes(opts.WALSegmentBytes)
		}
		d.autoCkptBytes = opts.AutoCheckpointBytes
		if opts.Replica {
			if err := d.openReplica(); err != nil {
				return nil, errors.Join(err, l.Close())
			}
		} else if l.HasRecords() {
			rs, err := d.recoverFiles()
			if err != nil {
				return nil, errors.Join(fmt.Errorf("db: crash recovery: %w", err), l.Close())
			}
			d.recovery = rs
			// Recovery made everything the log proves durable in the
			// data files; drop the history so the log stays small and
			// transaction ids cannot collide with a previous life's.
			if err := l.Reset(); err != nil {
				return nil, errors.Join(fmt.Errorf("db: post-recovery wal reset: %w", err), l.Close())
			}
		}
	}
	// A replica can crash between publishing a replicated catalog and
	// finishing the local index rebuild it triggers; detect index files
	// the catalog names but the directory lacks BEFORE openObjects
	// creates them as empty trees, and rebuild them after.
	var missingIdx []string
	if opts.Replica {
		cat, err := d.loadCatalog()
		if err != nil {
			return nil, errors.Join(err, d.Close())
		}
		for _, id := range cat.Indexes {
			if _, err := fs.Stat(d.indexPath(id.Name)); errors.Is(err, os.ErrNotExist) {
				missingIdx = append(missingIdx, id.Name)
			}
		}
	}
	if err := d.openObjects(); err != nil {
		return nil, errors.Join(err, d.Close())
	}
	if len(missingIdx) > 0 {
		if err := d.rebuildMissingIndexes(missingIdx); err != nil {
			return nil, errors.Join(err, d.Close())
		}
	}
	if opts.Replica {
		d.applier.SetSink(replicaSink{d})
	}
	if err := d.sweepTmpDebris(); err != nil {
		return nil, errors.Join(err, d.Close())
	}
	return d, nil
}

// sweepTmpDebris removes stale temp files left by a crash mid
// atomic-publish (tmp + fsync + rename). An un-renamed tmp is an
// uncommitted write by definition, so deleting it loses nothing. Runs
// after recovery and openObjects so every publisher that could be
// mid-flight has finished and the catalog names every data file.
func (d *DB) sweepTmpDebris() error {
	tmps := []string{
		d.catalogPath() + ".tmp",
		d.catalogPath() + ".redo.tmp",
		filepath.Join(d.dir, replStateName+".tmp"),
	}
	for name := range d.tables {
		tmps = append(tmps, d.heapPath(name)+".redo.tmp")
	}
	for name := range d.indexes {
		tmps = append(tmps, d.indexPath(name)+".redo.tmp")
	}
	for _, tmp := range tmps {
		if err := d.fs.Remove(tmp); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("db: sweep debris %s: %w", tmp, err)
		}
	}
	return nil
}

// openObjects loads the catalog and opens (and WAL-attaches) every
// table and index it lists, replacing the current maps.
func (d *DB) openObjects() error {
	cat, err := d.loadCatalog()
	if err != nil {
		return err
	}
	for _, td := range cat.Tables {
		h, err := store.OpenHeapFS(d.heapPath(td.Name), d.cachePages, d.fs)
		if err != nil {
			return err
		}
		d.attachHeap(h)
		d.tables[strings.ToLower(td.Name)] = &Table{Name: td.Name, Columns: td.Columns, Heap: h, db: d}
	}
	for _, id := range cat.Indexes {
		bt, err := store.OpenBTreeFS(d.indexPath(id.Name), d.cachePages, d.fs)
		if err != nil {
			return err
		}
		d.attachTree(bt)
		d.indexes[strings.ToLower(id.Name)] = &Index{Def: id, Tree: bt}
	}
	return nil
}

func (d *DB) catalogPath() string { return filepath.Join(d.dir, "catalog.json") }
func (d *DB) heapPath(table string) string {
	return filepath.Join(d.dir, strings.ToLower(table)+".heap")
}
func (d *DB) indexPath(index string) string {
	return filepath.Join(d.dir, strings.ToLower(index)+".idx")
}

func (d *DB) loadCatalog() (catalogFile, error) {
	var cat catalogFile
	data, err := store.ReadFile(d.fs, d.catalogPath())
	if errors.Is(err, os.ErrNotExist) {
		return cat, nil
	}
	if err != nil {
		return cat, fmt.Errorf("db: read catalog: %w", err)
	}
	if err := json.Unmarshal(data, &cat); err != nil {
		// A half-written catalog is corruption, not a caller mistake.
		return cat, fmt.Errorf("db: parse catalog %s: %v: %w", d.catalogPath(), err, store.ErrCorrupt)
	}
	for _, id := range cat.Indexes {
		// Before the gram index was an index of its base table, it hung
		// off a <table>_qgrams staging heap under a "(gramhash)->…" marker.
		if strings.HasPrefix(id.Column, "(gramhash)") {
			return cat, fmt.Errorf("db: %s: index %s is in the layout of an older build (a gram index over %s); reload with mkdataset",
				d.dir, id.Name, id.Table)
		}
	}
	return cat, nil
}

// marshalCatalog renders the current maps as the persisted catalog.
func (d *DB) marshalCatalog() ([]byte, error) {
	var cat catalogFile
	for _, t := range d.tables {
		cat.Tables = append(cat.Tables, tableDef{Name: t.Name, Columns: t.Columns})
	}
	for _, ix := range d.indexes {
		cat.Indexes = append(cat.Indexes, ix.Def)
	}
	sort.Slice(cat.Tables, func(i, j int) bool { return cat.Tables[i].Name < cat.Tables[j].Name })
	sort.Slice(cat.Indexes, func(i, j int) bool { return cat.Indexes[i].Name < cat.Indexes[j].Name })
	return json.MarshalIndent(cat, "", "  ")
}

// saveCatalog records a catalog change. With the WAL enabled the new
// image is logged under tx and the file write is deferred (Close
// writes it; after a crash, recovery re-creates it from the log).
// Without a WAL (tx is nil) it is written through immediately.
func (d *DB) saveCatalog(tx *Tx) error {
	data, err := d.marshalCatalog()
	if err != nil {
		return err
	}
	if d.wal == nil {
		return d.writeCatalogNow(data)
	}
	if tx == nil {
		return errors.New("db: catalog change outside a transaction")
	}
	// A catalog change cannot be undone by row compensation; mark the
	// transaction so its rollback recovers in place.
	tx.markDDL()
	if _, err := d.wal.LogCatalog(tx.id, filepath.Base(d.catalogPath()), data); err != nil {
		return err
	}
	d.stmu.Lock()
	d.catDirty = true
	d.stmu.Unlock()
	return nil
}

// writeCatalogNow publishes the catalog bytes via write-temp + fsync +
// rename, so a crash leaves either the old catalog or the new one,
// never a truncated mix.
func (d *DB) writeCatalogNow(data []byte) error {
	tmp := d.catalogPath() + ".tmp"
	f, err := d.fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("db: write catalog: %w", err)
	}
	if _, err := f.WriteAt(data, 0); err != nil {
		return errors.Join(fmt.Errorf("db: write catalog: %w", err), f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(fmt.Errorf("db: sync catalog: %w", err), f.Close())
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("db: close catalog: %w", err)
	}
	return d.fs.Rename(tmp, d.catalogPath())
}

// Close shuts the database down in WAL order: any open transaction is
// rolled back, the log is synced, the deferred catalog write happens,
// and only then are the page caches flushed (each page write re-checks
// the WAL rule). When every step succeeded the log is truncated — a
// clean checkpoint — so the next open recovers nothing; after any
// error the log is kept so the next open can recover. Close is safe to
// call more than once: later calls return the first outcome, and a
// database whose in-place recovery failed returns that error from
// every Close without touching the files again.
func (d *DB) Close() error {
	d.stmu.Lock()
	if d.closed {
		err := d.closeErr
		if d.recoveryErr != nil {
			err = d.recoveryErr
		}
		d.stmu.Unlock()
		return err
	}
	d.closed = true
	recErr := d.recoveryErr
	d.stmu.Unlock()

	var errs []error
	if recErr == nil && !d.replica {
		// Roll back every transaction still in flight. finish() rejects
		// a stale handle, so a racing explicit Commit/Rollback is safe;
		// the rollbacks restore the committed state before anything is
		// flushed. A rollback that had to escalate may set the sticky
		// recovery error, so re-read it afterwards. (A replica's
		// in-flight registry holds the PRIMARY's open transactions — no
		// local Tx exists to roll back; their records stay in the local
		// log above the floor.)
		d.tmu.RLock()
		open := make([]*Tx, 0, len(d.inflight))
		for _, tx := range d.inflight {
			open = append(open, tx)
		}
		d.tmu.RUnlock()
		for _, tx := range open {
			if err := tx.Rollback(); err != nil && !errors.Is(err, errTxDone) {
				errs = append(errs, err)
			}
		}
		d.stmu.Lock()
		recErr = d.recoveryErr
		d.stmu.Unlock()
	}
	if recErr != nil {
		// The database is in an undefined in-memory state: drop the
		// caches without write-back and keep the log for the next
		// open's recovery. Teardown errors cannot outrank the recovery
		// error the caller must see, so they are discarded.
		for _, t := range d.tables {
			_ = t.Heap.Discard()
		}
		for _, ix := range d.indexes {
			_ = ix.Tree.Discard()
		}
		d.tables = map[string]*Table{}
		d.indexes = map[string]*Index{}
		if d.wal != nil {
			_ = d.wal.Close()
		}
		d.stmu.Lock()
		d.closeErr = recErr
		d.stmu.Unlock()
		return recErr
	}
	if d.wal != nil {
		if err := d.wal.Sync(); err != nil {
			errs = append(errs, err)
		}
	}
	d.stmu.Lock()
	catDirty := d.catDirty
	d.stmu.Unlock()
	if catDirty {
		data, err := d.marshalCatalog()
		if err == nil {
			err = d.writeCatalogNow(data)
		}
		if err != nil {
			errs = append(errs, err)
		} else {
			d.stmu.Lock()
			d.catDirty = false
			d.stmu.Unlock()
		}
	}
	for _, t := range d.tables {
		if err := t.Heap.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	for _, ix := range d.indexes {
		if err := ix.Tree.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	d.pmu.Lock()
	for name, pg := range d.pending {
		//lint:ignore walonly pending replica pagers hold pages whose WAL records are already durable; closing them at db close cannot violate the WAL rule
		if err := pg.Close(); err != nil {
			errs = append(errs, err)
		}
		delete(d.pending, name)
	}
	d.pmu.Unlock()
	d.tables = map[string]*Table{}
	d.indexes = map[string]*Index{}
	if d.wal != nil {
		switch {
		case d.replica:
			// A replica must never reset its log (the LSNs belong to the
			// primary). On a clean close everything committed is flushed;
			// advance the persisted floor instead — DeclareFloor clamps
			// it below any of the primary's still-open transactions,
			// whose unflushed images the next replay must reapply.
			if len(errs) == 0 {
				d.stmu.Lock()
				applied := d.appliedLSN
				d.stmu.Unlock()
				floor, err := d.wal.DeclareFloor(applied)
				if err == nil {
					err = writeReplState(d.fs, d.dir, floor, applied)
				}
				if err != nil {
					errs = append(errs, err)
				}
			}
		case len(errs) == 0:
			// Checkpoint only on a fully clean shutdown: with any error
			// above, the log's history is still needed to repair the
			// files on the next open.
			if err := d.wal.Reset(); err != nil {
				errs = append(errs, err)
			}
		}
		if err := d.wal.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	err := errors.Join(errs...)
	d.stmu.Lock()
	d.closeErr = err
	d.stmu.Unlock()
	return err
}

// CreateTable creates a new empty table in its own transaction,
// committed durably before it returns. Like every DDL call it rewrites
// the catalog maps in place, so a caller sharing the database across
// goroutines must hold QueryLock exclusively, as the SQL layer does.
func (d *DB) CreateTable(name string, cols Schema) (*Table, error) {
	tx, err := d.autoBegin()
	if err != nil {
		return nil, err
	}
	t, err := d.createTableTx(tx, name, cols)
	if err := d.autoEnd(tx, err); err != nil {
		return nil, err
	}
	return t, nil
}

// createTableTx validates and creates a table as part of tx.
func (d *DB) createTableTx(tx *Tx, name string, cols Schema) (*Table, error) {
	key := strings.ToLower(name)
	if _, exists := d.tables[key]; exists {
		return nil, fmt.Errorf("db: table %q already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("db: table %q has no columns", name)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		lc := strings.ToLower(c.Name)
		if seen[lc] {
			return nil, fmt.Errorf("db: duplicate column %q in table %q", c.Name, name)
		}
		seen[lc] = true
	}
	// The catalog-map surgery below is invisible to row compensation;
	// only in-place recovery can undo it.
	tx.markDDL()
	h, err := store.OpenHeapFS(d.heapPath(name), d.cachePages, d.fs)
	if err != nil {
		return nil, err
	}
	d.attachHeap(h)
	t := &Table{Name: name, Columns: cols, Heap: h, db: d}
	d.tables[key] = t
	if err := d.saveCatalog(tx); err != nil {
		return nil, err
	}
	return t, nil
}

// Table returns the named table.
func (d *DB) Table(name string) (*Table, bool) {
	t, ok := d.tables[strings.ToLower(name)]
	return t, ok
}

// Tables lists table names in sorted order.
func (d *DB) Tables() []string {
	out := make([]string, 0, len(d.tables))
	for _, t := range d.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// DropTable removes a table, its heap file and its indexes. The table
// is always dropped from the catalog; close/remove errors on the
// backing files are collected and returned alongside. It needs
// QueryLock held exclusively, like CreateTable.
//
// The drop is its own transaction. File removal is not undoable, so
// the catalog change commits durably first and the backing files are
// removed only afterwards (a crash in between leaves harmless orphan
// files).
func (d *DB) DropTable(name string) error {
	key := strings.ToLower(name)
	t, ok := d.tables[key]
	if !ok {
		return fmt.Errorf("db: no table %q", name)
	}
	tx, err := d.autoBegin()
	if err != nil {
		return err
	}
	tx.markDDL()
	errs := []error{t.Heap.Discard()}
	delete(d.tables, key)
	doomed := []string{d.heapPath(name)}
	for ikey, ix := range d.indexes {
		if strings.EqualFold(ix.Def.Table, name) {
			errs = append(errs, ix.Tree.Discard())
			doomed = append(doomed, d.indexPath(ix.Def.Name))
			delete(d.indexes, ikey)
		}
	}
	// A failed catalog change rolls back: recovery reopens the table
	// from the logged catalog, undoing the map surgery above.
	if err := d.autoEnd(tx, d.saveCatalog(tx)); err != nil {
		return errors.Join(append(errs, err)...)
	}
	for _, path := range doomed {
		errs = append(errs, d.fs.Remove(path))
	}
	return errors.Join(errs...)
}

// Insert appends a row after checking it against the schema, in its
// own transaction: the row and its index entries commit durably before
// Insert returns. Autocommit calls from several goroutines run as
// concurrent transactions (under QueryLock shared, like SQL's); use
// InsertTx to group rows into one transaction.
func (t *Table) Insert(row Row) (store.RID, error) {
	tx, err := t.db.autoBegin()
	if err != nil {
		return store.RID{}, err
	}
	rid, err := t.InsertTx(tx, row)
	if err := t.db.autoEnd(tx, err); err != nil {
		return store.RID{}, err
	}
	return rid, nil
}

// Get fetches the row at rid from the latest committed state; a
// claimed (deleted-but-unpurged) row reports store.ErrDeleted.
func (t *Table) Get(rid store.RID) (Row, error) {
	return t.GetSnap(nil, rid)
}

// Delete removes the row at rid, transactionally like Insert. The
// physical record is only claimed (its version header's xmax stamped);
// version GC removes it once no snapshot can see it. Secondary index
// entries are never removed (B-trees are insert-only here); index
// readers skip entries whose heap fetch reports store.ErrDeleted.
func (t *Table) Delete(rid store.RID) error {
	tx, err := t.db.autoBegin()
	if err != nil {
		return err
	}
	return t.db.autoEnd(tx, t.DeleteTx(tx, rid))
}

// Scan invokes fn for each row of the latest committed state in RID
// order.
func (t *Table) Scan(fn func(rid store.RID, row Row) error) error {
	return t.ScanSnap(nil, fn)
}

// Count returns the number of rows.
func (t *Table) Count() uint64 { return t.Heap.Count() }

// CreateIndex builds a B-tree index over an existing INT column,
// bulk-loading it with a table scan, in its own transaction. It needs
// QueryLock held exclusively, like CreateTable. The bulk build itself
// is not logged — the finished tree is flushed to disk before the
// catalog change that names it commits, so a crash at any point leaves
// either no index or a complete one (possibly as an orphan file).
func (d *DB) CreateIndex(name, table, column string) (*Index, error) {
	tx, err := d.autoBegin()
	if err != nil {
		return nil, err
	}
	ix, err := d.createIndexTx(tx, IndexDef{Name: name, Table: table, Column: column})
	if err := d.autoEnd(tx, err); err != nil {
		return nil, err
	}
	return ix, nil
}

// createIndexTx validates and builds an index as part of tx.
func (d *DB) createIndexTx(tx *Tx, def IndexDef) (*Index, error) {
	key := strings.ToLower(def.Name)
	if _, exists := d.indexes[key]; exists {
		return nil, fmt.Errorf("db: index %q already exists", def.Name)
	}
	t, ok := d.Table(def.Table)
	if !ok {
		return nil, fmt.Errorf("db: no table %q", def.Table)
	}
	ci, err := def.column(t)
	if err != nil {
		return nil, err
	}
	def.Table, def.Column = t.Name, t.Columns[ci].Name
	tx.markDDL()
	bt, err := store.OpenBTreeFS(d.indexPath(def.Name), d.cachePages, d.fs)
	if err != nil {
		return nil, err
	}
	err = fillIndex(bt, t, def, ci)
	if err == nil && d.wal != nil {
		// Make the finished build durable before the catalog names it.
		err = bt.Flush()
	}
	if err != nil {
		return nil, errors.Join(err, bt.Close(), d.fs.Remove(d.indexPath(def.Name)))
	}
	// Only incremental maintenance from here on is logged.
	d.attachTree(bt)
	ix := &Index{Def: def, Tree: bt}
	d.indexes[key] = ix
	if err := d.saveCatalog(tx); err != nil {
		return nil, err
	}
	return ix, nil
}

// fillIndex bulk-loads bt with the entries def derives from the current
// heap of t, whose column ci it indexes. A column index takes every
// physical record, even claimed or dead versions: index readers
// re-check visibility against the heap, so an entry for an invisible
// row is inert — but omitting one would lose the row for any older
// snapshot that can still see it.
func fillIndex(bt *store.BTree, t *Table, def IndexDef, ci int) error {
	if def.Kind == IndexGram {
		return fillGramIndex(bt, t, def, ci)
	}
	return t.scanVersions(func(rid store.RID, _, _ uint64, row Row) error {
		if row[ci].T != TInt {
			return nil // NULLs are not indexed
		}
		return bt.Insert(uint64(row[ci].I), rid.Pack())
	})
}

// Index returns the named index.
func (d *DB) Index(name string) (*Index, bool) {
	ix, ok := d.indexes[strings.ToLower(name)]
	return ix, ok
}

// IndexOn finds an index over table.column, if any.
func (d *DB) IndexOn(table, column string) (*Index, bool) {
	for _, ix := range d.indexes {
		if strings.EqualFold(ix.Def.Table, table) && strings.EqualFold(ix.Def.Column, column) {
			return ix, true
		}
	}
	return nil, false
}

// Indexes lists index names in sorted order.
func (d *DB) Indexes() []string {
	out := make([]string, 0, len(d.indexes))
	for _, ix := range d.indexes {
		out = append(out, ix.Def.Name)
	}
	sort.Strings(out)
	return out
}
