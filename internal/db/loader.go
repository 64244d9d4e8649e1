package db

import (
	"cmp"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"

	"lexequal/internal/core"
	"lexequal/internal/phoneme"
	"lexequal/internal/qgram"
	"lexequal/internal/soundex"
	"lexequal/internal/store"
)

// BuildAtomic builds a database at dir all-or-nothing: build runs
// against a staging directory (dir + ".building"), the staged files are
// flushed and synced on Close, and only then is the directory renamed
// into place. A crash or injected fault at any point leaves dir either
// absent/previous or fully loaded — never half-written. Any leftover
// staging directory from an earlier crashed build is discarded first.
func BuildAtomic(dir string, opts Options, build func(*DB) error) error {
	fs := opts.FS
	if fs == nil {
		fs = store.OSFS{}
	}
	stage := dir + ".building"
	if err := fs.RemoveAll(stage); err != nil {
		return fmt.Errorf("db: clear stage dir: %w", err)
	}
	// The stage-and-rename protocol is the atomicity mechanism here; a
	// WAL would only slow the bulk load down (and per-row commits
	// would fsync constantly). Crashed stages are simply discarded.
	opts.DisableWAL = true
	d, err := OpenOpts(stage, opts)
	if err != nil {
		return err
	}
	if err := build(d); err != nil {
		return errors.Join(err, d.Close())
	}
	if err := d.Close(); err != nil {
		return err
	}
	if err := store.SyncDir(fs, stage); err != nil {
		return fmt.Errorf("db: sync stage dir: %w", err)
	}

	// Publish. If dir already exists, park it aside so a failed rename
	// can restore it.
	old := dir + ".old"
	replaced := false
	if _, err := fs.Stat(dir); err == nil {
		if err := fs.RemoveAll(old); err != nil {
			return fmt.Errorf("db: clear parking dir: %w", err)
		}
		if err := fs.Rename(dir, old); err != nil {
			return fmt.Errorf("db: park previous db: %w", err)
		}
		replaced = true
	}
	if err := fs.Rename(stage, dir); err != nil {
		if replaced {
			//lint:ignore nopanic best-effort restore of the parked db; the publish error is what matters
			fs.Rename(old, dir)
		}
		return fmt.Errorf("db: publish db: %w", err)
	}
	if replaced {
		if err := fs.RemoveAll(old); err != nil {
			return fmt.Errorf("db: clear parked db: %w", err)
		}
	}
	// The parent-dir sync makes the publish rename itself durable. It
	// runs after the point of no return: on failure the new database is
	// fully readable but the rename may roll back to the previous state
	// after a power loss — report it so the caller can retry. A crash
	// here can never expose a partial load.
	if err := store.SyncDir(fs, filepath.Dir(dir)); err != nil {
		return fmt.Errorf("db: sync parent dir (published db may not survive power loss): %w", err)
	}
	return nil
}

// NameTableSpec controls CreateNameTable.
type NameTableSpec struct {
	// WithAux builds the <table>_qgrams auxiliary table (Figure 14).
	WithAux bool
	// WithIndexes builds the id index and the grouped-phoneme-id B-tree
	// (Figure 15).
	WithIndexes bool
	// Q is the gram length (0 selects core.DefaultQ).
	Q int
}

// CreateNameTable creates and loads the conventional multiscript name
// layout for texts:
//
//	<name>(id INT, name NSTRING, pname STRING, groupid INT)
//	<name>_qgrams(id INT, pos INT, qgram STRING)        [spec.WithAux]
//	<name>_id_idx on id, <name>_gid_idx on groupid      [spec.WithIndexes]
//
// Rows whose language has no TTP converter get NULL pname/groupid and
// never match (the NORESOURCE rows). Row ids are the positions in
// texts.
func CreateNameTable(d *DB, name string, op *core.Operator, texts []core.Text, spec NameTableSpec) (*LexConfig, error) {
	q := spec.Q
	if q == 0 {
		q = core.DefaultQ
	}
	if q < 2 {
		return nil, fmt.Errorf("db: q must be >= 2, got %d", q)
	}
	// One transaction for the whole load: with the WAL enabled the
	// tables, rows, and indexes appear atomically (and commit with a
	// single fsync).
	tx, err := d.autoBegin()
	if err != nil {
		return nil, err
	}
	cfg, err := createNameTableTx(d, tx, name, op, texts, spec, q)
	if err := d.autoEnd(tx, err); err != nil {
		return nil, err
	}
	return cfg, nil
}

func createNameTableTx(d *DB, tx *Tx, name string, op *core.Operator, texts []core.Text, spec NameTableSpec, q int) (*LexConfig, error) {
	t, err := d.createTableTx(tx, name, Schema{
		{Name: "id", Type: TInt},
		{Name: "name", Type: TNString},
		{Name: "pname", Type: TString},
		{Name: "groupid", Type: TInt},
	})
	if err != nil {
		return nil, err
	}
	var aux *Table
	if spec.WithAux {
		aux, err = d.createTableTx(tx, name+"_qgrams", Schema{
			{Name: "id", Type: TInt},
			{Name: "pos", Type: TInt},
			{Name: "qgram", Type: TString},
			{Name: "gramhash", Type: TInt},
		})
		if err != nil {
			return nil, err
		}
	}
	enc := soundex.NewEncoder(op.Clusters())
	sums := make([]rowSummary, len(texts)) // rows without phonemes keep the zero summary
	for i, text := range texts {
		row := Row{Int(int64(i)), NStr(text.Value, text.Lang), Null(), Null()}
		if op.Registry().Has(text.Lang) {
			p, err := op.Transform(text.Value, text.Lang)
			if err != nil {
				return nil, fmt.Errorf("db: load row %d (%s): %w", i, text, err)
			}
			row[2] = Str(p.IPA())
			sums[i] = pnameSummary(row[2].S)
			row[3] = Int(int64(enc.Encode(p)))
			if aux != nil {
				for _, g := range qgram.Extract(enc.Project(p), q) {
					key := g.Key()
					if _, err := aux.InsertTx(tx, Row{Int(int64(i)), Int(int64(g.Pos)), Str(key), Int(GramHash(key))}); err != nil {
						return nil, err
					}
				}
			}
		}
		if _, err := t.InsertTx(tx, row); err != nil {
			return nil, err
		}
	}
	if spec.WithIndexes {
		if _, err := d.createIndexTx(tx, name+"_id_idx", name, "id"); err != nil {
			return nil, err
		}
		if _, err := d.createIndexTx(tx, name+"_gid_idx", name, "groupid"); err != nil {
			return nil, err
		}
		if spec.WithAux {
			// Covering index: gramhash -> (id, pos, row summary) packed
			// into the value, so the gram probe never touches the aux heap
			// (the index-only plan a real optimizer would use for Figure
			// 14) and filters before it touches the base heap.
			if err := buildCoverIndex(d, tx, name, aux, sums); err != nil {
				return nil, err
			}
		}
	}
	cfg, err := ResolveLexConfig(d, name, op)
	if err != nil {
		return nil, err
	}
	cfg.Q = q
	return cfg, nil
}

// A posting of the covering gram index is one B-tree entry: the key is
// the gram's hash, and the 64-bit value packs the id and position of the
// aux-table row with a summary of the base row — the projected length
// and weak count of its stored pname (core.Summary) — so the q-gram plan
// runs the length, count and position filters on the posting lists and
// fetches only the survivors:
//
//	[63:24] id    [23:16] pos    [15:8] plen    [7:0] weak
//
// The top value of an 8-bit field is the sentinel "unknown" (a name with
// 255 or more projected phonemes or glottals): the plan then fetches the
// row and decides afterwards, so saturation can widen a budget but never
// narrow it. An id that does not fit is refused.
//
// Keys with the top bit set are reserved (GramHash clears it). Under
// weakKey(w) the index holds the weak list: one entry, at position 0,
// for every row with w ≥ 1 weak phonemes, so the residual sweep for
// candidates that share no gram with the query reads the rows with at
// least a given weak count as one key range.
const (
	coverIDBits   = 40
	coverIDShift  = 24
	coverPosShift = 16
	coverUnknown  = 0xFF
	coverWeakKey  = uint64(1) << 63
)

// coverField saturates a posting field to the sentinel.
func coverField(n int) uint64 {
	if n < 0 || n >= coverUnknown {
		return coverUnknown
	}
	return uint64(n)
}

// coverInt reverses coverField.
func coverInt(f uint64) int {
	if f &= 0xFF; f != coverUnknown {
		return int(f)
	}
	return core.SummaryUnknown
}

// CoverValue packs a posting. A pos, plen or weak out of range (or
// core.SummaryUnknown) is stored as unknown.
func CoverValue(id int64, pos, plen, weak int) (uint64, error) {
	if id < 0 || id >= 1<<coverIDBits {
		return 0, fmt.Errorf("db: id %d does not fit the %d-bit id of a gram posting", id, coverIDBits)
	}
	return uint64(id)<<coverIDShift | coverField(pos)<<coverPosShift | coverField(plen)<<8 | coverField(weak), nil
}

// UnpackCover reverses CoverValue; an unknown field comes back as
// core.SummaryUnknown.
func UnpackCover(v uint64) (id int64, pos, plen, weak int) {
	return int64(v >> coverIDShift), coverInt(v >> coverPosShift), coverInt(v >> 8), coverInt(v)
}

// weakKey is the reserved key of the weak-list entries of rows with the
// given weak count; unknown sorts last, so every sweep reaches it.
func weakKey(weak int) uint64 { return coverWeakKey | coverField(weak) }

// rowSummary is what a posting carries of its base row.
type rowSummary struct{ plen, weak int }

// pnameSummary summarises a row from its stored phonemes, parsed the way
// the plans parse them, so a posting's summary equals the batch columns
// the same row gets once fetched.
func pnameSummary(ipa string) rowSummary {
	plen, weak := core.Summary(phoneme.ParseLenient(ipa))
	return rowSummary{plen, weak}
}

// coverEntry is one (key, value) entry of the covering index.
type coverEntry struct{ key, val uint64 }

func (e coverEntry) compare(o coverEntry) int {
	return cmp.Or(cmp.Compare(e.key, o.key), cmp.Compare(e.val, o.val))
}

// CoverIndexName is the naming convention for the covering gram index.
func CoverIndexName(table string) string { return table + "_qgrams_cover" }

// coverColumn marks the covering index in the catalog and names its
// posting layout; it resolves to no real column, so ordinary insert-time
// index maintenance skips it. An index under legacyCoverColumn holds
// bare id<<16 | pos values: the plans ignore it and probe the aux table.
const (
	coverColumn       = "(gramhash)->(id,pos,plen,weak)"
	legacyCoverColumn = "(gramhash)->(id,pos)"
)

// buildCoverIndex bulk-loads the covering gram index: the postings of
// the aux table in scan order, then the weak list. sums holds the
// summary of the base row with id i at i.
func buildCoverIndex(d *DB, tx *Tx, name string, aux *Table, sums []rowSummary) error {
	var weakList []coverEntry
	for id, s := range sums {
		if s.weak == 0 {
			continue
		}
		v, err := CoverValue(int64(id), 0, s.plen, s.weak)
		if err != nil {
			return err
		}
		weakList = append(weakList, coverEntry{weakKey(s.weak), v})
	}
	// BTree.Insert keeps equal keys in value order only within a leaf:
	// appended in ascending (weak, id) order at the right edge of the
	// tree, the weak list is in (key, value) order across leaves too.
	slices.SortFunc(weakList, coverEntry.compare)

	idxName := CoverIndexName(name)
	bt, err := store.OpenBTreeFS(d.indexPath(idxName), d.cachePages, d.fs)
	if err != nil {
		return err
	}
	idCol := aux.Columns.ColIndex("id")
	posCol := aux.Columns.ColIndex("pos")
	hashCol := aux.Columns.ColIndex("gramhash")
	err = aux.Scan(func(_ store.RID, row Row) error {
		id := row[idCol].I
		if id < 0 || id >= int64(len(sums)) {
			return fmt.Errorf("db: %s holds a gram of id %d, which is not a loaded row", aux.Name, id)
		}
		v, err := CoverValue(id, int(row[posCol].I), sums[id].plen, sums[id].weak)
		if err != nil {
			return err
		}
		return bt.Insert(uint64(row[hashCol].I), v)
	})
	for _, e := range weakList {
		if err == nil {
			err = bt.Insert(e.key, e.val)
		}
	}
	if err == nil && d.wal != nil {
		// As in CreateIndex: the unlogged bulk build must be durable
		// before the catalog change naming it can commit.
		err = bt.Flush()
	}
	if err != nil {
		return errors.Join(err, bt.Close())
	}
	d.attachTree(bt)
	d.indexes[strings.ToLower(idxName)] = &Index{
		Def:  IndexDef{Name: idxName, Table: aux.Name, Column: coverColumn},
		Tree: bt,
	}
	return d.saveCatalog(tx)
}
