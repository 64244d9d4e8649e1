package db

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"

	"lexequal/internal/core"
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
	// single fsync); joined if the caller already opened one.
	tx, err := d.autoBegin()
	if err != nil {
		return nil, err
	}
	cfg, err := createNameTableTx(d, name, op, texts, spec, q)
	if err := d.autoEnd(tx, err); err != nil {
		return nil, err
	}
	return cfg, nil
}

func createNameTableTx(d *DB, name string, op *core.Operator, texts []core.Text, spec NameTableSpec, q int) (*LexConfig, error) {
	t, err := d.CreateTable(name, Schema{
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
		aux, err = d.CreateTable(name+"_qgrams", Schema{
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
	for i, text := range texts {
		row := Row{Int(int64(i)), NStr(text.Value, text.Lang), Null(), Null()}
		if op.Registry().Has(text.Lang) {
			p, err := op.Transform(text.Value, text.Lang)
			if err != nil {
				return nil, fmt.Errorf("db: load row %d (%s): %w", i, text, err)
			}
			row[2] = Str(p.IPA())
			row[3] = Int(int64(enc.Encode(p)))
			if aux != nil {
				for _, g := range qgram.Extract(enc.Project(p), q) {
					key := g.Key()
					if _, err := aux.Insert(Row{Int(int64(i)), Int(int64(g.Pos)), Str(key), Int(GramHash(key))}); err != nil {
						return nil, err
					}
				}
			}
		}
		if _, err := t.Insert(row); err != nil {
			return nil, err
		}
	}
	if spec.WithIndexes {
		if _, err := d.CreateIndex(name+"_id_idx", name, "id"); err != nil {
			return nil, err
		}
		if _, err := d.CreateIndex(name+"_gid_idx", name, "groupid"); err != nil {
			return nil, err
		}
		if spec.WithAux {
			// Covering index: gramhash -> (id, pos) packed into the
			// value, so the gram probe never touches the aux heap (the
			// index-only plan a real optimizer would use for Figure 14).
			if err := buildCoverIndex(d, name, aux); err != nil {
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

// CoverValue packs an aux-table (id, pos) pair into a B-tree value for
// the covering gram index; positions fit comfortably in 16 bits.
func CoverValue(id int64, pos int) uint64 { return uint64(id)<<16 | uint64(pos&0xFFFF) }

// UnpackCover reverses CoverValue.
func UnpackCover(v uint64) (id int64, pos int) { return int64(v >> 16), int(v & 0xFFFF) }

// CoverIndexName is the naming convention for the covering gram index.
func CoverIndexName(table string) string { return table + "_qgrams_cover" }

// coverColumn marks the covering index in the catalog; it resolves to
// no real column, so ordinary insert-time index maintenance skips it.
const coverColumn = "(gramhash)->(id,pos)"

// buildCoverIndex bulk-loads the covering gram index from the aux
// table.
func buildCoverIndex(d *DB, name string, aux *Table) error {
	idxName := CoverIndexName(name)
	bt, err := store.OpenBTreeFS(d.indexPath(idxName), d.cachePages, d.fs)
	if err != nil {
		return err
	}
	idCol := aux.Columns.ColIndex("id")
	posCol := aux.Columns.ColIndex("pos")
	hashCol := aux.Columns.ColIndex("gramhash")
	err = aux.Scan(func(_ store.RID, row Row) error {
		return bt.Insert(uint64(row[hashCol].I), CoverValue(row[idCol].I, int(row[posCol].I)))
	})
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
	return d.saveCatalog()
}
