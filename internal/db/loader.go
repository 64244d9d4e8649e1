package db

import (
	"errors"
	"fmt"
	"path/filepath"

	"lexequal/internal/core"
	"lexequal/internal/phoneme"
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
	// WithAux builds the gram index of the table (Figure 14's q-gram
	// postings, held by an index of the base table).
	WithAux bool
	// WithIndexes builds the id index and the grouped-phoneme-id B-tree
	// (Figure 15).
	WithIndexes bool
}

// CreateNameTable creates and loads the conventional multiscript name
// layout for texts:
//
//	<name>(id INT, name NSTRING, pname STRING, groupid INT)
//	<name>_id_idx on id, <name>_gid_idx on groupid      [spec.WithIndexes]
//	<name>_qgrams_cover, the gram index on pname         [spec.WithAux]
//
// Rows whose language has no TTP converter get NULL pname/groupid and
// never match (the NORESOURCE rows). Row ids are the positions in
// texts. The gram index is built under op's cluster set and covers the
// rows loaded here; the q-gram plan reads it under that set only.
func CreateNameTable(d *DB, name string, op *core.Operator, texts []core.Text, spec NameTableSpec) (*LexConfig, error) {
	if spec.WithAux {
		// The index names its cluster set, so the set must resolve by name.
		if cs, err := phoneme.ByName(op.Clusters().Name()); err != nil || cs != op.Clusters() {
			return nil, fmt.Errorf("db: a gram index needs a built-in cluster set, not %q", op.Clusters().Name())
		}
	}
	// One transaction for the whole load: with the WAL enabled the
	// tables, rows, and indexes appear atomically (and commit with a
	// single fsync).
	tx, err := d.autoBegin()
	if err != nil {
		return nil, err
	}
	cfg, err := createNameTableTx(d, tx, name, op, texts, spec)
	if err := d.autoEnd(tx, err); err != nil {
		return nil, err
	}
	return cfg, nil
}

func createNameTableTx(d *DB, tx *Tx, name string, op *core.Operator, texts []core.Text, spec NameTableSpec) (*LexConfig, error) {
	t, err := d.createTableTx(tx, name, Schema{
		{Name: "id", Type: TInt},
		{Name: "name", Type: TNString},
		{Name: "pname", Type: TString},
		{Name: "groupid", Type: TInt},
	})
	if err != nil {
		return nil, err
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
		}
		if _, err := t.InsertTx(tx, row); err != nil {
			return nil, err
		}
	}
	var defs []IndexDef
	if spec.WithIndexes {
		defs = append(defs, IndexDef{Name: name + "_id_idx", Table: name, Column: "id"},
			IndexDef{Name: name + "_gid_idx", Table: name, Column: "groupid"})
	}
	if spec.WithAux {
		defs = append(defs, IndexDef{Name: CoverIndexName(name), Table: name, Column: "pname", Kind: IndexGram, Clusters: op.Clusters().Name()})
	}
	for _, def := range defs {
		if _, err := d.createIndexTx(tx, def); err != nil {
			return nil, err
		}
	}
	return ResolveLexConfig(d, name, op)
}
