package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"lexequal/internal/store"
)

// Sink receives what an Applier decides to apply: page images in LSN
// order, and each committed transaction's catalog image at its commit
// record, just before Commit.
type Sink interface {
	// Page installs one page image and reports whether it physically
	// wrote it (false: the target already held this image or a newer
	// one).
	Page(r Record) (bool, error)
	// Catalog publishes a committed transaction's last catalog image.
	Catalog(r Record) error
	// Begin registers a transaction at its first record.
	Begin(txid uint64)
	// Commit and Abort retire a transaction at its terminator.
	Commit(txid, lsn uint64)
	Abort(txid uint64)
}

// ApplyStats counts an Applier's work.
type ApplyStats struct {
	// Scanned counts every record stepped.
	Scanned int
	// Skipped counts page/catalog records of applying transactions at or
	// below the floor — work a checkpoint already made durable.
	Skipped int
	// Replayed counts page/catalog records of applying transactions
	// above the floor.
	Replayed int
	// Applied counts page images the sink physically wrote (Replayed
	// minus catalog records and pages that were already current).
	Applied int
}

// Applier is the one interpreter of log records. Primary crash
// recovery and in-place rollback (Redo), replica restart and the
// replica's live apply all step records through it, in LSN order. It
// owns the transaction bookkeeping — the live set with each
// transaction's first LSN, and each one's pending catalog image — and
// hands page images and committed catalog images to a Sink.
//
// Policy is one value: the set of transactions whose images apply. A
// replica applies every transaction's pages as they arrive (MVCC
// version headers hide the uncommitted ones); a primary applies only
// finished trails, discarding losers, which under no-steal is all the
// undo there is. An abort trail is self-contained — its forward images
// followed by the compensation images that undid them — so replaying
// it in LSN order lands on the undone state. Catalog images are
// different: compensation cannot undo a catalog change, so whatever the
// policy, a catalog image publishes only at its transaction's commit
// record and is dropped at the abort record.
//
// Records at or below the floor are counted, not applied: a checkpoint
// made their effects durable before declaring it.
//
// Not safe for concurrent use.
type Applier struct {
	sink  Sink
	floor uint64
	only  map[uint64]bool // nil: every transaction
	live  map[uint64]uint64
	cats  map[uint64]Record
	Stats ApplyStats
}

// NewApplier returns an applier feeding sink that skips records at or
// below floor and applies the images of the transactions in only (nil:
// of every transaction).
func NewApplier(sink Sink, floor uint64, only map[uint64]bool) *Applier {
	return &Applier{
		sink:  sink,
		floor: floor,
		only:  only,
		live:  make(map[uint64]uint64),
		cats:  make(map[uint64]Record),
	}
}

// SetSink redirects the applier's output. The live set and the pending
// catalog images carry over: a replica replays its local log into the
// raw files at open, then continues the same machine into its pagers.
func (a *Applier) SetSink(s Sink) { a.sink = s }

// Live returns the transactions stepped so far with records but no
// terminator, each mapped to the LSN of its first record.
func (a *Applier) Live() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(a.live))
	for id, lsn := range a.live {
		out[id] = lsn
	}
	return out
}

// Step interprets one record. Its Payload is not retained.
func (a *Applier) Step(r Record) error {
	a.Stats.Scanned++
	switch r.Type {
	case RecCheckpointBegin, RecCheckpointEnd:
		// A primary's checkpoint records keep a replica's LSN run
		// contiguous; the floor they carry is read by Redo's first pass.
		return nil
	case RecCommit:
		delete(a.live, r.TxID)
		if cat, ok := a.cats[r.TxID]; ok {
			delete(a.cats, r.TxID)
			if err := a.sink.Catalog(cat); err != nil {
				return err
			}
		}
		a.sink.Commit(r.TxID, r.LSN)
		return nil
	case RecAbort:
		delete(a.live, r.TxID)
		delete(a.cats, r.TxID)
		a.sink.Abort(r.TxID)
		return nil
	}
	if _, ok := a.live[r.TxID]; !ok && r.TxID != 0 {
		a.live[r.TxID] = r.LSN
		a.sink.Begin(r.TxID)
	}
	if r.Type != RecPage && r.Type != RecCatalog {
		return nil
	}
	if a.only != nil && !a.only[r.TxID] {
		return nil
	}
	if r.LSN <= a.floor {
		a.Stats.Skipped++
		return nil
	}
	a.Stats.Replayed++
	if r.Type == RecCatalog {
		r.Payload = append([]byte(nil), r.Payload...)
		a.cats[r.TxID] = r
		return nil
	}
	wrote, err := a.sink.Page(r)
	if wrote {
		a.Stats.Applied++
	}
	return err
}

// FileSink is the Sink that applies images to a database directory with
// raw file I/O, used while a database opens. Raw I/O rather than pagers
// because the target files may be torn, missing, or non-page-aligned;
// the images in the log are exactly what repairs them.
//
// Page application is idempotent: an image is skipped when the on-disk
// page already verifies with an LSN at or above the record's, so a
// crash mid-apply is cured by applying again. The newest committed
// catalog image is held and published last, atomically, in Finish —
// data pages must be on disk before a catalog that names them becomes
// visible.
//
// Not safe for concurrent use.
type FileSink struct {
	fs    store.VFS
	dbDir string
	files map[string]store.File

	catName  string
	catImage []byte
}

// NewFileSink returns a sink over dbDir. fs nil means the OS
// filesystem.
func NewFileSink(dbDir string, fs store.VFS) *FileSink {
	if fs == nil {
		fs = store.OSFS{}
	}
	return &FileSink{fs: fs, dbDir: dbDir, files: make(map[string]store.File)}
}

func (s *FileSink) openData(name string) (store.File, error) {
	if f, ok := s.files[name]; ok {
		return f, nil
	}
	f, err := s.fs.OpenFile(filepath.Join(s.dbDir, name), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: apply open %s: %w", name, err)
	}
	s.files[name] = f
	return f, nil
}

// Page writes one page image unless the on-disk page is already at or
// past it.
func (s *FileSink) Page(r Record) (bool, error) {
	name, err := safeName(r.File)
	if err != nil {
		return false, err
	}
	f, err := s.openData(name)
	if err != nil {
		return false, err
	}
	off := int64(r.Page) * store.PageSize
	cur := make([]byte, store.PageSize)
	if n, rerr := f.ReadAt(cur, off); n == store.PageSize && rerr == nil {
		if lsn, ok := store.PageImageLSN(r.Page, cur); ok && lsn >= r.LSN {
			return false, nil
		}
	}
	img := make([]byte, store.PageSize)
	copy(img, r.Payload)
	store.StampPageImage(r.Page, img, r.LSN)
	if _, err := f.WriteAt(img, off); err != nil {
		return false, fmt.Errorf("wal: apply write %s page %d: %w", name, r.Page, err)
	}
	return true, nil
}

// Catalog holds the image for Finish to publish.
func (s *FileSink) Catalog(r Record) error {
	name, err := safeName(r.File)
	if err != nil {
		return err
	}
	s.catName = name
	s.catImage = append(s.catImage[:0], r.Payload...)
	return nil
}

// Begin, Commit and Abort do nothing: the files carry no transaction
// registry.
func (s *FileSink) Begin(uint64)          {}
func (s *FileSink) Commit(uint64, uint64) {}
func (s *FileSink) Abort(uint64)          {}

// Finish fixes file tails, makes every applied image durable, and
// publishes the held catalog image atomically. Non-page-aligned files
// are rounded down: the partial tail page is crash debris — any
// committed content for it was just rewritten at full size, which
// realigns the file first. Closes all handles; the sink must not be
// used afterwards.
func (s *FileSink) Finish() error {
	names := make([]string, 0, len(s.files))
	for name := range s.files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := s.files[name]
		st, err := f.Stat()
		if err != nil {
			return err
		}
		if rem := st.Size() % store.PageSize; rem != 0 {
			if err := f.Truncate(st.Size() - rem); err != nil {
				return fmt.Errorf("wal: apply truncate %s: %w", name, err)
			}
		}
		if err := f.Sync(); err != nil {
			return fmt.Errorf("wal: apply sync %s: %w", name, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		delete(s.files, name)
	}
	if s.catName != "" {
		if err := writeFileAtomic(s.fs, s.dbDir, s.catName, s.catImage); err != nil {
			return err
		}
		s.catName, s.catImage = "", nil
	}
	if err := store.SyncDir(s.fs, s.dbDir); err != nil {
		return fmt.Errorf("wal: apply sync dir: %w", err)
	}
	return nil
}

// Close releases file handles without syncing — the error-path
// counterpart of Finish. Safe after Finish (a no-op then).
func (s *FileSink) Close() error {
	var first error
	for name, f := range s.files {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.files, name)
	}
	return first
}
