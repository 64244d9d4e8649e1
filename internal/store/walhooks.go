package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sort"
)

// This file is the pager's side of the write-ahead-log contract
// (DESIGN.md §11). The pager itself knows nothing about log records;
// it exposes three seams the WAL layer in internal/db plugs into:
//
//   - WALHook gates write-back (the WAL rule: a dirty page may reach
//     disk only once its last log record is durable) and eviction
//     (no-steal: pages dirtied by a live transaction stay in cache).
//   - PageLogger receives the after-image of every page a structure
//     mutation dirtied, via the CaptureStart/LogCaptured window.
//   - StampPageImage/PageImageLSN let recovery read and rewrite raw
//     page images without a pager (the file may be torn or unaligned,
//     which OpenPagerFS rightly refuses).

// WALHook is implemented by the write-ahead log. EnsureDurable blocks
// until every log record up to lsn is on stable storage; Committed
// reports whether lsn belongs to a finished (committed or aborted)
// transaction, i.e. whether a page stamped with it may leave the cache.
type WALHook interface {
	EnsureDurable(lsn uint64) error
	Committed(lsn uint64) bool
}

// PageLogger receives physiological log records: the full after-image
// of one page of one file. It returns the LSN assigned to the record,
// which the pager stamps into the page trailer.
type PageLogger interface {
	LogPage(path string, id PageID, payload []byte) (uint64, error)
}

// SetWAL installs the WAL hook. Passing nil detaches it (pages flush
// freely, as before PR 5).
func (pg *Pager) SetWAL(w WALHook) {
	pg.mu.Lock()
	pg.wal = w
	pg.mu.Unlock()
}

// CaptureStart begins recording the set of pages dirtied by the
// current structure mutation. The window must be closed by LogCaptured
// or DropCapture before the structure latch is released; captured
// pages are pinned-in-spirit (never evicted) while the window is open,
// so a single mutation must dirty fewer pages than the pool holds.
func (pg *Pager) CaptureStart() {
	pg.mu.Lock()
	pg.capturing = true
	pg.captured = make(map[PageID]struct{})
	pg.captureOn.Store(true)
	pg.mu.Unlock()
}

// noteDirty records a page in the open capture window. The atomic
// fast-path check keeps MarkDirty cheap when no WAL is attached.
func (pg *Pager) noteDirty(id PageID) {
	pg.mu.Lock()
	if pg.capturing {
		pg.captured[id] = struct{}{}
	}
	pg.mu.Unlock()
}

// DropCapture closes the capture window without logging (the mutation
// failed) and returns how many pages the window had captured. Zero
// means the mutation failed before dirtying anything — the caller's
// transaction can roll back by compensation; nonzero means the cache
// now holds changes no log record describes, which only cache-discard
// recovery can undo (see ErrUnloggedDirt).
func (pg *Pager) DropCapture() int {
	pg.mu.Lock()
	n := len(pg.captured)
	pg.capturing = false
	pg.captured = nil
	pg.captureOn.Store(false)
	pg.mu.Unlock()
	return n
}

// ErrUnloggedDirt marks a failed mutation that left modified pages in
// the cache with no (or incomplete) log coverage: the failure struck
// after the first MarkDirty but before LogCaptured finished. A
// transaction that sees it cannot roll back by logged compensation —
// only discarding the caches and redoing the log restores a provable
// state. Match with errors.Is; the original failure is preserved
// (message and wrapped sentinels are unchanged).
var ErrUnloggedDirt = errors.New("store: failed mutation left unlogged dirty pages")

// dirtyFailError decorates a mutation failure with ErrUnloggedDirt
// without disturbing its message or its own wrapped sentinels.
type dirtyFailError struct{ err error }

func (e *dirtyFailError) Error() string { return e.err.Error() }

func (e *dirtyFailError) Unwrap() []error { return []error{e.err, ErrUnloggedDirt} }

// taintDirty classifies a failed capture-window mutation: failures
// that dirtied nothing pass through untouched, failures that left
// captured pages behind are marked with ErrUnloggedDirt.
func taintDirty(err error, captured int) error {
	if err == nil || captured == 0 {
		return err
	}
	return &dirtyFailError{err}
}

// LogCaptured closes the capture window, sends the after-image of
// every captured page to the logger in page order, and stamps the
// returned LSNs so write-back can enforce the WAL rule. On error the
// remaining images are not logged; the caller must abort the
// transaction (the cache now holds changes the log does not).
func (pg *Pager) LogCaptured(lg PageLogger) error {
	pg.mu.Lock()
	ids := make([]PageID, 0, len(pg.captured))
	for id := range pg.captured {
		ids = append(ids, id)
	}
	pg.capturing = false
	pg.captured = nil
	pg.captureOn.Store(false)
	pg.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		p, err := pg.Get(id)
		if err != nil {
			return err
		}
		lsn, err := lg.LogPage(pg.path, id, p.Data[:UsableSize])
		if err != nil {
			pg.Unpin(p)
			return err
		}
		pg.mu.Lock()
		p.lsn = lsn
		if p.recLSN == 0 {
			p.recLSN = lsn // first change since the page was last clean
		}
		pg.mu.Unlock()
		pg.Unpin(p)
	}
	return nil
}

// Discard drops every cached page without write-back and closes the
// file. It is the rollback/recovery counterpart of Close: the WAL, not
// the cache, holds the authoritative committed state, so flushing the
// cache here would leak loser pages to disk.
func (pg *Pager) Discard() error {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if pg.closed {
		return nil
	}
	pg.closed = true
	pg.drainLoadsLocked()
	err := pg.f.Close()
	pg.cache = make(map[PageID]*Page)
	pg.lruHead, pg.lruTail = nil, nil
	return err
}

// DiskPageLSN reads the pageLSN the on-disk image of page id carries,
// bypassing the cache (the checker compares disk state against the
// durable LSN). A page that fails verification reports lsn 0 with the
// corruption error.
func (pg *Pager) DiskPageLSN(id PageID) (uint64, error) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if pg.closed {
		return 0, fmt.Errorf("store: page lsn of %s: %w", pg.path, os.ErrClosed)
	}
	if uint32(id) >= pg.numPages {
		return 0, fmt.Errorf("store: page %d out of range (file has %d)", id, pg.numPages)
	}
	var buf [PageSize]byte
	if _, err := pg.f.ReadAt(buf[:], int64(id)*PageSize); err != nil {
		return 0, &CorruptPageError{Path: pg.path, Page: id, Reason: fmt.Sprintf("unreadable: %v", err)}
	}
	lsn, ok := PageImageLSN(id, buf[:])
	if !ok {
		return 0, &CorruptPageError{Path: pg.path, Page: id, Reason: "trailer fails verification"}
	}
	return lsn, nil
}

// StampPageImage fills the integrity trailer of a full-page buffer:
// pageLSN, CRC32-C over payload+pageID+pageLSN, format version. It is
// how recovery rewrites pages from log records; nothing outside
// internal/wal may call it (the walonly analyzer enforces this).
func StampPageImage(id PageID, buf []byte, lsn uint64) {
	binary.LittleEndian.PutUint64(buf[UsableSize:], lsn)
	binary.LittleEndian.PutUint32(buf[UsableSize+8:], pageCRC(id, buf))
	binary.LittleEndian.PutUint16(buf[UsableSize+12:], FormatVersion)
	buf[UsableSize+14] = 0
	buf[UsableSize+15] = 0
}

// PageImageLSN verifies the trailer of a full-page buffer read raw
// from disk and returns its pageLSN. ok is false when the image fails
// verification (torn, zeroed, or from a different format version) —
// recovery then treats the slot as empty and rewrites it.
func PageImageLSN(id PageID, buf []byte) (lsn uint64, ok bool) {
	if len(buf) != PageSize {
		return 0, false
	}
	lsn = binary.LittleEndian.Uint64(buf[UsableSize:])
	stored := binary.LittleEndian.Uint32(buf[UsableSize+8:])
	version := binary.LittleEndian.Uint16(buf[UsableSize+12:])
	if version != FormatVersion || stored != pageCRC(id, buf) {
		return 0, false
	}
	return lsn, true
}
