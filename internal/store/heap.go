package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// HeapFile stores variable-length records in slotted pages. Records are
// addressed by RID and never move; deletion leaves a tombstone. The
// meta page (page 0) records the page/record counts so a heap reopens
// cheaply.
//
// Page layout (pages >= 1, payload area [0:UsableSize)):
//
//	[0:2)  slot count n
//	[2:4)  free-space offset (start of the record area, grows down)
//	[4:..) slot array: n entries of {offset uint16, length uint16}
//	 ...   free space
//	[freeOff:UsableSize) record bytes (allocated from the end)
//
// A slot with offset 0 is a tombstone (valid records never start at
// offset 0, which lies inside the header). Every structural field read
// from a page is validated before use, so a corrupt page that slips
// past the checksum (or is corrupted in memory) yields a
// CorruptPageError instead of an out-of-range panic.
type HeapFile struct {
	pg *Pager
	// latch is the structure latch: scans and fetches share it, Insert
	// and Delete take it exclusively. Together with the goroutine-safe
	// pager underneath, this makes a HeapFile safe for concurrent use
	// (concurrent readers proceed in parallel; writers serialize).
	latch sync.RWMutex
	// meta (guarded by latch)
	lastPage PageID // page currently receiving inserts
	count    uint64 // live record count
	closed   bool
	// logger, when attached (SetLogger), receives the after-image of
	// every page a mutation dirties, inside the mutation's latch.
	logger PageLogger
}

// RID addresses one record: page and slot.
type RID struct {
	Page PageID
	Slot uint16
}

// Pack encodes the RID as a uint64 (for storing RIDs in B-tree values).
func (r RID) Pack() uint64 { return uint64(r.Page)<<16 | uint64(r.Slot) }

// UnpackRID reverses Pack.
func UnpackRID(v uint64) RID {
	return RID{Page: PageID(v >> 16), Slot: uint16(v & 0xFFFF)}
}

func (r RID) String() string { return fmt.Sprintf("(%d,%d)", r.Page, r.Slot) }

const (
	heapMagic     = 0x4C455848 // "LEXH"
	heapHdrSlotsN = 0
	heapHdrFree   = 2
	heapSlotBase  = 4
	heapSlotSize  = 4
)

// maxHeapRecord is the largest record a heap accepts: it must fit in a
// fresh page alongside the header and one slot.
const maxHeapRecord = UsableSize - heapSlotBase - heapSlotSize

// OpenHeap opens (or creates) a heap file at path.
func OpenHeap(path string, cachePages int) (*HeapFile, error) {
	return OpenHeapFS(path, cachePages, nil)
}

// OpenHeapFS is OpenHeap through an explicit VFS (nil selects OSFS).
func OpenHeapFS(path string, cachePages int, fs VFS) (*HeapFile, error) {
	pg, err := OpenPagerFS(path, cachePages, fs)
	if err != nil {
		return nil, err
	}
	h := &HeapFile{pg: pg}
	if pg.NumPages() == 0 {
		meta, err := pg.Allocate()
		if err != nil {
			return nil, errors.Join(err, pg.Close())
		}
		binary.LittleEndian.PutUint32(meta.Data[0:], heapMagic)
		h.lastPage = InvalidPage
		h.writeMeta(meta)
		pg.Unpin(meta)
		return h, nil
	}
	meta, err := pg.Get(0)
	if err != nil {
		return nil, errors.Join(err, pg.Close())
	}
	defer pg.Unpin(meta)
	if binary.LittleEndian.Uint32(meta.Data[0:]) != heapMagic {
		corrupt := &CorruptFileError{Path: path, Reason: "not a heap file (bad magic)"}
		return nil, errors.Join(corrupt, pg.Close())
	}
	h.lastPage = PageID(binary.LittleEndian.Uint32(meta.Data[4:]))
	h.count = binary.LittleEndian.Uint64(meta.Data[8:])
	return h, nil
}

func (h *HeapFile) writeMeta(meta *Page) {
	binary.LittleEndian.PutUint32(meta.Data[4:], uint32(h.lastPage))
	binary.LittleEndian.PutUint64(meta.Data[8:], h.count)
	meta.MarkDirty()
}

func (h *HeapFile) syncMeta() error {
	meta, err := h.pg.Get(0)
	if err != nil {
		return err
	}
	h.writeMeta(meta)
	h.pg.Unpin(meta)
	return nil
}

// SetLogger attaches the WAL page logger: every Insert and Delete then
// emits the after-images of the pages it dirtied (data page and meta
// page) before its latch is released. Attach before concurrent use.
func (h *HeapFile) SetLogger(lg PageLogger) {
	h.latch.Lock()
	h.logger = lg
	h.latch.Unlock()
}

// Discard drops the page cache without write-back and closes the file:
// the rollback/recovery path, where the WAL holds the authoritative
// state and flushing the cache would leak loser pages.
func (h *HeapFile) Discard() error {
	h.latch.Lock()
	defer h.latch.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	return h.pg.Discard()
}

// Count returns the number of live records.
func (h *HeapFile) Count() uint64 {
	h.latch.RLock()
	defer h.latch.RUnlock()
	return h.count
}

// Pager exposes the underlying pager (for I/O statistics).
func (h *HeapFile) Pager() *Pager { return h.pg }

// Flush writes metadata and every flushable dirty page to disk and
// syncs the file, without closing it (the checkpoint path).
func (h *HeapFile) Flush() error {
	h.latch.Lock()
	defer h.latch.Unlock()
	if h.closed {
		return nil
	}
	if err := h.syncMeta(); err != nil {
		return err
	}
	return h.pg.Flush()
}

// FlushCommitted writes back the committed dirty pages of the heap
// without syncing, for a fuzzy checkpoint. It takes the latch shared:
// concurrent scans proceed, and the meta page needs no separate sync
// because every logged mutation already rewrites it inside its capture
// window. A closed heap reports success — its Close already flushed.
func (h *HeapFile) FlushCommitted() error {
	h.latch.RLock()
	defer h.latch.RUnlock()
	if h.closed {
		return nil
	}
	return h.pg.FlushCommitted()
}

// SyncData fsyncs the heap's backing file (the durability half of a
// checkpoint round).
func (h *HeapFile) SyncData() error {
	h.latch.RLock()
	defer h.latch.RUnlock()
	if h.closed {
		return nil
	}
	return h.pg.SyncFile()
}

// MinRecLSN reports the smallest recovery LSN over the heap's dirty
// pages (ok=false when clean — or closed, which flushed everything).
func (h *HeapFile) MinRecLSN() (uint64, bool) {
	h.latch.RLock()
	defer h.latch.RUnlock()
	if h.closed {
		return 0, false
	}
	return h.pg.MinRecLSN()
}

// Close flushes metadata and the page cache. It is safe to call more
// than once; the first error wins and later calls are no-ops.
func (h *HeapFile) Close() error {
	h.latch.Lock()
	defer h.latch.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	err := h.syncMeta()
	if cerr := h.pg.Close(); err == nil {
		err = cerr
	}
	return err
}

// pageSlots validates the slot-directory header of p and returns the
// slot count and free offset.
func (h *HeapFile) pageSlots(p *Page) (n, freeOff int, err error) {
	n = int(binary.LittleEndian.Uint16(p.Data[heapHdrSlotsN:]))
	freeOff = int(binary.LittleEndian.Uint16(p.Data[heapHdrFree:]))
	slotEnd := heapSlotBase + n*heapSlotSize
	if slotEnd > UsableSize || freeOff < slotEnd || freeOff > UsableSize {
		return 0, 0, &CorruptPageError{Path: h.pg.Path(), Page: p.ID,
			Reason: fmt.Sprintf("impossible slot directory (%d slots, free offset %d)", n, freeOff)}
	}
	return n, freeOff, nil
}

// slotRecord returns the record bytes of slot s (aliasing the page
// buffer), or nil for a tombstone. Slot bounds must already be checked
// against the page's slot count.
func (h *HeapFile) slotRecord(p *Page, s int, freeOff int) ([]byte, error) {
	slot := heapSlotBase + s*heapSlotSize
	off := int(binary.LittleEndian.Uint16(p.Data[slot:]))
	if off == 0 {
		return nil, nil // tombstone
	}
	length := int(binary.LittleEndian.Uint16(p.Data[slot+2:]))
	if off < freeOff || off+length > UsableSize {
		return nil, &CorruptPageError{Path: h.pg.Path(), Page: p.ID,
			Reason: fmt.Sprintf("slot %d points outside the record area (offset %d, length %d)", s, off, length)}
	}
	return p.Data[off : off+length], nil
}

// Insert appends a record and returns its RID, logging against the
// attached logger (the ambient-transaction path).
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	h.latch.Lock()
	defer h.latch.Unlock()
	return h.insertCaptured(rec, h.logger)
}

// InsertTx is Insert against an explicit per-call page logger, for
// concurrent transactions that each carry their own WAL identity. A
// nil logger inserts unlogged (bulk builds, recovery repair).
func (h *HeapFile) InsertTx(rec []byte, lg PageLogger) (RID, error) {
	h.latch.Lock()
	defer h.latch.Unlock()
	return h.insertCaptured(rec, lg)
}

func (h *HeapFile) insertCaptured(rec []byte, lg PageLogger) (RID, error) {
	if lg != nil {
		h.pg.CaptureStart()
	}
	rid, err := h.insertLocked(rec)
	if err == nil {
		// The meta page travels with every mutation: under a WAL the
		// counts must be part of the transaction's page images, not
		// wait for Close.
		err = h.syncMeta()
	}
	if lg != nil {
		if err != nil {
			// A mutation that dirtied pages before failing cannot be
			// undone by logged compensation; mark it so the db layer
			// escalates to cache-discard recovery.
			err = taintDirty(err, h.pg.DropCapture())
		} else if lerr := h.pg.LogCaptured(lg); lerr != nil {
			// Partial logging always leaves captured dirt behind.
			err = &dirtyFailError{lerr}
		}
	}
	if err != nil {
		return RID{}, err
	}
	return rid, nil
}

func (h *HeapFile) insertLocked(rec []byte) (RID, error) {
	if len(rec) > maxHeapRecord {
		return RID{}, fmt.Errorf("store: record of %d bytes exceeds max %d", len(rec), maxHeapRecord)
	}
	var p *Page
	var err error
	if h.lastPage != InvalidPage {
		p, err = h.pg.Get(h.lastPage)
		if err != nil {
			return RID{}, err
		}
		n, freeOff, err := h.pageSlots(p)
		if err != nil {
			h.pg.Unpin(p)
			return RID{}, err
		}
		if freeOff-(heapSlotBase+n*heapSlotSize) < len(rec)+heapSlotSize {
			h.pg.Unpin(p)
			p = nil
		}
	}
	if p == nil {
		p, err = h.pg.Allocate()
		if err != nil {
			return RID{}, err
		}
		binary.LittleEndian.PutUint16(p.Data[heapHdrSlotsN:], 0)
		binary.LittleEndian.PutUint16(p.Data[heapHdrFree:], UsableSize)
		h.lastPage = p.ID
	}
	defer h.pg.Unpin(p)

	n := binary.LittleEndian.Uint16(p.Data[heapHdrSlotsN:])
	freeOff := binary.LittleEndian.Uint16(p.Data[heapHdrFree:])
	newOff := freeOff - uint16(len(rec))
	copy(p.Data[newOff:freeOff], rec)
	slot := heapSlotBase + int(n)*heapSlotSize
	binary.LittleEndian.PutUint16(p.Data[slot:], newOff)
	binary.LittleEndian.PutUint16(p.Data[slot+2:], uint16(len(rec)))
	binary.LittleEndian.PutUint16(p.Data[heapHdrSlotsN:], n+1)
	binary.LittleEndian.PutUint16(p.Data[heapHdrFree:], newOff)
	p.MarkDirty()
	h.count++
	return RID{Page: p.ID, Slot: n}, nil
}

// Get returns a copy of the record at rid.
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	var rec []byte
	err := h.View(rid, func(raw []byte) error {
		rec = make([]byte, len(raw))
		copy(rec, raw)
		return nil
	})
	return rec, err
}

// View invokes fn with the record at rid, aliasing the pinned page:
// like Scan's, the slice is valid only during the call. It fails as Get
// does, and otherwise returns fn's error.
func (h *HeapFile) View(rid RID, fn func(rec []byte) error) error {
	h.latch.RLock()
	defer h.latch.RUnlock()
	if rid.Page == 0 {
		return fmt.Errorf("store: rid %v addresses the meta page", rid)
	}
	p, err := h.pg.Get(rid.Page)
	if err != nil {
		return err
	}
	defer h.pg.Unpin(p)
	n, freeOff, err := h.pageSlots(p)
	if err != nil {
		return err
	}
	if int(rid.Slot) >= n {
		return fmt.Errorf("store: rid %v slot out of range (%d slots)", rid, n)
	}
	raw, err := h.slotRecord(p, int(rid.Slot), freeOff)
	if err != nil {
		return err
	}
	if raw == nil {
		return fmt.Errorf("store: rid %v: %w", rid, ErrDeleted)
	}
	return fn(raw)
}

// Delete tombstones the record at rid, logging against the attached
// logger. The space is not reclaimed (adequate for the read-mostly
// experimental workloads).
func (h *HeapFile) Delete(rid RID) error {
	h.latch.Lock()
	defer h.latch.Unlock()
	return h.deleteCaptured(rid, h.logger)
}

// DeleteTx is Delete against an explicit per-call page logger; nil
// deletes unlogged.
func (h *HeapFile) DeleteTx(rid RID, lg PageLogger) error {
	h.latch.Lock()
	defer h.latch.Unlock()
	return h.deleteCaptured(rid, lg)
}

func (h *HeapFile) deleteCaptured(rid RID, lg PageLogger) error {
	if lg != nil {
		h.pg.CaptureStart()
	}
	err := h.deleteLocked(rid)
	if err == nil {
		err = h.syncMeta()
	}
	if lg != nil {
		if err != nil {
			// A mutation that dirtied pages before failing cannot be
			// undone by logged compensation; mark it so the db layer
			// escalates to cache-discard recovery.
			err = taintDirty(err, h.pg.DropCapture())
		} else if lerr := h.pg.LogCaptured(lg); lerr != nil {
			// Partial logging always leaves captured dirt behind.
			err = &dirtyFailError{lerr}
		}
	}
	return err
}

func (h *HeapFile) deleteLocked(rid RID) error {
	if rid.Page == 0 {
		return fmt.Errorf("store: rid %v addresses the meta page", rid)
	}
	p, err := h.pg.Get(rid.Page)
	if err != nil {
		return err
	}
	defer h.pg.Unpin(p)
	n, _, err := h.pageSlots(p)
	if err != nil {
		return err
	}
	if int(rid.Slot) >= n {
		return fmt.Errorf("store: rid %v slot out of range", rid)
	}
	slot := heapSlotBase + int(rid.Slot)*heapSlotSize
	if binary.LittleEndian.Uint16(p.Data[slot:]) == 0 {
		return fmt.Errorf("store: rid %v already deleted", rid)
	}
	binary.LittleEndian.PutUint16(p.Data[slot:], 0)
	binary.LittleEndian.PutUint16(p.Data[slot+2:], 0)
	p.MarkDirty()
	h.count--
	return nil
}

// Patch overwrites len(data) bytes of the record at rid starting at
// byte offset off, in place (the record's length never changes),
// logging against the attached logger. It exists for the MVCC version
// header: claiming or clearing a row's deleter stamp rewrites eight
// bytes of a live record without moving it.
func (h *HeapFile) Patch(rid RID, off int, data []byte) error {
	h.latch.Lock()
	defer h.latch.Unlock()
	return h.patchCaptured(rid, off, data, h.logger)
}

// PatchTx is Patch against an explicit per-call page logger; nil
// patches unlogged (recovery repair).
func (h *HeapFile) PatchTx(rid RID, off int, data []byte, lg PageLogger) error {
	h.latch.Lock()
	defer h.latch.Unlock()
	return h.patchCaptured(rid, off, data, lg)
}

func (h *HeapFile) patchCaptured(rid RID, off int, data []byte, lg PageLogger) error {
	if lg != nil {
		h.pg.CaptureStart()
	}
	err := h.patchLocked(rid, off, data)
	if err == nil {
		err = h.syncMeta()
	}
	if lg != nil {
		if err != nil {
			// A mutation that dirtied pages before failing cannot be
			// undone by logged compensation; mark it so the db layer
			// escalates to cache-discard recovery.
			err = taintDirty(err, h.pg.DropCapture())
		} else if lerr := h.pg.LogCaptured(lg); lerr != nil {
			// Partial logging always leaves captured dirt behind.
			err = &dirtyFailError{lerr}
		}
	}
	return err
}

func (h *HeapFile) patchLocked(rid RID, off int, data []byte) error {
	if rid.Page == 0 {
		return fmt.Errorf("store: rid %v addresses the meta page", rid)
	}
	p, err := h.pg.Get(rid.Page)
	if err != nil {
		return err
	}
	defer h.pg.Unpin(p)
	n, freeOff, err := h.pageSlots(p)
	if err != nil {
		return err
	}
	if int(rid.Slot) >= n {
		return fmt.Errorf("store: rid %v slot out of range", rid)
	}
	raw, err := h.slotRecord(p, int(rid.Slot), freeOff)
	if err != nil {
		return err
	}
	if raw == nil {
		return fmt.Errorf("store: rid %v: %w", rid, ErrDeleted)
	}
	if off < 0 || off+len(data) > len(raw) {
		return fmt.Errorf("store: patch [%d:%d) outside record of %d bytes at rid %v",
			off, off+len(data), len(raw), rid)
	}
	copy(raw[off:], data)
	p.MarkDirty()
	return nil
}

// Scan invokes fn for every live record in RID order. The record slice
// is only valid during the call. Returning a non-nil error stops the
// scan and propagates the error; the sentinel ErrStopScan stops cleanly.
// The structure read latch is held for the whole scan, so a full Scan
// observes a consistent heap even with concurrent writers.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) error) error {
	return h.ScanPages(1, InvalidPage, fn)
}

// ScanPages is Scan over the data pages in [lo, hi), clipped to the
// file, under one hold of the read latch. A scan split into page ranges
// (one per pool worker, see internal/db) calls it once per range, so no
// goroutine holds the latch while another waits to take it — which,
// with a writer queued between the two, would deadlock.
func (h *HeapFile) ScanPages(lo, hi PageID, fn func(rid RID, rec []byte) error) error {
	h.latch.RLock()
	defer h.latch.RUnlock()
	for id := max(lo, 1); id < hi && uint32(id) < h.pg.NumPages(); id++ {
		if err := h.scanPage(id, fn); err != nil {
			if errors.Is(err, ErrStopScan) {
				return nil
			}
			return err
		}
	}
	return nil
}

// ScanPage invokes fn for every live record on one page, enabling
// resumable page-at-a-time cursors (the executor's SeqScan). Unlike
// Scan, ErrStopScan propagates so callers can distinguish a clean stop.
// The read latch covers one page visit; a paused cursor does not block
// writers between pages.
func (h *HeapFile) ScanPage(id PageID, fn func(rid RID, rec []byte) error) error {
	h.latch.RLock()
	defer h.latch.RUnlock()
	return h.scanPage(id, fn)
}

// scanPage is ScanPage with the latch already held (shared).
func (h *HeapFile) scanPage(id PageID, fn func(rid RID, rec []byte) error) error {
	if id == 0 || uint32(id) >= h.pg.NumPages() {
		return fmt.Errorf("store: ScanPage %d out of range", id)
	}
	p, err := h.pg.Get(id)
	if err != nil {
		return err
	}
	defer h.pg.Unpin(p)
	n, freeOff, err := h.pageSlots(p)
	if err != nil {
		return err
	}
	for s := 0; s < n; s++ {
		rec, err := h.slotRecord(p, s, freeOff)
		if err != nil {
			return err
		}
		if rec == nil {
			continue
		}
		if err := fn(RID{Page: id, Slot: uint16(s)}, rec); err != nil {
			return err
		}
	}
	return nil
}

// ErrStopScan stops a Scan early without error.
var ErrStopScan = fmt.Errorf("store: stop scan")

// ErrDeleted marks a fetch of a tombstoned record. Index readers treat
// it as "skip": secondary B-trees have no delete operation (DESIGN.md
// non-goals), so stale index entries are filtered at fetch time.
var ErrDeleted = errors.New("record deleted")
