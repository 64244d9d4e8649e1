// Package store implements the on-disk storage substrate the efficiency
// experiments run on: a page cache (buffer pool) over a single file,
// slotted-page heap files for table rows, and a persistent B+tree used
// as the database index for the grouped phoneme string identifiers of
// §5.3. The paper ran on a commercial DBMS; this package supplies the
// equivalent access paths (full scans and B-tree probes against disk
// pages) so the relative costs of the three LexEQUAL strategies have the
// same shape.
//
// Durability model (format version 3): every page carries a 16-byte
// trailer holding the pageLSN of its last logged change and a CRC32-C
// checksum over payload+pageID+pageLSN, stamped on write-back and
// verified on every read from disk, so torn writes, bit flips and
// misdirected writes surface as a typed CorruptPageError instead of
// garbage data. In-place updates are crash-atomic when a write-ahead
// log is attached (SetWAL; see internal/wal and DESIGN.md §11): the
// pager enforces the WAL rule on write-back and the no-steal policy on
// eviction, and recovery replays committed page images, gated on the
// pageLSN, over whatever state the crash left. Bulk loads keep their
// rename-based atomicity (internal/db.BuildAtomic) and run without a
// WAL.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"sync/atomic"
)

// PageSize is the unit of I/O. 4 KiB matches common DBMS defaults.
const PageSize = 4096

// FormatVersion is the on-disk page format. Version 2 introduced the
// per-page checksum trailer; version 3 widened it with the pageLSN the
// recovery pass gates redo on. Older versions are rejected.
const FormatVersion = 3

// pageTrailerSize bytes at the end of every page hold the integrity
// trailer: the pageLSN at [UsableSize:UsableSize+8), CRC32-C over
// payload+pageID+pageLSN at [UsableSize+8:UsableSize+12), the format
// version at [UsableSize+12:UsableSize+14), 2 reserved bytes.
const pageTrailerSize = 16

// UsableSize is the payload area of a page available to the heap and
// B-tree layouts; the trailer occupies the rest.
const UsableSize = PageSize - pageTrailerSize

// PageID identifies a page within one file; page 0 is the file's meta
// page, owned by the structure (heap/btree) living in the file.
type PageID uint32

// InvalidPage is the nil page reference.
const InvalidPage PageID = 0xFFFFFFFF

// Page is one cached page. Callers must hold a pin (via Pager.Get or
// Pager.Allocate) while reading or writing Data, call MarkDirty after
// modifying it, and Unpin it when done. Only Data[:UsableSize] is
// payload; the trailer is owned by the pager.
type Page struct {
	ID   PageID
	Data [PageSize]byte

	pins  int
	dirty bool
	// loading marks a frame whose read from disk is in flight outside the
	// pager latch: it is installed pinned, so it is never a victim, and
	// its Data belongs to the reading goroutine until the load is
	// published. loadErr is a failed load's error, kept for the Gets that
	// waited on a frame the failure removed from the cache. Both are
	// guarded by the pager latch.
	loading bool
	loadErr error
	// lsn is the LSN of the page's latest log record (0 when the page
	// was never logged). Guarded by the pager latch on every access
	// that can race (LogCaptured vs. write-back).
	lsn uint64
	// recLSN is the LSN of the page's FIRST log record since it was
	// last clean on disk (the ARIES dirty-page-table recovery LSN):
	// every logged change the on-disk image is missing has LSN >=
	// recLSN, so min(recLSN)-1 over dirty pages is a safe redo floor.
	// Set by LogCaptured when zero, cleared by write-back. Guarded by
	// the pager latch like lsn.
	recLSN uint64
	pg     *Pager
	// LRU bookkeeping.
	prev, next *Page
}

// MarkDirty records that the page must be written back before eviction.
func (p *Page) MarkDirty() {
	p.dirty = true
	if p.pg != nil && p.pg.captureOn.Load() {
		p.pg.noteDirty(p.ID)
	}
}

// ErrPoolExhausted is returned (wrapped) when every cached page is
// pinned and a new page is needed: the buffer pool cannot evict.
var ErrPoolExhausted = errors.New("buffer pool exhausted")

// Pager provides pinned, cached access to the pages of one file. The
// pager's own bookkeeping (page map, pin counts, LRU, statistics) is
// goroutine-safe: concurrent readers may Get/Unpin pages freely. The
// *payload* of a page is not latched here — callers that modify
// Data must hold an exclusive latch above the pager (the heap/B-tree
// structure latches, and the db-level RW lock above those), and Flush
// must not run concurrently with writers.
type Pager struct {
	// mu is the pager latch: it protects the page map, the LRU list,
	// pin counts, the page count and the I/O statistics. A miss reads
	// its page with the latch released (see Get), so concurrent scans
	// overlap their reads instead of queueing on the latch through every
	// fault; write-back — of a dirty victim on eviction, and in Flush —
	// stays under it, which keeps the WAL rule check and the write one
	// step.
	mu sync.Mutex
	// loaded is signalled whenever a load is published; Gets of a page
	// still loading, and Close, wait on it. loads counts the reads in
	// flight.
	loaded   sync.Cond
	loads    int
	f        File
	path     string
	numPages uint32
	capacity int
	cache    map[PageID]*Page
	// lru is a doubly-linked list of unpinned cached pages; lruHead is
	// the most recently used.
	lruHead, lruTail *Page
	closed           bool
	// wal, when attached, gates write-back (WAL rule) and eviction
	// (no-steal). capturing/captured implement the dirty-page capture
	// window of one structure mutation; captureOn is the lock-free
	// fast-path check MarkDirty takes before locking mu.
	wal       WALHook
	capturing bool
	captured  map[PageID]struct{}
	captureOn atomic.Bool
	// Statistics for the benchmark harness.
	reads, writes, hits, misses uint64
}

// DefaultCacheSize is the default buffer-pool capacity in pages
// (4 MiB), small enough that the 200k-row experiments actually touch
// the disk path.
const DefaultCacheSize = 1024

// OpenPager opens (or creates) the file at path with the given cache
// capacity in pages (0 selects DefaultCacheSize) on the real
// filesystem.
func OpenPager(path string, capacity int) (*Pager, error) {
	return OpenPagerFS(path, capacity, nil)
}

// OpenPagerFS is OpenPager through an explicit VFS (nil selects OSFS).
func OpenPagerFS(path string, capacity int, fs VFS) (*Pager, error) {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	if fs == nil {
		fs = OSFS{}
	}
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: open %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		return nil, errors.Join(fmt.Errorf("store: stat %s: %w", path, err), f.Close())
	}
	if st.Size()%PageSize != 0 {
		corrupt := &CorruptFileError{Path: path,
			Reason: fmt.Sprintf("size %d is not page aligned (truncated write?)", st.Size())}
		return nil, errors.Join(corrupt, f.Close())
	}
	pg := &Pager{
		f:        f,
		path:     path,
		numPages: uint32(st.Size() / PageSize),
		capacity: capacity,
		cache:    make(map[PageID]*Page),
	}
	pg.loaded.L = &pg.mu
	return pg, nil
}

// NumPages returns the current number of pages in the file.
func (pg *Pager) NumPages() uint32 {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	return pg.numPages
}

// Path returns the backing file path.
func (pg *Pager) Path() string { return pg.path }

// Stats reports I/O counters: physical reads/writes and cache
// hits/misses since open.
func (pg *Pager) Stats() (reads, writes, hits, misses uint64) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	return pg.reads, pg.writes, pg.hits, pg.misses
}

// castagnoli is the CRC32-C polynomial table (hardware accelerated on
// amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// pageCRC covers the payload, the page number and the pageLSN, so a
// structurally valid page written to the wrong offset (a misdirected
// write) or carrying a forged LSN still fails verification. data must
// be a full page; the pageLSN bytes at [UsableSize:UsableSize+8) are
// included, so they must be stamped first.
func pageCRC(id PageID, data []byte) uint32 {
	crc := crc32.Update(0, castagnoli, data[:UsableSize])
	// The page number's four little-endian bytes go through the table by
	// hand, as crc32.Update would: a buffer handed to Update escapes, and
	// would cost an allocation per page read.
	crc = ^crc
	for i := 0; i < 4; i++ {
		crc = castagnoli[byte(crc)^byte(uint32(id)>>(8*i))] ^ crc>>8
	}
	return crc32.Update(^crc, castagnoli, data[UsableSize:UsableSize+8])
}

// stampTrailer writes the integrity trailer prior to write-back.
func stampTrailer(p *Page) {
	StampPageImage(p.ID, p.Data[:], p.lsn)
}

// verifyPage checks the trailer of a page freshly read from disk and
// returns its pageLSN.
func (pg *Pager) verifyPage(p *Page) (uint64, error) {
	stored := binary.LittleEndian.Uint32(p.Data[UsableSize+8:])
	version := binary.LittleEndian.Uint16(p.Data[UsableSize+12:])
	if lsn, ok := PageImageLSN(p.ID, p.Data[:]); ok {
		return lsn, nil
	}
	zero := true
	for _, b := range p.Data {
		if b != 0 {
			zero = false
			break
		}
	}
	switch {
	case zero:
		return 0, &CorruptPageError{Path: pg.path, Page: p.ID,
			Reason: "page is all zeros (torn or never-completed write)"}
	case version != FormatVersion:
		return 0, &CorruptPageError{Path: pg.path, Page: p.ID,
			Reason: fmt.Sprintf("format version %d (this build reads version %d)", version, FormatVersion)}
	default:
		return 0, &CorruptPageError{Path: pg.path, Page: p.ID,
			Reason: fmt.Sprintf("checksum mismatch (stored %08x, computed %08x)", stored, pageCRC(p.ID, p.Data[:]))}
	}
}

// Get returns page id pinned. The caller must Unpin it. Pages read
// from disk are checksum-verified; damage returns a CorruptPageError.
//
// A miss installs the page's frame pinned and marked loading, then reads
// and verifies it with the latch released and publishes the outcome. A
// Get of the same page meanwhile pins the frame and waits for the load;
// a failed load removes the frame, and every waiter returns the same
// error, holding no pin.
func (pg *Pager) Get(id PageID) (*Page, error) {
	pg.mu.Lock()
	p, miss, err := pg.getLocked(id)
	pg.mu.Unlock()
	if !miss {
		return p, err
	}
	lsn, read, err := pg.load(p)
	pg.mu.Lock()
	pg.publishLocked(p, lsn, read, err)
	pg.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return p, nil
}

// getLocked pins id's cached frame, once its load (if any) is published,
// or installs a fresh loading frame for it and reports a miss.
func (pg *Pager) getLocked(id PageID) (p *Page, miss bool, err error) {
	if pg.closed {
		return nil, false, fmt.Errorf("store: get page %d of %s: %w", id, pg.path, os.ErrClosed)
	}
	if uint32(id) >= pg.numPages {
		return nil, false, fmt.Errorf("store: page %d out of range (file has %d)", id, pg.numPages)
	}
	if p, ok := pg.cache[id]; ok {
		pg.hits++
		if err := pg.pinLocked(p); err != nil {
			return nil, false, err
		}
		return p, false, nil
	}
	if p, err = pg.fault(id); err != nil {
		return nil, false, err
	}
	p.loading = true
	pg.loads++
	return p, true, nil
}

// pinLocked pins cached frame p and waits until its load is published
// (the wait releases the latch). A failed load has removed the frame
// from the cache, and the pin with it; its error is returned.
func (pg *Pager) pinLocked(p *Page) error {
	if p.pins == 0 {
		pg.lruRemove(p)
	}
	p.pins++
	for p.loading {
		pg.loaded.Wait()
	}
	return p.loadErr
}

// load reads and verifies loading frame p, whose Data is its own until
// published; read reports whether the read itself succeeded.
func (pg *Pager) load(p *Page) (lsn uint64, read bool, err error) {
	if _, err := pg.f.ReadAt(p.Data[:], int64(p.ID)*PageSize); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, false, &CorruptPageError{Path: pg.path, Page: p.ID, Reason: "page lies beyond end of file (truncated)"}
		}
		return 0, false, fmt.Errorf("store: read page %d of %s: %w", p.ID, pg.path, err)
	}
	lsn, err = pg.verifyPage(p)
	return lsn, true, err
}

// publishLocked ends p's load and wakes its waiters: on success the
// frame holds the page, on failure it leaves the cache. The miss and its
// read are counted here together, under one latch hold, so a Stats
// snapshot taken while another goroutine's read is in flight never sees
// one without the other; a read that failed counts a miss and no read.
func (pg *Pager) publishLocked(p *Page, lsn uint64, read bool, err error) {
	pg.misses++
	if read {
		pg.reads++
	}
	p.loading = false
	pg.loads--
	if err != nil {
		p.loadErr = err
		delete(pg.cache, p.ID)
	} else {
		p.lsn = lsn
	}
	pg.loaded.Broadcast()
}

// drainLoadsLocked waits until no read is in flight, so the file may
// close under none.
func (pg *Pager) drainLoadsLocked() {
	for pg.loads > 0 {
		pg.loaded.Wait()
	}
}

// Allocate appends a zeroed page to the file and returns it pinned and
// dirty.
func (pg *Pager) Allocate() (*Page, error) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if pg.closed {
		return nil, fmt.Errorf("store: allocate in %s: %w", pg.path, os.ErrClosed)
	}
	id := PageID(pg.numPages)
	if id == InvalidPage {
		return nil, errors.New("store: file full")
	}
	pg.numPages++
	p, err := pg.fault(id)
	if err != nil {
		pg.numPages--
		return nil, err
	}
	clear(p.Data[:])
	p.dirty = true
	if pg.capturing {
		pg.captured[id] = struct{}{}
	}
	return p, nil
}

// fault makes room and installs a pinned cache entry for id, clean and
// unlogged. When the pool is full the entry is the frame of the page it
// evicted, recycled rather than allocated, so Data holds that page's
// bytes: Get reads over all of them, Allocate and ApplyImage clear them.
func (pg *Pager) fault(id PageID) (*Page, error) {
	var p *Page
	for len(pg.cache) >= pg.capacity {
		// Walk from the LRU tail past pages the WAL policy pins in
		// memory: no-steal means a page dirtied by a live transaction
		// (or sitting in an open capture window, its log record not yet
		// written) must not reach disk.
		victim := pg.lruTail
		for victim != nil && !pg.evictable(victim) {
			victim = victim.prev
		}
		if victim == nil {
			return nil, fmt.Errorf("store: %s: %w (%d pages cached, all pinned or unflushable)", pg.path, ErrPoolExhausted, len(pg.cache))
		}
		if err := pg.evict(victim); err != nil {
			return nil, err
		}
		p = victim
	}
	if p == nil {
		p = &Page{pg: pg}
	}
	// Every field but Data, reset one by one: assigning a fresh Page
	// would clear the 4 KB a read is about to overwrite.
	p.ID, p.pins, p.dirty, p.lsn, p.recLSN = id, 1, false, 0, 0
	p.loading, p.loadErr = false, nil
	pg.cache[id] = p
	return p, nil
}

// evictable reports whether write-back of p is permitted by the
// no-steal policy (pg.mu held).
func (pg *Pager) evictable(p *Page) bool {
	if !p.dirty {
		return true
	}
	if pg.capturing {
		if _, held := pg.captured[p.ID]; held {
			return false
		}
	}
	if pg.wal != nil && p.lsn != 0 && !pg.wal.Committed(p.lsn) {
		return false
	}
	return true
}

// Unpin releases one pin. Unpinned pages become evictable.
func (pg *Pager) Unpin(p *Page) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if p.pins <= 0 {
		// An unbalanced Unpin is a caller bug (the pinbalance analyzer
		// guards the callers), never data-dependent; failing loudly here
		// is the same contract as sync.Mutex.Unlock of an unlocked mutex.
		//lint:ignore nopanic pin-protocol violation is a programming error, not a runtime condition
		panic("store: unpin of unpinned page")
	}
	p.pins--
	if p.pins == 0 {
		pg.lruPush(p)
	}
}

func (pg *Pager) evict(p *Page) error {
	if err := pg.writeBack(p); err != nil {
		return err
	}
	pg.lruRemove(p)
	delete(pg.cache, p.ID)
	return nil
}

// writeBack writes dirty page p to disk (pg.mu held). A frame still
// loading is clean by construction, so its bytes — the reader's until
// published — are never touched here.
func (pg *Pager) writeBack(p *Page) error {
	if !p.dirty {
		return nil
	}
	// WAL rule: the log record covering this image must be durable
	// before the image may overwrite the page on disk.
	if pg.wal != nil && p.lsn != 0 {
		if err := pg.wal.EnsureDurable(p.lsn); err != nil {
			return fmt.Errorf("store: wal sync before page %d of %s: %w", p.ID, pg.path, err)
		}
	}
	stampTrailer(p)
	if _, err := pg.f.WriteAt(p.Data[:], int64(p.ID)*PageSize); err != nil {
		return fmt.Errorf("store: write page %d of %s: %w", p.ID, pg.path, err)
	}
	pg.writes++
	p.dirty = false
	p.recLSN = 0
	return nil
}

// Flush writes every dirty cached page to disk and syncs the file.
// Callers must ensure no writer is concurrently modifying page
// payloads (the server drains in-flight queries before flushing).
// Pages belonging to a live transaction are skipped (no-steal); they
// stay dirty in the cache until the transaction finishes.
func (pg *Pager) Flush() error {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if pg.closed {
		return fmt.Errorf("store: flush %s: %w", pg.path, os.ErrClosed)
	}
	for _, p := range pg.cache {
		if !pg.evictable(p) {
			continue
		}
		if err := pg.writeBack(p); err != nil {
			return err
		}
	}
	return pg.f.Sync()
}

// FlushCommitted is the fuzzy-checkpoint flush: it writes back every
// dirty page the no-steal policy allows (committed changes only) and
// returns without syncing — the checkpoint fsyncs via SyncFile after
// taking its floor snapshot. Unlike Flush it is safe alongside
// concurrent readers (write-back touches only the trailer bytes and
// pager bookkeeping); writers are excluded by the database-level lock
// the checkpoint holds shared.
func (pg *Pager) FlushCommitted() error {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if pg.closed {
		return fmt.Errorf("store: checkpoint flush %s: %w", pg.path, os.ErrClosed)
	}
	for _, p := range pg.cache {
		if !pg.evictable(p) {
			continue
		}
		if err := pg.writeBack(p); err != nil {
			return err
		}
	}
	return nil
}

// SyncFile fsyncs the backing file — the durability half of a
// FlushCommitted round.
func (pg *Pager) SyncFile() error {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if pg.closed {
		return fmt.Errorf("store: checkpoint sync %s: %w", pg.path, os.ErrClosed)
	}
	return pg.f.Sync()
}

// MinRecLSN returns the smallest recovery LSN over the dirty pages
// still in cache, and ok=false when no page is dirty. A dirty page
// that was never logged reports recLSN 1 — it forces the caller's
// floor to 0, the maximally conservative answer, rather than letting
// an unlogged change hide above the floor.
func (pg *Pager) MinRecLSN() (min uint64, ok bool) {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	for _, p := range pg.cache {
		if !p.dirty {
			continue
		}
		rec := p.recLSN
		if rec == 0 {
			rec = 1
		}
		if !ok || rec < min {
			min, ok = rec, true
		}
	}
	return min, ok
}

// Close writes back every remaining dirty page, syncs, and closes the
// file, returning the first error encountered while still attempting
// the rest. It is safe to call more than once; later calls are no-ops.
// Pages must not be used afterwards. Pages belonging to a transaction
// that is still live (no-steal) are dropped, not written: uncommitted
// data must never reach disk, and the WAL holds nothing to redo it
// with — exactly the crash semantics an unfinished transaction gets.
// Reads in flight finish before the file closes.
func (pg *Pager) Close() error {
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if pg.closed {
		return nil
	}
	pg.closed = true
	pg.drainLoadsLocked()
	var first error
	for _, p := range pg.cache {
		if !pg.evictable(p) {
			continue
		}
		if err := pg.writeBack(p); err != nil && first == nil {
			first = err
		}
	}
	if err := pg.f.Sync(); err != nil && first == nil {
		first = err
	}
	if err := pg.f.Close(); err != nil && first == nil {
		first = err
	}
	pg.cache = make(map[PageID]*Page)
	pg.lruHead, pg.lruTail = nil, nil
	return first
}

// lruPush inserts p at the head (most recently used).
func (pg *Pager) lruPush(p *Page) {
	p.prev = nil
	p.next = pg.lruHead
	if pg.lruHead != nil {
		pg.lruHead.prev = p
	}
	pg.lruHead = p
	if pg.lruTail == nil {
		pg.lruTail = p
	}
}

func (pg *Pager) lruRemove(p *Page) {
	if p.prev != nil {
		p.prev.next = p.next
	} else if pg.lruHead == p {
		pg.lruHead = p.next
	}
	if p.next != nil {
		p.next.prev = p.prev
	} else if pg.lruTail == p {
		pg.lruTail = p.prev
	}
	p.prev, p.next = nil, nil
}
