package store

import (
	"encoding/binary"
	"fmt"
	"os"
)

// This file is the replication apply seam: a read replica receives
// full page after-images from the primary's WAL stream and installs
// them THROUGH the buffer pool, not around it, so cached pages, the
// structures' cached metadata, and the checkpoint machinery (dirty
// flags, recLSNs) all stay coherent while read sessions run against
// the same cache. Restart replay, by contrast, goes around the pool
// with raw file I/O (internal/wal.Applier) — no cache exists yet.

// ApplyImage installs a full usable-size payload image for page id,
// stamped with the given log LSN, replacing whatever the cache or disk
// holds. The page is left dirty with its recLSN set, exactly as if a
// local mutation had been logged at lsn: the fuzzy-checkpoint floor
// and the WAL rule on write-back then work unchanged on a replica.
// Pages beyond the current end of file extend it (replicated
// allocations). No disk read is performed — the image is total.
//
// Callers must hold the owning structure's latch exclusively; the
// pager latch alone does not keep readers of the same structure from
// seeing a half-applied multi-page change.
func (pg *Pager) ApplyImage(id PageID, payload []byte, lsn uint64) error {
	if len(payload) != UsableSize {
		return fmt.Errorf("store: apply image of %d bytes to page %d of %s (want %d)",
			len(payload), id, pg.path, UsableSize)
	}
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if pg.closed {
		return fmt.Errorf("store: apply image to page %d of %s: %w", id, pg.path, os.ErrClosed)
	}
	var p *Page
	for p == nil {
		cached, ok := pg.cache[id]
		if !ok {
			var err error
			if p, err = pg.fault(id); err != nil {
				return err
			}
			clear(p.Data[:])
		} else if pg.pinLocked(cached) == nil {
			p = cached
		}
		// A load that failed while we waited left the cache; look again,
		// since another Get may have begun one since.
	}
	if uint32(id) >= pg.numPages {
		pg.numPages = uint32(id) + 1
	}
	copy(p.Data[:UsableSize], payload)
	p.lsn = lsn
	if p.recLSN == 0 {
		p.recLSN = lsn
	}
	p.dirty = true
	p.pins--
	if p.pins == 0 {
		pg.lruPush(p)
	}
	return nil
}

// ApplyImage installs one replicated page image under the heap's
// exclusive latch. An image of the meta page refreshes the heap's
// cached allocation state (last data page, live record count) so
// subsequent reads see the replicated values.
func (h *HeapFile) ApplyImage(id PageID, payload []byte, lsn uint64) error {
	h.latch.Lock()
	defer h.latch.Unlock()
	if h.closed {
		return fmt.Errorf("store: apply image to closed heap %s", h.pg.path)
	}
	if err := h.pg.ApplyImage(id, payload, lsn); err != nil {
		return err
	}
	if id == 0 {
		if binary.LittleEndian.Uint32(payload[0:]) != heapMagic {
			return &CorruptPageError{Path: h.pg.path, Page: 0,
				Reason: "replicated meta image is not a heap meta page"}
		}
		h.lastPage = PageID(binary.LittleEndian.Uint32(payload[4:]))
		h.count = binary.LittleEndian.Uint64(payload[8:])
	}
	return nil
}

// ApplyImage installs one replicated page image under the tree's
// exclusive latch. An image of the meta page refreshes the tree's
// cached root pointer and entry count.
func (t *BTree) ApplyImage(id PageID, payload []byte, lsn uint64) error {
	t.latch.Lock()
	defer t.latch.Unlock()
	if t.closed {
		return fmt.Errorf("store: apply image to closed btree %s", t.pg.path)
	}
	if err := t.pg.ApplyImage(id, payload, lsn); err != nil {
		return err
	}
	if id == 0 {
		if binary.LittleEndian.Uint32(payload[0:]) != btreeMagic {
			return &CorruptPageError{Path: t.pg.path, Page: 0,
				Reason: "replicated meta image is not a btree meta page"}
		}
		t.root = PageID(binary.LittleEndian.Uint32(payload[4:]))
		t.count = binary.LittleEndian.Uint64(payload[8:])
	}
	return nil
}
