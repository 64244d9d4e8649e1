package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// BTree is a persistent B+tree mapping uint64 keys to uint64 values
// (packed RIDs), with duplicate keys allowed. It supports insertion and
// ordered range scans — the operations the phonetic-index experiments
// need; deletion is out of scope for the read-mostly workloads (see
// DESIGN.md non-goals).
//
// Node layout:
//
//	byte 0      node kind (1 = leaf, 2 = internal)
//	[2:4)       entry count n
//	leaf:       [4:8) next-leaf page id; entries at 8+16i = {key u64, val u64}
//	internal:   [4:8) leftmost child;  entries at 8+12i = {key u64, child u32}
//	            child i covers keys >= key i (leftmost covers keys < key 0)
type BTree struct {
	pg *Pager
	// latch is the structure latch: descents (Seek, and the Iterator's
	// per-leaf loads) take it shared, Insert and Close take it
	// exclusively. Root pointer and entry count are guarded by it.
	latch  sync.RWMutex
	root   PageID
	count  uint64
	closed bool
	// logger, when attached (SetLogger), receives the after-image of
	// every page an Insert dirties, inside the exclusive latch.
	logger PageLogger
}

const (
	btreeMagic   = 0x4C455842 // "LEXB"
	nodeLeaf     = 1
	nodeInternal = 2

	leafHdr      = 8
	leafEntry    = 16
	maxLeafKeys  = (UsableSize - leafHdr) / leafEntry // 255
	innerHdr     = 8
	innerEntry   = 12
	maxInnerKeys = (UsableSize - innerHdr) / innerEntry // 340

	// maxDepth bounds root-to-leaf descents: a healthy tree over 2^32
	// pages is far shallower, so exceeding it means a pointer cycle.
	maxDepth = 64
)

// OpenBTree opens (or creates) a B+tree at path.
func OpenBTree(path string, cachePages int) (*BTree, error) {
	return OpenBTreeFS(path, cachePages, nil)
}

// OpenBTreeFS is OpenBTree through an explicit VFS (nil selects OSFS).
func OpenBTreeFS(path string, cachePages int, fs VFS) (*BTree, error) {
	pg, err := OpenPagerFS(path, cachePages, fs)
	if err != nil {
		return nil, err
	}
	t := &BTree{pg: pg}
	if pg.NumPages() == 0 {
		meta, err := pg.Allocate()
		if err != nil {
			return nil, errors.Join(err, pg.Close())
		}
		root, err := pg.Allocate()
		if err != nil {
			pg.Unpin(meta)
			return nil, errors.Join(err, pg.Close())
		}
		initLeaf(root, InvalidPage)
		t.root = root.ID
		binary.LittleEndian.PutUint32(meta.Data[0:], btreeMagic)
		t.writeMeta(meta)
		pg.Unpin(root)
		pg.Unpin(meta)
		return t, nil
	}
	meta, err := pg.Get(0)
	if err != nil {
		return nil, errors.Join(err, pg.Close())
	}
	defer pg.Unpin(meta)
	if binary.LittleEndian.Uint32(meta.Data[0:]) != btreeMagic {
		corrupt := &CorruptFileError{Path: path, Reason: "not a btree file (bad magic)"}
		return nil, errors.Join(corrupt, pg.Close())
	}
	t.root = PageID(binary.LittleEndian.Uint32(meta.Data[4:]))
	t.count = binary.LittleEndian.Uint64(meta.Data[8:])
	return t, nil
}

func (t *BTree) writeMeta(meta *Page) {
	binary.LittleEndian.PutUint32(meta.Data[4:], uint32(t.root))
	binary.LittleEndian.PutUint64(meta.Data[8:], t.count)
	meta.MarkDirty()
}

func (t *BTree) syncMeta() error {
	meta, err := t.pg.Get(0)
	if err != nil {
		return err
	}
	t.writeMeta(meta)
	t.pg.Unpin(meta)
	return nil
}

// SetLogger attaches the WAL page logger: every Insert then emits the
// after-images of the pages it dirtied (leaf, any split chain, and the
// meta page) before its latch is released. Attach before concurrent use.
func (t *BTree) SetLogger(lg PageLogger) {
	t.latch.Lock()
	t.logger = lg
	t.latch.Unlock()
}

// Discard drops the page cache without write-back and closes the file
// (the rollback/recovery path; see Pager.Discard).
func (t *BTree) Discard() error {
	t.latch.Lock()
	defer t.latch.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	return t.pg.Discard()
}

// Count returns the number of stored entries.
func (t *BTree) Count() uint64 {
	t.latch.RLock()
	defer t.latch.RUnlock()
	return t.count
}

// Pager exposes the underlying pager (for I/O statistics).
func (t *BTree) Pager() *Pager { return t.pg }

// Flush writes metadata and every flushable dirty page to disk and
// syncs the file, without closing it (the checkpoint path).
func (t *BTree) Flush() error {
	t.latch.Lock()
	defer t.latch.Unlock()
	if t.closed {
		return nil
	}
	if err := t.syncMeta(); err != nil {
		return err
	}
	return t.pg.Flush()
}

// FlushCommitted writes back the committed dirty pages of the tree
// without syncing, for a fuzzy checkpoint. It takes the latch shared:
// concurrent probes proceed, and the meta page needs no separate sync
// because every logged mutation already rewrites it inside its capture
// window. A closed tree reports success — its Close already flushed.
func (t *BTree) FlushCommitted() error {
	t.latch.RLock()
	defer t.latch.RUnlock()
	if t.closed {
		return nil
	}
	return t.pg.FlushCommitted()
}

// SyncData fsyncs the tree's backing file (the durability half of a
// checkpoint round).
func (t *BTree) SyncData() error {
	t.latch.RLock()
	defer t.latch.RUnlock()
	if t.closed {
		return nil
	}
	return t.pg.SyncFile()
}

// MinRecLSN reports the smallest recovery LSN over the tree's dirty
// pages (ok=false when clean — or closed, which flushed everything).
func (t *BTree) MinRecLSN() (uint64, bool) {
	t.latch.RLock()
	defer t.latch.RUnlock()
	if t.closed {
		return 0, false
	}
	return t.pg.MinRecLSN()
}

// Close flushes metadata and the page cache. It is safe to call more
// than once; the first error wins and later calls are no-ops.
func (t *BTree) Close() error {
	t.latch.Lock()
	defer t.latch.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	err := t.syncMeta()
	if cerr := t.pg.Close(); err == nil {
		err = cerr
	}
	return err
}

// node fetches page id pinned and validates its node header, so corrupt
// bytes yield a CorruptPageError rather than out-of-range reads.
func (t *BTree) node(id PageID) (*Page, error) {
	p, err := t.pg.Get(id)
	if err != nil {
		return nil, err
	}
	var bad string
	switch nodeKind(p) {
	case nodeLeaf:
		if nodeCount(p) > maxLeafKeys {
			bad = fmt.Sprintf("leaf claims %d entries (max %d)", nodeCount(p), maxLeafKeys)
		}
	case nodeInternal:
		if nodeCount(p) > maxInnerKeys {
			bad = fmt.Sprintf("internal node claims %d entries (max %d)", nodeCount(p), maxInnerKeys)
		}
	default:
		bad = fmt.Sprintf("unknown node kind %d", nodeKind(p))
	}
	if bad != "" {
		t.pg.Unpin(p)
		return nil, &CorruptPageError{Path: t.pg.Path(), Page: id, Reason: bad}
	}
	return p, nil
}

func initLeaf(p *Page, next PageID) {
	for i := range p.Data[:leafHdr] {
		p.Data[i] = 0
	}
	p.Data[0] = nodeLeaf
	binary.LittleEndian.PutUint16(p.Data[2:], 0)
	binary.LittleEndian.PutUint32(p.Data[4:], uint32(next))
	p.MarkDirty()
}

func nodeKind(p *Page) byte   { return p.Data[0] }
func nodeCount(p *Page) int   { return int(binary.LittleEndian.Uint16(p.Data[2:])) }
func setCount(p *Page, n int) { binary.LittleEndian.PutUint16(p.Data[2:], uint16(n)) }

func leafNext(p *Page) PageID { return PageID(binary.LittleEndian.Uint32(p.Data[4:])) }
func leafKey(p *Page, i int) uint64 {
	return binary.LittleEndian.Uint64(p.Data[leafHdr+i*leafEntry:])
}
func leafVal(p *Page, i int) uint64 {
	return binary.LittleEndian.Uint64(p.Data[leafHdr+i*leafEntry+8:])
}
func setLeafEntry(p *Page, i int, k, v uint64) {
	binary.LittleEndian.PutUint64(p.Data[leafHdr+i*leafEntry:], k)
	binary.LittleEndian.PutUint64(p.Data[leafHdr+i*leafEntry+8:], v)
}

func innerLeft(p *Page) PageID { return PageID(binary.LittleEndian.Uint32(p.Data[4:])) }
func innerKey(p *Page, i int) uint64 {
	return binary.LittleEndian.Uint64(p.Data[innerHdr+i*innerEntry:])
}
func innerChild(p *Page, i int) PageID {
	return PageID(binary.LittleEndian.Uint32(p.Data[innerHdr+i*innerEntry+8:]))
}
func setInnerEntry(p *Page, i int, k uint64, child PageID) {
	binary.LittleEndian.PutUint64(p.Data[innerHdr+i*innerEntry:], k)
	binary.LittleEndian.PutUint32(p.Data[innerHdr+i*innerEntry+8:], uint32(child))
}

// innerUpperBound returns the first index i with innerKey(i) > key.
func innerUpperBound(p *Page, key uint64) int {
	lo, hi := 0, nodeCount(p)
	for lo < hi {
		mid := (lo + hi) / 2
		if innerKey(p, mid) > key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// innerLowerBound returns the first index i with innerKey(i) >= key.
func innerLowerBound(p *Page, key uint64) int {
	lo, hi := 0, nodeCount(p)
	for lo < hi {
		mid := (lo + hi) / 2
		if innerKey(p, mid) >= key {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// childAt returns child slot i of an inner node: -1 is the leftmost
// child, i ≥ 0 the child to the right of separator i.
func childAt(p *Page, i int) PageID {
	if i < 0 {
		return innerLeft(p)
	}
	return innerChild(p, i)
}

// insertSlot returns the child slot (see childAt) an insert of (key,
// value) descends to: the rightmost child whose first entry is at most
// the pair. A separator is the first key of its child's subtree, and
// the insert path keeps that child's first entry in place, so only the
// children behind separators equal to key need their first value read.
func (t *BTree) insertSlot(p *Page, key, value uint64) (int, error) {
	lo, hi := innerLowerBound(p, key), innerUpperBound(p, key)
	for lo < hi {
		mid := (lo + hi) / 2
		first, err := t.firstValue(innerChild(p, mid))
		if err != nil {
			return 0, err
		}
		if first <= value {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1, nil
}

// firstValue returns the value of the first entry of the subtree at id.
func (t *BTree) firstValue(id PageID) (uint64, error) {
	for depth := 0; depth <= maxDepth; depth++ {
		p, err := t.node(id)
		if err != nil {
			return 0, err
		}
		kind, n := nodeKind(p), nodeCount(p)
		if kind == nodeInternal {
			id = innerLeft(p)
			t.pg.Unpin(p)
			continue
		}
		var v uint64
		if n > 0 {
			v = leafVal(p, 0)
		}
		t.pg.Unpin(p)
		if n == 0 {
			return 0, &CorruptPageError{Path: t.pg.Path(), Page: id, Reason: "empty leaf below a separator"}
		}
		return v, nil
	}
	return 0, &CorruptPageError{Path: t.pg.Path(), Page: id,
		Reason: fmt.Sprintf("descent deeper than %d levels (pointer cycle?)", maxDepth)}
}

// seekChild returns the leftmost child page that can contain the first
// occurrence of key. Entries equal to a separator key may live in the
// subtree to its left when duplicates straddle a split boundary, so a
// search for the first occurrence must descend there and rely on the
// leaf chain to walk right.
func seekChild(p *Page, key uint64) PageID {
	return childAt(p, innerLowerBound(p, key)-1)
}

// leafLowerBound returns the first index i with key(i) >= key (or, when
// withVal, with (key,val)(i) >= (key,val)).
func leafLowerBound(p *Page, key uint64) int {
	n := nodeCount(p)
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if leafKey(p, mid) < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Insert adds (key, value). Duplicate keys (and duplicate pairs) are
// allowed; the tree keeps every entry in (key, value) order, across
// leaves too, whatever order they are inserted in.
func (t *BTree) Insert(key, value uint64) error {
	t.latch.Lock()
	defer t.latch.Unlock()
	return t.insertCaptured(key, value, t.logger)
}

// InsertTx is Insert against an explicit per-call page logger, for
// concurrent transactions that each carry their own WAL identity; nil
// inserts unlogged.
func (t *BTree) InsertTx(key, value uint64, lg PageLogger) error {
	t.latch.Lock()
	defer t.latch.Unlock()
	return t.insertCaptured(key, value, lg)
}

func (t *BTree) insertCaptured(key, value uint64, lg PageLogger) error {
	if lg != nil {
		t.pg.CaptureStart()
	}
	err := t.insertLocked(key, value)
	if err == nil {
		// The meta page (root pointer + count) travels with every
		// logged mutation so recovery replays a consistent tree.
		err = t.syncMeta()
	}
	if lg != nil {
		if err != nil {
			// A mutation that dirtied pages before failing cannot be
			// undone by logged compensation; mark it so the db layer
			// escalates to cache-discard recovery.
			err = taintDirty(err, t.pg.DropCapture())
		} else if lerr := t.pg.LogCaptured(lg); lerr != nil {
			// Partial logging always leaves captured dirt behind.
			err = &dirtyFailError{lerr}
		}
	}
	return err
}

func (t *BTree) insertLocked(key, value uint64) error {
	promo, right, changed, err := t.insertAt(t.root, key, value)
	if err != nil {
		return err
	}
	if changed {
		// Root split: build a new root.
		newRoot, err := t.pg.Allocate()
		if err != nil {
			return err
		}
		for i := range newRoot.Data[:innerHdr] {
			newRoot.Data[i] = 0
		}
		newRoot.Data[0] = nodeInternal
		setCount(newRoot, 1)
		binary.LittleEndian.PutUint32(newRoot.Data[4:], uint32(t.root))
		setInnerEntry(newRoot, 0, promo, right)
		newRoot.MarkDirty()
		t.root = newRoot.ID
		t.pg.Unpin(newRoot)
	}
	t.count++
	return nil
}

// insertAt inserts into the subtree rooted at id. When the node splits
// it returns (promotedKey, newRightPage, true).
func (t *BTree) insertAt(id PageID, key, value uint64) (uint64, PageID, bool, error) {
	return t.insertAtDepth(id, key, value, 0)
}

func (t *BTree) insertAtDepth(id PageID, key, value uint64, depth int) (uint64, PageID, bool, error) {
	if depth > maxDepth {
		return 0, 0, false, &CorruptPageError{Path: t.pg.Path(), Page: id,
			Reason: fmt.Sprintf("descent deeper than %d levels (pointer cycle?)", maxDepth)}
	}
	p, err := t.node(id)
	if err != nil {
		return 0, 0, false, err
	}
	if nodeKind(p) == nodeLeaf {
		defer t.pg.Unpin(p)
		return t.insertLeaf(p, key, value)
	}
	slot, err := t.insertSlot(p, key, value)
	if err != nil {
		t.pg.Unpin(p)
		return 0, 0, false, err
	}
	child := childAt(p, slot)
	t.pg.Unpin(p) // release during recursion; re-fetch if child split
	promo, right, split, err := t.insertAtDepth(child, key, value, depth+1)
	if err != nil || !split {
		return 0, 0, false, err
	}
	p, err = t.node(id)
	if err != nil {
		return 0, 0, false, err
	}
	defer t.pg.Unpin(p)
	return t.insertInner(p, slot+1, promo, right)
}

func (t *BTree) insertLeaf(p *Page, key, value uint64) (uint64, PageID, bool, error) {
	n := nodeCount(p)
	// Position by (key, value) for deterministic duplicate order.
	i := leafLowerBound(p, key)
	for i < n && leafKey(p, i) == key && leafVal(p, i) < value {
		i++
	}
	if n < maxLeafKeys {
		// Shift right and insert.
		copy(p.Data[leafHdr+(i+1)*leafEntry:leafHdr+(n+1)*leafEntry], p.Data[leafHdr+i*leafEntry:leafHdr+n*leafEntry])
		setLeafEntry(p, i, key, value)
		setCount(p, n+1)
		p.MarkDirty()
		return 0, 0, false, nil
	}
	// Split: left keeps half, right takes the rest.
	right, err := t.pg.Allocate()
	if err != nil {
		return 0, 0, false, err
	}
	defer t.pg.Unpin(right)
	initLeaf(right, leafNext(p))
	half := n / 2
	// Build the merged order conceptually: entries [0,n) plus the new
	// one at i. Distribute without materializing: copy uppers first.
	// Simpler and still O(n): materialize into a scratch array.
	type kv struct{ k, v uint64 }
	scratch := make([]kv, 0, n+1)
	for j := 0; j < n; j++ {
		if j == i {
			scratch = append(scratch, kv{key, value})
		}
		scratch = append(scratch, kv{leafKey(p, j), leafVal(p, j)})
	}
	if i == n {
		scratch = append(scratch, kv{key, value})
	}
	left := scratch[:half+1]
	rest := scratch[half+1:]
	for j, e := range left {
		setLeafEntry(p, j, e.k, e.v)
	}
	setCount(p, len(left))
	binary.LittleEndian.PutUint32(p.Data[4:], uint32(right.ID))
	p.MarkDirty()
	for j, e := range rest {
		setLeafEntry(right, j, e.k, e.v)
	}
	setCount(right, len(rest))
	right.MarkDirty()
	return rest[0].k, right.ID, true, nil
}

// insertInner adds, at index i, the separator key and right child that
// a split of child slot i-1 promoted: directly after the child that
// split. Searching by the promoted key instead would, among separators
// equal to it, put the new page to the right of pages the leaf chain
// (and key order) put it before.
func (t *BTree) insertInner(p *Page, i int, key uint64, child PageID) (uint64, PageID, bool, error) {
	n := nodeCount(p)
	if n < maxInnerKeys {
		copy(p.Data[innerHdr+(i+1)*innerEntry:innerHdr+(n+1)*innerEntry], p.Data[innerHdr+i*innerEntry:innerHdr+n*innerEntry])
		setInnerEntry(p, i, key, child)
		setCount(p, n+1)
		p.MarkDirty()
		return 0, 0, false, nil
	}
	// Split internal node.
	type kc struct {
		k uint64
		c PageID
	}
	scratch := make([]kc, 0, n+1)
	for j := 0; j < n; j++ {
		if j == i {
			scratch = append(scratch, kc{key, child})
		}
		scratch = append(scratch, kc{innerKey(p, j), innerChild(p, j)})
	}
	if i == n {
		scratch = append(scratch, kc{key, child})
	}
	mid := len(scratch) / 2
	promo := scratch[mid]
	right, err := t.pg.Allocate()
	if err != nil {
		return 0, 0, false, err
	}
	defer t.pg.Unpin(right)
	for j := range right.Data[:innerHdr] {
		right.Data[j] = 0
	}
	right.Data[0] = nodeInternal
	binary.LittleEndian.PutUint32(right.Data[4:], uint32(promo.c))
	rest := scratch[mid+1:]
	for j, e := range rest {
		setInnerEntry(right, j, e.k, e.c)
	}
	setCount(right, len(rest))
	right.MarkDirty()
	left := scratch[:mid]
	for j, e := range left {
		setInnerEntry(p, j, e.k, e.c)
	}
	setCount(p, len(left))
	p.MarkDirty()
	return promo.k, right.ID, true, nil
}

// Iterator walks entries in (key, value) order from a Seek position.
// It buffers one leaf at a time, so concurrent inserts during iteration
// are not supported.
type Iterator struct {
	t       *BTree
	keys    []uint64
	vals    []uint64
	idx     int
	next    PageID
	walked  uint32 // leaves visited, bounds the chain against cycles
	stopped bool
	err     error
}

// Seek positions an iterator at the first entry with key >= key. The
// descent runs under the tree's read latch; the returned iterator
// re-acquires it per leaf load, so concurrent inserts between Next
// calls are safe (the leaf chain stays intact across splits).
func (t *BTree) Seek(key uint64) *Iterator {
	t.latch.RLock()
	defer t.latch.RUnlock()
	it := &Iterator{t: t}
	id := t.root
	for depth := 0; ; depth++ {
		if depth > maxDepth {
			it.err = &CorruptPageError{Path: t.pg.Path(), Page: id,
				Reason: fmt.Sprintf("descent deeper than %d levels (pointer cycle?)", maxDepth)}
			it.stopped = true
			return it
		}
		p, err := t.node(id)
		if err != nil {
			it.err = err
			it.stopped = true
			return it
		}
		if nodeKind(p) == nodeInternal {
			id = seekChild(p, key)
			t.pg.Unpin(p)
			continue
		}
		i := leafLowerBound(p, key)
		it.loadLeaf(p, i)
		t.pg.Unpin(p)
		return it
	}
}

// loadLeaf buffers entries [from, n) of leaf p. Both columns share one
// allocation of exactly the size the leaf needs (a point lookup lands
// mid-leaf and reads no further), reused while later leaves fit it.
func (it *Iterator) loadLeaf(p *Page, from int) {
	m := nodeCount(p) - from
	if cap(it.keys) < m {
		buf := make([]uint64, 2*m)
		it.keys, it.vals = buf[:m:m], buf[m:]
	}
	it.keys, it.vals = it.keys[:m], it.vals[:m]
	for i := range it.keys {
		it.keys[i] = leafKey(p, from+i)
		it.vals[i] = leafVal(p, from+i)
	}
	it.idx = 0
	it.next = leafNext(p)
}

// Next returns the next entry. ok is false at the end of the tree or on
// error (check Err).
func (it *Iterator) Next() (key, value uint64, ok bool) {
	for {
		if it.stopped {
			return 0, 0, false
		}
		if it.idx < len(it.keys) {
			k, v := it.keys[it.idx], it.vals[it.idx]
			it.idx++
			return k, v, true
		}
		if it.next == InvalidPage {
			it.stopped = true
			return 0, 0, false
		}
		if it.walked++; it.walked > it.t.pg.NumPages() {
			it.err = &CorruptPageError{Path: it.t.pg.Path(), Page: it.next,
				Reason: "leaf chain longer than the file (next-pointer cycle)"}
			it.stopped = true
			return 0, 0, false
		}
		if !it.stepLeaf() {
			return 0, 0, false
		}
	}
}

// stepLeaf loads the next leaf in the chain under the tree read latch.
func (it *Iterator) stepLeaf() bool {
	it.t.latch.RLock()
	defer it.t.latch.RUnlock()
	p, err := it.t.node(it.next)
	if err != nil {
		it.err = err
		it.stopped = true
		return false
	}
	if nodeKind(p) != nodeLeaf {
		it.t.pg.Unpin(p)
		it.err = &CorruptPageError{Path: it.t.pg.Path(), Page: it.next,
			Reason: "leaf chain points at an internal node"}
		it.stopped = true
		return false
	}
	it.loadLeaf(p, 0)
	it.t.pg.Unpin(p)
	return true
}

// Err reports an I/O error encountered during iteration.
func (it *Iterator) Err() error { return it.err }

// Lookup collects every value stored under exactly key.
func (t *BTree) Lookup(key uint64) ([]uint64, error) {
	it := t.Seek(key)
	var out []uint64
	for {
		k, v, ok := it.Next()
		if !ok || k != key {
			break
		}
		out = append(out, v)
	}
	return out, it.Err()
}

// Range invokes fn for each entry with lo <= key <= hi, in order.
func (t *BTree) Range(lo, hi uint64, fn func(key, value uint64) error) error {
	it := t.Seek(lo)
	for {
		k, v, ok := it.Next()
		if !ok || k > hi {
			break
		}
		if err := fn(k, v); err != nil {
			if errors.Is(err, ErrStopScan) {
				return nil
			}
			return err
		}
	}
	return it.Err()
}
