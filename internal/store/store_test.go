package store

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

func tempPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(t.TempDir(), name)
}

func TestPagerAllocateGetPersist(t *testing.T) {
	path := tempPath(t, "p.db")
	pg, err := OpenPager(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := pg.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	copy(p.Data[:], "hello page zero")
	p.MarkDirty()
	pg.Unpin(p)
	if pg.NumPages() != 1 {
		t.Errorf("NumPages = %d", pg.NumPages())
	}
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}
	pg2, err := OpenPager(path, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer pg2.Close()
	q, err := pg2.Get(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(q.Data[:15]) != "hello page zero" {
		t.Errorf("persisted data = %q", q.Data[:15])
	}
	pg2.Unpin(q)
}

func TestPagerOutOfRange(t *testing.T) {
	pg, err := OpenPager(tempPath(t, "p.db"), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	if _, err := pg.Get(0); err == nil {
		t.Error("Get on empty file succeeded")
	}
}

func TestPagerEvictionWritesBack(t *testing.T) {
	pg, err := OpenPager(tempPath(t, "p.db"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	// Write 16 pages through a 4-page cache.
	for i := 0; i < 16; i++ {
		p, err := pg.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		p.Data[0] = byte(i)
		p.MarkDirty()
		pg.Unpin(p)
	}
	for i := 0; i < 16; i++ {
		p, err := pg.Get(PageID(i))
		if err != nil {
			t.Fatal(err)
		}
		if p.Data[0] != byte(i) {
			t.Errorf("page %d data = %d", i, p.Data[0])
		}
		pg.Unpin(p)
	}
	reads, writes, hits, misses := pg.Stats()
	if writes == 0 || reads == 0 {
		t.Errorf("expected physical I/O through small cache: r=%d w=%d h=%d m=%d", reads, writes, hits, misses)
	}
}

func TestPagerPoolExhaustion(t *testing.T) {
	pg, err := OpenPager(tempPath(t, "p.db"), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	a, _ := pg.Allocate()
	b, _ := pg.Allocate()
	if _, err := pg.Allocate(); err == nil {
		t.Error("allocation with all pages pinned succeeded")
	}
	pg.Unpin(a)
	if _, err := pg.Allocate(); err != nil {
		t.Errorf("allocation after unpin failed: %v", err)
	}
	pg.Unpin(b)
}

func TestPagerUnpinPanicsWhenNotPinned(t *testing.T) {
	pg, err := OpenPager(tempPath(t, "p.db"), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	p, _ := pg.Allocate()
	pg.Unpin(p)
	defer func() {
		if recover() == nil {
			t.Error("double unpin did not panic")
		}
	}()
	pg.Unpin(p)
}

func TestHeapInsertGetScan(t *testing.T) {
	h, err := OpenHeap(tempPath(t, "h.db"), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	var rids []RID
	for i := 0; i < 1000; i++ {
		rid, err := h.Insert([]byte(fmt.Sprintf("record-%04d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.Count() != 1000 {
		t.Errorf("Count = %d", h.Count())
	}
	for i, rid := range rids {
		rec, err := h.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if string(rec) != fmt.Sprintf("record-%04d", i) {
			t.Errorf("Get(%v) = %q", rid, rec)
		}
	}
	seen := 0
	err = h.Scan(func(rid RID, rec []byte) error {
		seen++
		return nil
	})
	if err != nil || seen != 1000 {
		t.Errorf("Scan saw %d records, err %v", seen, err)
	}
}

func TestHeapPersistence(t *testing.T) {
	path := tempPath(t, "h.db")
	h, err := OpenHeap(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert([]byte("durable"))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	h2, err := OpenHeap(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if h2.Count() != 1 {
		t.Errorf("reopened count = %d", h2.Count())
	}
	rec, err := h2.Get(rid)
	if err != nil || string(rec) != "durable" {
		t.Errorf("reopened Get = %q, %v", rec, err)
	}
	// Inserts continue after reopen.
	if _, err := h2.Insert([]byte("more")); err != nil {
		t.Fatal(err)
	}
	if h2.Count() != 2 {
		t.Errorf("count after reopen insert = %d", h2.Count())
	}
}

func TestHeapDelete(t *testing.T) {
	h, err := OpenHeap(tempPath(t, "h.db"), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	a, _ := h.Insert([]byte("aaa"))
	b, _ := h.Insert([]byte("bbb"))
	if err := h.Delete(a); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(a); err == nil {
		t.Error("Get of deleted record succeeded")
	}
	if err := h.Delete(a); err == nil {
		t.Error("double delete succeeded")
	}
	if h.Count() != 1 {
		t.Errorf("count after delete = %d", h.Count())
	}
	seen := 0
	h.Scan(func(RID, []byte) error { seen++; return nil })
	if seen != 1 {
		t.Errorf("scan after delete saw %d", seen)
	}
	if rec, err := h.Get(b); err != nil || string(rec) != "bbb" {
		t.Errorf("survivor damaged: %q %v", rec, err)
	}
}

func TestHeapRecordTooLarge(t *testing.T) {
	h, err := OpenHeap(tempPath(t, "h.db"), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.Insert(make([]byte, PageSize)); err == nil {
		t.Error("oversized record accepted")
	}
	// Max-size record fits.
	if _, err := h.Insert(make([]byte, maxHeapRecord)); err != nil {
		t.Errorf("max record rejected: %v", err)
	}
}

func TestHeapScanEarlyStop(t *testing.T) {
	h, err := OpenHeap(tempPath(t, "h.db"), 16)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 10; i++ {
		h.Insert([]byte("x"))
	}
	seen := 0
	err = h.Scan(func(RID, []byte) error {
		seen++
		if seen == 3 {
			return ErrStopScan
		}
		return nil
	})
	if err != nil || seen != 3 {
		t.Errorf("early stop: seen=%d err=%v", seen, err)
	}
}

func TestHeapRejectsWrongMagic(t *testing.T) {
	path := tempPath(t, "b.db")
	bt, err := OpenBTree(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	bt.Close()
	if _, err := OpenHeap(path, 16); err == nil {
		t.Error("heap opened a btree file")
	}
}

func TestRIDPackUnpack(t *testing.T) {
	for _, r := range []RID{{0, 0}, {1, 2}, {123456, 65535}, {0xFFFFFFF0, 7}} {
		if got := UnpackRID(r.Pack()); got != r {
			t.Errorf("pack/unpack %v -> %v", r, got)
		}
	}
}

func TestBTreeInsertLookupSmall(t *testing.T) {
	bt, err := OpenBTree(tempPath(t, "b.db"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	for i := uint64(0); i < 100; i++ {
		if err := bt.Insert(i*10, i); err != nil {
			t.Fatal(err)
		}
	}
	if bt.Count() != 100 {
		t.Errorf("Count = %d", bt.Count())
	}
	vals, err := bt.Lookup(50)
	if err != nil || len(vals) != 1 || vals[0] != 5 {
		t.Errorf("Lookup(50) = %v, %v", vals, err)
	}
	if vals, _ := bt.Lookup(55); len(vals) != 0 {
		t.Errorf("Lookup(miss) = %v", vals)
	}
}

func TestBTreeDuplicateKeys(t *testing.T) {
	bt, err := OpenBTree(tempPath(t, "b.db"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	for v := uint64(0); v < 50; v++ {
		if err := bt.Insert(42, v); err != nil {
			t.Fatal(err)
		}
	}
	bt.Insert(41, 1)
	bt.Insert(43, 1)
	vals, err := bt.Lookup(42)
	if err != nil || len(vals) != 50 {
		t.Fatalf("Lookup dup = %d vals, %v", len(vals), err)
	}
	if !sort.SliceIsSorted(vals, func(i, j int) bool { return vals[i] < vals[j] }) {
		t.Error("duplicate values not in order")
	}
}

func TestBTreeLargeRandomAgainstOracle(t *testing.T) {
	bt, err := OpenBTree(tempPath(t, "b.db"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	rng := rand.New(rand.NewSource(7))
	oracle := map[uint64][]uint64{}
	const n = 20000
	for i := 0; i < n; i++ {
		k := uint64(rng.Intn(2000)) // force many splits and duplicates
		v := uint64(i)
		oracle[k] = append(oracle[k], v)
		if err := bt.Insert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	if bt.Count() != n {
		t.Errorf("Count = %d, want %d", bt.Count(), n)
	}
	for _, k := range []uint64{0, 1, 7, 999, 1999, 2000} {
		want := append([]uint64(nil), oracle[k]...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		got, err := bt.Lookup(k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("Lookup(%d): %d vals, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("Lookup(%d)[%d] = %d, want %d", k, i, got[i], want[i])
			}
		}
	}
	// Full ordered iteration matches the oracle.
	it := bt.Seek(0)
	var prevK, prevV uint64
	first := true
	total := 0
	for {
		k, v, ok := it.Next()
		if !ok {
			break
		}
		if !first && (k < prevK || (k == prevK && v < prevV)) {
			t.Fatalf("iteration out of order: (%d,%d) after (%d,%d)", k, v, prevK, prevV)
		}
		prevK, prevV, first = k, v, false
		total++
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
	if total != n {
		t.Errorf("iterated %d entries, want %d", total, n)
	}
}

func TestBTreePersistence(t *testing.T) {
	path := tempPath(t, "b.db")
	bt, err := OpenBTree(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5000; i++ {
		if err := bt.Insert(i, i*2); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	bt2, err := OpenBTree(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer bt2.Close()
	if bt2.Count() != 5000 {
		t.Errorf("reopened count = %d", bt2.Count())
	}
	vals, err := bt2.Lookup(4321)
	if err != nil || len(vals) != 1 || vals[0] != 8642 {
		t.Errorf("reopened lookup = %v, %v", vals, err)
	}
}

func TestBTreeRange(t *testing.T) {
	bt, err := OpenBTree(tempPath(t, "b.db"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	for i := uint64(0); i < 1000; i++ {
		bt.Insert(i, i)
	}
	var got []uint64
	err = bt.Range(100, 110, func(k, v uint64) error {
		got = append(got, k)
		return nil
	})
	if err != nil || len(got) != 11 || got[0] != 100 || got[10] != 110 {
		t.Errorf("Range = %v, %v", got, err)
	}
	// Early stop.
	count := 0
	bt.Range(0, 999, func(k, v uint64) error {
		count++
		if count == 5 {
			return ErrStopScan
		}
		return nil
	})
	if count != 5 {
		t.Errorf("range early stop count = %d", count)
	}
}

func TestBTreeSeekMidLeaf(t *testing.T) {
	bt, err := OpenBTree(tempPath(t, "b.db"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	for i := uint64(0); i < 100; i += 2 {
		bt.Insert(i, i)
	}
	// Seek to an absent odd key lands on the next even key.
	it := bt.Seek(51)
	k, _, ok := it.Next()
	if !ok || k != 52 {
		t.Errorf("Seek(51) -> %d, %v", k, ok)
	}
}

func TestBTreeRejectsWrongMagic(t *testing.T) {
	path := tempPath(t, "h.db")
	h, err := OpenHeap(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	h.Close()
	if _, err := OpenBTree(path, 16); err == nil {
		t.Error("btree opened a heap file")
	}
}

func TestBTreeDuplicateRunsStraddlingSplits(t *testing.T) {
	// Regression: with hundreds of duplicates per key, runs of equal
	// keys straddle leaf splits; Seek must descend to the LEFT of a
	// separator equal to the key or Lookup silently loses entries.
	bt, err := OpenBTree(tempPath(t, "b.db"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	const keys = 40
	const dups = 300 // > leaf capacity to force straddling
	for v := uint64(0); v < dups; v++ {
		for k := uint64(0); k < keys; k++ {
			if err := bt.Insert(k*7, k*1000+v); err != nil {
				t.Fatal(err)
			}
		}
	}
	for k := uint64(0); k < keys; k++ {
		vals, err := bt.Lookup(k * 7)
		if err != nil {
			t.Fatal(err)
		}
		if len(vals) != dups {
			t.Fatalf("Lookup(%d) returned %d of %d duplicates", k*7, len(vals), dups)
		}
		for i, v := range vals {
			if v != k*1000+uint64(i) {
				t.Fatalf("Lookup(%d)[%d] = %d, want %d", k*7, i, v, k*1000+uint64(i))
			}
		}
	}
}

// TestBTreeSplitBelowARunOfEqualKeys: a leaf that ends in a run of one
// key, while the run goes on in the leaves to its right, splits inside
// the run when smaller keys fill it; the separator it promotes equals
// the ones already there and must land directly after the leaf that
// split, not after them — or the new leaf hangs in the tree to the right
// of leaves the chain puts it before, the next larger key is inserted
// into it, and Lookup stops there, losing the rest of the run.
func TestBTreeSplitBelowARunOfEqualKeys(t *testing.T) {
	bt, err := OpenBTree(tempPath(t, "b.db"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	insert := func(k, v uint64) {
		t.Helper()
		if err := bt.Insert(k, v); err != nil {
			t.Fatal(err)
		}
	}
	const run = 3 * maxLeafKeys
	insert(5, 0)
	for v := uint64(0); v < run; v++ {
		insert(10, v)
	}
	for v := uint64(1); v <= maxLeafKeys; v++ {
		insert(5, v)
	}
	insert(20, 0)
	if issues := bt.Check(); len(issues) != 0 {
		t.Errorf("check: %d issues, first: %s", len(issues), issues[0])
	}
	vals, err := bt.Lookup(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != run {
		t.Fatalf("Lookup(10) returned %d of %d duplicates", len(vals), run)
	}
	for i, v := range vals {
		if v != uint64(i) {
			t.Fatalf("Lookup(10)[%d] = %d", i, v)
		}
	}
}

func TestQuickHeapOracle(t *testing.T) {
	// Randomized insert/delete/get against a map oracle.
	h, err := OpenHeap(tempPath(t, "h.db"), 32)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rng := rand.New(rand.NewSource(11))
	oracle := map[RID]string{}
	var live []RID
	for op := 0; op < 5000; op++ {
		switch {
		case len(live) == 0 || rng.Intn(3) > 0:
			payload := fmt.Sprintf("payload-%d-%d", op, rng.Intn(1000))
			rid, err := h.Insert([]byte(payload))
			if err != nil {
				t.Fatal(err)
			}
			oracle[rid] = payload
			live = append(live, rid)
		case rng.Intn(2) == 0:
			i := rng.Intn(len(live))
			rid := live[i]
			if err := h.Delete(rid); err != nil {
				t.Fatal(err)
			}
			delete(oracle, rid)
			live = append(live[:i], live[i+1:]...)
		default:
			i := rng.Intn(len(live))
			rid := live[i]
			rec, err := h.Get(rid)
			if err != nil || string(rec) != oracle[rid] {
				t.Fatalf("Get(%v) = %q, %v; oracle %q", rid, rec, err, oracle[rid])
			}
		}
	}
	if int(h.Count()) != len(oracle) {
		t.Errorf("Count = %d, oracle has %d", h.Count(), len(oracle))
	}
	seen := map[RID]bool{}
	err = h.Scan(func(rid RID, rec []byte) error {
		want, ok := oracle[rid]
		if !ok {
			return fmt.Errorf("scan surfaced deleted rid %v", rid)
		}
		if string(rec) != want {
			return fmt.Errorf("scan payload mismatch at %v", rid)
		}
		seen[rid] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(oracle) {
		t.Errorf("scan saw %d records, oracle has %d", len(seen), len(oracle))
	}
}

// TestBTreeInsertSmallerValueAfterEqualKeyRun: a pair whose value sorts
// before a run of its key that spans several leaves must land in the
// leaf that holds the run's start, not in the rightmost leaf of the run
// — (key, value) order holds across leaves, whatever the insert order.
func TestBTreeInsertSmallerValueAfterEqualKeyRun(t *testing.T) {
	bt, err := OpenBTree(tempPath(t, "b.db"), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer bt.Close()
	for v := uint64(1000); v < 2000; v++ {
		if err := bt.Insert(7, v); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range []uint64{5, 1500, 2500, 1000} {
		if err := bt.Insert(7, v); err != nil {
			t.Fatal(err)
		}
	}
	if issues := bt.Check(); len(issues) != 0 {
		t.Fatalf("check: %d issues, first: %s", len(issues), issues[0])
	}
	vals, err := bt.Lookup(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 1004 || vals[0] != 5 || vals[1] != 1000 || vals[2] != 1000 || vals[len(vals)-1] != 2500 {
		t.Fatalf("Lookup(7) = %d values, first %v, last %d", len(vals), vals[:3], vals[len(vals)-1])
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] < vals[i-1] {
			t.Fatalf("Lookup(7)[%d] = %d after %d", i, vals[i], vals[i-1])
		}
	}
}

// TestBTreeInOrderLoadUnchanged: an insert sequence already in (key,
// value) order descends exactly as it did when inserts chose the
// rightmost child by key alone, so bulk loads give the same file. The
// digest pins that file for a load of long duplicate runs and of keys
// that arrive out of order with their values ascending (the gram index's
// load order).
func TestBTreeInOrderLoadUnchanged(t *testing.T) {
	path := tempPath(t, "b.db")
	bt, err := OpenBTree(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for v := uint64(0); v < 6000; v++ {
		k := uint64(rng.Intn(40))
		if err := bt.Insert(k*k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := bt.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(data)); got != inOrderLoadDigest {
		t.Errorf("file digest %s, want %s", got, inOrderLoadDigest)
	}
}

const inOrderLoadDigest = "d1370c1efd8ec57185a9d1c8edc67725d1f7186d412c4979a9c6ec6cc5f25e14"
