package store

import (
	"fmt"
	"testing"
)

func BenchmarkHeapInsert(b *testing.B) {
	h, err := OpenHeap(b.TempDir()+"/h.db", 256)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	rec := []byte("a modest record of some tens of bytes, like a name row")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeapScan(b *testing.B) {
	h, err := OpenHeap(b.TempDir()+"/h.db", 256)
	if err != nil {
		b.Fatal(err)
	}
	defer h.Close()
	for i := 0; i < 10000; i++ {
		h.Insert([]byte(fmt.Sprintf("record %d with a realistic payload size", i)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		h.Scan(func(RID, []byte) error { n++; return nil })
		if n != 10000 {
			b.Fatal("scan lost records")
		}
	}
}

func BenchmarkBTreeInsert(b *testing.B) {
	bt, err := OpenBTree(b.TempDir()+"/b.db", 256)
	if err != nil {
		b.Fatal(err)
	}
	defer bt.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bt.Insert(uint64(i*2654435761), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeLookup(b *testing.B) {
	bt, err := OpenBTree(b.TempDir()+"/b.db", 256)
	if err != nil {
		b.Fatal(err)
	}
	defer bt.Close()
	const n = 100000
	for i := 0; i < n; i++ {
		bt.Insert(uint64(i), uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals, err := bt.Lookup(uint64(i % n))
		if err != nil || len(vals) != 1 {
			b.Fatal("lookup failed")
		}
	}
}

// BenchmarkBTreeSeekScan reads one posting list: a Seek and a walk over
// the 1,000 entries of a key, eight half-full leaves, with the iterator.
// The pool holds the whole tree, so no page fault is counted.
func BenchmarkBTreeSeekScan(b *testing.B) {
	bt, err := OpenBTree(b.TempDir()+"/b.db", 2048)
	if err != nil {
		b.Fatal(err)
	}
	defer bt.Close()
	const keys, run = 100, 1000
	for k := 0; k < keys; k++ {
		for v := 0; v < run; v++ {
			bt.Insert(uint64(k), uint64(v))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := uint64(i % keys)
		n := 0
		it := bt.Seek(key)
		for k, _, ok := it.Next(); ok && k == key; k, _, ok = it.Next() {
			n++
		}
		if it.Err() != nil || n != run {
			b.Fatal("scan lost entries")
		}
	}
}

// BenchmarkPagerMiss is the cost of a buffer-pool miss in steady state:
// a cyclic sweep over twice as many pages as the pool holds, so every
// Get evicts the least recently used page and reads its own.
func BenchmarkPagerMiss(b *testing.B) {
	const pool = 64
	pg, err := OpenPager(pagedFile(b, 2*pool), pool)
	if err != nil {
		b.Fatal(err)
	}
	defer pg.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := pg.Get(PageID(i % (2 * pool)))
		if err != nil {
			b.Fatal(err)
		}
		pg.Unpin(p)
	}
	b.StopTimer()
	if _, _, hits, _ := pg.Stats(); hits != 0 {
		b.Fatalf("%d of %d Gets hit the pool", hits, b.N)
	}
}
