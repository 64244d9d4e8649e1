package store

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// gateFS opens files whose reads the test can hold in flight or spoil:
// before runs ahead of every read and may block or fail it, after may
// rewrite what a read returned.
type gateFS struct {
	OSFS
	mu     sync.Mutex
	reads  map[int64]int // ReadAt calls by offset
	before func(off int64) error
	after  func(p []byte, off int64)
}

func (fs *gateFS) arm(before func(off int64) error, after func(p []byte, off int64)) {
	fs.mu.Lock()
	fs.before, fs.after = before, after
	fs.mu.Unlock()
}

func (fs *gateFS) readsAt(off int64) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.reads[off]
}

func (fs *gateFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	f, err := fs.OSFS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &gateFile{File: f, fs: fs}, nil
}

type gateFile struct {
	File
	fs *gateFS
}

func (f *gateFile) ReadAt(p []byte, off int64) (int, error) {
	fs := f.fs
	fs.mu.Lock()
	if fs.reads == nil {
		fs.reads = map[int64]int{}
	}
	fs.reads[off]++
	before, after := fs.before, fs.after
	fs.mu.Unlock()
	if before != nil {
		if err := before(off); err != nil {
			return 0, err
		}
	}
	n, err := f.File.ReadAt(p, off)
	if err == nil && after != nil {
		after(p, off)
	}
	return n, err
}

// pagedFile writes a pager file of n pages, page i filled with byte i+1.
func pagedFile(t testing.TB, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "load.db")
	pg, err := OpenPager(path, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		p, err := pg.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		for j := range p.Data[:UsableSize] {
			p.Data[j] = byte(i + 1)
		}
		p.MarkDirty()
		pg.Unpin(p)
	}
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// waitFor polls cond until it holds, failing the test after ten seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

// holdReads makes reads of page id block until release is closed,
// signalling entered as each one starts.
func holdReads(id PageID) (before func(int64) error, entered chan struct{}, release chan struct{}) {
	entered, release = make(chan struct{}, 16), make(chan struct{})
	return func(off int64) error {
		if off == int64(id)*PageSize {
			entered <- struct{}{}
			<-release
		}
		return nil
	}, entered, release
}

type getResult struct {
	p   *Page
	err error
}

// getConcurrently starts k Gets of page id, the first held in its read
// until the other k-1 wait on the frame it installed, and returns their
// results once the read is released.
func getConcurrently(t *testing.T, pg *Pager, id PageID, k int, entered, release chan struct{}) []getResult {
	t.Helper()
	out := make(chan getResult, k)
	for i := 0; i < k; i++ {
		go func() {
			p, err := pg.Get(id)
			out <- getResult{p, err}
		}()
	}
	<-entered
	// Every other Get counts a hit before it waits on the loading frame.
	waitFor(t, "the other Gets wait on the load", func() bool {
		_, _, hits, _ := pg.Stats()
		return hits == uint64(k-1)
	})
	close(release)
	res := make([]getResult, k)
	for i := range res {
		res[i] = <-out
	}
	return res
}

// TestPagerConcurrentMissReadsOnce: k Gets of one page that is not cached
// read it once, outside the latch, and all get the same frame with one
// pin each.
func TestPagerConcurrentMissReadsOnce(t *testing.T) {
	const k = 8
	fs := &gateFS{}
	pg, err := OpenPagerFS(pagedFile(t, 4), 4, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	before, entered, release := holdReads(2)
	fs.arm(before, nil)
	res := getConcurrently(t, pg, 2, k, entered, release)
	for _, r := range res {
		if r.err != nil {
			t.Fatal(r.err)
		}
		if r.p != res[0].p {
			t.Fatal("concurrent Gets of one page returned different frames")
		}
	}
	if r := fs.readsAt(2 * PageSize); r != 1 {
		t.Errorf("page read %d times, want once", r)
	}
	reads, _, hits, misses := pg.Stats()
	if reads != 1 || misses != 1 || hits+misses != k {
		t.Errorf("reads %d, hits %d, misses %d after %d Gets of one page", reads, hits, misses, k)
	}
	p := res[0].p
	if p.Data[0] != 3 || p.Data[UsableSize-1] != 3 {
		t.Errorf("page 2 reads back %d…%d, want 3", p.Data[0], p.Data[UsableSize-1])
	}
	pg.mu.Lock()
	pins := p.pins
	pg.mu.Unlock()
	if pins != k {
		t.Fatalf("%d pins on the frame after %d Gets", pins, k)
	}
	for range res {
		pg.Unpin(p)
	}
	pg.mu.Lock()
	defer pg.mu.Unlock()
	if p.pins != 0 || pg.lruHead != p {
		t.Errorf("after every Unpin the frame has %d pins (LRU head: %v)", p.pins, pg.lruHead == p)
	}
}

// TestPagerFailedLoadReachesEveryWaiter: a read that fails, or returns
// a page that fails verification, fails every Get waiting on it with the
// same error, leaves no frame and no pin behind, and the page reads
// normally once the file is sound.
func TestPagerFailedLoadReachesEveryWaiter(t *testing.T) {
	const k = 8
	ioErr := errors.New("injected read error")
	for name, spoil := range map[string]struct {
		fail    bool
		corrupt bool
	}{"failed read": {fail: true}, "corrupt page": {corrupt: true}} {
		t.Run(name, func(t *testing.T) {
			fs := &gateFS{}
			pg, err := OpenPagerFS(pagedFile(t, 4), 4, fs)
			if err != nil {
				t.Fatal(err)
			}
			defer pg.Close()
			hold, entered, release := holdReads(2)
			before := func(off int64) error {
				if err := hold(off); err != nil || !spoil.fail || off != 2*PageSize {
					return err
				}
				return ioErr
			}
			after := func(p []byte, off int64) {
				if spoil.corrupt && off == 2*PageSize {
					p[100] ^= 0x40
				}
			}
			fs.arm(before, after)
			res := getConcurrently(t, pg, 2, k, entered, release)
			for _, r := range res {
				if r.p != nil || r.err != res[0].err {
					t.Fatalf("a waiter got (%v, %v), the first Get %v", r.p, r.err, res[0].err)
				}
			}
			var cpe *CorruptPageError
			if spoil.fail && !errors.Is(res[0].err, ioErr) || spoil.corrupt && (!errors.As(res[0].err, &cpe) || cpe.Page != 2) {
				t.Fatalf("Get of the spoiled page: %v", res[0].err)
			}
			pg.mu.Lock()
			_, cached := pg.cache[2]
			for id, p := range pg.cache {
				if p.pins != 0 {
					t.Errorf("page %d holds %d pins", id, p.pins)
				}
			}
			loads := pg.loads
			pg.mu.Unlock()
			if cached || loads != 0 {
				t.Fatalf("after the failed load: page cached %v, %d loads in flight", cached, loads)
			}
			fs.arm(nil, nil)
			p, err := pg.Get(2)
			if err != nil {
				t.Fatalf("Get once the file is sound: %v", err)
			}
			if p.Data[100] != 3 {
				t.Errorf("page 2 byte 100 = %d, want 3", p.Data[100])
			}
			pg.Unpin(p)
		})
	}
}

// TestPagerReusesEvictedFrame: with the pool full, a fault takes over
// the evicted page's frame; Allocate still hands out an all-zero page
// and ApplyImage installs exactly its image.
func TestPagerReusesEvictedFrame(t *testing.T) {
	path := pagedFile(t, 4)
	pg, err := OpenPager(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	var frames []*Page
	for _, id := range []PageID{1, 2} {
		p, err := pg.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, p)
		pg.Unpin(p)
	}
	p, err := pg.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if p != frames[0] {
		t.Error("Allocate into a full pool did not reuse the evicted frame")
	}
	if p.Data != [PageSize]byte{} {
		t.Error("Allocate on a reused frame returned a page that is not all zero")
	}
	pg.Unpin(p)

	image := make([]byte, UsableSize)
	for i := range image {
		image[i] = byte(i)
	}
	if err := pg.ApplyImage(3, image, 7); err != nil {
		t.Fatal(err)
	}
	q, err := pg.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	if q != frames[1] {
		t.Error("ApplyImage into a full pool did not reuse the evicted frame")
	}
	if string(q.Data[:UsableSize]) != string(image) || [pageTrailerSize]byte(q.Data[UsableSize:]) != [pageTrailerSize]byte{} {
		t.Error("ApplyImage on a reused frame left bytes of the evicted page")
	}
	pg.Unpin(q)
	if err := pg.Close(); err != nil {
		t.Fatal(err)
	}

	pg, err = OpenPager(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	q, err = pg.Get(3)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Unpin(q)
	if string(q.Data[:UsableSize]) != string(image) || q.lsn != 7 {
		t.Errorf("the applied image did not persist (lsn %d)", q.lsn)
	}
}

// TestPagerCloseWaitsForInflightRead: Close does not close the file under
// a read in flight; the Get completes with the page.
func TestPagerCloseWaitsForInflightRead(t *testing.T) {
	fs := &gateFS{}
	pg, err := OpenPagerFS(pagedFile(t, 4), 4, fs)
	if err != nil {
		t.Fatal(err)
	}
	before, entered, release := holdReads(1)
	fs.arm(before, nil)
	got := make(chan getResult, 1)
	go func() {
		p, err := pg.Get(1)
		got <- getResult{p, err}
	}()
	<-entered
	closed := make(chan error, 1)
	go func() { closed <- pg.Close() }()
	waitFor(t, "Close begins", func() bool {
		pg.mu.Lock()
		defer pg.mu.Unlock()
		return pg.closed
	})
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) with a read in flight", err)
	default:
	}
	close(release)
	r := <-got
	if r.err != nil {
		t.Fatalf("the in-flight Get: %v", r.err)
	}
	if r.p.Data[0] != 2 {
		t.Errorf("page 1 reads back %d, want 2", r.p.Data[0])
	}
	pg.Unpin(r.p)
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
}

// TestPagerCountsMissWithItsRead: a miss and its read are one event in
// Stats. While a miss is held mid-read neither is counted; once it
// publishes both have risen by one; a read that fails counts the miss
// and no read. A counter snapshot taken around another goroutine's load
// therefore never sees reads and misses disagree.
func TestPagerCountsMissWithItsRead(t *testing.T) {
	fs := &gateFS{}
	pg, err := OpenPagerFS(pagedFile(t, 4), 4, fs)
	if err != nil {
		t.Fatal(err)
	}
	defer pg.Close()
	counts := func() (reads, misses uint64) {
		reads, _, _, misses = pg.Stats()
		return reads, misses
	}
	r0, m0 := counts()
	if r0 != m0 {
		t.Fatalf("at open: %d reads for %d misses", r0, m0)
	}

	before, entered, release := holdReads(2)
	fs.arm(before, nil)
	got := make(chan getResult, 1)
	go func() {
		p, err := pg.Get(2)
		got <- getResult{p, err}
	}()
	<-entered
	if r, m := counts(); r != r0 || m != m0 {
		t.Errorf("with the miss held mid-read: %d reads, %d misses; want %d and %d", r, m, r0, m0)
	}
	close(release)
	res := <-got
	if res.err != nil {
		t.Fatal(res.err)
	}
	pg.Unpin(res.p)
	if r, m := counts(); r != r0+1 || m != m0+1 {
		t.Errorf("after the read published: %d reads, %d misses; want %d and %d", r, m, r0+1, m0+1)
	}

	ioErr := errors.New("injected read error")
	fs.arm(func(off int64) error {
		if off == 3*PageSize {
			return ioErr
		}
		return nil
	}, nil)
	if _, err := pg.Get(3); !errors.Is(err, ioErr) {
		t.Fatalf("Get with a failing read: %v", err)
	}
	if r, m := counts(); r != r0+1 || m != m0+2 {
		t.Errorf("after a failed read: %d reads, %d misses; want %d and %d", r, m, r0+1, m0+2)
	}
}

// TestPageCRCMatchesReference: pageCRC feeds the page number through the
// Castagnoli table by hand; it must equal crc32 over the payload, the
// page number's little-endian bytes and the pageLSN.
func TestPageCRCMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, PageSize)
	for i := 0; i < 200; i++ {
		rng.Read(data)
		id := PageID(rng.Uint32())
		if i < 2 {
			id = PageID(i) // page 0 and 1
		}
		var idb [4]byte
		binary.LittleEndian.PutUint32(idb[:], uint32(id))
		want := crc32.Update(0, castagnoli, data[:UsableSize])
		want = crc32.Update(want, castagnoli, idb[:])
		want = crc32.Update(want, castagnoli, data[UsableSize:UsableSize+8])
		if got := pageCRC(id, data); got != want {
			t.Fatalf("page %d: pageCRC %08x, crc32 %08x", id, got, want)
		}
	}
}
