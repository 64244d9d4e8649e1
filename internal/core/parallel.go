package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"lexequal/internal/editdist"
	"lexequal/internal/phoneme"
)

// ExecOption tunes how a strategy executes (it never changes what the
// strategy returns).
type ExecOption func(*execOpts)

type execOpts struct {
	workers int
	kernel  Kernel
}

// Parallel runs the strategy's candidate loop on a morsel-driven worker
// pool of the given size. workers <= 0 selects GOMAXPROCS; 1 (the
// default) is the serial path. Results and Stats are byte-identical to
// the serial execution at any worker count: morsels are merged in index
// order and all counters are order-independent sums.
func Parallel(workers int) ExecOption {
	return func(o *execOpts) { o.workers = workers }
}

// WithKernel selects the verification kernel (Auto by default). Like
// Parallel, it never changes what a strategy returns: the bit-parallel
// kernel's decisions are exact, and after Stats.Canon (which masks the
// kernel-dependent work counters) Stats too are identical across
// kernels.
func WithKernel(k Kernel) ExecOption {
	return func(o *execOpts) { o.kernel = k }
}

func resolveOpts(opts []ExecOption) execOpts {
	o := execOpts{workers: 1, kernel: KernelAuto}
	for _, f := range opts {
		f(&o)
	}
	o.workers = ResolveWorkers(o.workers)
	return o
}

// ResolveWorkers is the pool width a configured parallelism runs at:
// workers <= 0 selects GOMAXPROCS. Every plan resolves its width here,
// and EXPLAIN prints the same value.
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// MorselSize is the number of candidate rows a worker claims at a time.
// Large enough that the atomic claim is noise, small enough that a
// skewed morsel (one row with a huge candidate fan-out) cannot leave
// the pool idle for long.
const MorselSize = 256

// Lane is the per-worker state of a morsel scan: a private DP scratch
// and a private Stats accumulator, merged once when the pool drains.
// Exported so other execution layers (the db verification stage) can
// reuse the scheduler.
type Lane struct {
	Scratch *editdist.Scratch
	Stats   Stats

	// batch is the lane-private batch of a storage-fed scan, refilled for
	// each morsel the lane claims: Verify's shared scalar columns plus
	// this lane's own phoneme column, or — for VerifyFetched — columns of
	// the lane's own for the morsel's rows. proj is the builder's
	// projection scratch; matches is VerifyFetched's result buffer.
	batch   Batch
	proj    phoneme.String
	matches []int
}

func (ln *Lane) harvest() Stats {
	ln.Stats.DPCells += ln.Scratch.TakeCells()
	return ln.Stats
}

// RunMorsels partitions [0, n) into fixed-size morsels consumed by a
// pool of workers and returns the per-morsel outputs in morsel order
// plus the merged Stats. process must treat (lo, hi) as its exclusive
// slice of the candidate range and must only touch shared state
// read-only; per-worker mutable state lives in the lane. With one
// worker everything runs inline on the calling goroutine, so the serial
// strategies are literally the parallel ones at width 1.
func RunMorsels[T any](n, workers int, process func(ln *Lane, lo, hi int) []T) ([][]T, Stats) {
	out, st, _ := runMorsels((n+MorselSize-1)/MorselSize, workers, func(ln *Lane, m int) ([]T, error) {
		lo, hi := morselBounds(m, n)
		return process(ln, lo, hi), nil
	})
	return out, st
}

// runMorsels is the scheduler under RunMorsels: workers claim morsel
// indexes 0..count-1 in ascending order from an atomic counter and store
// each morsel's output in its slot. process may fail; the error returned
// is that of the lowest failing morsel — the one a serial run meets
// first — so it is the same at any width, and once a failure is known no
// morsel after it is started.
func runMorsels[T any](count, workers int, process func(ln *Lane, m int) ([]T, error)) ([][]T, Stats, error) {
	out := make([][]T, count)
	if workers > count {
		workers = count
	}
	if workers <= 1 {
		ln := Lane{Scratch: editdist.NewScratch()}
		for m := 0; m < count; m++ {
			var err error
			if out[m], err = process(&ln, m); err != nil {
				return nil, Stats{}, err
			}
		}
		return out, ln.harvest(), nil
	}
	var next atomic.Int64
	// stop is the lowest failing morsel so far (count: none); the claim
	// loop reads it lock-free, and mu orders its updates with first, that
	// morsel's error.
	var (
		mu    sync.Mutex
		first error
		stop  atomic.Int64
	)
	stop.Store(int64(count))
	lanes := make([]Lane, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(ln *Lane) {
			defer wg.Done()
			ln.Scratch = editdist.NewScratch()
			for {
				m := int(next.Add(1)) - 1
				if m >= count || int64(m) > stop.Load() {
					return
				}
				var err error
				if out[m], err = process(ln, m); err != nil {
					mu.Lock()
					if int64(m) < stop.Load() {
						first = err
						stop.Store(int64(m))
					}
					mu.Unlock()
				}
			}
		}(&lanes[w])
	}
	wg.Wait()
	if first != nil {
		return nil, Stats{}, first
	}
	var st Stats
	for i := range lanes {
		st.Add(lanes[i].harvest())
	}
	return out, st, nil
}

func morselBounds(m, n int) (lo, hi int) {
	lo = m * MorselSize
	hi = lo + MorselSize
	if hi > n {
		hi = n
	}
	return lo, hi
}

// MergeChunks concatenates per-morsel outputs in morsel order, so the
// merged slice is independent of which worker ran which morsel.
func MergeChunks[T any](chunks [][]T) []T {
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	if total == 0 {
		return nil // match the serial strategies' nil empty result
	}
	out := make([]T, 0, total)
	for _, c := range chunks {
		out = append(out, c...)
	}
	return out
}
