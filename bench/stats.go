package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the figure is one or two outliers, not a percentile.
const tailBeyond = 10

// enoughFor refuses a p-quantile of n samples when fewer than tailBeyond
// of them would lie beyond it: p95 needs 200 samples, p90 needs 100.
func enoughFor(p float64, n int) error {
	if need := int(float64(tailBeyond)/(1-p) + 0.5); n < need {
		return fmt.Errorf("p%g needs %d samples, have %d", p*100, need, n)
	}
	return nil
}

// nearestRank returns the p-quantile of an ascending sample.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[int(p*float64(len(sorted))+0.9999999)-1]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// sample is one completed operation: when it completed, in seconds
// since its phase began, how long it took in ms, and whether the answer
// was right.
type sample struct {
	at, lat float64
	ok      bool
}

// summary is one operation class over one phase.
type summary struct {
	samples        int
	rate, p50, p95 float64 // correct operations per second; ms
}

// summarize cuts a phase's operations, in order of completion, into
// slices of equal count and reports the median over slices of each
// slice's rate of correct operations, median latency and
// 95th-percentile latency. The machine stalls for a few hundred
// milliseconds now and then; whole-run figures then move by more than
// any bound, while a stall that spoils a minority of the slices leaves
// these medians where they were. A stall the program itself causes on a
// period shorter than a slice (a checkpoint every second against slices
// of about 2 s) is in every slice and so stays in. The
// ten-samples-beyond rule is held on the pooled sample.
func summarize(samples []sample, slices int) (summary, error) {
	if err := enoughFor(0.95, len(samples)); err != nil {
		return summary{}, err
	}
	byEnd := append([]sample(nil), samples...)
	sort.Slice(byEnd, func(i, j int) bool { return byEnd[i].at < byEnd[j].at })
	var rate, p50, p95 []float64
	from := 0.0 // the previous slice's last completion; the phase's start for the first
	for k := 0; k < slices; k++ {
		slice := byEnd[k*len(byEnd)/slices : (k+1)*len(byEnd)/slices]
		lats := make([]float64, len(slice))
		correct := 0
		for i, s := range slice {
			lats[i] = s.lat
			if s.ok {
				correct++
			}
		}
		sort.Float64s(lats)
		to := slice[len(slice)-1].at
		rate = append(rate, float64(correct)/(to-from))
		p50 = append(p50, median(lats))
		p95 = append(p95, nearestRank(lats, 0.95))
		from = to
	}
	return summary{len(samples), median(rate), median(p50), median(p95)}, nil
}

// every calls fn at once and then every d on a goroutine of its own,
// until the returned stop is called; stop returns once fn has run for
// the last time.
func every(d time.Duration, fn func()) (stop func()) {
	quit := make(chan struct{})
	var done sync.WaitGroup
	done.Add(1)
	go func() {
		defer done.Done()
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			fn()
			select {
			case <-quit:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(quit)
		done.Wait()
	}
}

// readRSSMiB reads the resident set size from /proc/self/statm (0 where
// there is no procfs).
func readRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}
