package core

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"lexequal/internal/phoneme"
)

// batchRows builds a row set that exercises the batch layout edge
// cases: nil rows, explicit zero-length rows, single-phoneme rows, and
// enough transformed rows that indices straddle a morsel boundary
// (255/256/257).
func batchRows(t *testing.T, op *Operator) []phoneme.String {
	t.Helper()
	var rows []phoneme.String
	rows = append(rows, nil, phoneme.String{}) // 0, 1: zero-length forms
	for _, txt := range bigCatalog() {
		if !op.Registry().Has(txt.Lang) {
			rows = append(rows, nil) // NORESOURCE rows materialize as nil
			continue
		}
		p, err := op.Transform(txt.Value, txt.Lang)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, p)
	}
	if len(rows) <= MorselSize+1 {
		t.Fatalf("row set too small to straddle a morsel boundary: %d", len(rows))
	}
	// Plant zero-length rows exactly at the boundary.
	rows[MorselSize-1] = nil
	rows[MorselSize] = phoneme.String{}
	return rows
}

// TestBatchRoundTrip is the batch materialization property test: every
// candidate read back through the columnar views is byte-identical to
// the row-at-a-time source, including zero-length strings and rows at
// morsel boundaries, for every (kernel, sigQ) column configuration.
func TestBatchRoundTrip(t *testing.T) {
	op := newOp(t)
	rows := batchRows(t, op)
	for _, k := range []Kernel{KernelAuto, KernelScalar, KernelBitvec} {
		for _, sigQ := range []int{0, 2, 3} {
			b := op.BuildBatch(rows, k, sigQ)
			if b.Len() != len(rows) {
				t.Fatalf("k=%v q=%d: Len = %d, want %d", k, sigQ, b.Len(), len(rows))
			}
			for i, want := range rows {
				got := b.View(i)
				if len(want) == 0 {
					if got != nil {
						t.Fatalf("k=%v q=%d row %d: zero-length row viewed as %v", k, sigQ, i, got)
					}
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%v q=%d row %d: view %v != source %v", k, sigQ, i, got, want)
				}
				if b.phon.RowLen(i) != len(want) {
					t.Fatalf("k=%v q=%d row %d: RowLen %d != %d", k, sigQ, i, b.phon.RowLen(i), len(want))
				}
				if sigQ > 0 {
					if wantPr := len(op.encoder.Project(want)); b.ProjLen(i) != wantPr {
						t.Fatalf("k=%v q=%d row %d: ProjLen %d != %d", k, sigQ, i, b.ProjLen(i), wantPr)
					}
				}
			}
			if (sigQ > 0) != (b.gsig != nil) {
				t.Fatalf("k=%v q=%d: prefilter columns present=%v", k, sigQ, b.gsig != nil)
			}
			if k == KernelScalar && b.ksig != nil {
				t.Fatalf("scalar batch built kernel signatures")
			}
		}
	}
}

// TestCorpusBatchMatchesRowAtATime pins the corpus batch to the
// row-at-a-time transforms: Phonemes(i) (a batch view) must equal the
// operator's direct transform for every row, and stay nil for skipped
// rows.
func TestCorpusBatchMatchesRowAtATime(t *testing.T) {
	op := newOp(t)
	c := buildBigCorpus(t, op)
	for i := 0; i < c.Len(); i++ {
		txt := c.Text(i)
		if !op.Registry().Has(txt.Lang) {
			if c.Phonemes(i) != nil {
				t.Fatalf("row %d: NORESOURCE row has phonemes %v", i, c.Phonemes(i))
			}
			continue
		}
		want, err := op.Transform(txt.Value, txt.Lang)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Phonemes(i); !reflect.DeepEqual(got, want) {
			t.Fatalf("row %d (%v): batch view %v != transform %v", i, txt, got, want)
		}
	}
}

// kernelChoices are the settings the determinism contract quantifies
// over.
func kernelChoices() []Kernel { return []Kernel{KernelScalar, KernelAuto, KernelBitvec} }

// KernelInput is one input the kernel×width determinism contract runs
// over: Queries selected from Select at SelectThr, and a self-join of
// Join at JoinThr.
type KernelInput struct {
	Name            string
	Select, Queries []Text
	SelectThr       float64
	Join            []Text
	JoinThr         float64
}

// KernelInputs lists the contract's inputs: bigCatalog here, and the
// generated multiscript rows that generated_test.go appends (package
// core_test, since the dataset package imports core).
var KernelInputs = []func(testing.TB) KernelInput{
	func(testing.TB) KernelInput {
		return KernelInput{
			Name:      "catalog",
			Select:    bigCatalog(),
			Queries:   []Text{en("Nehru"), en("Gandhi"), en("narula"), en("kathy")},
			SelectThr: 0.30,
			Join:      bigCatalog(),
			JoinThr:   0.20,
		}
	},
}

// TestSelectDeterministicAcrossKernels is the PR's core contract:
// results are byte-identical across every (kernel, workers) pair, raw
// Stats are identical across worker counts within a kernel, and the
// kernel-independent Canon view is identical across kernels.
func TestSelectDeterministicAcrossKernels(t *testing.T) {
	op := newOp(t)
	for _, input := range KernelInputs {
		in := input(t)
		t.Run(in.Name, func(t *testing.T) {
			c, err := op.NewCorpus(in.Select)
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range []Strategy{Naive, QGram, Indexed} {
				for _, q := range in.Queries {
					base, baseSt, err := c.Select(q, in.SelectThr, nil, strat, WithKernel(KernelScalar), Parallel(1))
					if err != nil {
						t.Fatal(err)
					}
					for _, k := range kernelChoices() {
						var kernelBase Stats
						for wi, w := range []int{1, 2, 4} {
							got, st, err := c.Select(q, in.SelectThr, nil, strat, WithKernel(k), Parallel(w))
							if err != nil {
								t.Fatal(err)
							}
							if !reflect.DeepEqual(got, base) {
								t.Errorf("%v %v kernel=%v workers=%d: results %v != scalar serial %v", strat, q, k, w, got, base)
							}
							if wi == 0 {
								kernelBase = st
							} else if st != kernelBase {
								t.Errorf("%v %v kernel=%v workers=%d: stats %+v != serial %+v", strat, q, k, w, st, kernelBase)
							}
							if st.Canon() != baseSt.Canon() {
								t.Errorf("%v %v kernel=%v workers=%d: canon stats %+v != scalar %+v", strat, q, k, w, st.Canon(), baseSt.Canon())
							}
						}
					}
				}
			}
		})
	}
}

// TestJoinDeterministicAcrossKernels extends the contract to joins.
func TestJoinDeterministicAcrossKernels(t *testing.T) {
	op := newOp(t)
	for _, input := range KernelInputs {
		in := input(t)
		t.Run(in.Name, func(t *testing.T) {
			c, err := op.NewCorpus(in.Join)
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range []Strategy{Naive, QGram, Indexed} {
				base, baseSt, err := SelfJoin(c, in.JoinThr, false, strat, WithKernel(KernelScalar), Parallel(1))
				if err != nil {
					t.Fatal(err)
				}
				for _, k := range kernelChoices() {
					var kernelBase Stats
					for wi, w := range []int{1, 2, 4} {
						got, st, err := SelfJoin(c, in.JoinThr, false, strat, WithKernel(k), Parallel(w))
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, base) {
							t.Errorf("%v kernel=%v workers=%d: pairs diverge from scalar serial", strat, k, w)
						}
						if wi == 0 {
							kernelBase = st
						} else if st != kernelBase {
							t.Errorf("%v kernel=%v workers=%d: stats %+v != serial %+v", strat, k, w, st, kernelBase)
						}
						if st.Canon() != baseSt.Canon() {
							t.Errorf("%v kernel=%v workers=%d: canon stats %+v != scalar %+v", strat, k, w, st.Canon(), baseSt.Canon())
						}
					}
				}
			}
		})
	}
}

// TestKernelEngagesAndCounts proves the dispatch paths through the new
// counters: the default (dyadic) model engages the bit-parallel kernel
// under Auto, and a non-dyadic model transparently falls back to scalar
// with ScalarFallbacks accounting for every verification.
func TestKernelEngagesAndCounts(t *testing.T) {
	op := newOp(t)
	c := buildBigCorpus(t, op)
	if op.ResolveKernel(KernelAuto) != KernelBitvec {
		t.Fatal("default model did not resolve to the bit-parallel kernel")
	}
	_, st, err := c.Select(en("Nehru"), 0.30, nil, Naive, WithKernel(KernelAuto))
	if err != nil {
		t.Fatal(err)
	}
	if st.BitvecOps == 0 {
		t.Errorf("bit-parallel kernel did no work: %+v", st)
	}
	_, sst, err := c.Select(en("Nehru"), 0.30, nil, Naive, WithKernel(KernelScalar))
	if err != nil {
		t.Fatal(err)
	}
	if sst.BitvecOps != 0 || sst.ScalarFallbacks != 0 {
		t.Errorf("explicit scalar kernel ticked kernel counters: %+v", sst)
	}

	// ICSC 0.3 does not quantize to a dyadic cost domain: the kernel
	// must refuse to compile and every verification must fall back.
	nop := MustNew(Options{ICSC: 0.3})
	if nop.ResolveKernel(KernelBitvec) != KernelScalar {
		t.Fatal("non-dyadic model resolved to the bit-parallel kernel")
	}
	nc, err := nop.NewCorpus(bigCatalog())
	if err != nil {
		t.Fatal(err)
	}
	want, wantSt, err := nc.Select(en("Nehru"), 0.30, nil, Naive, WithKernel(KernelScalar))
	if err != nil {
		t.Fatal(err)
	}
	got, gotSt, err := nc.Select(en("Nehru"), 0.30, nil, Naive, WithKernel(KernelBitvec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("non-dyadic bitvec request diverges from scalar: %v vs %v", got, want)
	}
	if gotSt.BitvecOps != 0 {
		t.Errorf("non-dyadic model did bit-parallel work: %+v", gotSt)
	}
	if gotSt.ScalarFallbacks != gotSt.Candidates || gotSt.ScalarFallbacks == 0 {
		t.Errorf("fallback counter %d != candidates %d", gotSt.ScalarFallbacks, gotSt.Candidates)
	}
	if wantSt.Canon() != gotSt.Canon() {
		t.Errorf("canon stats diverge: %+v vs %+v", wantSt.Canon(), gotSt.Canon())
	}
}

// TestJoinCrossModelFallsBackToScalar pins the cross-operator safety
// gate: a join whose sides use different cost models must not consume
// the right batch's kernel signatures (they were built under the wrong
// model), so the bit-parallel path stays off even when requested.
func TestJoinCrossModelFallsBackToScalar(t *testing.T) {
	left := MustNew(Options{ICSC: 0.25})
	right := MustNew(Options{ICSC: 0.5})
	lc, err := left.NewCorpus(catalog())
	if err != nil {
		t.Fatal(err)
	}
	rc, err := right.NewCorpus(catalog())
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{Naive, QGram, Indexed} {
		want, _, err := Join(lc, rc, 0.30, false, strat, WithKernel(KernelScalar))
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := Join(lc, rc, 0.30, false, strat, WithKernel(KernelBitvec))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v: cross-model join diverges across kernels", strat)
		}
		if st.BitvecOps != 0 {
			t.Errorf("%v: cross-model join did bit-parallel work: %+v", strat, st)
		}
	}
}

// TestVerifyBuildsPerMorselLikeWholeBatch: Verify never materializes the
// candidate batch — each morsel fills a lane-private phoneme column and
// its range of the shared scalar columns — yet for every kernel and pool
// width every candidate must be filtered and verified as if against
// BuildBatch's whole batch: the columns admit sees, the matches and the
// raw Stats all equal the inline whole-batch run's.
func TestVerifyBuildsPerMorselLikeWholeBatch(t *testing.T) {
	op := newOp(t)
	rows := batchRows(t, op)
	qp, err := op.Transform("Nehru", "english")
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range kernelChoices() {
		whole := op.BuildBatch(rows, k, DefaultQ)
		sf := op.NewSigFilter(qp, 0.3, DefaultQ)
		pm := op.NewBatchMatcher(qp, 0.3, k)
		want, wantSt := verify(len(rows), func(*Lane, int, int) *Batch { return whole }, nil, pm, 1, nil, sf.Admit)
		wantSt.BatchesBuilt++
		if len(want) == 0 || wantSt.PrunedSig == 0 {
			t.Fatalf("kernel %v: degenerate reference (%d matches, %+v)", k, len(want), wantSt)
		}
		for _, w := range workerCounts() {
			admit := func(b *Batch, i int, st *Stats) bool {
				if !b.View(i).Equal(whole.View(i)) || b.wk[i] != whole.wk[i] || b.plen[i] != whole.plen[i] ||
					b.gsig[i] != whole.gsig[i] || (whole.ksig != nil && b.ksig[i] != whole.ksig[i]) {
					t.Errorf("kernel %v workers %d: row %d's columns differ from the whole batch's", k, w, i)
				}
				return sf.Admit(b, i, st)
			}
			got, st := op.Verify(qp, 0.3, len(rows), sliceSource(rows), DefaultQ, admit, Parallel(w), WithKernel(k))
			if !reflect.DeepEqual(got, want) || st != wantSt {
				t.Errorf("kernel %v workers %d: Verify = %v %+v, whole-batch reference %v %+v", k, w, got, st, want, wantSt)
			}
			// VerifyFetched over morsels of 7 rows, each batched on its own.
			const per = 7
			got, st, err := VerifyFetched(op, qp, 0.3, (len(rows)+per-1)/per, DefaultQ, sf.Admit,
				func(m int, verify func(int, PhonemeSource) []int) ([]int, error) {
					lo, hi := m*per, min((m+1)*per, len(rows))
					var out []int
					for _, i := range verify(hi-lo, sliceSource(rows[lo:hi])) {
						out = append(out, lo+i)
					}
					return out, nil
				}, Parallel(w), WithKernel(k))
			if err != nil || !reflect.DeepEqual(got, want) || st != wantSt {
				t.Errorf("kernel %v workers %d: VerifyFetched = %v %+v (%v), whole-batch reference %v %+v", k, w, got, st, err, want, wantSt)
			}
		}
	}
}

// TestVerifyFetchedFirstErrorInMorselOrder: when morsels fail, the error
// returned at every width is the lowest failing morsel's, and the serial
// run stops there.
func TestVerifyFetchedFirstErrorInMorselOrder(t *testing.T) {
	op := newOp(t)
	qp, err := op.Transform("Nehru", "english")
	if err != nil {
		t.Fatal(err)
	}
	const morsels = 40
	fails := map[int]error{9: errors.New("morsel 9"), 23: errors.New("morsel 23")}
	for _, w := range append(workerCounts(), 8) {
		var started [morsels]atomic.Bool
		_, _, err := VerifyFetched(op, qp, 0.3, morsels, DefaultQ, nil,
			func(m int, verify func(int, PhonemeSource) []int) ([]int, error) {
				started[m].Store(true)
				return nil, fails[m]
			}, Parallel(w))
		if err != fails[9] {
			t.Errorf("workers %d: %v, want morsel 9's error", w, err)
		}
		if w == 1 && started[10].Load() {
			t.Error("the serial run went on past the failed morsel")
		}
	}
}

// pooledKernelCase is the rows to verify pattern against: base (the
// non-empty rows of batchRows), every pattern of the test, and edited
// copies of pattern.
func pooledKernelCase(base, patterns []phoneme.String, pattern phoneme.String) []phoneme.String {
	rows := append(append([]phoneme.String(nil), base...), patterns...)
	for i := 0; i < len(pattern); i += 2 {
		del := append(append(phoneme.String(nil), pattern[:i]...), pattern[i+1:]...)
		sub := append(phoneme.String(nil), pattern...)
		sub[i] = base[len(base)-1-i%len(base)][0] // another row's first phoneme
		rows = append(rows, del, sub, pattern[i:])
	}
	return rows
}

// pooledKernelPatterns is a 60-phoneme pattern, near the kernel's
// machine-word limit, and 3-phoneme ones: the long pattern's first
// three phonemes rotated, so that mask bits a recycled copy failed to
// clear would match the long pattern's prefix, and its last three.
func pooledKernelPatterns(t *testing.T, op *Operator) []phoneme.String {
	t.Helper()
	var long phoneme.String
	for _, txt := range bigCatalog() {
		q, err := op.Transform(txt.Value, txt.Lang)
		if err != nil {
			continue // a language without a TTP converter
		}
		if long = append(long, q...); len(long) >= 60 {
			long = long[:60]
			return []phoneme.String{long, {long[2], long[0], long[1]}, long[:3], long[57:]}
		}
	}
	t.Fatal("catalog too short for a 60-phoneme pattern")
	return nil
}

func nonEmpty(rows []phoneme.String) []phoneme.String {
	var out []phoneme.String
	for _, r := range rows {
		if len(r) > 0 {
			out = append(out, r)
		}
	}
	return out
}

// checkVerifyAgainstScalar runs Verify of pattern over rows with the
// bit-parallel kernel and compares it row for row with the scalar
// kernel's verdicts.
func checkVerifyAgainstScalar(op *Operator, pattern phoneme.String, rows []phoneme.String, workers int) error {
	got, _ := op.Verify(pattern, 0.3, len(rows), sliceSource(rows), 0, nil, Parallel(workers), WithKernel(KernelBitvec))
	matched := make([]bool, len(rows))
	for _, i := range got {
		matched[i] = true
	}
	n := 0
	for i, r := range rows {
		want := len(r) > 0 && op.MatchPhonemes(pattern, r, 0.3)
		if matched[i] != want {
			return fmt.Errorf("%d-phoneme pattern, row %d (%d phonemes): kernel says %v, scalar %v", len(pattern), i, len(r), matched[i], want)
		}
		if want {
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("%d-phoneme pattern: no row matches, the check is vacuous", len(pattern))
	}
	return nil
}

// TestPooledKernelMatchesScalar: matchers prepare pattern-state copies
// of the operator's compiled kernel taken from a pool. A copy recycled
// from a 60-phoneme pattern must verify a 3-phoneme pattern exactly like
// a fresh one: row for row what the scalar kernel decides.
func TestPooledKernelMatchesScalar(t *testing.T) {
	op := newOp(t)
	base := nonEmpty(batchRows(t, op))
	patterns := pooledKernelPatterns(t, op)
	for _, i := range []int{0, 1, 0, 2, 0, 3} {
		if err := checkVerifyAgainstScalar(op, patterns[i], pooledKernelCase(base, patterns, patterns[i]), 1); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPooledKernelConcurrentVerify: concurrent Verify calls on one
// operator each prepare their own pooled copy; under -race this checks
// that no two share pattern state and none prepares the shared model.
func TestPooledKernelConcurrentVerify(t *testing.T) {
	op := newOp(t)
	base := nonEmpty(batchRows(t, op))
	patterns := pooledKernelPatterns(t, op)
	cases := make([][]phoneme.String, len(patterns))
	for i, p := range patterns {
		cases[i] = pooledKernelCase(base, patterns, p)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				i := (g + round) % len(patterns)
				if err := checkVerifyAgainstScalar(op, patterns[i], cases[i], 1+round%2); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestResolveKernelAllocatesNothing: the model-level kernel decision
// reads the kernel the operator compiled once.
func TestResolveKernelAllocatesNothing(t *testing.T) {
	op := newOp(t)
	var k Kernel
	if n := testing.AllocsPerRun(100, func() { k = op.ResolveKernel(KernelAuto) }); n != 0 {
		t.Errorf("ResolveKernel made %v allocations per call, want 0", n)
	}
	if k != KernelBitvec {
		t.Errorf("ResolveKernel(auto) = %v under the default dyadic model, want bitvec", k)
	}
}
