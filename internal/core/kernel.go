package core

import (
	"fmt"

	"lexequal/internal/editdist"
	"lexequal/internal/phoneme"
)

// Kernel selects how the edit-distance verification stage executes.
// The choice never changes results: the bit-parallel kernel either
// decides a pair with the scalar kernel's exact outcome or defers the
// pair to the scalar kernel (see editdist.Bitvec).
type Kernel uint8

// Verification kernels.
const (
	KernelAuto   Kernel = iota // bit-parallel when the cost model compiles
	KernelScalar               // always the scalar banded DP
	KernelBitvec               // bit-parallel requested explicitly
)

func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelScalar:
		return "scalar"
	case KernelBitvec:
		return "bitvec"
	default:
		return fmt.Sprintf("Kernel(%d)", uint8(k))
	}
}

// ParseKernel resolves a kernel name from CLI/SQL settings.
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "", "auto":
		return KernelAuto, nil
	case "scalar", "dp":
		return KernelScalar, nil
	case "bitvec", "bitvector", "myers":
		return KernelBitvec, nil
	default:
		return KernelAuto, fmt.Errorf("core: unknown kernel %q", s)
	}
}

// ResolveKernel reports which kernel will verify under this operator's
// cost model: Auto and Bitvec engage the bit-parallel kernel only when
// the model compiles (dyadic parameters), otherwise everything runs on
// the scalar path. Patterns longer than one machine word still fall
// back per query at runtime; this is the model-level decision EXPLAIN
// shows.
func (op *Operator) ResolveKernel(k Kernel) Kernel {
	if op.modelKernel(k) != nil {
		return KernelBitvec
	}
	return KernelScalar
}

// modelKernel is the operator's compiled cost model for the knob, or nil
// when the scalar path was chosen or the model is not
// bit-parallelizable. It is shared and must never be prepared.
func (op *Operator) modelKernel(k Kernel) *editdist.Bitvec {
	if k == KernelScalar {
		return nil
	}
	return op.kern
}

// BatchMatcher verifies batch rows against one query pattern: the
// bit-parallel kernel decides most pairs outright, and undecided pairs
// (gray zone, oversized patterns, non-dyadic models) run the scalar DP,
// counted as ScalarFallbacks whenever a kernel was requested — the
// counter that proves the dispatch path. A matcher whose pattern is
// fixed for the whole scan may be shared by concurrent lanes (Decide
// only reads); pattern-varying probes must use a lane-private matcher
// (SetPattern mutates kernel state). Its kernel is a pattern-state copy
// from the operator's pool, handed back by release.
type BatchMatcher struct {
	op    *Operator
	bv    *editdist.Bitvec
	ready bool // bv is prepared for the current pattern
	tick  bool // a kernel was requested: count scalar verifications
	qp    phoneme.String
	e     float64
}

// NewBatchMatcher builds a matcher with a fixed query pattern, for
// scans where every candidate compares against the same string.
func (op *Operator) NewBatchMatcher(qp phoneme.String, threshold float64, k Kernel) *BatchMatcher {
	m := op.newMatcher(k)
	m.SetPattern(qp, threshold)
	return m
}

// newMatcher builds a matcher with no pattern yet: call SetPattern
// before matching. Pattern-varying probes (joins) re-prepare it per
// probe row, which costs only the kernel's sparse mask reset.
func (op *Operator) newMatcher(k Kernel) *BatchMatcher {
	m := &BatchMatcher{op: op, tick: k != KernelScalar}
	if op.modelKernel(k) != nil {
		m.bv = op.kpool.Get().(*editdist.Bitvec)
	}
	return m
}

// release hands the matcher's kernel back to the operator's pool once
// no lane uses the matcher any more; Prepare's sparse reset makes the
// recycled copy clean for its next pattern. The matcher then verifies on
// the scalar path only.
func (m *BatchMatcher) release() {
	if m.bv != nil {
		m.op.kpool.Put(m.bv)
		m.bv, m.ready = nil, false
	}
}

// SetPattern re-prepares the matcher for a new query pattern.
func (m *BatchMatcher) SetPattern(qp phoneme.String, threshold float64) {
	m.qp, m.e = qp, threshold
	m.ready = m.bv != nil && m.bv.Prepare(qp)
}

// Bitvec reports whether the bit-parallel kernel is engaged for the
// current pattern.
func (m *BatchMatcher) Bitvec() bool { return m.ready }

// Match verifies batch row i under the Figure 8 bound (distance ≤
// threshold × shorter length), accumulating kernel counters into the
// lane. The batch's signature column must come from the same cost
// model as the matcher's kernel (both derive from one operator).
func (m *BatchMatcher) Match(b *Batch, i int, ln *Lane) bool {
	cand := b.phon.View(i)
	if m.ready && b.ksig != nil {
		smaller := len(m.qp)
		if len(cand) < smaller {
			smaller = len(cand)
		}
		matched, decided, ops := m.bv.Decide(cand, int(b.wk[i]), b.ksig[i], m.e*float64(smaller))
		ln.Stats.BitvecOps += ops
		if decided {
			return matched
		}
	}
	if m.tick {
		ln.Stats.ScalarFallbacks++
	}
	return m.op.MatchPhonemesScratch(m.qp, cand, m.e, ln.Scratch)
}
