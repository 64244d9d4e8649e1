// Package editdist implements the approximate-matching kernel of the
// LexEQUAL operator: a dynamic-programming edit distance over phoneme
// strings with pluggable insertion/deletion/substitution cost functions
// (Figure 8 of the paper), including the clustered cost model whose
// intra-cluster substitution cost (ICSC) parameter the paper sweeps.
package editdist

import (
	"fmt"

	"lexequal/internal/phoneme"
)

// CostModel supplies the InsCost, DelCost and SubCost functions of the
// paper's editdistance algorithm. Implementations must be safe for
// concurrent use.
//
// IndelFloor must return a positive lower bound on every insertion and
// deletion cost; the banded distance uses it to size the band. All
// built-in models charge exactly 1 per indel.
type CostModel interface {
	Ins(p phoneme.Phoneme) float64
	Del(p phoneme.Phoneme) float64
	Sub(a, b phoneme.Phoneme) float64
	IndelFloor() float64
	// Name identifies the model in plans, EXPLAIN output and benchmarks.
	Name() string
}

// Unit is the standard Levenshtein cost model: every edit costs 1.
type Unit struct{}

// Ins implements CostModel.
func (Unit) Ins(phoneme.Phoneme) float64 { return 1 }

// Del implements CostModel.
func (Unit) Del(phoneme.Phoneme) float64 { return 1 }

// Sub implements CostModel.
func (Unit) Sub(a, b phoneme.Phoneme) float64 {
	if a == b {
		return 0
	}
	return 1
}

// IndelFloor implements CostModel.
func (Unit) IndelFloor() float64 { return 1 }

// Name implements CostModel.
func (Unit) Name() string { return "levenshtein" }

// Clustered is the paper's Clustered Edit Distance: substituting within
// a phoneme cluster costs ICSC ∈ [0,1], across clusters costs 1, and
// identical phonemes cost 0. ICSC = 1 degenerates to Levenshtein;
// ICSC = 0 extends Soundex to the phoneme domain.
//
// WeakIndel, when in (0,1], discounts insertion/deletion of glottal
// phonemes (h, ɦ, ʔ), which scripts routinely gain and lose in
// transliteration (Hindi writes the h of Nehru, Tamil does not). The
// paper highlights exactly this kind of cost-function parameterization
// as the reason for choosing the DP formulation. A zero WeakIndel means
// no discount (uniform unit indels). The set is deliberately the same
// as the phonemes the signature projection drops (soundex.Encoder), so
// every signature-changing edit costs at least one full unit — the
// invariant the q-gram filter budget relies on.
type Clustered struct {
	Clusters  *phoneme.Clusters
	ICSC      float64
	WeakIndel float64
}

// NewClustered validates the parameters and builds a clustered model
// with uniform indel costs.
func NewClustered(c *phoneme.Clusters, icsc float64) (Clustered, error) {
	return NewClusteredWeak(c, icsc, 0)
}

// NewClusteredWeak builds a clustered model with a weak-phoneme indel
// discount (see Clustered).
func NewClusteredWeak(c *phoneme.Clusters, icsc, weakIndel float64) (Clustered, error) {
	if c == nil {
		return Clustered{}, fmt.Errorf("editdist: nil cluster set")
	}
	if icsc < 0 || icsc > 1 {
		return Clustered{}, fmt.Errorf("editdist: intra-cluster substitution cost %v outside [0,1]", icsc)
	}
	if weakIndel < 0 || weakIndel > 1 {
		return Clustered{}, fmt.Errorf("editdist: weak indel cost %v outside [0,1]", weakIndel)
	}
	return Clustered{Clusters: c, ICSC: icsc, WeakIndel: weakIndel}, nil
}

// weak reports whether p is a weak phoneme for indel discounting
// (glottal consonants). Scans count weak phonemes once per stored
// phoneme, so the feature test is tabulated over the inventory.
func weak(p phoneme.Phoneme) bool { return weakTab[p] }

var weakTab = func() (t [256]bool) {
	for _, p := range phoneme.All() {
		f := p.Features()
		t[p] = f.Class == phoneme.Consonant && f.Place == phoneme.Glottal
	}
	return t
}()

func (c Clustered) indel(p phoneme.Phoneme) float64 {
	if c.WeakIndel > 0 && weak(p) {
		return c.WeakIndel
	}
	return 1
}

// Ins implements CostModel.
func (c Clustered) Ins(p phoneme.Phoneme) float64 { return c.indel(p) }

// Del implements CostModel.
func (c Clustered) Del(p phoneme.Phoneme) float64 { return c.indel(p) }

// Sub implements CostModel.
func (c Clustered) Sub(a, b phoneme.Phoneme) float64 {
	if a == b {
		return 0
	}
	if c.Clusters.Same(a, b) {
		return c.ICSC
	}
	return 1
}

// IndelFloor implements CostModel.
func (c Clustered) IndelFloor() float64 {
	if c.WeakIndel > 0 {
		return c.WeakIndel
	}
	return 1
}

// Name implements CostModel.
func (c Clustered) Name() string {
	if c.WeakIndel > 0 {
		return fmt.Sprintf("clustered(%s,icsc=%g,weak=%g)", c.Clusters.Name(), c.ICSC, c.WeakIndel)
	}
	return fmt.Sprintf("clustered(%s,icsc=%g)", c.Clusters.Name(), c.ICSC)
}

// Feature is a soft cost model that charges 1−Similarity(a,b) per
// substitution, using the articulatory-feature similarity. It is not
// part of the paper's evaluation; it backs the feature-cost ablation
// (DESIGN.md §5) and the "more robust cost functions" the paper's §5.3
// alludes to.
type Feature struct{}

// Ins implements CostModel.
func (Feature) Ins(phoneme.Phoneme) float64 { return 1 }

// Del implements CostModel.
func (Feature) Del(phoneme.Phoneme) float64 { return 1 }

// Sub implements CostModel.
func (Feature) Sub(a, b phoneme.Phoneme) float64 { return 1 - phoneme.Similarity(a, b) }

// IndelFloor implements CostModel.
func (Feature) IndelFloor() float64 { return 1 }

// Name implements CostModel.
func (Feature) Name() string { return "feature" }
