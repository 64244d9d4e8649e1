package qgram

import (
	"math/rand"
	"testing"

	"lexequal/internal/phoneme"
)

// sigHash is the bucket of one materialized gram: FNV-1a over its
// phonemes, folded to the 64-bit Bloom domain.
func sigHash(gram []phoneme.Phoneme) uint {
	h := uint64(14695981039346656037)
	for _, p := range gram {
		h ^= uint64(p)
		h *= 1099511628211
	}
	return uint(h & 63)
}

// refSignature is Signature as first written: pad a copy of the string,
// hash every window of it.
func refSignature(s phoneme.String, q int) uint64 {
	padded := make([]phoneme.Phoneme, 0, len(s)+2*(q-1))
	for i := 0; i < q-1; i++ {
		padded = append(padded, phoneme.Invalid)
	}
	padded = append(padded, s...)
	for i := 0; i < q-1; i++ {
		padded = append(padded, phoneme.Invalid)
	}
	var sig uint64
	for i := 0; i+q <= len(padded); i++ {
		sig |= 1 << sigHash(padded[i:i+q])
	}
	return sig
}

// TestSignatureMatchesPaddedReference: hashing over virtual padding must
// set exactly the bits the padded-copy implementation set, or every
// stored expectation about pruning power (and the bench's exact-repeat
// PrunedSig counts) would shift.
func TestSignatureMatchesPaddedReference(t *testing.T) {
	all := phoneme.All()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		s := make(phoneme.String, rng.Intn(24))
		for j := range s {
			s[j] = all[rng.Intn(len(all))]
		}
		for q := 2; q <= 4; q++ {
			if got, want := Signature(s, q), refSignature(s, q); got != want {
				t.Fatalf("q=%d %v: Signature %#x, padded reference %#x", q, s, got, want)
			}
		}
	}
}

// TestSignatureSubsumesExtract: every gram's hash bit must be present
// in the string's signature, so MaxShared never undercounts the true
// content-match potential.
func TestSignatureSubsumesExtract(t *testing.T) {
	for _, raw := range []string{"", "n", "neru", "nehru", "dʒəʋaːɦərlaːl", "pɒtæsiəm"} {
		s := phoneme.MustParse(raw)
		for q := 2; q <= 4; q++ {
			sig := Signature(s, q)
			for _, g := range Extract(s, q) {
				if sig&(1<<sigHash(g.Gram)) == 0 {
					t.Fatalf("q=%d %q: gram %v's bit missing from signature", q, raw, g)
				}
			}
		}
	}
}

// TestMaxSharedBoundsMatchCount: MaxShared from the signatures must
// always dominate the exact positional match count, for any position
// budget — the soundness property the batched prefilter relies on.
func TestMaxSharedBoundsMatchCount(t *testing.T) {
	corpus := []string{"", "n", "neru", "nero", "nehru", "neːru", "dʒəʋaːɦərlaːl", "dʒawɑhɑrlɑl", "sita", "ɡita"}
	const q = 3
	for _, ra := range corpus {
		a := phoneme.MustParse(ra)
		ga := Extract(a, q)
		sa := Signature(a, q)
		for _, rb := range corpus {
			b := phoneme.MustParse(rb)
			gb := Extract(b, q)
			sb := Signature(b, q)
			for _, k := range []float64{0, 1, 2.5, 100} {
				exact := matchCount(ga, gb, k)
				if got := MaxShared(sa, sb, len(ga)); got < exact {
					t.Fatalf("MaxShared(%q,%q) = %d < exact count %d (k=%g)", ra, rb, got, exact, k)
				}
			}
		}
	}
}

// TestSignatureIdenticalStrings: a string shares all its grams with
// itself, so MaxShared must equal the full gram count.
func TestSignatureIdenticalStrings(t *testing.T) {
	s := phoneme.MustParse("nehru")
	const q = 3
	n := len(s) + q - 1
	if got := MaxShared(Signature(s, q), Signature(s, q), n); got != n {
		t.Errorf("MaxShared(self) = %d, want %d", got, n)
	}
}

// TestSignatureDiscriminates: wildly different strings must lose most
// shared-gram budget — the property that makes the prefilter useful.
func TestSignatureDiscriminates(t *testing.T) {
	a := phoneme.MustParse("dʒəʋaːɦərlaːl")
	b := phoneme.MustParse("pɒtæsiəm")
	const q = 3
	na := len(a) + q - 1
	if got := MaxShared(Signature(a, q), Signature(b, q), na); got > na/2 {
		t.Errorf("MaxShared(far pair) = %d of %d grams; signature has no discriminating power", got, na)
	}
}
