package qgram

import (
	"math/bits"

	"lexequal/internal/phoneme"
)

// This file adds the batched form of the Count filter: a 64-bit Bloom
// signature of a string's q-gram contents, precomputed once per corpus
// row, so a scan can reject most candidates with an XOR/AND/POPCNT
// instead of extracting and intersecting gram lists per pair. The
// signature discards positions, so the bound it yields (MaxShared) is
// an upper bound on the positional match count the exact Count filter
// computes — pruning on it never produces a false dismissal relative to
// the exact filter.

// Signature returns the 64-bit Bloom signature of s's positional
// q-grams (content only, positions discarded): one bit per gram of the
// padded string ◁^(q-1) s ▷^(q-1), chosen by FNV-1a over the gram's q
// phonemes (pads hash as phoneme.Invalid) — cheap, deterministic, and
// spread well enough for the 64-bucket Bloom domain. Equal-content grams
// always map to the same bit, so a gram of one string whose bit is
// absent from another string's signature cannot content-match any gram
// there. The padding is virtual: the window slides over positions
// outside s without a padded copy, so a scan computes a signature per
// row without allocating.
func Signature(s phoneme.String, q int) uint64 {
	if q < 2 {
		panic("qgram: q must be >= 2")
	}
	var sig uint64
	// Gram w of len(s)+q-1 ends at s[w] and starts q-1 earlier.
	for w := 0; w < len(s)+q-1; w++ {
		h := uint64(14695981039346656037)
		for j := w - (q - 1); j <= w; j++ {
			p := phoneme.Invalid
			if uint(j) < uint(len(s)) {
				p = s[j]
			}
			h ^= uint64(p)
			h *= 1099511628211
		}
		sig |= 1 << (h & 63)
	}
	return sig
}

// MaxShared upper-bounds how many of the query's nQueryGrams positional
// q-grams can content-match a gram of the candidate, given only the two
// signatures: every distinct bit set in the query signature but absent
// from the candidate's accounts for at least one unmatchable query
// gram. Compare the result against CountThreshold — a candidate with
// MaxShared below the threshold cannot survive the exact Count filter.
func MaxShared(querySig, candSig uint64, nQueryGrams int) int {
	return nQueryGrams - bits.OnesCount64(querySig&^candSig)
}
