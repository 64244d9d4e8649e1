// Package soundex implements the pseudo-phonetic matching codes the
// paper builds on: the classical Soundex algorithm (Knuth) that database
// systems ship for Latin scripts, its extension to the phoneme domain,
// and the Grouped Phoneme String Identifier that keys the phonetic
// B-tree index of §5.3.
package soundex

import (
	"strings"

	"lexequal/internal/phoneme"
)

// Classic computes the classical 4-character Soundex code of a Latin
// name (first letter + three digits, zero padded), as defined by Knuth
// and shipped by most database systems' SOUNDEX function. Non-Latin and
// non-letter characters are ignored; an empty input yields "0000".
func Classic(name string) string {
	const codes = "01230120022455012623010202" // a..z
	var first byte
	var digits []byte
	prev := byte('0')
scan:
	for _, r := range strings.ToLower(name) {
		if r < 'a' || r > 'z' {
			prev = '0'
			continue
		}
		c := codes[r-'a']
		if first == 0 {
			first = byte(r - 'a' + 'A')
			prev = c
			continue
		}
		switch c {
		case '0': // vowels and h/w/y: reset the run but emit nothing
			if r != 'h' && r != 'w' {
				prev = '0'
			}
		default:
			if c != prev {
				digits = append(digits, c)
				if len(digits) == 3 {
					break scan
				}
			}
			prev = c
		}
	}
	if first == 0 {
		return "0000"
	}
	for len(digits) < 3 {
		digits = append(digits, '0')
	}
	return string(first) + string(digits)
}

// GroupedID is the Grouped Phoneme String Identifier: the phoneme
// string projected onto its cluster IDs and packed into one integer, so
// that a standard database B-tree over integers indexes phonetic
// neighborhoods. Two strings collide exactly when they have the same
// cluster signature (up to the capacity cap), which is the paper's
// design: intra-cluster substitutions keep recall high, while any
// cross-cluster difference changes the key (the source of the method's
// false dismissals).
type GroupedID uint64

// maxGroupedLen bounds how many phonemes fit in the 64-bit key. Cluster
// IDs are packed in base (clusterCount+1); with the default 10-cluster
// partition that is 16 phonemes — longer strings share the key of their
// 16-phoneme prefix, a further (rare, documented) source of collisions
// rather than dismissals.
func maxGroupedLen(base uint64) int {
	n := 0
	acc := uint64(1)
	// Bound by int64 range: database INT columns store the key signed.
	for acc <= (1<<63-1)/base {
		acc *= base
		n++
	}
	return n
}

// Encoder computes GroupedIDs under a fixed cluster partition.
//
// By default the encoder skips glottal phonemes (h, ɦ, ʔ) before
// projecting to cluster digits: glottals are the segments scripts gain
// and lose outright in transliteration (Hindi writes the h of Nehru,
// Tamil does not), so keying the index on them would dismiss exactly
// the matches the cost model was tuned to keep. Schwa is NOT skipped:
// a schwa usually corresponds to a full vowel on the other side (an
// intra-cluster substitution), which the cluster projection already
// absorbs — dropping it one-sidedly would misalign the signatures.
// This is the "more robust design of phoneme clusters" the paper's
// §5.3 anticipates; NewEncoderKeepWeak provides the strict variant for
// the ablation.
type Encoder struct {
	clusters *phoneme.Clusters
	base     uint64
	maxLen   int
	keepWeak bool

	// Project's per-phoneme decisions, tabulated: whether the encoder's
	// skip set holds the phoneme, and its cluster representative.
	weak [256]bool
	repr [256]phoneme.Phoneme
}

// NewEncoder builds an encoder over the given partition (weak phonemes
// skipped).
func NewEncoder(c *phoneme.Clusters) *Encoder {
	base := uint64(c.Count()) + 1 // 0 is reserved so shorter ≠ padded
	e := &Encoder{clusters: c, base: base, maxLen: maxGroupedLen(base)}
	for i := range e.repr {
		e.weak[i] = weakPhoneme(phoneme.Phoneme(i))
		e.repr[i] = c.Representative(phoneme.Phoneme(i))
	}
	return e
}

// NewEncoderKeepWeak builds an encoder that keys on every phoneme.
func NewEncoderKeepWeak(c *phoneme.Clusters) *Encoder {
	e := NewEncoder(c)
	e.keepWeak = true
	return e
}

// weakPhoneme is the encoder's skip set: glottal consonants only (see
// the Encoder doc for why schwa stays).
func weakPhoneme(p phoneme.Phoneme) bool {
	f := p.Features()
	return f.Class == phoneme.Consonant && f.Place == phoneme.Glottal
}

// Clusters returns the partition the encoder uses.
func (e *Encoder) Clusters() *phoneme.Clusters { return e.clusters }

// MaxLen returns how many leading phonemes contribute to the key.
func (e *Encoder) MaxLen() int { return e.maxLen }

// Encode returns the GroupedID of s: the base-(k+1) number whose digits
// are the cluster IDs of the first MaxLen (non-weak, unless
// keepWeak) phonemes.
func (e *Encoder) Encode(s phoneme.String) GroupedID {
	var id uint64
	n := 0
	for _, p := range s {
		if n >= e.maxLen {
			break
		}
		if !e.keepWeak && weakPhoneme(p) {
			continue
		}
		id = id*e.base + uint64(e.clusters.Of(p))
		n++
	}
	return GroupedID(id)
}

// Project returns the signature form of s: weak (glottal) phonemes
// removed, every remaining phoneme replaced by its cluster
// representative. Two strings have equal projections exactly when they
// have equal GroupedIDs (up to the length cap); positional q-grams are
// extracted from this form so that signature-invariant edits cannot
// perturb the gram table.
func (e *Encoder) Project(s phoneme.String) phoneme.String {
	return e.AppendProject(make(phoneme.String, 0, len(s)), s)
}

// AppendProject appends the projection of s to dst and returns the
// extended slice, so a scan projects every row into one reused buffer.
func (e *Encoder) AppendProject(dst, s phoneme.String) phoneme.String {
	for _, p := range s {
		if !e.keepWeak && e.weak[p] {
			continue
		}
		dst = append(dst, e.repr[p])
	}
	return dst
}

// PhoneticCode renders the cluster-digit string of s (a Soundex-style
// code over the phoneme alphabet, unbounded length), mainly for
// diagnostics and tests.
func (e *Encoder) PhoneticCode(s phoneme.String) string {
	var b strings.Builder
	for _, p := range s {
		if !e.keepWeak && weakPhoneme(p) {
			continue
		}
		b.WriteByte(byte('A' + e.clusters.Of(p) - 1))
	}
	return b.String()
}
