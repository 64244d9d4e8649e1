package ttp

import (
	"lexequal/internal/phoneme"
	"lexequal/internal/script"
)

// NewHindi returns the Hindi Text-To-Phoneme converter. Devanagari is a
// phonetically-spelled abugida, so conversion is a direct decomposition
// of the orthography (script.DevanagariAbugida) — consonant letters
// carry an inherent schwa unless a dependent vowel sign (matra) or
// virama follows — plus Hindi's one nontrivial phonological process,
// schwa deletion: the inherent schwa is dropped word-finally and in the
// medial VC_CV context. This mirrors the behaviour of the Dhvani
// converter the paper used.
func NewHindi() Converter {
	return &abugidaConverter{lang: script.Hindi, table: script.DevanagariAbugida, phonology: hindiPhonology}
}

// hindiSegment is one phoneme plus the bookkeeping needed by the schwa
// deletion pass.
type hindiSegment struct {
	p        phoneme.Phoneme
	inherent bool // an inherent schwa (deletable); explicit vowels are not
}

// hindiPhonology reads one word's units: consonants and vowels as
// written, visarga as ɦ, anusvara and candrabindu as the nasal
// homorganic with the next consonant; then it deletes schwas.
func hindiPhonology(us []unit) phoneme.String {
	var segs []hindiSegment
	for i, u := range us {
		switch {
		case u.letter == script.DevanagariAbugida.Visarga:
			segs = append(segs, hindiSegment{p: phoneme.MustLookup("ɦ")})
			continue
		case u.g.Kind == script.SignGlyph:
			segs = append(segs, hindiSegment{p: anusvaraPhoneme(us[i+1:])})
			continue
		case u.g.Kind == script.ConsonantGlyph:
			for _, p := range u.g.Reads {
				segs = append(segs, hindiSegment{p: p})
			}
		}
		for _, p := range u.vowel {
			segs = append(segs, hindiSegment{p: p, inherent: u.inherent && p == phoneme.Schwa})
		}
	}
	segs = deleteSchwas(segs)
	out := make(phoneme.String, len(segs))
	for i, s := range segs {
		out[i] = s.p
	}
	return out
}

// anusvaraPhoneme resolves ं to the nasal homorganic with the next
// consonant (ŋ before velars, m before labials, n otherwise).
func anusvaraPhoneme(next []unit) phoneme.Phoneme {
	for _, u := range next {
		if u.g.Kind != script.ConsonantGlyph {
			continue
		}
		switch u.g.Reads[0].Features().Place {
		case phoneme.Velar:
			return phoneme.MustLookup("ŋ")
		case phoneme.Bilabial, phoneme.Labiodental:
			return phoneme.MustLookup("m")
		case phoneme.Retroflex:
			return phoneme.MustLookup("ɳ")
		case phoneme.Palatal, phoneme.PostAlveolar:
			return phoneme.MustLookup("ɲ")
		}
		return phoneme.MustLookup("n")
	}
	return phoneme.MustLookup("n")
}

// deleteSchwas applies Hindi schwa deletion: the word-final inherent
// schwa is always dropped; a medial inherent schwa is dropped in the
// V C _ C V context (and deletions do not cascade) and in hiatus
// (V C _ V — a schwa directly before another vowel elides, as when a
// consonant-final name runs into a vowel-initial one).
func deleteSchwas(segs []hindiSegment) []hindiSegment {
	n := len(segs)
	if n == 0 {
		return segs
	}
	deleted := make([]bool, n)
	// Final inherent schwa (राम -> raːm, not raːmə).
	if segs[n-1].inherent && n > 1 {
		deleted[n-1] = true
	}
	isV := func(i int) bool {
		return i >= 0 && i < n && !deleted[i] && segs[i].p.IsVowel()
	}
	isC := func(i int) bool {
		return i >= 0 && i < n && !deleted[i] && segs[i].p.IsConsonant()
	}
	// Medial pass, right to left per the standard algorithm.
	for i := n - 2; i >= 1; i-- {
		if !segs[i].inherent || deleted[i] {
			continue
		}
		if isC(i-1) && isV(i-2) && ((isC(i+1) && isV(i+2)) || isV(i+1)) {
			deleted[i] = true
			i-- // no cascading deletion through the preceding consonant
		}
	}
	out := segs[:0]
	for i, s := range segs {
		if !deleted[i] {
			out = append(out, s)
		}
	}
	return out
}
