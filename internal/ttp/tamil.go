package ttp

import (
	"lexequal/internal/phoneme"
	"lexequal/internal/script"
)

// NewTamil returns the Tamil Text-To-Phoneme converter. Tamil script is
// phonetic but deliberately under-specified: a single stop letter stands
// for both the voiced and voiceless (and aspirated) sounds, with the
// realization determined by position — voiceless word-initially and when
// geminated, voiced after a nasal and between vowels. The converter
// implements that allophony, which is precisely the phoneme-set mismatch
// the paper's experiments exercise (the paper hand-converted its Tamil
// strings "assuming phonetic nature of the Tamil language").
func NewTamil() Converter {
	return &abugidaConverter{lang: script.Tamil, table: script.TamilAbugida, phonology: tamilPhonology}
}

// tamilPhonology reads one word's units with positional voicing for
// stops (the letters whose table row gives voiced and intervocalic
// readings); a doubled stop degeminates to one voiceless stop.
func tamilPhonology(units []unit) phoneme.String {
	// A matra or pulli with no consonant of its own re-marks the
	// consonant before it, and is dropped after a vowel.
	us := units[:0]
	for _, u := range units {
		if u.g.Kind != script.MarkGlyph {
			us = append(us, u)
		} else if n := len(us); n > 0 && us[n-1].g.Kind == script.ConsonantGlyph {
			us[n-1].vowel = u.vowel
		}
	}
	var out phoneme.String
	prevVowel := false // previous emitted phoneme is a vowel
	prevNasal := false
	for i, u := range us {
		if u.g.Kind != script.ConsonantGlyph {
			out = append(out, u.vowel...)
			prevVowel, prevNasal = true, false
			continue
		}
		if u.g.Voiced != nil {
			geminate := i+1 < len(us) && us[i+1].letter == u.letter && u.vowel == nil
			var ph phoneme.String
			switch {
			case geminate:
				// First half of a geminate: the pair degeminates to one
				// voiceless stop, emitted by the second half.
				ph = nil
			case i == 0:
				ph = u.g.Reads
			case us[i-1].letter == u.letter && us[i-1].vowel == nil:
				// Second half of a geminate: voiceless.
				ph = u.g.Reads
			case prevNasal:
				ph = u.g.Voiced
			case u.vowel == nil:
				// Syllable coda (pulli before a different consonant).
				ph = u.g.Reads
			case prevVowel:
				ph = u.g.Intervocalic
			default:
				ph = u.g.Reads
			}
			out = append(out, ph...)
			if len(ph) > 0 {
				prevVowel, prevNasal = false, false
			}
		} else {
			ph := u.g.Reads
			out = append(out, ph...)
			prevNasal = ph[len(ph)-1].Features().Manner == phoneme.Nasal
			prevVowel = false
		}
		if u.vowel != nil {
			out = append(out, u.vowel...)
			prevVowel, prevNasal = true, false
		}
	}
	return out
}
