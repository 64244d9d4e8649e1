package ttp

import (
	"fmt"

	"lexequal/internal/phoneme"
	"lexequal/internal/script"
)

// abugidaConverter reads one Indic script from its table
// (script.Abugida): it splits text into words by the script's Unicode
// block, groups each word into units, and hands the units to the
// language's phonology.
type abugidaConverter struct {
	lang      script.Language
	table     *script.Abugida
	phonology func([]unit) phoneme.String
}

// unit is one orthographic unit of a word: a consonant with its vowel,
// an independent vowel letter, a sign, or a stray mark — a matra or
// virama with no consonant of its own to attach to.
type unit struct {
	letter rune
	g      *script.Glyph
	// vowel is what the unit reads as after its consonant, if any: the
	// inherent vowel, a matra's, nil after a virama.
	vowel    phoneme.String
	inherent bool // vowel is the consonant's inherent vowel
}

// Language implements Converter.
func (c *abugidaConverter) Language() script.Language { return c.lang }

// Convert implements Converter.
func (c *abugidaConverter) Convert(text string) (phoneme.String, error) {
	var out phoneme.String
	word := make([]rune, 0, 32)
	sawLetter := false
	flush := func() {
		if len(word) > 0 {
			out = append(out, c.phonology(c.units(word))...)
			word = word[:0]
		}
	}
	for _, r := range text {
		if c.table.In(r) {
			word = append(word, r)
			sawLetter = true
		} else {
			flush()
		}
	}
	flush()
	if !sawLetter {
		return nil, fmt.Errorf("ttp: %s converter: no %s characters in %q", c.lang, c.table.Script, text)
	}
	return out, nil
}

// units groups one word into units. A consonant opens a unit carrying
// the inherent vowel; the first matra or virama after it replaces that
// vowel. A base letter followed by the nukta reads as its precomposed
// nukta letter. Runes that are no letter of the table are skipped.
func (c *abugidaConverter) units(w []rune) []unit {
	a := c.table
	us := make([]unit, 0, len(w))
	open := false // the last unit is a consonant still carrying its inherent vowel
	for i := 0; i < len(w); i++ {
		r := w[i]
		if i+1 < len(w) && w[i+1] == a.Nukta {
			if folded, ok := a.NuktaFolds[r]; ok {
				r = folded
				i++
			}
		}
		switch g := a.Glyph(r); {
		case g.Kind == script.NotALetter:
			continue
		case g.Kind == script.ConsonantGlyph:
			us = append(us, unit{letter: r, g: g, vowel: a.Inherent(), inherent: true})
			open = true
			continue
		case g.Kind == script.MarkGlyph && open:
			us[len(us)-1].vowel, us[len(us)-1].inherent = g.Reads, false
		default:
			us = append(us, unit{letter: r, g: g, vowel: g.Reads})
		}
		open = false
	}
	return us
}
