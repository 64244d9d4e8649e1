package ttp

import (
	"testing"

	"lexequal/internal/script"
)

// FuzzSeeds is the seed corpus of FuzzTTPConvert; the Indic golden test
// (package ttp_test) pins the Hindi and Tamil conversion of each text.
var FuzzSeeds = []struct {
	Text string
	Idx  byte
}{
	{"Nehru", 0},
	{"नेहरु", 1},
	{"நேரு", 2},
	{"Σαρρη", 3},
	{"Muñoz", 4},
	{"Descartes", 5},
	{"بهنسي", 6},
	{"", 0},
	{"नेहरुNehruநேரு", 1}, // mixed scripts
	{"\xff\xfe\xfd", 2},   // invalid UTF-8
	{"\xe0\xa4", 1},       // truncated Devanagari rune
	{"123 !@#\x00\t", 0},  // symbols, NUL, control chars
	{"्््", 1},            // bare Devanagari viramas
	{"்", 2},              // bare Tamil virama
	{"ψ́ͅ", 3},            // stacked Greek diacritics
	{"ñññññ", 4},
	{"eaux", 5},
}

// FuzzTTPConvert asserts the text-to-phoneme converters never panic:
// any input — invalid UTF-8, mixed scripts, symbols, the wrong script
// for the language — must produce a phoneme string, an ordinary error,
// or the NORESOURCE error. langIdx selects which converter (including
// an unregistered language) handles the text.
func FuzzTTPConvert(f *testing.F) {
	langs := []script.Language{
		script.English, script.Hindi, script.Tamil,
		script.Greek, script.Spanish, script.French,
		script.Arabic, // NORESOURCE in the default registry
	}
	for _, s := range FuzzSeeds {
		f.Add(s.Text, s.Idx)
	}
	reg := Default()
	f.Fuzz(func(t *testing.T, text string, langIdx byte) {
		lang := langs[int(langIdx)%len(langs)]
		p, err := reg.Convert(text, lang)
		if err != nil {
			return // NORESOURCE or a conversion error: fine
		}
		// A successful conversion must yield a well-formed phoneme
		// string (rendering it must not panic either).
		_ = p.IPA()
	})
}
