package ttp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"lexequal/internal/dataset"
	"lexequal/internal/phoneme"
	"lexequal/internal/script"
	"lexequal/internal/ttp"
)

// indicGoldenDigest pins the SHA-256 of indicGoldenDump: the Devanagari
// and Tamil renderings that make up the lexicon, the conversion of every
// lexicon string, of the first 20,000 generated rows (concatenated
// names, so schwa deletion and stop voicing run across the join) and of
// every FuzzTTPConvert seed through both Indic converters. Figures
// 10-12, the generated set and every stored pname are functions of
// these strings; the digest moves only if one of them does.
const indicGoldenDigest = "e25b7fb962e52ac5ed3b2239061150ff923bdf526ab9c4cb53f5b9d118477172"

var goldenDump = flag.String("golden-dump", "", "write the Indic golden listing to this file (diff two trees' listings when the digest moves)")

// indicGoldenRows is how many dataset.Generate rows the listing covers.
const indicGoldenRows = 20_000

// indicGoldenDump lists one line per pinned string: its language, the
// text and the converter's output (IPA, or the error).
func indicGoldenDump(t *testing.T) string {
	t.Helper()
	reg := ttp.Default()
	lex, err := dataset.BuildLexicon(reg, dataset.SourceAll)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	line := func(kind string, lang script.Language, text string) {
		p, err := reg.Convert(text, lang)
		out := p.IPA()
		if err != nil {
			out = "error: " + err.Error()
		}
		fmt.Fprintf(&b, "%s\t%s\t%q\t%s\n", kind, lang, text, out)
	}
	for _, e := range lex.Entries {
		line("lexicon", e.Text.Lang, e.Text.Value)
	}
	for _, e := range dataset.Generate(lex, indicGoldenRows) {
		line("generated", e.Text.Lang, e.Text.Value)
	}
	for _, s := range ttp.FuzzSeeds {
		line("seed", script.Hindi, s.Text)
		line("seed", script.Tamil, s.Text)
	}
	return b.String()
}

func TestIndicGolden(t *testing.T) {
	dump := indicGoldenDump(t)
	if *goldenDump != "" {
		if err := os.WriteFile(*goldenDump, []byte(dump), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	sum := sha256.Sum256([]byte(dump))
	if got := hex.EncodeToString(sum[:]); got != indicGoldenDigest {
		t.Errorf("Indic golden digest = %s, want %s\n(rerun with -golden-dump FILE on both trees and diff the listings)", got, indicGoldenDigest)
	}
}

// roundTripExceptions are the rendered lexicon strings that do not
// survive render(convert(s)), because the converter's phonology reads
// them as phonemes that render to other letters. The list may shrink,
// never grow.
var roundTripExceptions = map[string]bool{
	// Hindi: a final independent अ reads as schwa, which the renderer
	// writes as the final-schwa matra ा.
	"जाशअ": true,
	// Hindi: the inherent schwa before an independent vowel elides
	// (hiatus), so the vowel reads as the consonant's matra.
	"सामऐल": true, "तालऐन": true,
	// Tamil: intervocalic ச reads [s], which renders as ஸ.
	"பதசெரிஅ": true, "ராமசன்த்ரான்": true, "ஸசின்": true, "ப்லெசர்": true,
	"மிசஎல்": true, "மிசெல்": true, "நிசாலாஸ்": true, "ரசெல்": true,
	"ரிசார்த்": true, "ரிசார்த்ஸன்": true, "ஜசெரி": true, "கெரசி": true,
	"மிசிகான்": true,
	// Tamil: post-nasal ச reads [dʒ], which renders as ஜ.
	"அன்சொர்": true,
	// Tamil: a doubled stop degeminates.
	"கம்ப்பெல்": true,
}

// TestIndicRoundTrip checks that every rendered Hindi and Tamil lexicon
// string reads back, through its converter, to phonemes that render to
// the same string.
func TestIndicRoundTrip(t *testing.T) {
	reg := ttp.Default()
	lex, err := dataset.BuildLexicon(reg, dataset.SourceAll)
	if err != nil {
		t.Fatal(err)
	}
	render := map[script.Language]func(phoneme.String) string{
		script.Hindi: script.ToDevanagari,
		script.Tamil: script.ToTamil,
	}
	failed := map[string]bool{}
	for _, e := range lex.Entries {
		r, ok := render[e.Text.Lang]
		if !ok {
			continue
		}
		p, err := reg.Convert(e.Text.Value, e.Text.Lang)
		if err != nil {
			t.Fatalf("convert %s: %v", e.Text, err)
		}
		if back := r(p); back != e.Text.Value {
			failed[e.Text.Value] = true
			if !roundTripExceptions[e.Text.Value] {
				t.Errorf("%s %q -> %s -> %q", e.Text.Lang, e.Text.Value, p.IPA(), back)
			}
		}
	}
	for s := range roundTripExceptions {
		if !failed[s] {
			t.Errorf("%q now round-trips: drop it from roundTripExceptions", s)
		}
	}
}
