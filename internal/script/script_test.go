package script

import (
	"testing"

	"lexequal/internal/phoneme"
)

func TestParseLanguage(t *testing.T) {
	cases := map[string]Language{
		"english": English, "EN": English, " Hindi ": Hindi, "ta": Tamil,
		"greek": Greek, "es": Spanish, "french": French, "ar": Arabic, "ja": Japanese,
	}
	for in, want := range cases {
		got, err := ParseLanguage(in)
		if err != nil || got != want {
			t.Errorf("ParseLanguage(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLanguage("klingon"); err == nil {
		t.Error("unknown language accepted")
	}
}

func TestDetectScript(t *testing.T) {
	cases := []struct {
		text string
		want Script
	}{
		{"Nehru", Latin},
		{"नेहरु", Devanagari},
		{"நேரு", TamilScript},
		{"Νερου", GreekScript},
		{"بهنسي", ArabicScript},
		{"寺井正博", Han},
		{"ひらがな", Kana},
		{"12345 --", ScriptUnknown},
		{"", ScriptUnknown},
	}
	for _, c := range cases {
		if got := DetectScript(c.text); got != c.want {
			t.Errorf("DetectScript(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestDetectScriptMajority(t *testing.T) {
	// Mixed text: majority wins.
	if got := DetectScript("Nehru नेहरूजी महोदय"); got != Devanagari {
		t.Errorf("majority detection = %v, want devanagari", got)
	}
}

func TestGuessLanguage(t *testing.T) {
	cases := map[string]Language{
		"Nehru": English,
		"नेहरु": Hindi,
		"நேரு":  Tamil,
		"Νερου": Greek,
		"بهنسي": Arabic,
		"寺井正博":  Japanese,
		"::123": Unknown,
	}
	for text, want := range cases {
		if got := GuessLanguage(text); got != want {
			t.Errorf("GuessLanguage(%q) = %v, want %v", text, got, want)
		}
	}
}

func TestDefaultScriptRoundTrip(t *testing.T) {
	for _, l := range []Language{English, Hindi, Tamil, Greek, Spanish, French, Arabic} {
		if DefaultScript(l) == ScriptUnknown {
			t.Errorf("no default script for %v", l)
		}
	}
	if DefaultScript(Unknown) != ScriptUnknown {
		t.Error("unknown language has a script")
	}
}

func TestToDevanagariBasics(t *testing.T) {
	cases := []struct {
		ipa, want string
	}{
		{"neːru", "नेरु"},              // Nehru's Tamil-side phonemes render cleanly
		{"raːm", "राम"},                // final consonant bare (no virama) in Hindi
		{"dʒəʋaːɦərəlaːl", "जवाहरलाल"}, // schwas inherent (orthographic schwa, deleted in speech)
		{"iːʃaː", "ईशा"},               // initial independent vowel
		{"indu", "इन्दु"},              // consonant cluster takes virama
	}
	for _, c := range cases {
		if got := ToDevanagari(phoneme.MustParse(c.ipa)); got != c.want {
			t.Errorf("ToDevanagari(%s) = %q, want %q", c.ipa, got, c.want)
		}
	}
}

func TestToDevanagariScriptIsDevanagari(t *testing.T) {
	out := ToDevanagari(phoneme.MustParse("kriʃnə"))
	if DetectScript(out) != Devanagari {
		t.Errorf("rendered %q is not devanagari", out)
	}
}

func TestToTamilBasics(t *testing.T) {
	cases := []struct {
		ipa, want string
	}{
		{"neːru", "நேரு"},      // the paper's canonical example (Fig. 1/9)
		{"raːm", "ராம்"},       // final consonant takes pulli in Tamil
		{"kamalaː", "கமலா"},    // inherent vowels
		{"indiraː", "இன்திரா"}, // medial n uses ன
	}
	for _, c := range cases {
		if got := ToTamil(phoneme.MustParse(c.ipa)); got != c.want {
			t.Errorf("ToTamil(%s) = %q, want %q", c.ipa, got, c.want)
		}
	}
}

func TestToTamilLosesVoicing(t *testing.T) {
	// Tamil orthography cannot distinguish k from ɡ: Gita and Kita
	// render identically — the core phoneme-set mismatch of the paper.
	g := ToTamil(phoneme.MustParse("ɡiːtaː"))
	k := ToTamil(phoneme.MustParse("kiːtaː"))
	if g != k {
		t.Errorf("Tamil renders voicing distinctly: %q vs %q", g, k)
	}
	if DetectScript(g) != TamilScript {
		t.Errorf("rendered %q is not tamil", g)
	}
}

func TestRenderersSkipUnmappable(t *testing.T) {
	// A glottal stop has no letter in either script; it must be dropped,
	// not crash or emit garbage.
	s := phoneme.MustParse("ʔa")
	if got := ToDevanagari(s); got != "आ" {
		t.Errorf("ToDevanagari(ʔa) = %q, want आ", got)
	}
	if got := ToTamil(s); got != "அ" {
		t.Errorf("ToTamil(ʔa) = %q, want அ", got)
	}
}

func TestRenderEmpty(t *testing.T) {
	if ToDevanagari(nil) != "" || ToTamil(nil) != "" {
		t.Error("empty phoneme string renders non-empty text")
	}
}

func TestEveryVowelHasMatraAndIndependent(t *testing.T) {
	for _, a := range []*Abugida{DevanagariAbugida, TamilAbugida} {
		inherent := 0
		for _, v := range a.Vowels {
			if v.Letter == 0 {
				t.Errorf("%v: vowel row %q has no independent letter", a.Script, v.Reads)
			}
			if v.Matra == 0 {
				inherent++
			}
		}
		if inherent != 1 {
			t.Errorf("%v: %d vowel rows without a matra, want the inherent vowel only", a.Script, inherent)
		}
		for _, p := range phoneme.All() {
			if _, ok := a.vowels[p]; p.IsVowel() && !ok {
				t.Errorf("%v: no vowel row renders %s", a.Script, p.IPA())
			}
		}
	}
}

func TestFoldAccents(t *testing.T) {
	cases := map[string]string{
		"René":      "Rene",
		"François":  "Francois",
		"Señor":     "Senor",
		"ÉCOLE":     "ECOLE",
		"Nehru":     "Nehru", // unaccented Latin unchanged
		"नेहरु":     "नेहरु", // non-Latin untouched
		"Gödel Øre": "Godel Ore",
	}
	for in, want := range cases {
		if got := FoldAccents(in); got != want {
			t.Errorf("FoldAccents(%q) = %q, want %q", in, got, want)
		}
	}
}
