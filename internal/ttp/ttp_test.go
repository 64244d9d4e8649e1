package ttp

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lexequal/internal/phoneme"
	"lexequal/internal/script"
)

func convert(t *testing.T, lang script.Language, text string) phoneme.String {
	t.Helper()
	out, err := Default().Convert(text, lang)
	if err != nil {
		t.Fatalf("Convert(%q, %v): %v", text, lang, err)
	}
	return out
}

func expectIPA(t *testing.T, lang script.Language, cases map[string]string) {
	t.Helper()
	for text, want := range cases {
		if got := convert(t, lang, text).IPA(); got != want {
			t.Errorf("%v %q -> %q, want %q", lang, text, got, want)
		}
	}
}

func TestRegistryBasics(t *testing.T) {
	r := Default()
	langs := r.Languages()
	if len(langs) != 6 {
		t.Fatalf("Default registry has %d languages, want 6: %v", len(langs), langs)
	}
	for _, l := range []script.Language{script.English, script.Hindi, script.Tamil, script.Greek, script.Spanish, script.French} {
		if !r.Has(l) {
			t.Errorf("registry missing %v", l)
		}
		c, ok := r.Get(l)
		if !ok || c.Language() != l {
			t.Errorf("Get(%v) = %v, %v", l, c, ok)
		}
	}
}

func TestRegistryNoResource(t *testing.T) {
	r := Default()
	_, err := r.Convert("بهنسي", script.Arabic)
	var nre *NoResourceError
	if !errors.As(err, &nre) {
		t.Fatalf("expected NoResourceError, got %v", err)
	}
	if nre.Lang != script.Arabic {
		t.Errorf("NoResourceError.Lang = %v", nre.Lang)
	}
	if nre.Error() == "" {
		t.Error("empty error message")
	}
}

func TestNilRegistry(t *testing.T) {
	var r *Registry
	if r.Has(script.English) {
		t.Error("nil registry claims a language")
	}
	if langs := r.Languages(); langs != nil {
		t.Errorf("nil registry languages = %v", langs)
	}
}

func TestRegistryReplace(t *testing.T) {
	r := NewRegistry()
	r.Register(NewEnglish())
	r.Register(NewEnglish()) // replace is fine
	if got := len(r.Languages()); got != 1 {
		t.Errorf("replace produced %d entries", got)
	}
}

func TestEnglishNames(t *testing.T) {
	expectIPA(t, script.English, map[string]string{
		"Nehru":      "neːru",
		"Nero":       "nɛroː",
		"Gita":       "ɡɪtə",
		"Smith":      "smɪθ",
		"Khan":       "kʰɑn",
		"Singh":      "sɪŋ",
		"Kathy":      "kaθi",
		"Cathy":      "kaθi", // the paper's q-gram motivation pair
		"Mike":       "maɪk",
		"Rose":       "roːz",
		"University": "junɪvərsɪti",
		"Johnson":    "dʒɒnsən",
	})
}

func TestEnglishSpellingVariantsConverge(t *testing.T) {
	// Phonetic matching's raison d'être: distinct spellings, same sound.
	pairs := [][2]string{
		{"Kathy", "Cathy"},
		{"Philip", "Filip"},
		{"Kristina", "Christina"},
	}
	for _, p := range pairs {
		a, b := convert(t, script.English, p[0]), convert(t, script.English, p[1])
		if !a.Equal(b) {
			t.Errorf("%s=%s but %s=%s", p[0], a, p[1], b)
		}
	}
}

func TestEnglishIndicRomanizations(t *testing.T) {
	// kh/gh/bh/dh and doubled vowels are live phonemes in romanized
	// Indic names; the converter must not mangle them.
	cases := map[string][]string{
		"Khan":   {"kʰ"},
		"Bharat": {"bʱ"},
		"Dhoni":  {"dʱ"},
		"Saad":   {"ɑː"},
		"Meena":  {"iː"},
	}
	for name, want := range cases {
		got := convert(t, script.English, name).IPA()
		for _, w := range want {
			if !containsIPA(got, w) {
				t.Errorf("%s -> %s lacks %s", name, got, w)
			}
		}
	}
}

func containsIPA(haystack, needle string) bool {
	return len(needle) > 0 && len(haystack) >= len(needle) && (haystack == needle || indexOf(haystack, needle) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestEnglishCaseAndDiacriticsFolded(t *testing.T) {
	a := convert(t, script.English, "RENE")
	b := convert(t, script.English, "René")
	c := convert(t, script.English, "rene")
	if !a.Equal(b) || !b.Equal(c) {
		t.Errorf("case/diacritic folding broken: %s %s %s", a, b, c)
	}
}

func TestEnglishMultiWord(t *testing.T) {
	got := convert(t, script.English, "New Delhi")
	a := convert(t, script.English, "New")
	b := convert(t, script.English, "Delhi")
	if !got.Equal(append(a.Clone(), b...)) {
		t.Errorf("multi-word conversion %s != %s + %s", got, a, b)
	}
}

func TestEnglishRejectsNonLatin(t *testing.T) {
	if _, err := Default().Convert("नेहरु", script.English); err == nil {
		t.Error("English converter transcribed Devanagari")
	}
	if _, err := Default().Convert("", script.English); err != nil {
		t.Errorf("empty input should be empty output, got error %v", err)
	}
}

func TestHindiWords(t *testing.T) {
	expectIPA(t, script.Hindi, map[string]string{
		"राम":      "raːm",          // final schwa deleted
		"नेहरु":    "neːɦrʊ",        // medial schwa deleted (VCəCV)
		"जवाहरलाल": "dʒəʋaːɦərlaːl", // alternating schwas kept/deleted
		"सीता":     "siːt̪aː",
		"कमल":      "kəməl", // final schwa deleted, medial retained
		"भारत":     "bʱaːrət̪",
		"कृष्ण":    "krɪʂɳ", // viramas form clusters
	})
}

func TestHindiNukta(t *testing.T) {
	// Precomposed (U+095B) and combining-nukta (U+091C U+093C) forms
	// must agree; built from escapes so source encoding cannot lie.
	pre := convert(t, script.Hindi, "\u095B\u093E\u0915\u093F\u0930")
	comb := convert(t, script.Hindi, "\u091C\u093C\u093E\u0915\u093F\u0930")
	if !pre.Equal(comb) {
		t.Errorf("nukta normalization: %s vs %s", pre, comb)
	}
	if pre[0] != phoneme.MustLookup("z") {
		t.Errorf("precomposed za -> %s, want z first", pre)
	}
}

func TestHindiAnusvara(t *testing.T) {
	cases := map[string]string{
		"गंगा": "ɡəŋɡaː",   // velar context -> ŋ
		"चंपा": "tʃəmpaː",  // labial context -> m
		"चंदन": "tʃənd̪ən", // dental/alveolar -> n
	}
	expectIPA(t, script.Hindi, cases)
}

func TestHindiVisarga(t *testing.T) {
	got := convert(t, script.Hindi, "दुःख")
	if got.IPA() != "d̪ʊɦkʰ" {
		t.Errorf("दुःख -> %s, want d̪ʊɦkʰ", got)
	}
}

func TestHindiRejectsLatin(t *testing.T) {
	if _, err := Default().Convert("Nehru", script.Hindi); err == nil {
		t.Error("Hindi converter transcribed Latin text")
	}
}

func TestTamilWords(t *testing.T) {
	expectIPA(t, script.Tamil, map[string]string{
		"நேரு":   "neːɾu",
		"ராம்":   "ɾaːm",
		"கமலா":   "kamalaː",
		"குமார்": "kumaːɾ",
	})
}

func TestTamilStopVoicing(t *testing.T) {
	// Word-initial: voiceless.
	if got := convert(t, script.Tamil, "கால்"); got[0] != phoneme.MustLookup("k") {
		t.Errorf("initial க -> %s, want k", got[0])
	}
	// Intervocalic: voiced.
	got := convert(t, script.Tamil, "மகன்") // makan -> maɡan
	if got.IPA() != "maɡan" {
		t.Errorf("மகன் -> %s, want maɡan", got)
	}
	// Post-nasal: voiced.
	got = convert(t, script.Tamil, "தங்கம்") // thangam
	if got.IPA() != "t̪aŋɡam" {
		t.Errorf("தங்கம் -> %s, want t̪aŋɡam", got)
	}
	// Geminate: single voiceless.
	got = convert(t, script.Tamil, "பக்கம்") // pakkam
	if got.IPA() != "pakam" {
		t.Errorf("பக்கம் -> %s, want pakam (degeminated)", got)
	}
	// Intervocalic ச is [s].
	got = convert(t, script.Tamil, "பசு") // pasu
	if got.IPA() != "pasu" {
		t.Errorf("பசு -> %s, want pasu", got)
	}
}

func TestTamilVoicingAmbiguityIsSystematic(t *testing.T) {
	// Gita and Kita collapse in Tamil orthography; reading back yields
	// the same phonemes for both — the paper's central fuzziness source.
	a := convert(t, script.Tamil, "கீதா")
	if a.IPA() != "kiːd̪aː" && a.IPA() != "kiːt̪aː" {
		t.Errorf("கீதா -> %s", a)
	}
}

func TestGreekNames(t *testing.T) {
	expectIPA(t, script.Greek, map[string]string{
		"Νερου":        "nɛru",
		"Κατερινα":     "katɛrina",
		"Παπαδοπουλος": "papaðopulos",
		"Γιαννης":      "jannis",
		"Μπανανα":      "banana", // initial μπ = b
		"Σαμπας":       "sambas", // medial μπ = mb
		"Ευαγγελος":    "ɛvaŋɡɛlos",
		"Τζορτζ":       "dzordz", // George, via τζ
	})
}

func TestGreekSigmaFolding(t *testing.T) {
	a := convert(t, script.Greek, "Παππασ") // medial-form sigma
	b := convert(t, script.Greek, "Παππας") // final-form sigma
	if !a.Equal(b) {
		t.Errorf("final sigma folding: %s vs %s", a, b)
	}
	// Accented vowels fold to their base.
	c := convert(t, script.Greek, "Κατερίνα")
	d := convert(t, script.Greek, "Κατερινα")
	if !c.Equal(d) {
		t.Errorf("tonos folding: %s vs %s", c, d)
	}
}

func TestSpanishNames(t *testing.T) {
	expectIPA(t, script.Spanish, map[string]string{
		"Jesus":     "xesus", // the paper's language-dependent vocalization example
		"José":      "xose",
		"Guillermo": "ɡiʎeɾmo",
		"Niño":      "niɲo",
		"Cervantes": "seɾbantes",
		"Zapata":    "sapata",
		"Hernandez": "eɾnandes", // silent h, seseo z
		"Roberto":   "robeɾto",  // initial trill, medial tap
	})
}

func TestFrenchNames(t *testing.T) {
	expectIPA(t, script.French, map[string]string{
		"René":     "ʁəne",
		"Jean":     "ʒɑ̃",
		"François": "fʁɑ̃swa",
		"Bordeaux": "bɔʁdo",
		"École":    "ekɔl",
		"Camille":  "kamij",
		"Dupont":   "dypɔ̃", // nasal on, silent final t
		"Moreau":   "mɔʁo",
	})
}

func TestFrenchSilentFinals(t *testing.T) {
	for _, name := range []string{"Dupont", "Bernard", "Thomas"} {
		got := convert(t, script.French, name)
		last := got[len(got)-1]
		if last == phoneme.MustLookup("t") || last == phoneme.MustLookup("d") || last == phoneme.MustLookup("s") {
			t.Errorf("%s -> %s retains silent final consonant", name, got)
		}
	}
}

func TestLanguageDependentVocalization(t *testing.T) {
	// §2.1 of the paper: "Jesus" vocalizes differently per language.
	en := convert(t, script.English, "Jesus")
	es := convert(t, script.Spanish, "Jesus")
	if en.Equal(es) {
		t.Error("English and Spanish vocalizations of Jesus should differ")
	}
	if es[0] != phoneme.MustLookup("x") {
		t.Errorf("Spanish Jesus starts with %s, want x", es[0])
	}
	if en[0] != phoneme.MustLookup("dʒ") {
		t.Errorf("English Jesus starts with %s, want dʒ", en[0])
	}
}

func TestConvertersDeterministic(t *testing.T) {
	r := Default()
	for _, c := range []struct {
		lang script.Language
		text string
	}{
		{script.English, "Alexander"},
		{script.Hindi, "जवाहरलाल"},
		{script.Tamil, "ஜவஹர்லால்"},
		{script.Greek, "Αλεξανδρος"},
	} {
		a, err1 := r.Convert(c.text, c.lang)
		b, err2 := r.Convert(c.text, c.lang)
		if err1 != nil || err2 != nil || !a.Equal(b) {
			t.Errorf("nondeterministic conversion for %q", c.text)
		}
	}
}

func TestOutputsContainNoSuprasegmentals(t *testing.T) {
	// Converter output must re-parse cleanly: pure phonemes, no marks.
	r := Default()
	inputs := map[script.Language][]string{
		script.English: {"Elizabeth", "Worcester", "Nkrumah"},
		script.Hindi:   {"श्रीनिवास", "पंडित"},
		script.Tamil:   {"சுப்ரமணியம்"},
		script.Greek:   {"Χαραλαμπος"},
		script.Spanish: {"Velázquez"},
		script.French:  {"Beaumont"},
	}
	for lang, texts := range inputs {
		for _, text := range texts {
			out, err := r.Convert(text, lang)
			if err != nil {
				t.Errorf("%v %q: %v", lang, text, err)
				continue
			}
			if _, err := phoneme.Parse(out.IPA()); err != nil {
				t.Errorf("%v %q output %s does not re-parse: %v", lang, text, out, err)
			}
		}
	}
}

// TestRarePrecomposedIndicLetters: the precomposed Devanagari letters
// U+0929, U+0931 and U+095F read as their base letter followed by the
// nukta does, and Tamil U+0BB6 reads ʃ; no renderer writes any of them.
// None occurs in the lexicon, the generated rows or the fuzz seeds, so
// the golden digest does not see them.
func TestRarePrecomposedIndicLetters(t *testing.T) {
	const nukta = "\u093c"
	for precomposed, base := range map[string]string{"\u0929": "\u0928", "\u0931": "\u0930", "\u095f": "\u092f"} {
		for _, word := range []string{"%s\u093e", "\u0915%s\u0940", "%s", "\u0905%s\u094d\u0924"} {
			text := fmt.Sprintf(word, precomposed)
			got, want := convert(t, script.Hindi, text), convert(t, script.Hindi, fmt.Sprintf(word, base+nukta))
			if !got.Equal(want) || !got.Equal(convert(t, script.Hindi, fmt.Sprintf(word, base))) {
				t.Errorf("%q reads %s, its decomposition %s", text, got.IPA(), want.IPA())
			}
		}
	}
	expectIPA(t, script.Tamil, map[string]string{"\u0bb6\u0bbe": "ʃaː", "\u0b86\u0bb6\u0bbe": "aːʃaː"})
	a := phoneme.MustLookup("a")
	for _, p := range phoneme.All() {
		for _, s := range []phoneme.String{{p}, {p, a}, {a, p, p}} {
			if out := script.ToDevanagari(s); strings.ContainsAny(out, "\u0929\u0931\u095f") {
				t.Errorf("ToDevanagari(%s) = %q", s.IPA(), out)
			}
			if out := script.ToTamil(s); strings.ContainsRune(out, '\u0bb6') {
				t.Errorf("ToTamil(%s) = %q", s.IPA(), out)
			}
		}
	}
}
