// Package script provides the writing-system layer of the reproduction:
// language identifiers, Unicode script detection (the paper's §2.1 notes
// that language identification from character blocks is approximate —
// GuessLanguage implements exactly that heuristic), and the abugida
// tables of Devanagari and Tamil: one row per letter, read letter to
// phoneme by the Hindi and Tamil TTP converters and phoneme to letter
// by the renderers that synthesize the Indic sides of the tagged
// multiscript lexicon.
package script

import (
	"fmt"
	"strings"
	"unicode"
)

// Language identifies a natural language. Values are lowercase English
// names, matching the paper's INLANGUAGES syntax.
type Language string

// Languages known to the system.
const (
	Unknown  Language = ""
	English  Language = "english"
	Hindi    Language = "hindi"
	Tamil    Language = "tamil"
	Greek    Language = "greek"
	Spanish  Language = "spanish"
	French   Language = "french"
	Arabic   Language = "arabic" // appears in the paper's motivating catalog
	Japanese Language = "japanese"
)

// ParseLanguage normalizes a user-supplied language name.
func ParseLanguage(s string) (Language, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "english", "en":
		return English, nil
	case "hindi", "hi":
		return Hindi, nil
	case "tamil", "ta":
		return Tamil, nil
	case "greek", "el":
		return Greek, nil
	case "spanish", "es":
		return Spanish, nil
	case "french", "fr":
		return French, nil
	case "arabic", "ar":
		return Arabic, nil
	case "japanese", "ja":
		return Japanese, nil
	default:
		return Unknown, fmt.Errorf("script: unknown language %q", s)
	}
}

func (l Language) String() string {
	if l == Unknown {
		return "unknown"
	}
	return string(l)
}

// Script identifies a writing system.
type Script uint8

// Writing systems distinguished by the detector.
const (
	ScriptUnknown Script = iota
	Latin
	Devanagari
	TamilScript
	GreekScript
	ArabicScript
	Han
	Kana
)

func (s Script) String() string {
	names := [...]string{"unknown", "latin", "devanagari", "tamil", "greek", "arabic", "han", "kana"}
	if int(s) < len(names) {
		return names[s]
	}
	return fmt.Sprintf("Script(%d)", uint8(s))
}

// runeScript classifies one rune by Unicode block.
func runeScript(r rune) Script {
	switch {
	case unicode.Is(unicode.Latin, r):
		return Latin
	case DevanagariAbugida.In(r):
		return Devanagari
	case TamilAbugida.In(r):
		return TamilScript
	case unicode.Is(unicode.Greek, r):
		return GreekScript
	case unicode.Is(unicode.Arabic, r):
		return ArabicScript
	case unicode.Is(unicode.Han, r):
		return Han
	case unicode.Is(unicode.Hiragana, r) || unicode.Is(unicode.Katakana, r):
		return Kana
	default:
		return ScriptUnknown
	}
}

// DetectScript returns the dominant script of text by rune count;
// non-letter runes are ignored. Ties resolve to the script seen first.
func DetectScript(text string) Script {
	counts := map[Script]int{}
	order := map[Script]int{}
	seq := 0
	for _, r := range text {
		s := runeScript(r)
		if s == ScriptUnknown {
			continue
		}
		if _, seen := order[s]; !seen {
			order[s] = seq
			seq++
		}
		counts[s]++
	}
	best, bestN, bestOrd := ScriptUnknown, 0, 1<<30
	for s, n := range counts {
		if n > bestN || (n == bestN && order[s] < bestOrd) {
			best, bestN, bestOrd = s, n, order[s]
		}
	}
	return best
}

// GuessLanguage maps the dominant script of text to a default language,
// implementing the paper's observation that Unicode blocks identify
// languages only approximately (Latin text defaults to English; a
// catalog would carry explicit language tags, as ours does).
func GuessLanguage(text string) Language {
	switch DetectScript(text) {
	case Latin:
		return English
	case Devanagari:
		return Hindi
	case TamilScript:
		return Tamil
	case GreekScript:
		return Greek
	case ArabicScript:
		return Arabic
	case Han, Kana:
		return Japanese
	default:
		return Unknown
	}
}

// DefaultScript returns the script a language is conventionally written
// in.
func DefaultScript(l Language) Script {
	switch l {
	case English, Spanish, French:
		return Latin
	case Hindi:
		return Devanagari
	case Tamil:
		return TamilScript
	case Greek:
		return GreekScript
	case Arabic:
		return ArabicScript
	case Japanese:
		return Kana
	default:
		return ScriptUnknown
	}
}

// FoldAccents strips Latin diacritics (é -> e, ñ -> n), implementing
// the "simple lexicographic and accent variations" matching the paper's
// §2.1 delegates to its companion multilexical-matching report. It
// leaves non-Latin text untouched.
func FoldAccents(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		if f, ok := latinAccentFold[r]; ok {
			b.WriteRune(f)
		} else {
			b.WriteRune(r)
		}
	}
	return b.String()
}

var latinAccentFold = map[rune]rune{
	'á': 'a', 'à': 'a', 'â': 'a', 'ä': 'a', 'ã': 'a', 'å': 'a', 'ā': 'a',
	'Á': 'A', 'À': 'A', 'Â': 'A', 'Ä': 'A', 'Ã': 'A', 'Å': 'A',
	'é': 'e', 'è': 'e', 'ê': 'e', 'ë': 'e', 'ē': 'e',
	'É': 'E', 'È': 'E', 'Ê': 'E', 'Ë': 'E',
	'í': 'i', 'ì': 'i', 'î': 'i', 'ï': 'i', 'ī': 'i',
	'Í': 'I', 'Ì': 'I', 'Î': 'I', 'Ï': 'I',
	'ó': 'o', 'ò': 'o', 'ô': 'o', 'ö': 'o', 'õ': 'o', 'ō': 'o', 'ő': 'o',
	'Ó': 'O', 'Ò': 'O', 'Ô': 'O', 'Ö': 'O', 'Õ': 'O',
	'ú': 'u', 'ù': 'u', 'û': 'u', 'ü': 'u', 'ū': 'u',
	'Ú': 'U', 'Ù': 'U', 'Û': 'U', 'Ü': 'U',
	'ñ': 'n', 'Ñ': 'N', 'ç': 'c', 'Ç': 'C',
	'ý': 'y', 'ÿ': 'y', 'ø': 'o', 'Ø': 'O',
}
