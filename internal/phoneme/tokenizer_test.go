package phoneme

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"unicode/utf8"
)

// refParse is the oracle for the trie tokenizer: longest match by probing
// byIPA with every substring of up to maxLen bytes, longest first. It
// returns the phoneme string and the first unknown, non-ignorable symbol
// ("" if none), exactly what Parse reports in its error.
func refParse(ipa string) (String, string) {
	maxLen := 0
	for s := range byIPA {
		if len(s) > maxLen {
			maxLen = len(s)
		}
	}
	var out String
	var firstBad string
	for i := 0; i < len(ipa); {
		end := i + maxLen
		if end > len(ipa) {
			end = len(ipa)
		}
		matched := false
		for j := end; j > i; j-- {
			if p, ok := byIPA[ipa[i:j]]; ok {
				out = append(out, p)
				i = j
				matched = true
				break
			}
		}
		if matched {
			continue
		}
		r, size := utf8.DecodeRuneInString(ipa[i:])
		if !ignorable(r) && firstBad == "" {
			firstBad = string(r)
		}
		i += size
	}
	return out, firstBad
}

// checkEquivalent holds every entry point of the trie tokenizer against
// the oracle on one input.
func checkEquivalent(t *testing.T, ipa string) {
	t.Helper()
	want, wantBad := refParse(ipa)
	got, bad := parse(ipa)
	gotBad := ""
	if bad >= 0 {
		gotBad = string(bad)
	}
	if !got.Equal(want) || (got == nil) != (want == nil) || gotBad != wantBad {
		t.Fatalf("parse(%q) = %v, bad %q; reference %v, bad %q", ipa, got, gotBad, want, wantBad)
	}
	prefix := String{Schwa}
	if app := AppendParseLenient(prefix, []byte(ipa)); !app[:1].Equal(prefix) || !app[1:].Equal(want) {
		t.Fatalf("AppendParseLenient(%q) = %v, reference %v", ipa, app[1:], want)
	}
	_, err := Parse(ipa)
	if (err != nil) != (wantBad != "") {
		t.Fatalf("Parse(%q) error %v, reference first bad symbol %q", ipa, err, wantBad)
	}
	if err != nil {
		if want := fmt.Sprintf("phoneme: unknown IPA symbol %q in %q", wantBad, ipa); err.Error() != want {
			t.Fatalf("Parse(%q) error text %q, want %q", ipa, err, want)
		}
	}
}

// spellings lists every inventory spelling and alias, sorted.
func spellings() []string {
	out := make([]string, 0, len(byIPA))
	for s := range byIPA {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// marks are the ignorable runes plus inputs no spelling starts with:
// unknown ASCII and non-ASCII runes, NUL, and invalid UTF-8 (a stray
// continuation byte, a truncated lead byte, an overlong prefix).
var marks = []string{
	"ˈ", "ˌ", ".", "‿", "͡", "͜", " ", "\t", "-", "'",
	"#", "ξ", "\x00", " ", "𝄞", "\x80", "\xc9", "\xe2\x80", "\xff",
}

func TestTrieMatchesReferenceOnInventory(t *testing.T) {
	sp := spellings()
	for _, a := range sp {
		checkEquivalent(t, a)
		// Every proper prefix, too: a spelling cut mid-rune is invalid UTF-8.
		for i := 1; i < len(a); i++ {
			checkEquivalent(t, a[:i])
		}
	}
	for _, a := range sp {
		for _, b := range sp {
			checkEquivalent(t, a+b)
		}
	}
}

func TestTrieMatchesReferenceWithMarks(t *testing.T) {
	sp := spellings()
	for _, m := range marks {
		checkEquivalent(t, m)
		for _, a := range sp {
			checkEquivalent(t, m+a)
			checkEquivalent(t, a+m)
			checkEquivalent(t, a+m+a)
		}
		for _, n := range marks {
			checkEquivalent(t, m+n)
			checkEquivalent(t, "a"+m+n+"ʃ")
		}
	}
}

func TestTrieMatchesReferenceRandom(t *testing.T) {
	sp := spellings()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var s []byte
		for n := rng.Intn(12); n > 0; n-- {
			switch rng.Intn(10) {
			case 0:
				s = append(s, marks[rng.Intn(len(marks))]...)
			case 1:
				s = append(s, byte(rng.Intn(256)))
			default:
				s = append(s, sp[rng.Intn(len(sp))]...)
			}
		}
		checkEquivalent(t, string(s))
	}
}

func FuzzParseEquivalence(f *testing.F) {
	for _, s := range []string{"", "dʒəvaːɦərlaːl", "ˈneɪ.ru", "na#ru", "t̠ʃ", "t\xcc", "ɑ̃\x80ʈʰ"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ipa string) { checkEquivalent(t, ipa) })
}
