// Package phoneme defines the phonemic alphabet used by the LexEQUAL
// operator: an inventory of IPA phonemes annotated with articulatory
// features, parsing of IPA text into phoneme strings, feature-based
// similarity, and the multilingual phoneme clustering that underlies the
// clustered edit distance and the phonetic index of the paper.
//
// Phonemes are small integer handles into a fixed inventory. A phoneme
// string (type String) is the unit of comparison everywhere else in the
// system: Text-To-Phoneme converters produce them, the edit-distance
// kernel consumes them, and the phonetic index is keyed by their cluster
// projection.
package phoneme

import (
	"fmt"
	"sort"
	"strings"
	"unicode/utf8"
)

// Phoneme is a handle into the global inventory. The zero value is
// invalid and never produced by Parse or Lookup.
type Phoneme uint8

// Invalid is the zero Phoneme; it is not part of the inventory.
const Invalid Phoneme = 0

// Class partitions the inventory into consonants and vowels.
type Class uint8

// Phoneme classes.
const (
	Consonant Class = iota + 1
	Vowel
)

func (c Class) String() string {
	switch c {
	case Consonant:
		return "consonant"
	case Vowel:
		return "vowel"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// Manner of articulation for consonants.
type Manner uint8

// Consonant manners.
const (
	Plosive Manner = iota + 1
	Nasal
	Trill
	Tap
	Fricative
	Affricate
	Approximant
	Lateral
)

func (m Manner) String() string {
	names := [...]string{"", "plosive", "nasal", "trill", "tap", "fricative", "affricate", "approximant", "lateral"}
	if int(m) < len(names) && m > 0 {
		return names[m]
	}
	return fmt.Sprintf("Manner(%d)", uint8(m))
}

// Place of articulation for consonants.
type Place uint8

// Consonant places.
const (
	Bilabial Place = iota + 1
	Labiodental
	Dental
	Alveolar
	PostAlveolar
	Retroflex
	Palatal
	Velar
	LabioVelar
	Uvular
	Glottal
)

func (p Place) String() string {
	names := [...]string{"", "bilabial", "labiodental", "dental", "alveolar", "postalveolar", "retroflex", "palatal", "velar", "labiovelar", "uvular", "glottal"}
	if int(p) < len(names) && p > 0 {
		return names[p]
	}
	return fmt.Sprintf("Place(%d)", uint8(p))
}

// Height is vowel height (close = high, open = low).
type Height uint8

// Vowel heights.
const (
	Close Height = iota + 1
	NearClose
	CloseMid
	Mid
	OpenMid
	NearOpen
	Open
)

// Backness is vowel backness.
type Backness uint8

// Vowel backness values.
const (
	Front Backness = iota + 1
	Central
	Back
)

// Features is the articulatory feature bundle of a phoneme. Consonants
// use Manner/Place/Voiced/Aspirated; vowels use Height/Backness/Rounded.
// Long and Nasalized apply to vowels (length marks ː, nasal tilde).
type Features struct {
	Class     Class
	Manner    Manner
	Place     Place
	Voiced    bool
	Aspirated bool
	Height    Height
	Backness  Backness
	Rounded   bool
	Long      bool
	Nasalized bool
}

// info is one inventory entry.
type info struct {
	ipa string
	f   Features
}

// inventory holds every phoneme; index 0 is a sentinel for Invalid.
var inventory = []info{{}}

// byIPA maps the IPA spelling of each phoneme to its handle.
var byIPA = map[string]Phoneme{}

// trieNode is one state of the tokenizer's automaton: a byte-level trie
// over every spelling in byIPA, aliases included.
type trieNode struct {
	next [256]uint8 // successor state per input byte; 0 = no edge
	p    Phoneme    // the phoneme spelled by the path to this state, or Invalid
}

// trie is compiled as the inventory registers. State 0 is the root,
// which no edge leads back to; states are uint8 so that indexing the
// fixed array needs no bounds check in the tokenizer's inner loop.
var (
	trie     [256]trieNode
	trieSize = 1
)

func trieInsert(spelling string, p Phoneme) {
	var n uint8
	for i := 0; i < len(spelling); i++ {
		c := spelling[i]
		if trie[n].next[c] == 0 {
			if trieSize == len(trie) {
				panic("phoneme: tokenizer trie overflow")
			}
			trie[n].next[c] = uint8(trieSize)
			trieSize++
		}
		n = trie[n].next[c]
	}
	trie[n].p = p
}

func register(ipa string, f Features) Phoneme {
	if _, dup := byIPA[ipa]; dup {
		panic("phoneme: duplicate inventory entry " + ipa)
	}
	if len(inventory) > 255 {
		panic("phoneme: inventory overflow")
	}
	p := Phoneme(len(inventory))
	inventory = append(inventory, info{ipa: ipa, f: f})
	byIPA[ipa] = p
	trieInsert(ipa, p)
	return p
}

// alias registers an alternative spelling for an existing phoneme, so
// that Parse accepts it; the canonical spelling is unchanged.
func alias(spelling, canonical string) {
	p, ok := byIPA[canonical]
	if !ok {
		panic("phoneme: alias target unknown: " + canonical)
	}
	if _, dup := byIPA[spelling]; dup {
		panic("phoneme: duplicate alias " + spelling)
	}
	byIPA[spelling] = p
	trieInsert(spelling, p)
}

// Lookup returns the phoneme whose IPA spelling is exactly ipa.
func Lookup(ipa string) (Phoneme, bool) {
	p, ok := byIPA[ipa]
	return p, ok
}

// MustLookup is Lookup that panics on unknown spellings. It is intended
// for compile-time-constant tables (TTP rules, cluster definitions).
func MustLookup(ipa string) Phoneme {
	p, ok := byIPA[ipa]
	if !ok {
		panic("phoneme: unknown IPA symbol " + ipa)
	}
	return p
}

// Count reports the number of phonemes in the inventory.
func Count() int { return len(inventory) - 1 }

// All returns every phoneme in the inventory, in registration order.
func All() []Phoneme {
	ps := make([]Phoneme, 0, Count())
	for i := 1; i < len(inventory); i++ {
		ps = append(ps, Phoneme(i))
	}
	return ps
}

// Valid reports whether p is a live inventory handle.
func (p Phoneme) Valid() bool { return p != Invalid && int(p) < len(inventory) }

// IPA returns the canonical IPA spelling of p.
func (p Phoneme) IPA() string {
	if !p.Valid() {
		return "�"
	}
	return inventory[p].ipa
}

// Features returns the articulatory features of p.
func (p Phoneme) Features() Features {
	if !p.Valid() {
		return Features{}
	}
	return inventory[p].f
}

// IsVowel reports whether p is a vowel.
func (p Phoneme) IsVowel() bool { return p.Features().Class == Vowel }

// IsConsonant reports whether p is a consonant.
func (p Phoneme) IsConsonant() bool { return p.Features().Class == Consonant }

func (p Phoneme) String() string { return p.IPA() }

// String is a phoneme string: the phonemic transcription of one name.
type String []Phoneme

// IPA renders s in IPA orthography.
func (s String) IPA() string {
	var b strings.Builder
	for _, p := range s {
		b.WriteString(p.IPA())
	}
	return b.String()
}

func (s String) String() string { return s.IPA() }

// Equal reports element-wise equality.
func (s String) Equal(t String) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s String) Clone() String {
	t := make(String, len(s))
	copy(t, s)
	return t
}

// Compare orders phoneme strings lexicographically by handle, giving a
// stable (if linguistically arbitrary) total order used for sorting.
func (s String) Compare(t String) int {
	n := len(s)
	if len(t) < n {
		n = len(t)
	}
	for i := 0; i < n; i++ {
		if s[i] != t[i] {
			if s[i] < t[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(s) < len(t):
		return -1
	case len(s) > len(t):
		return 1
	default:
		return 0
	}
}

// Parse tokenizes IPA text into a phoneme string using longest-match
// against the inventory. Suprasegmentals and unknown marks listed in
// ignorable (stress marks, syllable dots, tie bars) are skipped; any
// other unknown rune is an error.
func Parse(ipa string) (String, error) {
	s, bad := parse(ipa)
	if bad >= 0 {
		return nil, fmt.Errorf("phoneme: unknown IPA symbol %q in %q", string(bad), ipa)
	}
	return s, nil
}

// ParseLenient tokenizes like Parse but silently drops unknown symbols.
// The paper strips speech-generation marks (suprasegmentals, diacritics,
// tones, accents) from converter output; ParseLenient implements that
// cleanup for foreign transcriptions.
func ParseLenient(ipa string) String {
	s, _ := parse(ipa)
	return s
}

// AppendParseLenient is ParseLenient over raw bytes, appending to dst:
// a scan tokenizes stored IPA straight out of a record into storage it
// owns, allocating neither a Go string nor an output slice per row.
func AppendParseLenient(dst String, ipa []byte) String {
	dst, _ = appendParse(dst, ipa)
	return dst
}

// MustParse is Parse that panics on error, for constant tables.
func MustParse(ipa string) String {
	s, err := Parse(ipa)
	if err != nil {
		panic(err)
	}
	return s
}

// ignorable reports the IPA marks that carry no phonemic content for
// matching: primary/secondary stress, syllable break, tie bars,
// length-neutral separators and whitespace.
func ignorable(r rune) bool {
	switch r {
	case 'ˈ', 'ˌ', '.', '‿', '͡', '͜', ' ', '\t', '-', '\'':
		return true
	}
	return false
}

// parse tokenizes into one fresh allocation: every spelling is at least
// a byte long, so len(ipa) bounds the output. No phonemes parse as nil.
func parse(ipa string) (String, rune) {
	s, bad := appendParse(make(String, 0, len(ipa)), ipa)
	if len(s) == 0 {
		return nil, bad
	}
	return s, bad
}

// appendParse is the tokenizer: one left-to-right pass that, at each
// position, walks the trie as far as the input allows and takes the
// longest spelling passed on the way (long vowels, aspirates and
// affricates are inventory entries of their own, so longest match
// suffices). Where no spelling starts, one rune is skipped; the first
// skipped rune that is not ignorable is returned, -1 if there is none.
func appendParse[T string | []byte](dst String, ipa T) (String, rune) {
	firstBad := rune(-1)
	for i := 0; i < len(ipa); {
		p, end := Invalid, i
		for n, j := uint8(0), i; j < len(ipa); j++ {
			n = trie[n].next[ipa[j]]
			if n == 0 {
				break
			}
			if q := trie[n].p; q != Invalid {
				p, end = q, j+1
			}
		}
		if p != Invalid {
			dst = append(dst, p)
			i = end
			continue
		}
		r, size := rune(ipa[i]), 1
		if r >= utf8.RuneSelf {
			var buf [utf8.UTFMax]byte
			r, size = utf8.DecodeRune(buf[:copy(buf[:], ipa[i:])])
		}
		if firstBad < 0 && !ignorable(r) {
			firstBad = r
		}
		i += size
	}
	return dst, firstBad
}

// Inventory returns the IPA spellings of all registered phonemes in a
// deterministic order, for diagnostics.
func Inventory() []string {
	out := make([]string, 0, Count())
	for i := 1; i < len(inventory); i++ {
		out = append(out, inventory[i].ipa)
	}
	sort.Strings(out)
	return out
}
