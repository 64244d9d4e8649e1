package script

import (
	"strings"

	"lexequal/internal/phoneme"
)

// This file describes the two Indic scripts of the lexicon, Devanagari
// and Tamil, as data: one table per script, one row per letter. The
// Hindi and Tamil TTP converters read a table letter to phoneme; the
// renderers below read the same table phoneme to letter.
//
// The paper's tagged lexicon was produced by hand-transliterating 800
// English names into Hindi and Tamil ("conversion is fairly straight
// forward, barring variations due to the mismatch of phoneme sets",
// §4.1); the renderers model that process, including the information
// loss a human transliterator cannot avoid: Tamil script does not
// distinguish stop voicing or aspiration, Devanagari folds f→फ़,
// w/v→व, θ/ð→त/द, and so on. Reading the rendered strings back through
// the respective TTP converters therefore yields phoneme strings that
// differ from the English source in exactly the cluster-internal ways
// the LexEQUAL cost model is designed to absorb.

// Consonant is one consonant letter of an abugida table.
type Consonant struct {
	Letter rune
	// Reads is the IPA the letter reads as. A stop whose reading
	// depends on its position (Tamil) gives three, space-separated:
	// word-initial or geminate, post-nasal, intervocalic.
	Reads string
	// From lists, space-separated, the other phonemes a transliterator
	// writes with this letter.
	From string
}

// Vowel is one vowel of an abugida table: its independent letter and
// its dependent sign (matra). The inherent vowel has no matra (0).
type Vowel struct {
	Letter, Matra rune
	Reads, From   string
}

// Abugida describes one Indic script. A phoneme renders as the first
// row that reads it or lists it in From; a multi-phoneme reading (ऋ
// rɪ, ஐ ai) is read but never rendered.
type Abugida struct {
	Script     Script
	Lo, Hi     rune // the Unicode block
	Virama     rune
	Nukta      rune
	NuktaFolds map[rune]rune // base letter -> its precomposed nukta letter
	// Anusvara, Candrabindu and Visarga are 0 where the converter reads
	// no such sign.
	Anusvara, Candrabindu, Visarga rune
	Consonants                     []Consonant
	Vowels                         []Vowel

	// Renderer policies. A nukta letter is always written decomposed,
	// base letter then nukta.
	FinalVirama     bool // a word-final consonant takes the virama (Tamil pulli)
	FinalSchwaMatra rune // written for a word-final schwa after a consonant
	NasalTail       rune // written after a nasalized vowel; 0 writes the anusvara
	MedialN         rune // n after a word's first letter (Tamil ன; ந initially)

	glyphs     []Glyph // by rune - Lo
	inherent   phoneme.String
	consonants map[phoneme.Phoneme]string
	vowels     map[phoneme.Phoneme][2]string // independent letter, matra
}

// GlyphKind classifies one rune of an abugida's block for a reader.
type GlyphKind uint8

// Glyph kinds. A rune of the block that no row lists is NotALetter.
const (
	NotALetter GlyphKind = iota
	ConsonantGlyph
	VowelGlyph // an independent vowel letter
	MarkGlyph  // a matra, or the virama (which reads as no vowel)
	SignGlyph  // anusvara, candrabindu, visarga
)

// Glyph is what one rune of an abugida reads as.
type Glyph struct {
	Kind  GlyphKind
	Reads phoneme.String
	// Voiced and Intervocalic are a positionally alternating stop's
	// post-nasal and intervocalic readings; nil for other letters.
	Voiced, Intervocalic phoneme.String
}

// In reports whether r lies in the script's Unicode block.
func (a *Abugida) In(r rune) bool { return r >= a.Lo && r <= a.Hi }

// Glyph returns what r reads as (NotALetter outside the table). The
// Glyph is the table's own: callers must not modify it.
func (a *Abugida) Glyph(r rune) *Glyph {
	if !a.In(r) {
		return &Glyph{}
	}
	return &a.glyphs[r-a.Lo]
}

// Inherent returns the vowel a consonant carries without a matra.
func (a *Abugida) Inherent() phoneme.String { return a.inherent }

// DevanagariAbugida is the Devanagari table (Hindi).
var DevanagariAbugida = &Abugida{
	Script: Devanagari, Lo: 0x0900, Hi: 0x097F,
	Virama: '्', Nukta: '़',
	NuktaFolds: map[rune]rune{
		'क': 'क़', 'ख': 'ख़', 'ग': 'ग़', 'ज': 'ज़',
		'ड': 'ड़', 'ढ': 'ढ़', 'फ': 'फ़',
	},
	Anusvara: 'ं', Candrabindu: 'ँ', Visarga: 'ः',
	Consonants: []Consonant{
		{'क', "k", ""}, {'ख', "kʰ", ""}, {'ग', "ɡ", ""}, {'घ', "ɡʱ", ""}, {'ङ', "ŋ", ""},
		{'च', "tʃ", "ts"}, {'छ', "tʃʰ", ""}, {'ज', "dʒ", "dz"}, {'झ', "dʒʱ", ""}, {'ञ', "ɲ", ""},
		{'ट', "ʈ", ""}, {'ठ', "ʈʰ", ""}, {'ड', "ɖ", ""}, {'ढ', "ɖʱ", ""}, {'ण', "ɳ", ""},
		{'त', "t̪", "t θ"}, {'थ', "tʰ", ""}, {'द', "d̪", "d ð"}, {'ध', "dʱ", ""}, {'न', "n", ""},
		{'प', "p", ""}, {'फ', "pʰ", ""}, {'ब', "b", ""}, {'भ', "bʱ", ""}, {'म', "m", ""},
		{'य', "j", ""}, {'र', "r", "ɾ ɹ ɻ ʀ ʁ"}, {'ल', "l", "ʎ"}, {'ळ', "ɭ", ""}, {'व', "ʋ", "v w β"},
		{'श', "ʃ", "ʒ ç"}, {'ष', "ʂ", ""}, {'स', "s", ""}, {'ह', "ɦ", "h"},
		// Nukta (Perso-Arabic loan) letters, precomposed (U+0958..U+095E).
		{'क़', "q", ""}, {'ख़', "x", ""}, {'ग़', "ɣ", ""}, {'ज़', "z", ""},
		{'ड़', "ɽ", ""}, {'ढ़', "ɽ", ""}, {'फ़', "f", ""},
		// Precomposed nukta letters whose sound Hindi does not tell from
		// the base letter's: read as the base (and its nukta) reads, never
		// rendered, since the base row claims the phoneme first.
		{'ऩ', "n", ""}, {'ऱ', "r", ""}, {'य़', "j", ""},
	},
	// Only the reduced schwa is left inherent: the full open vowel is
	// written with the long letter (a transliterator writes Karachi as
	// कराची, not करची).
	Vowels: []Vowel{
		{'अ', 0, "ə", "ʌ ɜ ɜː ɐ ã"},
		{'आ', 'ा', "aː", "a ɑ ɑː ɒ ɑ̃"},
		{'इ', 'ि', "ɪ", "ɨ i ĩ"},
		{'ई', 'ी', "iː", ""},
		{'उ', 'ु', "ʊ", "u ũ y ʏ"},
		{'ऊ', 'ू', "uː", ""},
		{'ऋ', 'ृ', "rɪ", ""},
		{'ए', 'े', "eː", "e ẽ"},
		{'ऐ', 'ै', "ɛː", "æ ɛ ɛ̃"},
		{'ओ', 'ो', "oː", "o õ ø œ œ̃"},
		{'औ', 'ौ', "ɔː", "ɔ ɔ̃"},
		{'ऑ', 'ॉ', "ɒ", ""},
		{'ऍ', 'ॅ', "æ", ""},
	},
	// Hindi transliterators write the final reduced vowel of a name
	// with the long-ā matra (Gita -> गीता, Rama -> रामा); left inherent
	// it would be deleted on readback.
	FinalSchwaMatra: 'ा',
}

// TamilAbugida is the Tamil table. Tamil writes no nukta, anusvara or
// visarga; aytham (ஃ) has no row, so readers skip it.
var TamilAbugida = &Abugida{
	Script: TamilScript, Lo: 0x0B80, Hi: 0x0BFF,
	Virama: '்',
	Consonants: []Consonant{
		{'க', "k ɡ ɡ", "kʰ ɡ ɡʱ x ɣ q"}, {'ங', "ŋ", ""},
		{'ச', "tʃ dʒ s", "tʃʰ ç ts"}, {'ஜ', "dʒ", "dʒʱ z dz ʒ"}, {'ஞ', "ɲ", ""},
		{'ட', "ʈ ɖ ɖ", "ʈʰ ɖ ɖʱ"}, {'ண', "ɳ", ""},
		{'த', "t̪ d̪ d̪", "t tʰ θ d d̪ dʱ ð"}, {'ந', "n", ""}, {'ன', "n", ""},
		{'ப', "p b b", "pʰ b bʱ f β"}, {'ம', "m", ""},
		{'ய', "j", ""}, {'ர', "ɾ", "ɹ r ʀ ʁ"},
		// ற்ற was historically ttr; modern Tamil trills it.
		{'ற', "r r r", "ɽ"},
		{'ல', "l", "ʎ"}, {'ள', "ɭ", ""}, {'ழ', "ɻ", ""}, {'வ', "ʋ", "v w"},
		// Grantha letters for loan sounds.
		{'ஷ', "ʂ", "ʃ"}, {'ஸ', "s", ""}, {'ஹ', "ɦ", "h"},
		// ஶ is read; ʃ renders as ஷ, whose row claims it first.
		{'ஶ', "ʃ", ""},
	},
	Vowels: []Vowel{
		{'அ', 0, "a", "ə ʌ ɜ ɜː ɐ ã"},
		{'ஆ', 'ா', "aː", "ɑ ɑː ɒ æ ɑ̃"},
		{'இ', 'ி', "i", "ɪ ɨ ĩ"},
		{'ஈ', 'ீ', "iː", ""},
		{'உ', 'ு', "u", "ʊ y ʏ ũ"},
		{'ஊ', 'ூ', "uː", ""},
		{'எ', 'ெ', "e", "ɛ ɛː ɛ̃"},
		{'ஏ', 'ே', "eː", "ẽ"},
		{'ஐ', 'ை', "ai", ""},
		{'ஒ', 'ொ', "o", "ɔ ɔ̃ ø œ œ̃"},
		{'ஓ', 'ோ', "oː", "õ ɔː"},
		{'ஔ', 'ௌ', "au", ""},
	},
	FinalVirama: true,
	NasalTail:   'ன',
	MedialN:     'ன',
}

var nPhoneme = phoneme.MustLookup("n")

func init() {
	DevanagariAbugida.compile()
	TamilAbugida.compile()
}

// compile builds the reader's glyphs and the renderer's maps from the
// table's rows.
func (a *Abugida) compile() {
	a.glyphs = make([]Glyph, a.Hi-a.Lo+1)
	a.consonants = map[phoneme.Phoneme]string{}
	a.vowels = map[phoneme.Phoneme][2]string{}
	written := map[rune]string{}
	for base, folded := range a.NuktaFolds {
		written[folded] = string([]rune{base, a.Nukta})
	}
	for _, c := range a.Consonants {
		rs := strings.Fields(c.Reads)
		g := Glyph{Kind: ConsonantGlyph, Reads: phoneme.MustParse(rs[0])}
		if len(rs) == 3 {
			g.Voiced, g.Intervocalic = phoneme.MustParse(rs[1]), phoneme.MustParse(rs[2])
		}
		a.glyphs[c.Letter-a.Lo] = g
		w, ok := written[c.Letter]
		if !ok {
			w = string(c.Letter)
		}
		claim(a.consonants, g.Reads, c.From, w)
	}
	for _, v := range a.Vowels {
		reads := phoneme.MustParse(v.Reads)
		a.glyphs[v.Letter-a.Lo] = Glyph{Kind: VowelGlyph, Reads: reads}
		matra := ""
		if v.Matra == 0 {
			a.inherent = reads
		} else {
			a.glyphs[v.Matra-a.Lo] = Glyph{Kind: MarkGlyph, Reads: reads}
			matra = string(v.Matra)
		}
		claim(a.vowels, reads, v.From, [2]string{string(v.Letter), matra})
	}
	a.glyphs[a.Virama-a.Lo] = Glyph{Kind: MarkGlyph}
	for _, s := range []rune{a.Anusvara, a.Candrabindu, a.Visarga} {
		if s != 0 {
			a.glyphs[s-a.Lo] = Glyph{Kind: SignGlyph}
		}
	}
}

// claim renders reads (when it is one phoneme) and the phonemes of from
// as w, unless an earlier row claimed them.
func claim[T any](m map[phoneme.Phoneme]T, reads phoneme.String, from string, w T) {
	ps := phoneme.MustParse(from)
	if len(reads) == 1 {
		ps = append(ps, reads[0])
	}
	for _, p := range ps {
		if _, ok := m[p]; !ok {
			m[p] = w
		}
	}
}

// Render converts a phoneme string to the script's orthography:
// consonants carry the inherent vowel, other vowels attach as matras
// after a consonant or stand as independent letters elsewhere, and
// bare consonants in clusters take the virama. Phonemes without a
// letter are skipped (mirroring a transliterator dropping an alien
// sound).
func (a *Abugida) Render(s phoneme.String) string {
	var b strings.Builder
	pendingConsonant := false // a consonant letter awaiting its vowel
	wrote := false
	for i, p := range s {
		if c, ok := a.consonants[p]; ok {
			if pendingConsonant {
				b.WriteRune(a.Virama)
			}
			if a.MedialN != 0 && p == nPhoneme && wrote {
				c = string(a.MedialN)
			}
			b.WriteString(c)
			pendingConsonant, wrote = true, true
			continue
		}
		v, ok := a.vowels[p]
		if !ok {
			continue // unmappable consonant: dropped
		}
		if !pendingConsonant {
			b.WriteString(v[0])
		} else if v[1] != "" {
			b.WriteString(v[1])
		} else if p == phoneme.Schwa && i == len(s)-1 && a.FinalSchwaMatra != 0 {
			b.WriteRune(a.FinalSchwaMatra)
		}
		pendingConsonant, wrote = false, true
		if p.Features().Nasalized {
			if a.NasalTail != 0 {
				b.WriteRune(a.NasalTail)
				pendingConsonant = true
			} else {
				b.WriteRune(a.Anusvara)
			}
		}
	}
	if pendingConsonant && a.FinalVirama {
		b.WriteRune(a.Virama)
	}
	return b.String()
}

// ToDevanagari renders a phoneme string in Hindi (Devanagari)
// orthography.
func ToDevanagari(s phoneme.String) string { return DevanagariAbugida.Render(s) }

// ToTamil renders a phoneme string in Tamil orthography.
func ToTamil(s phoneme.String) string { return TamilAbugida.Render(s) }
