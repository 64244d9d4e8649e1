package soundex

import (
	"testing"
	"testing/quick"

	"lexequal/internal/phoneme"
)

func TestClassicKnuthExamples(t *testing.T) {
	// The canonical examples from Knuth Vol. 3.
	cases := map[string]string{
		"Robert":      "R163",
		"Rupert":      "R163",
		"Euler":       "E460",
		"Gauss":       "G200",
		"Hilbert":     "H416",
		"Knuth":       "K530",
		"Lloyd":       "L300",
		"Lukasiewicz": "L222",
		"Ellery":      "E460",
		"Ghosh":       "G200",
		"Heilbronn":   "H416",
		"Kant":        "K530",
		"Ladd":        "L300",
		"Lissajous":   "L222",
	}
	for name, want := range cases {
		if got := Classic(name); got != want {
			t.Errorf("Classic(%q) = %q, want %q", name, got, want)
		}
	}
}

func TestClassicVariantsCollide(t *testing.T) {
	pairs := [][2]string{
		{"Cathy", "Kathy"}, // actually C/K differ in first letter!
	}
	// Soundex keeps the first letter, so Cathy/Kathy do NOT collide —
	// one of its classic weaknesses, and part of why the paper moves to
	// the phoneme domain.
	for _, p := range pairs {
		if Classic(p[0]) == Classic(p[1]) {
			t.Errorf("expected %q and %q to differ under Soundex (first-letter rule)", p[0], p[1])
		}
	}
	same := [][2]string{
		{"Smith", "Smyth"},
		{"Nehru", "Neru"},
		{"Catherine", "Cathryn"},
	}
	for _, p := range same {
		if Classic(p[0]) != Classic(p[1]) {
			t.Errorf("Classic(%q)=%q != Classic(%q)=%q", p[0], Classic(p[0]), p[1], Classic(p[1]))
		}
	}
}

func TestClassicEdgeCases(t *testing.T) {
	if got := Classic(""); got != "0000" {
		t.Errorf("Classic of empty = %q", got)
	}
	if got := Classic("123 !!"); got != "0000" {
		t.Errorf("Classic of non-letters = %q", got)
	}
	if got := Classic("A"); got != "A000" {
		t.Errorf("Classic(A) = %q", got)
	}
	// Case-insensitive.
	if Classic("NEHRU") != Classic("nehru") {
		t.Error("Classic is case sensitive")
	}
	// Non-Latin characters are ignored.
	if got := Classic("नेहरुNehru"); got != Classic("Nehru") {
		t.Errorf("Classic with Devanagari prefix = %q", got)
	}
}

func TestClassicHWTransparent(t *testing.T) {
	// h/w do not separate a run of same-coded consonants: Ashcraft is
	// A261 (s and c merge across the h), not A226.
	if got := Classic("Ashcraft"); got != "A261" {
		t.Errorf("Classic(Ashcraft) = %q, want A261", got)
	}
	if got := Classic("Tymczak"); got != "T522" {
		t.Errorf("Classic(Tymczak) = %q, want T522", got)
	}
	if got := Classic("Pfister"); got != "P236" {
		t.Errorf("Classic(Pfister) = %q, want P236", got)
	}
}

func TestEncoderBasics(t *testing.T) {
	e := NewEncoder(phoneme.DefaultClusters())
	if e.Clusters() != phoneme.DefaultClusters() {
		t.Error("Clusters() mismatch")
	}
	if e.MaxLen() < 10 {
		t.Errorf("MaxLen = %d, suspiciously small", e.MaxLen())
	}
	// Same cluster signature -> same ID.
	a := phoneme.MustParse("neru")
	b := phoneme.MustParse("neːrʊ") // length/quality variants within clusters
	if e.Encode(a) != e.Encode(b) {
		t.Errorf("cluster variants got different IDs: %s=%d %s=%d (%s vs %s)",
			a, e.Encode(a), b, e.Encode(b), e.PhoneticCode(a), e.PhoneticCode(b))
	}
	// Cross-cluster change -> different ID.
	c := phoneme.MustParse("neku")
	if e.Encode(a) == e.Encode(c) {
		t.Error("cross-cluster substitution kept the same ID")
	}
	// Length-sensitive.
	d := phoneme.MustParse("nerus")
	if e.Encode(a) == e.Encode(d) {
		t.Error("appended phoneme kept the same ID")
	}
}

func TestEncoderEmptyAndPrefixCap(t *testing.T) {
	e := NewEncoder(phoneme.DefaultClusters())
	if e.Encode(nil) != 0 {
		t.Error("empty string should encode to 0")
	}
	// Strings longer than MaxLen share their prefix's key.
	long := make(phoneme.String, e.MaxLen()+5)
	for i := range long {
		long[i] = phoneme.MustLookup("a")
	}
	prefix := long[:e.MaxLen()]
	if e.Encode(long) != e.Encode(prefix) {
		t.Error("over-length string does not collide with its prefix")
	}
}

func TestEncoderLeadingZeroDistinct(t *testing.T) {
	// Base has a reserved 0 digit, so "x" and "xx" (same cluster) must
	// differ: padding ambiguity would merge different-length strings.
	e := NewEncoder(phoneme.DefaultClusters())
	one := phoneme.MustParse("a")
	two := phoneme.MustParse("aa")
	if e.Encode(one) == e.Encode(two) {
		t.Error("strings of different length collide")
	}
}

func TestEncoderAgreesAcrossClusterSets(t *testing.T) {
	// Coarse clusters must merge at least everything default merges.
	def := NewEncoder(phoneme.DefaultClusters())
	coarse := NewEncoder(phoneme.CoarseClusters())
	pairs := [][2]string{{"pat", "bat"}, {"neru", "neːrʊ"}, {"sita", "ɡita"}}
	for _, p := range pairs {
		a, b := phoneme.MustParse(p[0]), phoneme.MustParse(p[1])
		if def.Encode(a) == def.Encode(b) && coarse.Encode(a) != coarse.Encode(b) {
			t.Errorf("coarse splits %s/%s which default merges", p[0], p[1])
		}
	}
}

// Property: Encode is a function of the signature projection — two
// strings get equal IDs iff their (capped) projections have equal
// cluster signatures. (The projection drops glottals, so the oracle
// must too.)
func TestQuickEncodeSignatureConsistency(t *testing.T) {
	e := NewEncoder(phoneme.DefaultClusters())
	all := phoneme.All()
	mk := func(bs []byte) phoneme.String {
		if len(bs) > e.MaxLen() {
			bs = bs[:e.MaxLen()]
		}
		s := make(phoneme.String, 0, len(bs))
		for _, b := range bs {
			s = append(s, all[int(b)%len(all)])
		}
		return s
	}
	f := func(ba, bb []byte) bool {
		a, b := mk(ba), mk(bb)
		sigEq := e.Clusters().Signature(e.Project(a)) == e.Clusters().Signature(e.Project(b))
		return sigEq == (e.Encode(a) == e.Encode(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPhoneticCode(t *testing.T) {
	e := NewEncoder(phoneme.DefaultClusters())
	code := e.PhoneticCode(phoneme.MustParse("neru"))
	if len(code) != 4 {
		t.Errorf("PhoneticCode length = %d, want 4 (%q)", len(code), code)
	}
	if e.PhoneticCode(phoneme.MustParse("neːrʊ")) != code {
		t.Error("cluster variants have different phonetic codes")
	}
}

func TestEncoderSkipsGlottals(t *testing.T) {
	e := NewEncoder(phoneme.DefaultClusters())
	// Hindi neːɦrʊ and Tamil neːɾu share a grouped id despite the ɦ.
	hi := phoneme.MustParse("neːɦrʊ")
	ta := phoneme.MustParse("neːɾu")
	if e.Encode(hi) != e.Encode(ta) {
		t.Errorf("glottal indel changed the key: %s vs %s", e.PhoneticCode(hi), e.PhoneticCode(ta))
	}
	// The strict encoder separates them.
	strict := NewEncoderKeepWeak(phoneme.DefaultClusters())
	if strict.Encode(hi) == strict.Encode(ta) {
		t.Error("keep-weak encoder merged glottal variants")
	}
	// Schwa is retained by both.
	a := phoneme.MustParse("nerə")
	b := phoneme.MustParse("ner")
	if e.Encode(a) == e.Encode(b) {
		t.Error("schwa was skipped from the key")
	}
}

func TestEncoderProject(t *testing.T) {
	e := NewEncoder(phoneme.DefaultClusters())
	p := e.Project(phoneme.MustParse("neːɦrʊ"))
	q := e.Project(phoneme.MustParse("neru"))
	if !p.Equal(q) {
		t.Errorf("projections differ: %v vs %v", p, q)
	}
	// Projection is idempotent.
	if !e.Project(p).Equal(p) {
		t.Error("projection not idempotent")
	}
	// Cross-cluster content is preserved.
	r := e.Project(phoneme.MustParse("neku"))
	if r.Equal(q) {
		t.Error("projection erased a cross-cluster difference")
	}
	// AppendProject extends the caller's buffer and keeps what it held.
	buf := e.AppendProject(append(phoneme.String(nil), r...), phoneme.MustParse("neːɦrʊ"))
	if !buf[:len(r)].Equal(r) || !buf[len(r):].Equal(p) {
		t.Errorf("AppendProject = %v, want %v ++ %v", buf, r, p)
	}
}
