package phoneme_test

import (
	"testing"

	"lexequal/internal/dataset"
	"lexequal/internal/phoneme"
	"lexequal/internal/ttp"
)

// storedIPA renders the first n generated names the way the loader
// stores them in a pname column.
func storedIPA(b *testing.B, n int) []string {
	reg := ttp.Default()
	lex, err := dataset.BuildLexicon(reg, dataset.SourceAll)
	if err != nil {
		b.Fatal(err)
	}
	var out []string
	for _, e := range dataset.Generate(lex, n) {
		p, err := reg.Convert(e.Text.Value, e.Text.Lang)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, p.IPA())
	}
	return out
}

var sink phoneme.String

// BenchmarkParseLenient is the per-row cost a scan pays to tokenize a
// stored pname: ParseLenient allocates its result, AppendParseLenient
// reuses the caller's buffer and must not allocate at all.
func BenchmarkParseLenient(b *testing.B) {
	names := storedIPA(b, 2000)
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink = phoneme.ParseLenient(names[i%len(names)])
		}
	})
	b.Run("append", func(b *testing.B) {
		raw := make([][]byte, len(names))
		for i, s := range names {
			raw[i] = []byte(s)
		}
		buf := make(phoneme.String, 0, 64)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink = phoneme.AppendParseLenient(buf[:0], raw[i%len(raw)])
		}
	})
}
