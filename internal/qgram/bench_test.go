package qgram

import (
	"testing"

	"lexequal/internal/phoneme"
)

func BenchmarkExtract(b *testing.B) {
	s := phoneme.MustParse("dʒəʋaːɦərlaːlneːru")
	for i := 0; i < b.N; i++ {
		Extract(s, 3)
	}
}

func BenchmarkSurvives(b *testing.B) {
	f := NewFilter(phoneme.MustParse("dʒəʋaːɦərlaːl"), 3)
	cand := phoneme.MustParse("dʒawɑhɑrlɑl")
	for i := 0; i < b.N; i++ {
		f.Survives(cand, 3)
	}
}

var sigSink uint64

// BenchmarkSignature is the per-row prefilter-column cost of a scan's
// batch build; it must not allocate.
func BenchmarkSignature(b *testing.B) {
	s := phoneme.MustParse("dʒəʋaːɦərlaːlneːru")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sigSink = Signature(s, 3)
	}
}
