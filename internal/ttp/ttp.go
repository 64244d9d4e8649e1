// Package ttp implements Text-To-Phoneme conversion: the linguistic
// resource the LexEQUAL operator depends on to transform a multilingual
// string into its phonemic (IPA) representation (the transform() step of
// Figure 8 in the paper).
//
// The paper integrated third-party converters (ForeignWord for English,
// Dhvani for Hindi, hand conversion for Tamil). This package implements
// equivalent converters from scratch: a contextual rewrite-rule engine
// drives the Latin-script and Greek converters (in the tradition of the
// NRL letter-to-sound rules), while the Indic converters decompose the
// phonetically-spelled orthography directly: one walker reads each
// script's letter table (script.Abugida, the same table the lexicon's
// renderers read) and groups a word into units, and each language's
// phonology reads the units (Hindi schwa deletion, Tamil stop voicing).
//
// Converter output is normalized per the paper's §4.1: suprasegmentals,
// tones and accents are never emitted, so phoneme strings are directly
// comparable across languages.
package ttp

import (
	"fmt"
	"sort"
	"sync"

	"lexequal/internal/phoneme"
	"lexequal/internal/script"
)

// Converter transforms text in one language into its phonemic
// representation. Implementations must be safe for concurrent use.
type Converter interface {
	// Language returns the language this converter understands.
	Language() script.Language
	// Convert returns the phonemic transcription of text. Characters
	// outside the language's writing system are skipped; an error is
	// returned only when nothing could be transcribed from a non-empty
	// input.
	Convert(text string) (phoneme.String, error)
}

// Registry maps languages to converters; it is the S_L set of "languages
// with IPA transformations" from the paper's algorithm. A nil *Registry
// is empty.
type Registry struct {
	mu   sync.RWMutex
	byLn map[script.Language]Converter
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byLn: make(map[script.Language]Converter)}
}

// Register adds (or replaces) the converter for its language.
func (r *Registry) Register(c Converter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.byLn[c.Language()] = c
}

// Get returns the converter for lang.
func (r *Registry) Get(lang script.Language) (Converter, bool) {
	if r == nil {
		return nil, false
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.byLn[lang]
	return c, ok
}

// Has reports whether lang has a registered converter (lang ∈ S_L).
func (r *Registry) Has(lang script.Language) bool {
	_, ok := r.Get(lang)
	return ok
}

// Languages lists the registered languages in sorted order.
func (r *Registry) Languages() []script.Language {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]script.Language, 0, len(r.byLn))
	for l := range r.byLn {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Convert transcribes text as lang using the registered converter.
func (r *Registry) Convert(text string, lang script.Language) (phoneme.String, error) {
	c, ok := r.Get(lang)
	if !ok {
		return nil, &NoResourceError{Lang: lang}
	}
	return c.Convert(text)
}

// NoResourceError reports that no TTP resource exists for a language —
// the NORESOURCE outcome of the paper's algorithm.
type NoResourceError struct {
	Lang script.Language
}

func (e *NoResourceError) Error() string {
	return fmt.Sprintf("ttp: no text-to-phoneme resource for language %q", e.Lang)
}

// Default returns a registry with all six built-in converters
// (English, Hindi, Tamil, Greek, Spanish, French) registered.
func Default() *Registry {
	r := NewRegistry()
	r.Register(NewEnglish())
	r.Register(NewHindi())
	r.Register(NewTamil())
	r.Register(NewGreek())
	r.Register(NewSpanish())
	r.Register(NewFrench())
	return r
}
