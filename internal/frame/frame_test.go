package frame

import (
	"bufio"
	"bytes"
	"testing"
)

// countingWriter records each Write call separately.
type countingWriter struct {
	writes [][]byte
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestWriteIsOneCallPerFrame: header and payload go to the writer in one
// Write call, and the frame reads back intact, at the empty, the
// one-byte and the largest allowed payload.
func TestWriteIsOneCallPerFrame(t *testing.T) {
	for _, n := range []int{0, 1, MaxFrame} {
		payload := make([]byte, n)
		for i := range payload {
			payload[i] = byte(i*7 + 1)
		}
		var w countingWriter
		// Twice, so the second frame runs on a recycled buffer.
		for range 2 {
			if err := Write(&w, payload); err != nil {
				t.Fatalf("%d-byte frame: %v", n, err)
			}
		}
		if len(w.writes) != 2 {
			t.Fatalf("%d-byte payload: %d Write calls for 2 frames, want 2", n, len(w.writes))
		}
		r := bufio.NewReader(bytes.NewReader(bytes.Join(w.writes, nil)))
		for i := range 2 {
			got, err := Read(r)
			if err != nil {
				t.Fatalf("%d-byte frame %d: read back: %v", n, i, err)
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("%d-byte frame %d read back as %d different bytes", n, i, len(got))
			}
		}
	}
}

// TestWriteRejectsOversizedFrame: a payload past MaxFrame is refused
// before anything is written.
func TestWriteRejectsOversizedFrame(t *testing.T) {
	var w countingWriter
	if err := Write(&w, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("a frame over MaxFrame was accepted")
	}
	if len(w.writes) != 0 {
		t.Fatalf("%d Write calls for a refused frame", len(w.writes))
	}
}
