// Package frame implements the length-prefixed wire framing shared by
// the lexequald query protocol (internal/server) and the WAL-shipping
// replication stream (internal/repl): every message, in both
// directions, is one frame —
//
//	uint32 big-endian payload length | payload bytes
//
// The framing carries no semantics of its own; each protocol defines
// its payload format on top.
package frame

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// MaxFrame bounds a single frame; larger requests or responses are
// rejected rather than buffered. Replication batches size themselves
// well below it.
const MaxFrame = 1 << 20

// bufs recycles Write's frame buffers, so a frame costs no allocation
// once the pool is warm.
var bufs = sync.Pool{New: func() any { return new([]byte) }}

// Write sends one length-prefixed frame in a single Write call: on a
// socket the header and payload leave in one write syscall (and, when
// small, one TCP segment) instead of two.
func Write(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("frame: frame of %d bytes exceeds limit %d", len(payload), MaxFrame)
	}
	bp := bufs.Get().(*[]byte)
	buf := binary.BigEndian.AppendUint32((*bp)[:0], uint32(len(payload)))
	buf = append(buf, payload...)
	_, err := w.Write(buf)
	*bp = buf
	bufs.Put(bp)
	return err
}

// Read reads one length-prefixed frame.
func Read(r *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > MaxFrame {
		return nil, fmt.Errorf("frame: frame of %d bytes exceeds limit %d", n, MaxFrame)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	return payload, nil
}
