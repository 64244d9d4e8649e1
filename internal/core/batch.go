package core

import (
	"slices"

	"lexequal/internal/editdist"
	"lexequal/internal/phoneme"
	"lexequal/internal/qgram"
)

// Column is a flat columnar vector of phoneme strings: one contiguous
// buffer plus an offsets array with one more entry than rows, so row i
// occupies buf[offs[i-base]:offs[i-base+1]]. Views alias the shared
// buffer (read-only by contract) and a zero-length row views as nil,
// mirroring the row-at-a-time representation where absent transforms
// are nil strings. base is the global index of the column's first row:
// zero for a whole batch, a morsel's lower bound for the lane-private
// column a scan fills and verifies one morsel at a time.
type Column struct {
	buf  []phoneme.Phoneme
	offs []int32
	base int
}

// reset empties the column, keeping its storage, to hold rows from
// global index base on.
func (c *Column) reset(base int) {
	c.buf, c.offs, c.base = c.buf[:0], c.offs[:0], base
}

// appendFrom adds src's row i, written straight into the buffer, and
// returns a view of it. Appending invalidates previously taken views
// (the buffer may move), so builders append a whole range first and
// view after.
func (c *Column) appendFrom(src PhonemeSource, i int) phoneme.String {
	if len(c.offs) == 0 {
		c.offs = append(c.offs, 0)
	}
	lo := len(c.buf)
	c.buf = src(c.buf, i)
	c.offs = append(c.offs, int32(len(c.buf)))
	return c.buf[lo:]
}

// Len returns the number of rows.
func (c *Column) Len() int {
	if len(c.offs) == 0 {
		return 0
	}
	return len(c.offs) - 1
}

// View returns row i without copying; nil for a zero-length row. The
// three-index slice caps the view so even an appending caller could not
// scribble past a row's end into its neighbor.
func (c *Column) View(i int) phoneme.String {
	lo, hi := c.offs[i-c.base], c.offs[i-c.base+1]
	if lo == hi {
		return nil
	}
	return phoneme.String(c.buf[lo:hi:hi])
}

// RowLen returns row i's length without materializing a view.
func (c *Column) RowLen(i int) int { return int(c.offs[i-c.base+1] - c.offs[i-c.base]) }

// Batch is the flat columnar form of a candidate set: the phoneme rows
// in one contiguous buffer plus the per-row scalars the bit-parallel
// kernel (weak counts, kernel signatures) and the batched q-gram
// signature prefilter (projected lengths, Bloom signatures) consume,
// all built once per scan so the per-pair hot path does no interface
// calls and no per-row allocation.
type Batch struct {
	phon Column
	wk   []int32  // per-row weak (glottal) phoneme counts
	ksig []uint64 // kernel candidate signatures (nil = kernel off)
	plen []int32  // projected lengths (nil = sig prefilter off)
	gsig []uint64 // q-gram Bloom signatures over the projection
}

// Len returns the number of rows.
func (b *Batch) Len() int { return b.phon.Len() }

// View returns row i's phoneme string (nil for zero-length rows).
func (b *Batch) View(i int) phoneme.String { return b.phon.View(i) }

// ProjLen returns row i's signature-projection length; valid only when
// the batch was built with the prefilter columns (sigQ > 0).
func (b *Batch) ProjLen(i int) int { return int(b.plen[i]) }

// PhonemeSource supplies the rows a batch is built from: it appends row
// i's phoneme string to dst and returns the extended slice (nothing
// appended is a NORESOURCE or empty row). Calls for different rows may
// run concurrently, so it may only read what it shares.
type PhonemeSource func(dst phoneme.String, i int) phoneme.String

// batchBuilder is the one place a batch's per-row columns are computed.
// The scalar columns are sized for a batch's rows up front and indexed
// by row; fill may then run on disjoint row ranges of one batch from
// different lanes, each appending the phonemes to a column of its own.
type batchBuilder struct {
	op   *Operator
	kern *editdist.Bitvec // nil = no kernel signature column
	sigQ int              // 0 = no prefilter columns
}

// newBatchBuilder selects a batch's columns. The kernel signature column
// is built when k requests the bit-parallel kernel and the operator's
// cost model compiles; sigQ > 0 additionally builds the
// signature-prefilter columns (projected lengths and q-gram Bloom
// signatures at gram length sigQ).
func (op *Operator) newBatchBuilder(k Kernel, sigQ int) batchBuilder {
	return batchBuilder{op: op, kern: op.modelKernel(k), sigQ: sigQ}
}

// size readies b's scalar columns for rows [0, n), reusing their
// storage; the columns the builder does not compute are nil.
func (bb *batchBuilder) size(b *Batch, n int) {
	b.wk = slices.Grow(b.wk[:0], n)[:n]
	if bb.kern != nil {
		b.ksig = slices.Grow(b.ksig[:0], n)[:n]
	} else {
		b.ksig = nil
	}
	if bb.sigQ > 0 {
		b.plen = slices.Grow(b.plen[:0], n)[:n]
		b.gsig = slices.Grow(b.gsig[:0], n)[:n]
	} else {
		b.plen, b.gsig = nil, nil
	}
}

// fill appends rows [lo, hi) of src to b's phoneme column and computes
// their scalar columns; proj is the caller's projection scratch.
func (bb *batchBuilder) fill(b *Batch, proj *phoneme.String, src PhonemeSource, lo, hi int) {
	for i := lo; i < hi; i++ {
		p := b.phon.appendFrom(src, i)
		b.wk[i] = int32(editdist.WeakCount(p))
		if bb.kern != nil {
			b.ksig[i] = bb.kern.CandSig(p)
		}
		if bb.sigQ > 0 {
			*proj = bb.op.encoder.AppendProject((*proj)[:0], p)
			b.plen[i] = int32(len(*proj))
			b.gsig[i] = qgram.Signature(*proj, bb.sigQ)
		}
	}
}

// BuildBatch materializes rows into a flat columnar batch (columns as
// for newBatchBuilder). Rows may be nil (NORESOURCE or empty); they
// round-trip as nil views.
func (op *Operator) BuildBatch(rows []phoneme.String, k Kernel, sigQ int) *Batch {
	total := 0
	for _, p := range rows {
		total += len(p)
	}
	return op.buildBatch(len(rows), sliceSource(rows), k, sigQ, total)
}

// buildBatch is the builder run inline over all n rows of src into one
// column, presized for phonemes phonemes in all.
func (op *Operator) buildBatch(n int, src PhonemeSource, k Kernel, sigQ, phonemes int) *Batch {
	bb := op.newBatchBuilder(k, sigQ)
	b := &Batch{phon: Column{buf: make([]phoneme.Phoneme, 0, phonemes), offs: make([]int32, 0, n+1)}}
	bb.size(b, n)
	var proj phoneme.String
	bb.fill(b, &proj, src, 0, n)
	return b
}

// sliceSource serves rows already in memory.
func sliceSource(rows []phoneme.String) PhonemeSource {
	return func(dst phoneme.String, i int) phoneme.String { return append(dst, rows[i]...) }
}
