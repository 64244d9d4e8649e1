package metrics

import (
	"fmt"
	"sync"
	"sync/atomic"

	"lexequal/internal/core"
)

// PipelineCounters accumulates per-stage execution counters across
// queries: rows probed, candidates admitted to DP verification, rows
// pruned by the length and count filters, DP cells evaluated, matches
// reported, and q-gram signature-cache hits. Rows probed are the rows a
// plan decided on, each pruned by exactly one filter or a candidate —
// for the stored q-gram plan the rows whose postings it read (dismissed
// on the postings alone, or fetched), not the whole table: a row that
// shares no gram with the query and that the residual sweep can skip is
// never counted. All fields are atomics so
// morsel workers and concurrent sessions can record without a lock;
// Reset and Snapshot additionally serialize against each other (see
// below) so a snapshot never observes a half-applied reset.
type PipelineCounters struct {
	Queries      atomic.Int64
	Rows         atomic.Int64
	Candidates   atomic.Int64
	PrunedLength atomic.Int64
	PrunedCount  atomic.Int64
	PrunedSig    atomic.Int64
	DPCells      atomic.Int64
	Matches      atomic.Int64
	SigCacheHits atomic.Int64

	// Kernel/batch counters of the bit-parallel verification pipeline:
	// word operations executed by the bit-parallel kernel, verifications
	// a requested kernel deferred to the scalar DP, and columnar
	// candidate batches materialized.
	BitvecOps       atomic.Int64
	ScalarFallbacks atomic.Int64
	BatchesBuilt    atomic.Int64

	// mu serializes Reset against Snapshot. Reset stores zero
	// field-by-field; without the mutex a concurrent Snapshot could read
	// pre-reset values for some fields and post-reset zeros for others —
	// a torn view where e.g. Matches > Queries. Record stays lock-free.
	mu sync.Mutex

	// mirror, when set, receives a copy of every Record — the server
	// uses it to fold per-session counters into a global set without
	// the sessions knowing about each other.
	mirror atomic.Pointer[PipelineCounters]
}

// Record folds one strategy execution's Stats into the counters.
// Queries is incremented first and Matches/SigCacheHits last; paired
// with Snapshot's reverse read order this keeps the invariant
// Matches ≤ Queries·(matches-per-record) visible to concurrent readers.
func (pc *PipelineCounters) Record(st core.Stats) {
	pc.Queries.Add(1)
	pc.Rows.Add(int64(st.Rows))
	pc.Candidates.Add(int64(st.Candidates))
	pc.PrunedLength.Add(int64(st.PrunedLength))
	pc.PrunedCount.Add(int64(st.PrunedCount))
	pc.PrunedSig.Add(int64(st.PrunedSig))
	pc.BitvecOps.Add(st.BitvecOps)
	pc.ScalarFallbacks.Add(int64(st.ScalarFallbacks))
	pc.BatchesBuilt.Add(int64(st.BatchesBuilt))
	pc.DPCells.Add(st.DPCells)
	pc.Matches.Add(int64(st.Matches))
	pc.SigCacheHits.Add(int64(st.SigCacheHits))
	if m := pc.mirror.Load(); m != nil {
		m.Record(st)
	}
}

// SetMirror directs a copy of every subsequent Record into m as well
// (nil detaches). The mirror must not form a cycle.
func (pc *PipelineCounters) SetMirror(m *PipelineCounters) {
	pc.mirror.Store(m)
}

// Reset zeroes every counter. It holds the snapshot mutex for the whole
// store sequence so no Snapshot can interleave and observe a torn
// (half-zeroed) view.
func (pc *PipelineCounters) Reset() {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	pc.Queries.Store(0)
	pc.Rows.Store(0)
	pc.Candidates.Store(0)
	pc.PrunedLength.Store(0)
	pc.PrunedCount.Store(0)
	pc.PrunedSig.Store(0)
	pc.BitvecOps.Store(0)
	pc.ScalarFallbacks.Store(0)
	pc.BatchesBuilt.Store(0)
	pc.DPCells.Store(0)
	pc.Matches.Store(0)
	pc.SigCacheHits.Store(0)
}

// PipelineSnapshot is a point-in-time copy of the counters, safe to
// compare and render.
type PipelineSnapshot struct {
	Queries      int64
	Rows         int64
	Candidates   int64
	PrunedLength int64
	PrunedCount  int64
	PrunedSig    int64
	DPCells      int64
	Matches      int64
	SigCacheHits int64

	BitvecOps       int64
	ScalarFallbacks int64
	BatchesBuilt    int64
}

// Snapshot copies the current counter values. It serializes against
// Reset, and reads the fields in the reverse of Record's write order:
// if the snapshot observes a Record's Matches increment, it is
// guaranteed to also observe that Record's Queries increment, so
// derived invariants (Matches ≤ Queries when every record reports at
// most one match) hold even against in-flight Records.
func (pc *PipelineCounters) Snapshot() PipelineSnapshot {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	var s PipelineSnapshot
	s.SigCacheHits = pc.SigCacheHits.Load()
	s.Matches = pc.Matches.Load()
	s.DPCells = pc.DPCells.Load()
	s.BatchesBuilt = pc.BatchesBuilt.Load()
	s.ScalarFallbacks = pc.ScalarFallbacks.Load()
	s.BitvecOps = pc.BitvecOps.Load()
	s.PrunedSig = pc.PrunedSig.Load()
	s.PrunedCount = pc.PrunedCount.Load()
	s.PrunedLength = pc.PrunedLength.Load()
	s.Candidates = pc.Candidates.Load()
	s.Rows = pc.Rows.Load()
	s.Queries = pc.Queries.Load()
	return s
}

// PruneRate is the fraction of probed rows eliminated before DP
// verification (0 when nothing was probed).
func (s PipelineSnapshot) PruneRate() float64 {
	if s.Rows == 0 {
		return 0
	}
	return float64(s.PrunedLength+s.PrunedCount+s.PrunedSig) / float64(s.Rows)
}

// String renders the snapshot as the one-line summary used by SHOW
// LEXSTATS and the bench tool.
func (s PipelineSnapshot) String() string {
	return fmt.Sprintf(
		"queries=%d rows=%d pruned_length=%d pruned_count=%d pruned_sig=%d candidates=%d dp_cells=%d bitvec_ops=%d scalar_fallbacks=%d batches_built=%d matches=%d sig_cache_hits=%d",
		s.Queries, s.Rows, s.PrunedLength, s.PrunedCount, s.PrunedSig, s.Candidates, s.DPCells,
		s.BitvecOps, s.ScalarFallbacks, s.BatchesBuilt, s.Matches, s.SigCacheHits)
}
