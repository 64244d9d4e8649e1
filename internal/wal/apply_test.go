package wal

import (
	"os"
	"path/filepath"
	"testing"
)

// recordSink is a Sink that records the transaction transitions and
// catalog publications an Applier hands it, as the replica's pager sink
// would act on them.
type recordSink struct {
	live      map[uint64]bool
	committed []uint64
	catalogs  []string
}

func (s *recordSink) Page(Record) (bool, error) { return true, nil }
func (s *recordSink) Catalog(r Record) error {
	s.catalogs = append(s.catalogs, string(r.Payload))
	return nil
}
func (s *recordSink) Begin(txid uint64) { s.live[txid] = true }
func (s *recordSink) Commit(txid, _ uint64) {
	delete(s.live, txid)
	s.committed = append(s.committed, txid)
}
func (s *recordSink) Abort(txid uint64) { delete(s.live, txid) }

// TestAbortedCatalogNeverPublished logs a committed catalog image, then
// a Begin / Page / Catalog / Abort trail, then a committed trail with
// no catalog. Primary recovery, replica restart and the live apply must
// each end on the committed image: compensation cannot undo a catalog
// change, so an abort record drops the image it terminates.
func TestAbortedCatalogNeverPublished(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const committed, aborted = `{"v":"committed"}`, `{"v":"aborted"}`
	mustLSN := func(_ uint64, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustLSN(l.Begin(1))
	mustLSN(l.LogCatalog(1, "catalog.json", []byte(committed)))
	mustLSN(l.Commit(1))
	mustLSN(l.Begin(2))
	mustLSN(l.LogPage(2, "t.heap", 0, pagePayload(0x22)))
	mustLSN(l.LogCatalog(2, "catalog.json", []byte(aborted)))
	mustLSN(l.Abort(2))
	commitTxn(t, l, 3, "t.heap", 1, 0x33)

	readCatalog := func(label, dir string) {
		t.Helper()
		got, err := os.ReadFile(filepath.Join(dir, "catalog.json"))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if string(got) != committed {
			t.Fatalf("%s: catalog %s, want %s", label, got, committed)
		}
	}

	// Primary crash recovery.
	stats, err := Redo(l, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Losers) != 0 {
		t.Fatalf("losers %v, want none", stats.Losers)
	}
	readCatalog("redo", dir)

	// Replica restart: every transaction's pages, into raw files.
	rdir := t.TempDir()
	files := NewFileSink(rdir, nil)
	a := NewApplier(files, 0, nil)
	if err := l.Records(a.Step); err != nil {
		t.Fatal(err)
	}
	if err := files.Finish(); err != nil {
		t.Fatal(err)
	}
	readCatalog("replica restart", rdir)

	// Live apply: the sink sees one publication, at transaction 1's
	// commit, and no transaction left live.
	rec := &recordSink{live: map[uint64]bool{}}
	a = NewApplier(rec, 0, nil)
	if err := l.Records(a.Step); err != nil {
		t.Fatal(err)
	}
	if len(rec.catalogs) != 1 || rec.catalogs[0] != committed {
		t.Fatalf("live apply published %q, want only %s", rec.catalogs, committed)
	}
	if len(rec.live) != 0 || len(a.Live()) != 0 {
		t.Fatalf("live apply left transactions live: sink %v, applier %v", rec.live, a.Live())
	}
	if len(rec.committed) != 2 {
		t.Fatalf("live apply committed %v, want transactions 1 and 3", rec.committed)
	}
}
