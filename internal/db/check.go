package db

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"lexequal/internal/store"
	"lexequal/internal/wal"
)

// CheckIssue is one problem found by DB.Check: the object (table,
// index, or file) it concerns and a human-readable detail.
type CheckIssue struct {
	Object string
	Detail string
}

func (i CheckIssue) String() string { return i.Object + ": " + i.Detail }

// Check verifies the whole database: every heap page and B-tree node
// (storage-level structure plus checksums via the read path), that every
// row decodes against its table's schema, and that the secondary
// indexes agree with the heaps they cover — every index entry points at
// a live matching row (or a tombstone) and every live row is indexed.
// It returns the issues found; an empty slice means the database is
// consistent.
func (d *DB) Check() []CheckIssue {
	var issues []CheckIssue
	add := func(object, format string, args ...interface{}) {
		issues = append(issues, CheckIssue{Object: object, Detail: fmt.Sprintf(format, args...)})
	}

	// Storage-level structure, then row decoding per table.
	for _, name := range d.Tables() {
		t, _ := d.Table(name)
		for _, is := range t.Heap.Check() {
			add("table "+name, "%s", is)
		}
		err := t.Heap.Scan(func(rid store.RID, rec []byte) error {
			_, _, body, err := splitVersion(rec)
			if err != nil {
				add("table "+name, "row %v lacks a version header: %v", rid, err)
				return nil
			}
			row, err := DecodeRow(body, len(t.Columns))
			if err != nil {
				add("table "+name, "row %v does not decode: %v", rid, err)
				return nil
			}
			for i, v := range row {
				if v.T != TNull && v.T != t.Columns[i].Type {
					add("table "+name, "row %v column %s holds %v, schema says %v",
						rid, t.Columns[i].Name, v.T, t.Columns[i].Type)
				}
			}
			return nil
		})
		if err != nil {
			add("table "+name, "scan failed: %v", err)
		}
	}

	for _, name := range d.Indexes() {
		ix, _ := d.Index(name)
		object := "index " + name
		for _, is := range ix.Tree.Check() {
			add(object, "%s", is)
		}
		t, ok := d.Table(ix.Def.Table)
		if !ok {
			add(object, "covers unknown table %q", ix.Def.Table)
			continue
		}
		switch ix.Def.Kind {
		case IndexGram:
			d.checkGramIndex(ix, t, add)
		default:
			d.checkColumnIndex(ix, t, add)
		}
	}
	return issues
}

// CheckWAL verifies the write-ahead log and its coupling to the data
// files: every segment header and record checksum, LSN monotonicity
// and transaction well-formedness across the whole log (via wal.Check),
// and the WAL rule's on-disk shadow — no page in any heap or index
// file may carry a pageLSN above the log's durable LSN, because that
// would mean a page reached disk before the record covering it.
//
// Run it on a freshly opened database (as `lexequal check -wal` does):
// recovery has then already replayed the log, so the durable LSN is
// the true high-water mark.
func (d *DB) CheckWAL() []CheckIssue {
	var issues []CheckIssue
	add := func(object, format string, args ...interface{}) {
		issues = append(issues, CheckIssue{Object: object, Detail: fmt.Sprintf(format, args...)})
	}
	if d.wal == nil {
		add("wal", "write-ahead logging is disabled for this database")
		return issues
	}
	for _, detail := range wal.Check(d.wal, false) {
		add("wal", "%s", detail)
	}
	for _, detail := range wal.CheckDir(d.wal) {
		add("wal", "%s", detail)
	}
	// Orphaned temp files in the database directory itself: each of
	// these names is the staging half of a tmp+fsync+rename publish
	// (catalog, replica state, recovery's per-file rebuild); one left
	// behind is crash debris the next publish would silently overwrite,
	// so flag it while the evidence is fresh.
	tmps := []string{
		d.catalogPath() + ".tmp",
		d.catalogPath() + ".redo.tmp",
		filepath.Join(d.dir, replStateName+".tmp"),
	}
	for _, name := range d.Tables() {
		tmps = append(tmps, d.heapPath(name)+".redo.tmp")
	}
	for _, name := range d.Indexes() {
		tmps = append(tmps, d.indexPath(name)+".redo.tmp")
	}
	for _, tmp := range tmps {
		if _, err := d.fs.Stat(tmp); err == nil {
			add("db", "orphaned temp file %s (crash debris from an interrupted atomic publish)", tmp)
		}
	}
	durable := d.wal.DurableLSN()
	checkFile := func(object, path string) {
		f, err := d.fs.OpenFile(path, os.O_RDONLY, 0)
		if err != nil {
			add(object, "open for wal check: %v", err)
			return
		}
		defer f.Close()
		st, err := f.Stat()
		if err != nil {
			add(object, "stat for wal check: %v", err)
			return
		}
		if st.Size()%store.PageSize != 0 {
			add(object, "size %d is not page aligned", st.Size())
		}
		buf := make([]byte, store.PageSize)
		for id := store.PageID(0); int64(id) < st.Size()/store.PageSize; id++ {
			n, err := f.ReadAt(buf, int64(id)*store.PageSize)
			if n != store.PageSize {
				if err == nil || errors.Is(err, io.EOF) {
					err = io.ErrUnexpectedEOF
				}
				add(object, "page %d: read for wal check: %v", id, err)
				return
			}
			// Unverifiable pages are the structural checker's
			// business; here only a verified pageLSN can testify.
			if lsn, ok := store.PageImageLSN(id, buf); ok && lsn > durable {
				add(object, "page %d has pageLSN %d above the durable LSN %d (flushed before its log record)", id, lsn, durable)
			}
		}
	}
	for _, name := range d.Tables() {
		checkFile("table "+name, d.heapPath(name))
	}
	for _, name := range d.Indexes() {
		checkFile("index "+name, d.indexPath(name))
	}
	return issues
}

// checkColumnIndex cross-checks an ordinary column index against its
// table: every entry's RID must fetch a row (or a tombstone — the
// B-trees are insert-only, stale entries are legal) whose column value
// equals the entry key, and every live row with a non-NULL column value
// must have an entry.
func (d *DB) checkColumnIndex(ix *Index, t *Table, add func(object, format string, args ...interface{})) {
	object := "index " + ix.Def.Name
	ci := t.Columns.ColIndex(ix.Def.Column)
	if ci < 0 {
		add(object, "covers unknown column %s.%s", ix.Def.Table, ix.Def.Column)
		return
	}
	indexed := make(map[uint64]bool) // packed RIDs present in the tree
	it := ix.Tree.Seek(0)
	for {
		key, packed, ok := it.Next()
		if !ok {
			break
		}
		indexed[packed] = true
		rid := store.UnpackRID(packed)
		row, err := t.Get(rid)
		if err != nil {
			if errors.Is(err, store.ErrDeleted) {
				continue // tombstoned row; stale entry is legal
			}
			add(object, "entry %d -> %v: heap fetch failed: %v", key, rid, err)
			continue
		}
		if row[ci].T != TInt || uint64(row[ci].I) != key {
			add(object, "entry %d -> %v, but the row's %s is %v", key, rid, ix.Def.Column, row[ci])
		}
	}
	if err := it.Err(); err != nil {
		add(object, "scan failed: %v", err)
		return
	}
	err := t.Scan(func(rid store.RID, row Row) error {
		if row[ci].T != TInt {
			return nil // NULLs are not indexed
		}
		if !indexed[rid.Pack()] {
			add(object, "live row %v (%s = %d) has no entry", rid, ix.Def.Column, row[ci].I)
		}
		return nil
	})
	if err != nil {
		add(object, "table cross-check scan failed: %v", err)
	}
}

// checkGramIndex recomputes the gram index from the live rows of its
// table. A row is covered when the index holds a posting of its id: the
// index covers the rows of its build, and rows inserted since have none.
// For every covered live row the index must hold exactly the entries its
// stored pname gives — the postings, whose summary the q-gram plan
// dismisses rows on unfetched, and the weak-list entry, whose
// completeness the residual sweep trusts — so nothing but this check
// would notice a stale one. Entries of ids no live row holds are legal,
// as in any index here.
func (d *DB) checkGramIndex(ix *Index, t *Table, add func(object, format string, args ...interface{})) {
	object := "index " + ix.Def.Name
	ci, err := ix.Def.column(t)
	var g gramIndex
	if err == nil {
		g, err = newGramIndex(ix.Def, t, ci)
	}
	if err != nil {
		add(object, "%v", err)
		return
	}
	var fromTree []coverEntry
	covered := map[int64]bool{}
	it := ix.Tree.Seek(0)
	for key, v, ok := it.Next(); ok; key, v, ok = it.Next() {
		fromTree = append(fromTree, coverEntry{key, v})
		if key&coverWeakKey == 0 {
			covered[int64(v>>coverIDShift)] = true
		}
	}
	if err := it.Err(); err != nil {
		add(object, "scan failed: %v", err)
		return
	}
	var fromRows []coverEntry
	live := map[int64]bool{}
	err = t.Scan(func(_ store.RID, row Row) error {
		if row[g.idCol].T != TInt || !covered[row[g.idCol].I] {
			return nil
		}
		live[row[g.idCol].I] = true
		var err error
		if fromRows, err = g.rowEntries(fromRows, row); err != nil {
			add(object, "row id %d: %v", row[g.idCol].I, err)
		}
		return nil
	})
	if err != nil {
		add(object, "table cross-check scan failed: %v", err)
		return
	}
	count := map[coverEntry]int{} // entries the rows give (+) and the tree holds (-)
	for _, e := range fromRows {
		count[e]++
	}
	for _, e := range fromTree {
		if live[int64(e.val>>coverIDShift)] {
			count[e]--
		}
	}
	var missing, extra []coverEntry
	for e, n := range count {
		for ; n > 0; n-- {
			missing = append(missing, e)
		}
		for ; n < 0; n++ {
			extra = append(extra, e)
		}
	}
	// One stale entry implies many: report the first of each kind.
	slices.SortFunc(missing, coverEntry.compare)
	slices.SortFunc(extra, coverEntry.compare)
	if len(missing) > 0 {
		add(object, "lacks %d entries of covered rows, first the %v its row's pname gives", len(missing), missing[0])
	}
	if len(extra) > 0 {
		add(object, "holds %d entries no covered row's pname gives, first the %v", len(extra), extra[0])
	}
}

// String describes the entry for check reports.
func (e coverEntry) String() string {
	id, pos, plen, weak := UnpackCover(e.val)
	if e.key&coverWeakKey != 0 {
		return fmt.Sprintf("weak-list entry (key %#x, id %d, plen %d, weak %d)", e.key, id, plen, weak)
	}
	return fmt.Sprintf("posting (hash %d, id %d, pos %d, plen %d, weak %d)", e.key, id, pos, plen, weak)
}
