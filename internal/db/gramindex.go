package db

import (
	"cmp"
	"fmt"
	"slices"

	"lexequal/internal/core"
	"lexequal/internal/phoneme"
	"lexequal/internal/qgram"
	"lexequal/internal/soundex"
	"lexequal/internal/store"
)

// The gram index (IndexGram) is the q-gram relation of Figure 14 kept as
// an index of the base table: it is derived from the stored pname and id
// of each row it covers, and from the cluster set its def names, by
// gramIndex.rowEntries — at load, on a replica's rebuild, and in Check.
// It covers the rows of its build; rows inserted afterwards get no
// entries (Check counts a row as covered when it has a posting).
//
// A posting is one B-tree entry: the key is the gram's hash, and the
// 64-bit value packs the row's id and the gram's position with a summary
// of the row — the projected length and weak count of its stored pname
// (core.Summary) — so the q-gram plan runs the length, count and
// position filters on the posting lists and fetches only the survivors:
//
//	[63:24] id    [23:16] pos    [15:8] plen    [7:0] weak
//
// The top value of an 8-bit field is the sentinel "unknown" (a name with
// 255 or more projected phonemes or glottals): the plan then fetches the
// row and decides afterwards, so saturation can widen a budget but never
// narrow it. An id that does not fit is refused.
//
// Keys with the top bit set are reserved (GramHash clears it). Under
// weakKey(w) the index holds the weak list: one entry, at position 0,
// for every row with w ≥ 1 weak phonemes, so the residual sweep for
// candidates that share no gram with the query reads the rows with at
// least a given weak count as one key range.
const (
	coverIDBits   = 40
	coverIDShift  = 24
	coverPosShift = 16
	coverUnknown  = 0xFF
	coverWeakKey  = uint64(1) << 63
)

// coverField saturates a posting field to the sentinel.
func coverField(n int) uint64 {
	if n < 0 || n >= coverUnknown {
		return coverUnknown
	}
	return uint64(n)
}

// coverInt reverses coverField.
func coverInt(f uint64) int {
	if f &= 0xFF; f != coverUnknown {
		return int(f)
	}
	return core.SummaryUnknown
}

// CoverValue packs a posting. A pos, plen or weak out of range (or
// core.SummaryUnknown) is stored as unknown.
func CoverValue(id int64, pos, plen, weak int) (uint64, error) {
	if id < 0 || id >= 1<<coverIDBits {
		return 0, fmt.Errorf("db: id %d does not fit the %d-bit id of a gram posting", id, coverIDBits)
	}
	return uint64(id)<<coverIDShift | coverField(pos)<<coverPosShift | coverField(plen)<<8 | coverField(weak), nil
}

// UnpackCover reverses CoverValue; an unknown field comes back as
// core.SummaryUnknown.
func UnpackCover(v uint64) (id int64, pos, plen, weak int) {
	return int64(v >> coverIDShift), coverInt(v >> coverPosShift), coverInt(v >> 8), coverInt(v)
}

// weakKey is the reserved key of the weak-list entries of rows with the
// given weak count; unknown sorts last, so every sweep reaches it.
func weakKey(weak int) uint64 { return coverWeakKey | coverField(weak) }

// coverEntry is one (key, value) entry of the gram index.
type coverEntry struct{ key, val uint64 }

func (e coverEntry) compare(o coverEntry) int {
	return cmp.Or(cmp.Compare(e.key, o.key), cmp.Compare(e.val, o.val))
}

// CoverIndexName is the naming convention for the gram index.
func CoverIndexName(table string) string { return table + "_qgrams_cover" }

// gramIndex derives a gram index's entries from rows.
type gramIndex struct {
	enc *soundex.Encoder
	// idCol and phonCol locate a row's id and stored phonemes.
	idCol, phonCol int
}

// newGramIndex prepares the derivation def describes over t, whose
// column phonCol it indexes.
func newGramIndex(def IndexDef, t *Table, phonCol int) (gramIndex, error) {
	cs, err := phoneme.ByName(def.Clusters)
	if err != nil {
		return gramIndex{}, fmt.Errorf("db: index %s: %w", def.Name, err)
	}
	idCol := t.Columns.ColIndex("id")
	if idCol < 0 || t.Columns[idCol].Type != TInt {
		return gramIndex{}, fmt.Errorf("db: index %s: table %s has no INT id column", def.Name, t.Name)
	}
	return gramIndex{enc: soundex.NewEncoder(cs), idCol: idCol, phonCol: phonCol}, nil
}

// rowEntries appends the entries of row to dst: a posting per positional
// q-gram of its stored phonemes — parsed the way the plans parse them,
// then projected under the index's cluster set — in gram order, then its
// weak-list entry if it has a weak phoneme. A row without an id or
// without phonemes has none.
func (g gramIndex) rowEntries(dst []coverEntry, row Row) ([]coverEntry, error) {
	if row[g.idCol].T != TInt || row[g.phonCol].T != TString {
		return dst, nil
	}
	id := row[g.idCol].I
	p := phoneme.ParseLenient(row[g.phonCol].S)
	plen, weak := core.Summary(p)
	for _, gr := range qgram.Extract(g.enc.Project(p), core.DefaultQ) {
		v, err := CoverValue(id, gr.Pos, plen, weak)
		if err != nil {
			return dst, err
		}
		dst = append(dst, coverEntry{uint64(GramHash(gr.Key())), v})
	}
	if weak == 0 {
		return dst, nil
	}
	v, err := CoverValue(id, 0, plen, weak)
	return append(dst, coverEntry{weakKey(weak), v}), err
}

// fillGramIndex bulk-loads bt with the gram index of every row version
// of t: the postings in heap order — a fresh load's id order, and each
// row's grams in position order — then the weak list, sorted.
func fillGramIndex(bt *store.BTree, t *Table, def IndexDef, phonCol int) error {
	g, err := newGramIndex(def, t, phonCol)
	if err != nil {
		return err
	}
	var entries, weakList []coverEntry
	err = t.scanVersions(func(_ store.RID, _, _ uint64, row Row) error {
		var err error
		if entries, err = g.rowEntries(entries[:0], row); err != nil {
			return err
		}
		for _, e := range entries {
			if e.key&coverWeakKey != 0 {
				weakList = append(weakList, e)
			} else if err := bt.Insert(e.key, e.val); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	slices.SortFunc(weakList, coverEntry.compare)
	for _, e := range weakList {
		if err := bt.Insert(e.key, e.val); err != nil {
			return err
		}
	}
	return nil
}
