package wal

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lexequal/internal/store"
)

// buildSeedSegment assembles one valid segment holding a committed
// page transaction and an in-flight loser, for mutation by the fuzzer.
func buildSeedSegment() []byte {
	hdr := make([]byte, segHdrSize)
	copy(hdr, walMagic)
	binary.LittleEndian.PutUint32(hdr[8:], 1)
	binary.LittleEndian.PutUint64(hdr[12:], 1)
	binary.LittleEndian.PutUint32(hdr[20:], crc32.Checksum(hdr[:20], castagnoli))
	seg := hdr
	lsn := uint64(0)
	add := func(typ byte, txid uint64, payload []byte) {
		lsn++
		total := recHdrSize + len(payload)
		buf := make([]byte, total)
		binary.LittleEndian.PutUint32(buf[4:], uint32(total))
		binary.LittleEndian.PutUint64(buf[8:], lsn)
		binary.LittleEndian.PutUint64(buf[16:], txid)
		buf[24] = typ
		copy(buf[recHdrSize:], payload)
		binary.LittleEndian.PutUint32(buf, crc32.Checksum(buf[4:], castagnoli))
		seg = append(seg, buf...)
	}
	pagePayload := func(name string, id uint32, fill byte) []byte {
		p := make([]byte, 2+len(name)+4+store.UsableSize)
		binary.LittleEndian.PutUint16(p, uint16(len(name)))
		copy(p[2:], name)
		binary.LittleEndian.PutUint32(p[2+len(name):], id)
		for i := 2 + len(name) + 4; i < len(p); i++ {
			p[i] = fill
		}
		return p
	}
	add(RecBegin, 1, nil)
	add(RecPage, 1, pagePayload("t.heap", 0, 0x5A))
	catalog := []byte(`{"tables":{}}`)
	cat := make([]byte, 2+len("catalog.json")+len(catalog))
	binary.LittleEndian.PutUint16(cat, uint16(len("catalog.json")))
	copy(cat[2:], "catalog.json")
	copy(cat[2+len("catalog.json"):], catalog)
	add(RecCatalog, 1, cat)
	add(RecCommit, 1, nil)
	add(RecBegin, 2, nil)
	add(RecPage, 2, pagePayload("t.heap", 1, 0xA5))
	return seg
}

// FuzzWALReplay feeds arbitrary bytes to the engine as segment 1 of a
// write-ahead log, opens and checks it, and steps it through the
// Applier under both policies: the primary's (Redo) and the replica's
// (every transaction). Whatever the bytes are — truncated,
// bit-flipped, adversarial — the engine must neither panic nor write
// outside the database directory, must leave page-aligned files, and
// must be idempotent: a second application changes no byte.
func FuzzWALReplay(f *testing.F) {
	seed := buildSeedSegment()
	f.Add(seed)
	f.Add(seed[:len(seed)-7])           // truncated mid-record
	f.Add(seed[:segHdrSize])            // header only
	f.Add(seed[:segHdrSize-3])          // truncated header
	f.Add([]byte{})                     // empty file
	f.Add([]byte("LXQLWAL\x01garbage")) // magic then junk
	flipped := append([]byte(nil), seed...)
	flipped[segHdrSize+recHdrSize/2] ^= 0x10 // bit flip inside record 1
	f.Add(flipped)
	flippedHdr := append([]byte(nil), seed...)
	flippedHdr[10] ^= 0x01 // bit flip inside the header
	f.Add(flippedHdr)

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		wdir := filepath.Join(dir, "wal")
		if err := os.MkdirAll(wdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(wdir, "000001.wal"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, nil)
		if err != nil {
			return // structural corruption is a legitimate refusal
		}
		defer l.Close()
		Check(l, true)
		policies := []struct {
			name  string
			apply func(dbDir string) error
		}{
			{"primary", func(dbDir string) error {
				_, err := Redo(l, dbDir, nil)
				return err
			}},
			{"replica", func(dbDir string) error {
				files := NewFileSink(dbDir, nil)
				defer files.Close()
				if err := l.Records(NewApplier(files, 0, nil).Step); err != nil {
					return err
				}
				return files.Finish()
			}},
		}
		for _, p := range policies {
			dbDir := filepath.Join(dir, p.name)
			if err := os.Mkdir(dbDir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := p.apply(dbDir); err != nil {
				continue
			}
			first := readDataFiles(t, dbDir)
			if err := p.apply(dbDir); err != nil {
				t.Fatalf("%s: second application failed: %v", p.name, err)
			}
			if second := readDataFiles(t, dbDir); !reflect.DeepEqual(first, second) {
				t.Fatalf("%s: second application changed the files", p.name)
			}
		}
	})
}

// readDataFiles returns every file in dir by name, failing on a data
// file that is not page aligned.
func readDataFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(ents))
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if e.Name() != "catalog.json" && len(b)%store.PageSize != 0 {
			t.Fatalf("%s: size %d not page aligned", e.Name(), len(b))
		}
		out[e.Name()] = b
	}
	return out
}
