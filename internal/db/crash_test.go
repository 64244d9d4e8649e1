package db

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lexequal/internal/core"
	"lexequal/internal/script"
	"lexequal/internal/store"
)

// crashTexts is a small multiscript load: big enough to exercise the
// heap and every index, small enough that a full per-write fault sweep
// stays fast. The Arabic row is NORESOURCE.
func crashTexts() []core.Text {
	return []core.Text{
		{Value: "Nehru", Lang: script.English},
		{Value: "நேரு", Lang: script.Tamil},
		{Value: "नेहरु", Lang: script.Hindi},
		{Value: "Gandhi", Lang: script.English},
		{Value: "காந்தி", Lang: script.Tamil},
		{Value: "بهنسي", Lang: script.Arabic},
	}
}

// crashTables are the tables crashLoad loads, each in its own
// transaction: names, then aliases — the same texts six times over, so
// its heap and indexes span several pages, and a fault can strike after
// one load committed and inside the next.
var crashTables = []struct {
	name   string
	copies int
}{{"names", 1}, {"aliases", 6}}

// crashTableTexts returns the texts crashLoad loads into a table.
func crashTableTexts(copies int) []core.Text {
	var texts []core.Text
	for i := 0; i < copies; i++ {
		texts = append(texts, crashTexts()...)
	}
	return texts
}

// crashLoad is the load the sweeps interrupt: each of crashTables with
// its id, group-id and gram indexes.
func crashLoad(d *DB, op *core.Operator) error {
	for _, ct := range crashTables {
		if _, err := CreateNameTable(d, ct.name, op, crashTableTexts(ct.copies), NameTableSpec{WithAux: true, WithIndexes: true}); err != nil {
			return err
		}
	}
	return nil
}

// verifyReadable asserts that whatever the reopened database can read
// is RIGHT: rows that decode must match the source texts. Errors are
// fine (detection); wrong data is not.
func verifyReadable(t *testing.T, d *DB, label string) {
	t.Helper()
	for _, ct := range crashTables {
		texts := crashTableTexts(ct.copies)
		tbl, ok := d.Table(ct.name)
		if !ok {
			continue
		}
		err := tbl.Scan(func(rid store.RID, row Row) error {
			if row[0].T != TInt {
				return fmt.Errorf("row %v has non-int id", rid)
			}
			id := row[0].I
			if id < 0 || int(id) >= len(texts) {
				t.Errorf("%s: %s row %v has impossible id %d", label, ct.name, rid, id)
				return nil
			}
			if row[1].T == TNString && row[1].S != texts[id].Value {
				t.Errorf("%s: %s row %d reads %q, source is %q", label, ct.name, id, row[1].S, texts[id].Value)
			}
			return nil
		})
		if err != nil && !errors.Is(err, ErrCorrupt) {
			// A scan that fails for a non-corruption reason (e.g. a decode
			// error on a half-written record) is still detection, not
			// silent loss — but it must be an error, never a panic, and is
			// logged for visibility.
			t.Logf("%s: %s scan stopped: %v", label, ct.name, err)
		}
	}
}

// verifyComplete asserts the database holds the full load, consistent.
func verifyComplete(t *testing.T, d *DB, label string) {
	t.Helper()
	for _, ct := range crashTables {
		tbl, ok := d.Table(ct.name)
		if !ok {
			t.Errorf("%s: %s table missing", label, ct.name)
			continue
		}
		if want := uint64(len(crashTableTexts(ct.copies))); tbl.Count() != want {
			t.Errorf("%s: %s holds %d rows, want %d", label, ct.name, tbl.Count(), want)
		}
	}
	if issues := d.Check(); len(issues) != 0 {
		t.Errorf("%s: check found %d issues, first: %s", label, len(issues), issues[0])
	}
	verifyReadable(t, d, label)
}

// countCrashOps runs one clean load through a counting FaultFS and
// returns the observed write and sync totals.
func countCrashOps(t *testing.T, op *core.Operator) (writes, syncs int) {
	t.Helper()
	counter := &store.FaultFS{}
	dir := filepath.Join(t.TempDir(), "db")
	d, err := OpenOpts(dir, Options{CachePages: 8, FS: counter})
	if err != nil {
		t.Fatal(err)
	}
	if err := crashLoad(d, op); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if counter.Writes() == 0 || counter.Syncs() == 0 {
		t.Fatalf("counter saw %d writes, %d syncs", counter.Writes(), counter.Syncs())
	}
	return counter.Writes(), counter.Syncs()
}

// TestCrashSweepDirectLoad injects a fault at every write (and every
// sync) of a non-atomic load, then reopens with a clean filesystem.
// The contract: the load fails with the injected error surfaced, the
// reopen either fails with a TYPED corruption error or succeeds, and
// everything readable afterwards matches the source — never a panic,
// never silently wrong data.
func TestCrashSweepDirectLoad(t *testing.T) {
	op := core.MustNew(core.Options{})
	writes, syncs := countCrashOps(t, op)
	t.Logf("clean load: %d writes, %d syncs", writes, syncs)

	stride := 1
	if testing.Short() {
		stride = writes/40 + 1
	}
	for n := 1; n <= writes; n += stride {
		n := n
		t.Run(fmt.Sprintf("write%d_%s", n, store.FaultMode(n%3)), func(t *testing.T) {
			fs := &store.FaultFS{FailWrite: n, Mode: store.FaultMode(n % 3)}
			runCrashCase(t, op, fs)
		})
	}
	for n := 1; n <= syncs; n++ {
		n := n
		t.Run(fmt.Sprintf("sync%d", n), func(t *testing.T) {
			runCrashCase(t, op, &store.FaultFS{FailSync: n})
		})
	}
}

func runCrashCase(t *testing.T, op *core.Operator, fs *store.FaultFS) {
	dir := filepath.Join(t.TempDir(), "db")
	var firstErr error
	d, err := OpenOpts(dir, Options{CachePages: 8, FS: fs})
	if err != nil {
		firstErr = err
	} else {
		if err := crashLoad(d, op); err != nil {
			firstErr = err
		}
		if err := d.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if !fs.Tripped() {
		t.Fatal("fault never fired (sweep bound is stale)")
	}
	if firstErr == nil {
		t.Error("faulted load reported no error")
	} else if !errors.Is(firstErr, store.ErrInjected) {
		t.Errorf("load error does not carry the injected fault: %v", firstErr)
	}

	// Reopen with a healthy filesystem: damage must be detected, not
	// served.
	d2, err := OpenOpts(dir, Options{CachePages: 8})
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("reopen failed with an untyped error: %v", err)
		}
		return
	}
	defer d2.Close()
	// Check may report issues (the load was interrupted); it must not
	// panic, and readable data must be right.
	_ = d2.Check()
	verifyReadable(t, d2, "reopen")
}

// TestCrashSweepAtomicLoad runs the same sweep through BuildAtomic:
// after any fault, the published directory must be either absent (an
// open yields an empty database) or fully loaded — partial loads are
// confined to the staging directory.
func TestCrashSweepAtomicLoad(t *testing.T) {
	op := core.MustNew(core.Options{})

	// Size the sweep against the atomic path (adds a rename + dir ops).
	counter := &store.FaultFS{}
	base := filepath.Join(t.TempDir(), "db")
	if err := BuildAtomic(base, Options{CachePages: 8, FS: counter}, func(d *DB) error {
		return crashLoad(d, op)
	}); err != nil {
		t.Fatal(err)
	}
	d, err := Open(base)
	if err != nil {
		t.Fatal(err)
	}
	verifyComplete(t, d, "clean atomic build")
	d.Close()
	writes, syncs := counter.Writes(), counter.Syncs()

	stride := 1
	if testing.Short() {
		stride = writes/40 + 1
	}
	for n := 1; n <= writes+1; n += stride {
		n := n
		t.Run(fmt.Sprintf("write%d_%s", n, store.FaultMode(n%3)), func(t *testing.T) {
			runAtomicCrashCase(t, op, &store.FaultFS{FailWrite: n, Mode: store.FaultMode(n % 3)})
		})
	}
	for n := 1; n <= syncs+1; n++ {
		n := n
		t.Run(fmt.Sprintf("sync%d", n), func(t *testing.T) {
			runAtomicCrashCase(t, op, &store.FaultFS{FailSync: n})
		})
	}
}

func runAtomicCrashCase(t *testing.T, op *core.Operator, fs *store.FaultFS) {
	dir := filepath.Join(t.TempDir(), "db")
	err := BuildAtomic(dir, Options{CachePages: 8, FS: fs}, func(d *DB) error {
		return crashLoad(d, op)
	})
	if err == nil {
		// Fault index beyond this run's op count: the build completed.
		if fs.Tripped() {
			t.Fatal("fault fired but BuildAtomic reported success")
		}
	} else if !errors.Is(err, store.ErrInjected) {
		t.Errorf("build error does not carry the injected fault: %v", err)
	}

	// The published path is all-or-nothing.
	if _, statErr := os.Stat(dir); os.IsNotExist(statErr) {
		if err == nil {
			t.Error("build succeeded but published nothing")
		}
		return
	}
	d, openErr := Open(dir)
	if openErr != nil {
		t.Fatalf("published db does not open cleanly: %v", openErr)
	}
	defer d.Close()
	if err != nil {
		// Failed build: the published dir may exist in exactly two
		// shapes — an empty database (the fault hit before the load) or
		// a complete one (the fault hit after the publish rename, in the
		// final parent-dir sync). A partial load is never acceptable.
		if got := d.Tables(); len(got) != 0 {
			verifyComplete(t, d, "post-publish crash")
		}
		return
	}
	verifyComplete(t, d, "atomic build")
}

// TestDBCheckReportsFlippedByte builds a database, flips one byte in a
// data page of the names heap, and asserts both the read path and the
// checker call out the damaged page.
func TestDBCheckReportsFlippedByte(t *testing.T) {
	op := core.MustNew(core.Options{})
	dir := filepath.Join(t.TempDir(), "db")
	if err := BuildAtomic(dir, Options{CachePages: 8}, func(d *DB) error {
		return crashLoad(d, op)
	}); err != nil {
		t.Fatal(err)
	}
	heapPath := filepath.Join(dir, "names.heap")
	raw, err := os.ReadFile(heapPath)
	if err != nil {
		t.Fatal(err)
	}
	raw[store.PageSize+10] ^= 0x40 // page 1, payload byte
	if err := os.WriteFile(heapPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	tbl, _ := d.Table("names")
	scanErr := tbl.Scan(func(store.RID, Row) error { return nil })
	if !errors.Is(scanErr, ErrCorrupt) {
		t.Errorf("scan of flipped page = %v, want a corruption error", scanErr)
	}
	var cpe *store.CorruptPageError
	if errors.As(scanErr, &cpe) && cpe.Page != 1 {
		t.Errorf("corruption error names page %d, want 1", cpe.Page)
	}
	issues := d.Check()
	if len(issues) == 0 {
		t.Fatal("Check missed the flipped byte")
	}
	found := false
	for _, is := range issues {
		if is.Object == "table names" {
			found = true
		}
	}
	if !found {
		t.Errorf("Check did not attribute the damage to the names table: %v", issues)
	}
}
