package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"lexequal/internal/store"
)

// RedoStats describes one recovery pass: where redo started and how
// much work it actually did, so operators (and the bounded-recovery
// tests) can see whether checkpoints are holding replay down.
type RedoStats struct {
	// Floor is the redo floor of the last complete checkpoint found in
	// the log (0 = no checkpoint; redo starts at the log's origin).
	Floor uint64
	// CheckpointLSN is the LSN of that checkpoint's end record.
	CheckpointLSN uint64
	// ApplyStats counts the records scanned, and the finished
	// transactions' page/catalog records skipped at or below the floor,
	// replayed above it, and physically rewritten.
	ApplyStats
	// Losers holds the IDs of transactions the log shows records for
	// but no terminator (neither commit nor abort) — in flight at the
	// crash, or abandoned by an escalated in-process rollback that
	// could not finish compensating. Redo skipped their page images,
	// but a finished image logged AFTER a loser's write to the same
	// page embeds the loser's rows; the db layer purges those by
	// version header before reopening for service.
	Losers map[uint64]bool
}

// Redo replays the log over the database directory through the shared
// Applier, with the primary's policy: every page image belonging to a
// finished transaction — one the log terminates with a commit OR an
// abort record — is re-applied (newest wins), and the last committed
// catalog image is published. Loser transactions — begun but never
// terminated — are discarded.
//
// Replay starts at the last complete checkpoint's redo floor: records
// at or below it were durably flushed to the data files before the
// checkpoint-end record was written, so they are skipped (and their
// segments may already have been garbage-collected).
//
// Redo writes through a FileSink, so a crash during recovery is cured
// by recovering again.
//
// fs nil means the OS filesystem.
func Redo(l *Log, dbDir string, fs store.VFS) (RedoStats, error) {
	var stats RedoStats
	// Pass 1: which transactions finished with a terminator (commit or
	// abort), and where the last complete checkpoint put the redo
	// floor. Any checkpoint-end the scan reaches is complete by
	// construction (it was appended and synced before anything relied
	// on it); the newest one wins.
	finished := make(map[uint64]bool)
	if err := l.Records(func(r Record) error {
		switch r.Type {
		case RecCommit, RecAbort:
			finished[r.TxID] = true
		case RecCheckpointEnd:
			stats.Floor = r.CkptFloor
			stats.CheckpointLSN = r.LSN
		}
		return nil
	}); err != nil {
		return stats, err
	}
	// Pass 2: the shared loop. Loser identification needs no begin
	// record: every record a transaction writes carries its ID, and the
	// checkpoint floor is pinned below the oldest live begin, so no
	// loser's trail is ever wholly garbage-collected out from under
	// this scan.
	files := NewFileSink(dbDir, fs)
	defer files.Close()
	a := NewApplier(files, stats.Floor, finished)
	if err := l.Records(a.Step); err != nil {
		return stats, err
	}
	if err := files.Finish(); err != nil {
		return stats, err
	}
	stats.ApplyStats = a.Stats
	stats.Losers = make(map[uint64]bool)
	for id := range a.Live() {
		stats.Losers[id] = true
	}
	return stats, nil
}

// safeName validates a file name taken from a log record before it is
// joined to the database directory. Records are CRC-protected, but the
// log is an external input (fuzzed, copied between machines), so a name
// must be a bare basename — no separators, no "..", not empty.
func safeName(name string) (string, error) {
	if name == "" || name == "." || name == ".." ||
		strings.ContainsAny(name, "/\\") || strings.ContainsRune(name, 0) {
		return "", fmt.Errorf("wal: unsafe file name %q in log record", name)
	}
	return name, nil
}

// writeFileAtomic publishes contents at dir/name via tmp + fsync +
// rename, the same protocol the live engine uses for the catalog.
func writeFileAtomic(fs store.VFS, dir, name string, contents []byte) error {
	tmp := filepath.Join(dir, name+".redo.tmp")
	f, err := fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: redo catalog create: %w", err)
	}
	if _, err := f.WriteAt(contents, 0); err != nil {
		return errors.Join(fmt.Errorf("wal: redo catalog write: %w", err), f.Close())
	}
	if err := f.Sync(); err != nil {
		return errors.Join(fmt.Errorf("wal: redo catalog sync: %w", err), f.Close())
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fs.Rename(tmp, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("wal: redo catalog rename: %w", err)
	}
	return nil
}
