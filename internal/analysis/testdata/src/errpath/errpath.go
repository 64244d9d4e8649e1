// Package errpath is the golden fixture for the errpath analyzer: each
// function here seeds one resource-leak shape the per-path proof must
// catch. The clean twins live in clean.go.
package errpath

import (
	"errors"
	"sync"
)

// Miniature engine surface: the analyzer recognizes these by type and
// method name, exactly as it does the real pager and database.

type Page struct {
	ID   uint32
	Data []byte
}

type Pager struct{ pins int }

func (pg *Pager) Get(id uint32) (*Page, error) { pg.pins++; return &Page{ID: id}, nil }
func (pg *Pager) Allocate() (*Page, error)     { pg.pins++; return &Page{}, nil }
func (pg *Pager) Unpin(p *Page)                { pg.pins-- }

type Tx struct{ done bool }

type Snap struct{ h uint64 }

type DB struct {
	pg    Pager
	snaps int
}

func (d *DB) BeginTx() (*Tx, error) { return &Tx{}, nil }
func (t *Tx) Commit() error         { t.done = true; return nil }
func (t *Tx) Rollback() error       { t.done = true; return nil }

func (d *DB) AcquireSnap() *Snap  { d.snaps++; return &Snap{} }
func (d *DB) ReleaseSnap(s *Snap) { d.snaps-- }

type counter struct {
	mu sync.Mutex
	n  int
}

var errBad = errors.New("bad")

// pageLen only reads its parameter: callers that lend it a page are
// still on the hook for the Unpin (borrow inference).
func pageLen(p *Page) int { return len(p.Data) }

// leakOnError drops the pin when the validation check fails.
func leakOnError(pg *Pager, id uint32) error {
	p, err := pg.Get(id) // want `page "p" pinned by Pager\.Get is not released on every path`
	if err != nil {
		return err
	}
	if p.ID == 0 {
		return errBad // early return without Unpin
	}
	pg.Unpin(p)
	return nil
}

// leakInSwitchArm releases in two arms but forgets the third.
func leakInSwitchArm(pg *Pager, id uint32, kind int) error {
	p, err := pg.Get(id) // want `page "p" pinned by Pager\.Get is not released on every path`
	if err != nil {
		return err
	}
	switch kind {
	case 0:
		pg.Unpin(p)
	case 1:
		p.Data = nil // no Unpin in this arm
	default:
		pg.Unpin(p)
	}
	return nil
}

// leakViaBorrow lends the page to a reader; lending is not a handoff,
// so the early return still owes an Unpin.
func leakViaBorrow(pg *Pager, id uint32) error {
	p, err := pg.Get(id) // want `page "p" pinned by Pager\.Get is not released on every path`
	if err != nil {
		return err
	}
	if pageLen(p) > 0 {
		return errBad
	}
	pg.Unpin(p)
	return nil
}

// leakAllocate forgets the fresh page when the copy fails.
func leakAllocate(pg *Pager, data []byte) (uint32, error) {
	p, err := pg.Allocate() // want `page "p" pinned by Pager\.Allocate is not released on every path`
	if err != nil {
		return 0, err
	}
	if len(data) > cap(p.Data) {
		return 0, errBad
	}
	p.Data = append(p.Data[:0], data...)
	id := p.ID
	pg.Unpin(p)
	return id, nil
}

// leakTxn neither commits nor rolls back on the failure path: never
// finished, the transaction stays in the in-flight registry and blocks
// the version-GC horizon for the life of the process.
func leakTxn(d *DB, fail bool) error {
	tx, err := d.BeginTx() // want `transaction "tx" from DB\.BeginTx is neither committed nor rolled back`
	if err != nil {
		return err
	}
	if fail {
		return errBad
	}
	return tx.Commit()
}

// leakSnap drops the snapshot on the validation failure path: a
// registered snapshot that is never released pins the GC horizon.
func leakSnap(d *DB, bad bool) error {
	s := d.AcquireSnap() // want `snapshot "s" from DB\.AcquireSnap is not released on every path`
	if bad {
		return errBad
	}
	d.ReleaseSnap(s)
	return nil
}

// leakLock returns while still holding the mutex.
func leakLock(c *counter, bad bool) error {
	c.mu.Lock() // want `counter\.mu locked here is not unlocked on every path`
	if bad {
		return errBad
	}
	c.mu.Unlock()
	return nil
}

// Replication's stream surface: the analyzer recognizes the reader by
// type and method name, exactly as it does the real wal.Log.

type StreamReader struct{ open bool }

type Log struct{ readers int }

func (l *Log) NewStreamReader(from uint64) (*StreamReader, error) {
	l.readers++
	return &StreamReader{open: true}, nil
}

func (sr *StreamReader) Close() { sr.open = false }

// leakStream abandons the reader when validation fails: the reader
// keeps its segment handle (and on a primary, its follower slot) for
// the life of the process.
func leakStream(l *Log, limit uint64) error {
	sr, err := l.NewStreamReader(1) // want `stream reader "sr" from Log\.NewStreamReader is not closed on every path`
	if err != nil {
		return err
	}
	if limit == 0 {
		return errBad
	}
	sr.Close()
	return nil
}

// discards throws pinned pages away entirely.
func discards(pg *Pager) {
	pg.Get(7)        // want `result of Pager\.Get is discarded; the pinned page leaks`
	_, _ = pg.Get(8) // want `pinned page from Pager\.Get is discarded; the pin can never be released`
}
