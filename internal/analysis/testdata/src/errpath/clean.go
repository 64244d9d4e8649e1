package errpath

// The clean twins: every release pattern the engine actually uses must
// stay silent.

// cleanErrGate: the failure arm pins nothing, the success arm releases.
func cleanErrGate(pg *Pager, id uint32) error {
	p, err := pg.Get(id)
	if err != nil {
		return err
	}
	pg.Unpin(p)
	return nil
}

// cleanDefer covers every exit, including the early error return.
func cleanDefer(pg *Pager, id uint32) error {
	p, err := pg.Get(id)
	if err != nil {
		return err
	}
	defer pg.Unpin(p)
	if p.ID == 0 {
		return errBad
	}
	return nil
}

// cleanClosureDefer releases through a deferred closure, which reads
// the captured variable at exit time.
func cleanClosureDefer(pg *Pager, id uint32) error {
	p, err := pg.Get(id)
	if err != nil {
		return err
	}
	defer func() { pg.Unpin(p) }()
	p.Data = append(p.Data, 1)
	return nil
}

// cleanAllArms releases in every switch arm.
func cleanAllArms(pg *Pager, id uint32, kind int) {
	p, err := pg.Get(id)
	if err != nil {
		return
	}
	switch kind {
	case 0:
		pg.Unpin(p)
	default:
		pg.Unpin(p)
	}
}

// cleanHandoff transfers the pin to the caller wholesale.
func cleanHandoff(pg *Pager, id uint32) (*Page, error) {
	return pg.Get(id)
}

// cleanEscape returns the pinned page: the caller owns the Unpin.
func cleanEscape(pg *Pager, id uint32) (*Page, error) {
	p, err := pg.Get(id)
	if err != nil {
		return nil, err
	}
	p.Data = append(p.Data, 1)
	return p, nil
}

// cleanBorrow lends the page to a reader, then releases it itself.
func cleanBorrow(pg *Pager, id uint32) (int, error) {
	p, err := pg.Get(id)
	if err != nil {
		return 0, err
	}
	n := pageLen(p)
	pg.Unpin(p)
	return n, nil
}

// cleanLoop re-pins every iteration and releases on both the early
// continue and the fall-through.
func cleanLoop(pg *Pager, ids []uint32) int {
	total := 0
	for _, id := range ids {
		p, err := pg.Get(id)
		if err != nil {
			continue
		}
		if p.ID == 0 {
			pg.Unpin(p)
			continue
		}
		total += len(p.Data)
		pg.Unpin(p)
	}
	return total
}

// cleanTxnDefer rolls back through a defer; Commit marks it done first.
func cleanTxnDefer(d *DB, fail bool) error {
	tx, err := d.BeginTx()
	if err != nil {
		return err
	}
	defer tx.Rollback()
	if fail {
		return errBad
	}
	return tx.Commit()
}

// cleanTxn resolves the transaction on both arms — the conflict path
// rolls back (the SQL layer's retry contract), the happy path commits.
func cleanTxn(d *DB, conflict bool) error {
	tx, err := d.BeginTx()
	if err != nil {
		return err
	}
	if conflict {
		return tx.Rollback()
	}
	return tx.Commit()
}

// cleanSnapDefer is the per-statement snapshot shape: acquire, defer
// the release, evaluate under it.
func cleanSnapDefer(d *DB, bad bool) error {
	s := d.AcquireSnap()
	defer d.ReleaseSnap(s)
	if bad {
		return errBad
	}
	_ = s.h
	return nil
}

// cleanSnapBothArms releases on the early exit and the fall-through.
func cleanSnapBothArms(d *DB, bad bool) error {
	s := d.AcquireSnap()
	if bad {
		d.ReleaseSnap(s)
		return errBad
	}
	d.ReleaseSnap(s)
	return nil
}

// cleanSnapHandoff returns the acquired snapshot: the caller owns the
// release, exactly like a pinned page handed off wholesale.
func cleanSnapHandoff(d *DB) *Snap {
	return d.AcquireSnap()
}

// cleanLockDefer is the standard critical-section shape.
func cleanLockDefer(c *counter) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// swapLocked runs under its caller's lock and briefly drops it; the
// *Locked suffix exempts it from the balance proof, as its contract is
// to exit holding the lock.
func (c *counter) swapLocked(n int) int {
	c.mu.Unlock()
	old := c.n
	c.mu.Lock()
	c.n = n
	return old
}

// lockShared hands a held lock to the caller: no release site in the
// function, so no balance obligation is imposed.
func (c *counter) lockShared() func() {
	c.mu.Lock()
	return func() { c.mu.Unlock() }
}

// cleanRetakeUnderDefer drops and re-acquires the lock mid-function
// under a defer registered at the top — the WAL group-commit leader
// shape. A lock's identity is positionally fixed, so the deferred
// direct unlock covers the re-acquire too.
func cleanRetakeUnderDefer(c *counter, work func() int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n > 0 {
		c.mu.Unlock()
		n := work()
		c.mu.Lock()
		c.n = n
	}
	return c.n
}

// cleanPanicPath may exit by panic while holding the pin; panic exits
// are exempt (the process is tearing down).
func cleanPanicPath(pg *Pager, id uint32) {
	p, err := pg.Get(id)
	if err != nil {
		return
	}
	if p.ID == 0 {
		panic("zero page id")
	}
	pg.Unpin(p)
}

// cleanStreamDefer closes the reader on every exit — the replication
// serve loop's shape: open, defer Close, then stream until error.
func cleanStreamDefer(l *Log, limit uint64) error {
	sr, err := l.NewStreamReader(1)
	if err != nil {
		return err
	}
	defer sr.Close()
	if limit == 0 {
		return errBad
	}
	return nil
}

// cleanStreamHandoff hands the reader to a goroutine, which owns it
// from then on (the follower's tailing loop).
func cleanStreamHandoff(l *Log) error {
	sr, err := l.NewStreamReader(1)
	if err != nil {
		return err
	}
	go func() { sr.Close() }()
	return nil
}
