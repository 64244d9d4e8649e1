package lockorder

import "sync"

// The per-connection executor shape: a goroutine takes statements off a
// channel and runs each through a session that takes its own mutex and
// then the database's query lock, shared or exclusive — and BEGIN keeps
// the exclusive lock past Exec's return. The range loop and its
// receive-loop twin are both clean: a call in the loop body is made in
// the body only, never also at the loop head, so a hold one statement
// leaves reaches the next only over the back edge, which the analyzer
// does not follow. (Nothing else in the fixture enters Session.mu, so
// the real Session.mu → DB.qmu edge stays acyclic.)

type Session struct {
	mu sync.Mutex
	d  *DB
	// txUnlock holds the exclusive query lock from BEGIN to COMMIT,
	// across statements: Exec may return still holding it.
	txUnlock func()
}

func (s *Session) lockShared() func() {
	s.d.qmu.RLock()
	return s.d.qmu.RUnlock
}

func (s *Session) lockExclusive() func() {
	s.d.qmu.Lock()
	return s.d.qmu.Unlock
}

const (
	stmtSelect = iota
	stmtBegin
	stmtCommit
)

func (s *Session) Exec(stmt int) {
	s.mu.Lock()
	switch stmt {
	case stmtBegin:
		s.txUnlock = s.lockExclusive()
	case stmtCommit:
		s.txUnlock()
		s.txUnlock = nil
	default:
		unlock := s.lockShared()
		unlock()
	}
	s.mu.Unlock()
}

type request struct {
	stmt int
	done chan struct{}
}

func rangeExecutor(s *Session, reqs <-chan request) {
	for rq := range reqs {
		s.Exec(rq.stmt)
		close(rq.done)
	}
}

func recvExecutor(s *Session, reqs <-chan request) {
	for {
		rq, ok := <-reqs
		if !ok {
			return
		}
		s.Exec(rq.stmt)
		close(rq.done)
	}
}
