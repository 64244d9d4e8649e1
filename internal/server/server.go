// Package server is the concurrent serving layer: lexequald exposes
// the SQL subset (with the LexEQUAL extensions) over a length-prefixed
// TCP protocol, one sql.Session per connection, against one shared
// database.
//
// Concurrency model (DESIGN.md §10): the server owns the top of the
// latch hierarchy. Each connection gets its own Session, whose Exec
// serializes that connection's statements and takes the db-level query
// lock shared (SELECT) or exclusive (DML/DDL); below that the storage
// latches in internal/store make pager and structure access safe. The
// server itself adds a connection limit with accept backpressure, a
// per-query deadline, a slow-query log, and a graceful drain that
// finishes in-flight queries and flushes the pager exactly once.
package server

import (
	"bufio"
	"errors"
	"fmt"
	"log"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lexequal"
	"lexequal/internal/core"
	"lexequal/internal/db"
	"lexequal/internal/metrics"
	"lexequal/internal/repl"
	"lexequal/internal/sql"
)

// Config tunes a Server. The zero value picks sensible defaults.
type Config struct {
	// Addr is the TCP listen address; default "127.0.0.1:0" (an
	// OS-assigned port, reported by Addr after Start).
	Addr string
	// MaxConns caps concurrently served connections; further dials are
	// left in the kernel accept backlog until a slot frees (accept
	// backpressure, not an error). Default 64.
	MaxConns int
	// QueryTimeout bounds one statement's execution. A statement that
	// exceeds it gets an error response; the engine cannot abandon a
	// running plan mid-flight, so the statement runs to completion in
	// the background and the connection's next statement waits behind
	// it (per-session serialization). 0 disables the deadline.
	QueryTimeout time.Duration
	// SlowQuery is the slow-query-log threshold: statements at or above
	// it are logged with their duration. 0 disables the log.
	SlowQuery time.Duration
	// GroupCommit is the WAL group-commit collection window: how long
	// the first committer in a batch waits for followers before issuing
	// the shared fsync. 0 keeps the database's current window (the WAL
	// default); sessions can still adjust it with SET
	// lexequal_wal_flush.
	GroupCommit time.Duration
	// CheckpointInterval is how often the background checkpointer polls
	// the database; each tick calls db.CheckpointIfNeeded, which only
	// does work once enough WAL has accumulated since the last
	// checkpoint (so a short interval is cheap). A failed checkpoint is
	// logged and retried on the next tick; serving is never stalled
	// because the checkpoint is fuzzy. 0 disables the background
	// checkpointer (explicit CHECKPOINT statements still work). The
	// graceful drain always runs one final checkpoint so a restart
	// replays almost nothing.
	CheckpointInterval time.Duration
	// ReplRetainSegments caps how many live WAL segments connected
	// followers may hold back from checkpoint GC (DESIGN.md §16); a
	// follower that falls further behind is disconnected into
	// resync-required. 0 = unlimited retention while a follower is
	// connected.
	ReplRetainSegments int
	// Logf receives server log lines; default log.Printf.
	Logf func(format string, args ...any)
}

// Server serves SQL sessions over TCP against one database.
type Server struct {
	cfg Config
	db  *db.DB
	op  *core.Operator

	// Global accumulates PipelineCounters across every connection (each
	// session's counters mirror into it); per-connection counters stay
	// on the session. Both are reported by the STATUS admin command.
	Global metrics.PipelineCounters

	// primary streams WAL records to followers (nil on a replica or a
	// WAL-less database). A connection whose request is the replication
	// handshake is handed to it instead of the SQL path.
	primary *repl.Primary
	// follower is the replica-side apply loop, wired in by the daemon
	// with SetFollower so STATUS can report lag; nil on a primary.
	follower *repl.Follower

	lis      net.Listener
	sem      chan struct{}  // connection slots (accept backpressure)
	handlers sync.WaitGroup // one per accepted connection
	queries  sync.WaitGroup // one per in-flight statement (incl. timed-out ones)
	accepted atomic.Int64
	draining atomic.Bool

	// ckptStop ends the background checkpointer; ckptDone is closed when
	// it exits. Both are nil when CheckpointInterval is 0.
	ckptStop chan struct{}
	ckptDone chan struct{}

	mu     sync.Mutex
	active map[net.Conn]struct{}

	drainOnce sync.Once
	drainErr  error
	// flushes counts db.Close calls issued by the drain path; tests
	// assert it stays at one no matter how often Shutdown is invoked.
	flushes atomic.Int32
}

// New builds a server over an open database. A nil op selects the
// default operator; the operator is shared by every session (it is
// concurrency-safe), so the transcription cache warms across
// connections. Sessions that SET cost parameters rebuild a private
// operator and leave the shared one untouched.
func New(d *db.DB, op *core.Operator, cfg Config) (*Server, error) {
	if op == nil {
		var err error
		op, err = core.New(core.Options{})
		if err != nil {
			return nil, err
		}
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.MaxConns <= 0 {
		cfg.MaxConns = 64
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.GroupCommit > 0 {
		d.SetWALFlushInterval(cfg.GroupCommit)
	}
	s := &Server{
		cfg:    cfg,
		db:     d,
		op:     op,
		sem:    make(chan struct{}, cfg.MaxConns),
		active: make(map[net.Conn]struct{}),
	}
	if l := d.WAL(); l != nil && !d.IsReplica() {
		s.primary = repl.NewPrimary(l, repl.Config{RetainSegments: cfg.ReplRetainSegments})
	}
	return s, nil
}

// SetFollower wires the replica-side apply loop into STATUS reporting.
// The daemon calls it right after StartFollower; the server does not
// own the follower's lifecycle (the daemon stops it before Shutdown).
func (s *Server) SetFollower(f *repl.Follower) { s.follower = f }

// Primary exposes the replication streaming service (nil on a replica
// or WAL-less database) for tests and status tooling.
func (s *Server) Primary() *repl.Primary { return s.primary }

// Start begins listening and serving. It returns once the listener is
// bound; Addr then reports the actual address.
func (s *Server) Start() error {
	lis, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.lis = lis
	s.handlers.Add(1)
	go s.acceptLoop()
	if s.cfg.CheckpointInterval > 0 {
		s.ckptStop = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.checkpointLoop()
	}
	return nil
}

// checkpointLoop is the background checkpointer: every tick it asks the
// database whether enough WAL has accumulated to be worth a checkpoint.
// Failures (a full disk, say) are logged and retried next tick — the
// WAL keeps its old redo floor, so nothing is lost, recovery is just
// longer until a checkpoint succeeds again.
func (s *Server) checkpointLoop() {
	defer close(s.ckptDone)
	t := time.NewTicker(s.cfg.CheckpointInterval)
	defer t.Stop()
	for {
		select {
		case <-s.ckptStop:
			return
		case <-t.C:
			st, ran, err := s.db.CheckpointIfNeeded()
			if err != nil {
				s.cfg.Logf("lexequald: checkpoint: %v", err)
				continue
			}
			if ran {
				s.cfg.Logf("lexequald: checkpoint complete: lsn=%d floor=%d gc=%d in %v",
					st.LSN, st.Floor, st.SegmentsRemoved, st.Duration)
			}
		}
	}
}

// Addr is the bound listen address (valid after Start).
func (s *Server) Addr() net.Addr { return s.lis.Addr() }

func (s *Server) acceptLoop() {
	defer s.handlers.Done()
	for {
		// Take a connection slot before accepting: at MaxConns in
		// flight we stop calling Accept and dials queue in the kernel
		// backlog instead of being served (backpressure).
		s.sem <- struct{}{}
		conn, err := s.lis.Accept()
		if err != nil {
			<-s.sem
			if s.draining.Load() || errors.Is(err, net.ErrClosed) {
				return
			}
			s.cfg.Logf("lexequald: accept: %v", err)
			continue
		}
		s.accepted.Add(1)
		s.handlers.Add(1)
		go s.handle(conn)
	}
}

func (s *Server) track(conn net.Conn) {
	s.mu.Lock()
	s.active[conn] = struct{}{}
	s.mu.Unlock()
	// A drain that swept active conns before this one was tracked must
	// still interrupt its next read.
	if s.draining.Load() {
		conn.SetReadDeadline(time.Now())
	}
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.active, conn)
	s.mu.Unlock()
}

func (s *Server) handle(conn net.Conn) {
	defer s.handlers.Done()
	defer func() { <-s.sem }()
	defer conn.Close()
	s.track(conn)
	defer s.untrack(conn)

	sess, err := sql.NewSession(s.db, s.op)
	if err != nil {
		writeFrame(conn, errPayload(err))
		return
	}
	sess.Pipeline.SetMirror(&s.Global)
	// A client that vanishes mid-transaction must not orphan the
	// exclusive query lock: roll its transaction back on the way out.
	defer func() {
		if err := sess.Reset(); err != nil {
			s.cfg.Logf("lexequald: rollback on disconnect: %v", err)
		}
	}()
	ex := &executor{sess: sess, queries: &s.queries}
	ex.start()
	defer ex.stop()

	r := bufio.NewReader(conn)
	for {
		payload, err := readFrame(r)
		if err != nil {
			// EOF, client gone, or the drain deadline firing between
			// statements — never mid-statement, so no response is lost.
			return
		}
		stmt := strings.TrimSpace(string(payload))
		if repl.IsHandshake(stmt) {
			// The connection becomes a replication stream for its whole
			// remaining lifetime (it occupies its connection slot like any
			// client). The drain's read deadline interrupts its ack reader,
			// which stops the stream, so Shutdown proceeds normally.
			if s.primary == nil {
				writeFrame(conn, errPayload(fmt.Errorf("server: this server cannot serve replication (replica or WAL disabled)")))
				return
			}
			if err := s.primary.Serve(conn, r, stmt); err != nil {
				s.cfg.Logf("lexequald: repl stream %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		resp := s.execute(ex, stmt)
		if err := writeFrame(conn, resp); err != nil {
			s.cfg.Logf("lexequald: write: %v", err)
			return
		}
		if s.draining.Load() {
			return
		}
	}
}

// outcome is what one statement returned.
type outcome struct {
	res *sql.Result
	err error
}

// executor runs a connection's statements on one long-lived goroutine;
// a goroutine per statement would regrow its stack on every query. A
// statement that misses its deadline keeps the goroutine until it
// finishes, and the connection moves on to a fresh one, whose first
// statement queues behind it on the session mutex. Only the
// connection's handler touches the fields.
type executor struct {
	sess    *sql.Session
	queries *sync.WaitGroup // counts every statement sent, abandoned ones too
	stmts   chan string
	done    chan outcome // capacity 1: an abandoned statement never blocks on it
}

// start runs a new executor goroutine; it exits once stmts is closed.
func (ex *executor) start() {
	stmts, done := make(chan string), make(chan outcome, 1)
	ex.stmts, ex.done = stmts, done
	go func() {
		for stmt := range stmts {
			res, err := ex.sess.Exec(stmt)
			done <- outcome{res, err}
			ex.queries.Done()
		}
	}()
}

// stop lets the goroutine exit once its statement (if any) finishes.
func (ex *executor) stop() { close(ex.stmts) }

// abandon leaves the running statement to finish in the background on
// its goroutine and starts a fresh one for the next statement.
func (ex *executor) abandon() {
	ex.stop()
	ex.start()
}

// execute runs one request payload and renders the response frame.
func (s *Server) execute(ex *executor, stmt string) []byte {
	if IsAdminStatus(stmt) {
		return okPayload(s.status(ex.sess))
	}
	start := time.Now()
	s.queries.Add(1)
	ex.stmts <- stmt
	var out outcome
	if s.cfg.QueryTimeout > 0 {
		t := time.NewTimer(s.cfg.QueryTimeout)
		select {
		case out = <-ex.done:
			t.Stop()
		case <-t.C:
			// The plan cannot be cancelled mid-flight; it finishes in
			// the background (s.queries keeps the drain honest) and the
			// session mutex holds this connection's next statement back
			// until then.
			ex.abandon()
			s.cfg.Logf("lexequald: query exceeded deadline %v: %s", s.cfg.QueryTimeout, stmt)
			return errPayload(fmt.Errorf("server: query exceeded deadline %v", s.cfg.QueryTimeout))
		}
	} else {
		out = <-ex.done
	}
	if d := time.Since(start); s.cfg.SlowQuery > 0 && d >= s.cfg.SlowQuery {
		s.cfg.Logf("lexequald: slow query (%v): %s", d, stmt)
	}
	if out.err != nil {
		return errPayload(out.err)
	}
	return okPayload(lexequal.Format(out.res))
}

// status renders the STATUS admin command: global counters (all
// connections), this connection's counters, and connection accounting.
func (s *Server) status(sess *sql.Session) string {
	s.mu.Lock()
	activeConns := len(s.active)
	s.mu.Unlock()
	ws := s.db.WALStats()
	wal := "wal: disabled"
	if ws.Enabled {
		wal = fmt.Sprintf("wal: commits=%d syncs=%d durable_lsn=%d last_lsn=%d flush=%v",
			ws.Commits, ws.Syncs, ws.DurableLSN, ws.LastLSN, ws.FlushInterval)
		wal += fmt.Sprintf("\nckpt: count=%d failures=%d redo_floor=%d since_ckpt=%dB segments=%d first_seg=%d gc_removed=%d",
			ws.Checkpoints, ws.CheckpointFailures, ws.RedoFloor,
			ws.SinceCheckpoint, ws.Segments, ws.FirstSegment, ws.SegmentsGCed)
		if ws.Checkpoints > 0 {
			wal += fmt.Sprintf("\nlast_ckpt: lsn=%d floor=%d gc=%d duration=%v",
				ws.LastCheckpoint.LSN, ws.LastCheckpoint.Floor,
				ws.LastCheckpoint.SegmentsRemoved, ws.LastCheckpoint.Duration)
		}
	}
	if ms := s.db.MVCCStats(); ms.Enabled {
		wal += fmt.Sprintf("\nmvcc: inflight=%d snapshots=%d max_commit=%d conflicts=%d commit_registry=%d",
			ms.InFlight, ms.Snapshots, ms.MaxCommit, ms.Conflicts, ms.CommitRegistry)
	}
	if rs := s.db.RecoveryStats(); rs.Ran {
		wal += fmt.Sprintf("\nrecovery: duration=%v floor=%d scanned=%d skipped=%d replayed=%d applied=%d",
			rs.Duration, rs.Redo.Floor, rs.Redo.Scanned, rs.Redo.Skipped,
			rs.Redo.Replayed, rs.Redo.Applied)
	}
	if line := s.replStatus(); line != "" {
		wal += "\n" + line
	}
	return fmt.Sprintf("global:  %s\nsession: %s\nconns: active=%d accepted=%d max=%d draining=%v\n%s\n",
		s.Global.Snapshot(), sess.Pipeline.Snapshot(),
		activeConns, s.accepted.Load(), s.cfg.MaxConns, s.draining.Load(), wal)
}

// replStatus renders the replication STATUS lines: on a primary the
// follower roster with per-follower acked LSN and lag; on a follower
// the applied LSN and lag behind the primary. Empty when replication
// is not in play (no follower ever connected and not a replica).
func (s *Server) replStatus() string {
	if s.follower != nil {
		info := s.follower.Info()
		line := fmt.Sprintf("repl: role=follower primary=%s connected=%v applied_lsn=%d primary_lsn=%d lag=%d batches=%d records=%d",
			info.Primary, info.Connected, info.AppliedLSN, info.PrimaryLSN, info.Lag, info.Batches, info.Records)
		if info.Resync {
			line += " resync_required=true"
		}
		if info.LastErr != "" {
			line += fmt.Sprintf(" last_err=%q", info.LastErr)
		}
		return line
	}
	if s.db.IsReplica() {
		return fmt.Sprintf("repl: role=follower applied_lsn=%d (apply loop not running)", s.db.AppliedLSN())
	}
	if s.primary == nil {
		return ""
	}
	followers := s.primary.Followers()
	line := fmt.Sprintf("repl: role=primary followers=%d", len(followers))
	last := s.db.WALStats().LastLSN
	for _, f := range followers {
		lag := uint64(0)
		if last > f.AckedLSN {
			lag = last - f.AckedLSN
		}
		line += fmt.Sprintf("\nrepl_follower: id=%s acked_lsn=%d lag=%d since=%v",
			f.ID, f.AckedLSN, lag, f.Since.Round(time.Millisecond))
	}
	return line
}

// Shutdown gracefully drains the server: stop accepting, let every
// in-flight statement finish and its response reach the client, then
// close the database — flushing the pager — exactly once. Repeated
// calls return the first drain's result.
func (s *Server) Shutdown() error {
	s.drainOnce.Do(func() {
		s.draining.Store(true)
		if s.lis != nil {
			s.lis.Close()
		}
		// Interrupt connections idle in a read; a connection mid-query
		// is not reading, so it completes the statement, writes the
		// response (writes are unaffected), and exits on its next read.
		s.mu.Lock()
		for c := range s.active {
			c.SetReadDeadline(time.Now())
		}
		s.mu.Unlock()
		// Stop replication streams explicitly too: their writers may be
		// blocked in the durability wait rather than a read, which the
		// deadline alone does not interrupt.
		if s.primary != nil {
			s.primary.Close()
		}
		s.handlers.Wait()
		// Statements abandoned by the query deadline may still be
		// running after their handler exited; the pager must not flush
		// underneath them.
		s.queries.Wait()
		if s.ckptStop != nil {
			close(s.ckptStop)
			<-s.ckptDone
		}
		// A final checkpoint while draining: the next startup then seeks
		// to a floor just below the tail and replays almost nothing.
		// Failure is non-fatal — Close flushes everything anyway, and the
		// WAL simply keeps its older floor.
		if s.db.WALStats().Enabled {
			if st, err := s.db.Checkpoint(); err != nil {
				s.cfg.Logf("lexequald: drain checkpoint: %v", err)
			} else {
				s.cfg.Logf("lexequald: drain checkpoint complete: lsn=%d floor=%d gc=%d",
					st.LSN, st.Floor, st.SegmentsRemoved)
			}
		}
		s.flushes.Add(1)
		s.drainErr = s.db.Close()
	})
	return s.drainErr
}

// Flushes reports how many times the drain path closed (and thereby
// flushed) the database. It is exposed for tests, which assert exactly
// one flush across repeated Shutdowns.
func (s *Server) Flushes() int { return int(s.flushes.Load()) }
