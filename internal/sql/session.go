package sql

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"time"

	"lexequal/internal/core"
	"lexequal/internal/db"
	"lexequal/internal/metrics"
	"lexequal/internal/phoneme"
	"lexequal/internal/script"
	"lexequal/internal/store"
)

// Session executes SQL against a database with a configured LexEQUAL
// operator. Session settings (strategy, default threshold, cost
// parameters) are adjusted with SET statements:
//
//	SET lexequal_strategy  = naive | qgram | indexed
//	SET lexequal_threshold = 0.30
//	SET lexequal_icsc      = 0.25
//	SET lexequal_clusters  = default | coarse | fine
//	SET lexequal_weakindel = 0.5
//	SET parallelism        = 1 | n | 0 (0 = GOMAXPROCS)
//	SET lexequal_wal_flush = milliseconds (group-commit window)
//
// Explicit transactions span statements: BEGIN takes the query lock
// shared and opens a concurrent write transaction, every following
// statement runs in it, and COMMIT/ROLLBACK finishes it (durability is
// awaited after the locks drop, so concurrent committers share one
// fsync). Under MVCC snapshot isolation the shared lock is enough:
// readers never block behind writers, independent writers never block
// behind each other, and a write-write conflict surfaces as
// db.ErrSerializationFailure — the statement (or transaction) should
// be retried.
//
// A Session is safe for concurrent use: Exec serializes on a
// per-session mutex (statements from one session never interleave),
// and takes the database-level query lock — shared for reads and row
// DML, exclusive only for DDL — so many sessions can run against one
// DB.
type Session struct {
	// mu serializes Exec: session state (Strategy, Threshold, operator
	// rebuilds on SET) is mutated with no finer-grained synchronization,
	// so two goroutines sharing a session must not execute concurrently.
	mu        sync.Mutex
	DB        *db.DB
	Op        *core.Operator
	Funcs     *db.FuncRegistry
	Strategy  core.Strategy
	Threshold float64
	// Parallelism is the morsel-pool width of the LexEQUAL verification
	// stage (SET PARALLELISM = n). 1 is serial; 0 selects GOMAXPROCS.
	// Results are identical at any width.
	Parallelism int
	// Kernel selects the verification kernel (SET lexequal_kernel =
	// auto|scalar|bitvec). Auto engages the bit-parallel kernel whenever
	// the operator's cost model compiles; results are identical under
	// every setting.
	Kernel core.Kernel
	// Pipeline accumulates per-stage execution counters across the
	// session's LexEQUAL queries (SHOW LEXSTATS).
	Pipeline metrics.PipelineCounters

	// tx and txUnlock track an explicit transaction (BEGIN..COMMIT):
	// the concurrent database write transaction and the release of the
	// shared query lock, which the session holds across statements
	// until COMMIT/ROLLBACK so DDL and checkpoints serialize against
	// it. Isolation comes from MVCC, not the lock: other sessions read
	// and write concurrently and never observe its uncommitted writes.
	tx       *db.Tx
	txUnlock func()
	// snap is the snapshot the current statement reads under: the
	// explicit transaction's when one is open, else a fresh one at the
	// latest commit horizon (snapOwned — released after the statement).
	// The planner threads it into every scan and fetch.
	snap      *db.Snap
	snapOwned bool
	// stmtLSN is the commit LSN of the last statement-scoped
	// transaction, stashed by endStmtTxn for Exec to await after the
	// locks drop.
	stmtLSN uint64
}

// NewSession builds a session over an open database. A nil op selects
// the default operator configuration.
func NewSession(d *db.DB, op *core.Operator) (*Session, error) {
	if op == nil {
		var err error
		op, err = core.New(core.Options{})
		if err != nil {
			return nil, err
		}
	}
	s := &Session{
		DB:          d,
		Op:          op,
		Strategy:    core.Naive,
		Threshold:   op.Threshold(),
		Parallelism: 1,
	}
	s.installFuncs()
	return s, nil
}

func (s *Session) installFuncs() {
	s.Funcs = db.NewFuncRegistry()
	db.RegisterLexEqualUDF(s.Funcs, s.Op)
	// language(nstring) -> the row's language tag, enabling the paper's
	// Figure 5 predicate B1.Language <> B2.Language on tables that keep
	// the tag inside the NString rather than as a separate column.
	s.Funcs.Register("language", func(args []db.Value) (db.Value, error) {
		if len(args) != 1 || args[0].T != db.TNString {
			return db.Null(), fmt.Errorf("sql: language() expects one NSTRING argument")
		}
		return db.Str(string(args[0].Lang)), nil
	})
	// fold(text) strips Latin accents: the cheap lexicographic
	// normalization (§2.1 / the paper's multilexical companion report)
	// that complements the phonetic operator for same-script variants.
	s.Funcs.Register("fold", func(args []db.Value) (db.Value, error) {
		if len(args) != 1 {
			return db.Null(), fmt.Errorf("sql: fold() expects one argument")
		}
		v := args[0]
		v.S = script.FoldAccents(v.S)
		return v, nil
	})
}

// Result is the outcome of one statement.
type Result struct {
	Cols     []string
	Rows     []db.Row
	Affected int    // rows inserted
	Message  string // DDL/SET acknowledgement
}

// Exec parses, plans and runs one statement. It is safe to call from
// multiple goroutines: statements serialize per session, and the
// database query lock is taken shared or exclusive per statement class.
func (s *Session) Exec(sqlText string) (*Result, error) {
	s.mu.Lock()
	res, waitLSN, err := s.execLocked(sqlText)
	s.mu.Unlock()
	if err == nil && waitLSN != 0 {
		// COMMIT durability is awaited here, after every lock (session
		// and database) is released: concurrent committers then pile
		// into the log's collection window and share one group-commit
		// fsync instead of serializing on their own.
		if derr := s.DB.WaitDurable(waitLSN); derr != nil {
			return nil, derr
		}
	}
	return res, err
}

// execLocked runs one statement under the session mutex and returns a
// commit LSN to await after the locks drop (0 when there is nothing to
// await).
func (s *Session) execLocked(sqlText string) (*Result, uint64, error) {
	stmt, err := Parse(sqlText)
	if err != nil {
		return nil, 0, err
	}
	if s.DB.IsReplica() {
		// A read replica applies the primary's WAL stream and nothing
		// else: every mutating statement class is rejected up front with
		// a clear error, before any lock or transaction state is touched.
		// SELECT/EXPLAIN/SHOW/SET stay available, and CHECKPOINT maps to
		// the replica's flush-and-persist-floor variant.
		switch stmt.(type) {
		case *InsertStmt, *DeleteStmt, *CreateTableStmt, *CreateIndexStmt,
			*DropTableStmt, *BeginStmt, *CommitStmt, *RollbackStmt:
			return nil, 0, fmt.Errorf("sql: %w: this server is a read-only replica; send writes to the primary", db.ErrReplica)
		}
	}
	switch stmt.(type) {
	case *BeginStmt:
		res, err := s.execBegin()
		return res, 0, err
	case *CommitStmt:
		return s.execCommit()
	case *RollbackStmt:
		res, err := s.execRollback()
		return res, 0, err
	case *CheckpointStmt:
		res, err := s.execCheckpoint()
		return res, 0, err
	case *CreateTableStmt, *CreateIndexStmt, *DropTableStmt:
		if s.tx != nil {
			// DDL needs the exclusive query lock; the open transaction
			// holds it shared across statements, so the upgrade would
			// deadlock — and a failed DDL rollback escalates to in-place
			// recovery, which tolerates no concurrent transaction.
			return nil, 0, fmt.Errorf("sql: DDL inside a transaction is not supported")
		}
	}
	unlock := s.acquireDB(stmt)
	s.beginStmtSnap()
	res, err := s.exec(stmt)
	s.endStmtSnap()
	waitLSN := s.stmtLSN
	s.stmtLSN = 0
	if unlock != nil {
		unlock()
	}
	if err != nil && s.tx != nil {
		abort := false
		switch stmt.(type) {
		case *InsertStmt, *DeleteStmt:
			// A failed mutation poisons the whole explicit transaction
			// (its earlier writes may be what made the statement fail,
			// and partial statements must not commit).
			abort = true
		}
		if abort || s.tx.Done() {
			if rbErr := s.rollbackTxn(); rbErr != nil {
				err = errors.Join(err, rbErr)
			}
			err = fmt.Errorf("%w (the open transaction was rolled back)", err)
		}
	}
	if err != nil {
		waitLSN = 0
		if errors.Is(err, db.ErrSerializationFailure) {
			err = fmt.Errorf("%w; retry the transaction", err)
		}
	}
	return res, waitLSN, err
}

// beginStmtSnap points the planner at the snapshot the next statement
// reads under: the explicit transaction's (repeatable reads plus its
// own writes) or a fresh one at the latest commit horizon.
func (s *Session) beginStmtSnap() {
	if s.tx != nil {
		s.snap, s.snapOwned = s.tx.Snapshot(), false
		return
	}
	s.snap, s.snapOwned = s.DB.AcquireSnap(), true
}

// endStmtSnap releases a statement-scoped snapshot so version GC can
// advance past its horizon; a transaction's snapshot lives on until
// COMMIT/ROLLBACK.
func (s *Session) endStmtSnap() {
	if s.snapOwned {
		s.DB.ReleaseSnap(s.snap)
	}
	s.snap, s.snapOwned = nil, false
}

// execBegin opens an explicit transaction: it takes the shared query
// lock — held until COMMIT/ROLLBACK, so DDL and checkpoints wait but
// readers and other writers do not — and begins a concurrent write
// transaction that every following statement runs in.
func (s *Session) execBegin() (*Result, error) {
	if s.tx != nil {
		return nil, fmt.Errorf("sql: a transaction is already open")
	}
	unlock := s.lockShared()
	tx, err := s.DB.BeginTx()
	if err != nil {
		unlock()
		return nil, err
	}
	s.tx = tx
	s.txUnlock = unlock
	return &Result{Message: "transaction started"}, nil
}

// execCommit appends the commit record and hands the commit LSN to
// Exec, which awaits durability only after releasing the locks.
func (s *Session) execCommit() (*Result, uint64, error) {
	if s.tx == nil {
		return nil, 0, fmt.Errorf("sql: no transaction is open")
	}
	tx := s.tx
	defer s.endTxn()
	lsn, err := tx.CommitNoWait()
	if err != nil {
		return nil, 0, err
	}
	return &Result{Message: "transaction committed"}, lsn, nil
}

// execRollback abandons the open transaction via rollbackTxn.
func (s *Session) execRollback() (*Result, error) {
	if s.tx == nil {
		return nil, fmt.Errorf("sql: no transaction is open")
	}
	if err := s.rollbackTxn(); err != nil {
		return nil, err
	}
	return &Result{Message: "transaction rolled back"}, nil
}

// rollbackTxn aborts the open explicit transaction and clears the
// session's side of it. The rollback runs under the shared query lock
// held since BEGIN — compensation is plain latched page traffic, safe
// beside concurrent readers and writers. The catastrophic path (a
// rollback that cannot be compensated) is the db layer's problem: it
// escalates to in-place recovery only when no other transaction or
// snapshot is live, and marks the database unusable otherwise.
func (s *Session) rollbackTxn() error {
	tx := s.tx
	defer s.endTxn()
	if tx == nil || tx.Done() {
		return nil
	}
	return tx.Rollback()
}

// execCheckpoint runs an online fuzzy checkpoint. It takes no
// session-level query lock — the checkpoint acquires the lock shared
// in short rounds itself, so serving continues around it — but is
// rejected inside an explicit transaction, whose exclusive hold of
// that lock would deadlock the checkpoint.
func (s *Session) execCheckpoint() (*Result, error) {
	if s.tx != nil {
		return nil, fmt.Errorf("sql: CHECKPOINT inside a transaction is not supported")
	}
	st, err := s.DB.Checkpoint()
	if err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("checkpoint complete (lsn %d, redo floor %d, %d wal segments reclaimed)",
		st.LSN, st.Floor, st.SegmentsRemoved)}, nil
}

// endTxn drops the session's explicit-transaction state and releases
// the shared query lock.
func (s *Session) endTxn() {
	if s.txUnlock != nil {
		s.txUnlock()
		s.txUnlock = nil
	}
	s.tx = nil
}

// Reset rolls back any explicit transaction left open — the serving
// layer calls it when a client disconnects mid-transaction, so the
// exclusive query lock is never orphaned. The rollback error (if any)
// is returned for logging; Reset on a clean session is a no-op.
func (s *Session) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tx == nil {
		return nil
	}
	return s.rollbackTxn()
}

// acquireDB takes the database-level query lock for one statement:
// shared for reads and row DML (MVCC snapshots isolate them), exclusive
// only for DDL, none for session-local SET/SHOW-LEXSTATS. It returns
// the release func.
func (s *Session) acquireDB(stmt Stmt) func() {
	if s.tx != nil {
		// An explicit transaction already holds the shared lock across
		// statements; re-acquiring would deadlock against a pending DDL.
		return nil
	}
	switch st := stmt.(type) {
	case *SelectStmt, *ExplainStmt, *InsertStmt, *DeleteStmt:
		// Readers and row writers all share: SELECTs never block behind
		// writers and independent writers never block each other —
		// write-write conflicts surface as ErrSerializationFailure from
		// the row that loses the claim race, not as lock waits.
		return s.lockShared()
	case *ShowStmt:
		if st.What == "LEXSTATS" {
			return nil // session counters only; no storage access
		}
		return s.lockShared()
	case *SetStmt:
		return nil // session state only
	default: // CREATE/DROP: DDL rewrites shared structures in place
		return s.lockExclusive()
	}
}

// lockShared and lockExclusive live in separate functions so the
// lockcheck analyzer's straight-line upgrade detection does not see an
// RLock-then-Lock sequence in one body.
func (s *Session) lockShared() func() {
	l := s.DB.QueryLock()
	l.RLock()
	return l.RUnlock
}

func (s *Session) lockExclusive() func() {
	l := s.DB.QueryLock()
	l.Lock()
	return l.Unlock
}

func (s *Session) exec(stmt Stmt) (*Result, error) {
	switch st := stmt.(type) {
	case *SelectStmt:
		node, names, _, err := s.planSelect(st)
		if err != nil {
			return nil, err
		}
		rows, err := db.Collect(node)
		if err != nil {
			return nil, err
		}
		return &Result{Cols: names, Rows: rows}, nil

	case *ExplainStmt:
		_, _, info, err := s.planSelect(st.Query)
		if err != nil {
			return nil, err
		}
		plan := fmt.Sprintf("%s [lexequal strategy: %s]", info.shape, info.strategy)
		if info.parallelism > 1 {
			plan += fmt.Sprintf(" [parallelism: %d]", info.parallelism)
		}
		if info.kernel != "" {
			plan += fmt.Sprintf(" [kernel: %s]", info.kernel)
		}
		return &Result{
			Cols: []string{"plan"},
			Rows: []db.Row{{db.Str(plan)}},
		}, nil

	case *CreateTableStmt:
		cols := make(db.Schema, len(st.Cols))
		for i, c := range st.Cols {
			t, err := db.ParseType(c.Type)
			if err != nil {
				return nil, err
			}
			cols[i] = db.Column{Name: c.Name, Type: t}
		}
		if _, err := s.DB.CreateTable(st.Name, cols); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("table %s created", st.Name)}, nil

	case *CreateIndexStmt:
		if _, err := s.DB.CreateIndex(st.Name, st.Table, st.Column); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("index %s created", st.Name)}, nil

	case *DropTableStmt:
		if err := s.DB.DropTable(st.Name); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("table %s dropped", st.Name)}, nil

	case *InsertStmt:
		return s.execInsert(st)

	case *DeleteStmt:
		return s.execDelete(st)

	case *SetStmt:
		return s.execSet(st)

	case *ShowStmt:
		var rows []db.Row
		var col string
		switch st.What {
		case "LEXSTATS":
			snap := s.Pipeline.Snapshot()
			rows = []db.Row{
				{db.Str("queries"), db.Int(snap.Queries)},
				{db.Str("rows_probed"), db.Int(snap.Rows)},
				{db.Str("pruned_length"), db.Int(snap.PrunedLength)},
				{db.Str("pruned_count"), db.Int(snap.PrunedCount)},
				{db.Str("pruned_sig"), db.Int(snap.PrunedSig)},
				{db.Str("candidates"), db.Int(snap.Candidates)},
				{db.Str("dp_cells"), db.Int(snap.DPCells)},
				{db.Str("bitvec_ops"), db.Int(snap.BitvecOps)},
				{db.Str("scalar_fallbacks"), db.Int(snap.ScalarFallbacks)},
				{db.Str("batches_built"), db.Int(snap.BatchesBuilt)},
				{db.Str("matches"), db.Int(snap.Matches)},
				{db.Str("sig_cache_hits"), db.Int(snap.SigCacheHits)},
			}
			return &Result{Cols: []string{"counter", "value"}, Rows: rows}, nil
		case "TABLES":
			col = "table"
			for _, name := range s.DB.Tables() {
				rows = append(rows, db.Row{db.Str(name)})
			}
		default:
			col = "index"
			for _, name := range s.DB.Indexes() {
				rows = append(rows, db.Row{db.Str(name)})
			}
		}
		return &Result{Cols: []string{col}, Rows: rows}, nil

	default:
		return nil, fmt.Errorf("sql: unhandled statement %T", stmt)
	}
}

// beginStmtTxn opens a statement-scoped transaction for a statement
// about to mutate n rows: the whole statement commits — and fsyncs —
// once, and the durability wait is deferred until the statement's
// locks drop (see endStmtTxn), so concurrent sessions' commits batch
// into one group-commit fsync. It returns nil (no wrapper needed) for
// statements mutating nothing, inside an explicit transaction, or with
// the WAL disabled.
func (s *Session) beginStmtTxn(n int) (*db.Tx, error) {
	if n < 1 || s.tx != nil || !s.DB.WALStats().Enabled {
		return nil, nil
	}
	return s.DB.BeginTx()
}

// endStmtTxn finishes a statement-scoped transaction. On success it
// appends the commit record without waiting for durability and stashes
// the commit LSN for Exec to await once the query lock is released. On
// failure it rolls the transaction back under the statement's shared
// lock — compensation is ordinary latched page traffic, and a
// transaction CommitNoWait itself could not finish is already done.
func (s *Session) endStmtTxn(tx *db.Tx, err error) error {
	if tx == nil {
		return err
	}
	if err != nil {
		if !tx.Done() {
			if rbErr := tx.Rollback(); rbErr != nil {
				err = errors.Join(err, rbErr)
			}
		}
		return err
	}
	lsn, err := tx.CommitNoWait()
	if err != nil {
		return err
	}
	s.stmtLSN = lsn
	return nil
}

// execInsert inserts the statement's rows, wrapped in one
// statement-scoped transaction when there are several.
func (s *Session) execInsert(st *InsertStmt) (*Result, error) {
	t, ok := s.DB.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("sql: no table %q", st.Table)
	}
	stmtTx, err := s.beginStmtTxn(len(st.Rows))
	if err != nil {
		return nil, err
	}
	tx := s.tx
	if stmtTx != nil {
		tx = stmtTx
	}
	n, err := s.insertRows(tx, t, st)
	if err = s.endStmtTxn(stmtTx, err); err != nil {
		return nil, err
	}
	return &Result{Affected: n, Message: fmt.Sprintf("%d row(s) inserted", n)}, nil
}

// insertRows writes the statement's rows under tx — the explicit
// transaction, a statement-scoped one, or nil on a WAL-less database
// (single-writer bulk mode, frozen versions).
func (s *Session) insertRows(tx *db.Tx, t *db.Table, st *InsertStmt) (int, error) {
	n := 0
	for _, astRow := range st.Rows {
		row := make(db.Row, len(astRow))
		for i, cell := range astRow {
			lit, ok := cell.(*Lit)
			if !ok {
				return n, fmt.Errorf("sql: INSERT values must be literals")
			}
			v := s.litValue(lit)
			// Coerce string literals to the column's declared type.
			if i < len(t.Columns) {
				v = coerce(v, t.Columns[i].Type)
			}
			row[i] = v
		}
		if _, err := t.InsertTx(tx, row); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// execDelete scans the table under the statement's snapshot, collects
// matching RIDs, then claims them for deletion (two phases so the scan
// never observes its own deletions). A row another transaction claimed
// or replaced since the snapshot fails the statement with
// ErrSerializationFailure — first writer wins.
func (s *Session) execDelete(st *DeleteStmt) (*Result, error) {
	t, ok := s.DB.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("sql: no table %q", st.Table)
	}
	sc, err := newScope(s, []TableRef{{Name: st.Table}})
	if err != nil {
		return nil, err
	}
	var pred db.Expr
	if st.Where != nil {
		pred, err = s.resolve(sc, st.Where)
		if err != nil {
			return nil, err
		}
	}
	var rids []store.RID
	err = t.ScanSnap(s.snap, func(rid store.RID, row db.Row) error {
		if pred != nil {
			v, err := pred.Eval(row)
			if err != nil {
				return err
			}
			if !v.Bool() {
				return nil
			}
		}
		rids = append(rids, rid)
		return nil
	})
	if err != nil {
		return nil, err
	}
	stmtTx, err := s.beginStmtTxn(len(rids))
	if err != nil {
		return nil, err
	}
	tx := s.tx
	if stmtTx != nil {
		tx = stmtTx
	}
	for _, rid := range rids {
		if err = t.DeleteTx(tx, rid); err != nil {
			break
		}
	}
	if err = s.endStmtTxn(stmtTx, err); err != nil {
		return nil, err
	}
	return &Result{Affected: len(rids), Message: fmt.Sprintf("%d row(s) deleted", len(rids))}, nil
}

// coerce adapts literal values to a column type where lossless:
// NString -> String (drop tag) and Int -> Float.
func coerce(v db.Value, want db.Type) db.Value {
	switch {
	case v.T == db.TNString && want == db.TString:
		return db.Str(v.S)
	case v.T == db.TString && want == db.TNString:
		return db.NStr(v.S, script.GuessLanguage(v.S))
	case v.T == db.TInt && want == db.TFloat:
		return db.Float(float64(v.I))
	}
	return v
}

// parseUnitInterval parses a SET value that must be a finite number in
// [0,1]. NaN slips through a plain `v < 0 || v > 1` guard (every NaN
// comparison is false) and Inf/negatives slipped through the old
// error-only checks on the cost parameters; all of them would otherwise
// reach the cost model and poison every subsequent distance.
func parseUnitInterval(name, value string) (float64, error) {
	v, err := strconv.ParseFloat(value, 64)
	if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
		return 0, fmt.Errorf("sql: %s must be a finite number in [0,1] (got %q)", name, value)
	}
	return v, nil
}

func (s *Session) execSet(st *SetStmt) (*Result, error) {
	ack := func() (*Result, error) {
		return &Result{Message: fmt.Sprintf("%s = %s", st.Name, st.Value)}, nil
	}
	switch st.Name {
	case "lexequal_strategy":
		strat, err := core.ParseStrategy(strings.ToLower(st.Value))
		if err != nil {
			return nil, err
		}
		s.Strategy = strat
		return ack()
	case "lexequal_threshold":
		v, err := parseUnitInterval(st.Name, st.Value)
		if err != nil {
			return nil, err
		}
		s.Threshold = v
		return ack()
	case "lexequal_icsc":
		v, err := parseUnitInterval(st.Name, st.Value)
		if err != nil {
			return nil, err
		}
		return s.rebuildOperator(core.Options{
			Registry: s.Op.Registry(), Clusters: s.Op.Clusters(),
			ICSC: v, ICSCSet: true,
			WeakIndel: s.Op.WeakIndel(), WeakIndelSet: true,
			DefaultThreshold: s.Threshold,
		}, ack)
	case "lexequal_clusters":
		cl, err := phoneme.ByName(st.Value)
		if err != nil {
			return nil, err
		}
		return s.rebuildOperator(core.Options{
			Registry: s.Op.Registry(), Clusters: cl,
			ICSC: s.Op.ICSC(), ICSCSet: true,
			WeakIndel: s.Op.WeakIndel(), WeakIndelSet: true,
			DefaultThreshold: s.Threshold,
		}, ack)
	case "lexequal_wal_flush":
		// The group-commit collection window, in milliseconds
		// (fractional allowed; 0 fsyncs immediately per commit).
		v, err := strconv.ParseFloat(st.Value, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			return nil, fmt.Errorf("sql: lexequal_wal_flush must be a non-negative number of milliseconds (got %q)", st.Value)
		}
		s.DB.SetWALFlushInterval(time.Duration(v * float64(time.Millisecond)))
		return ack()
	case "parallelism", "lexequal_parallelism":
		v, err := strconv.Atoi(st.Value)
		if err != nil || v < 0 {
			return nil, fmt.Errorf("sql: parallelism must be a non-negative integer (0 = GOMAXPROCS)")
		}
		s.Parallelism = v
		return ack()
	case "lexequal_kernel":
		k, err := core.ParseKernel(strings.ToLower(st.Value))
		if err != nil {
			return nil, err
		}
		s.Kernel = k
		return ack()
	case "lexequal_weakindel":
		v, err := parseUnitInterval(st.Name, st.Value)
		if err != nil {
			return nil, err
		}
		return s.rebuildOperator(core.Options{
			Registry: s.Op.Registry(), Clusters: s.Op.Clusters(),
			ICSC: s.Op.ICSC(), ICSCSet: true,
			WeakIndel: v, WeakIndelSet: true,
			DefaultThreshold: s.Threshold,
		}, ack)
	default:
		return nil, fmt.Errorf("sql: unknown setting %q", st.Name)
	}
}

func (s *Session) rebuildOperator(opts core.Options, ack func() (*Result, error)) (*Result, error) {
	op, err := core.New(opts)
	if err != nil {
		return nil, err
	}
	s.Op = op
	s.installFuncs()
	return ack()
}
