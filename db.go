package lexequal

import (
	"fmt"

	"lexequal/internal/db"
	"lexequal/internal/sql"
)

// DB is an embedded multiscript database: tables live in heap files
// under a directory, secondary B-trees index integer columns, and a SQL
// subset with the paper's LexEQUAL extensions runs on top.
//
//	db, _ := lexequal.Open("catalog")
//	db.Exec(`CREATE TABLE Books (Author NVARCHAR, Title NVARCHAR)`)
//	db.Exec(`INSERT INTO Books VALUES ('नेहरु' LANG hindi, 'भारत एक खोज')`)
//	res, _ := db.Exec(`SELECT Author, Title FROM Books
//	    WHERE Author LEXEQUAL 'Nehru' THRESHOLD 0.30
//	    INLANGUAGES { English, Hindi, Tamil }`)
//
// Session settings select the physical strategy:
//
//	SET lexequal_strategy = naive | qgram | indexed
type DB struct {
	d    *db.DB
	sess *sql.Session
}

// QueryResult is the outcome of one SQL statement.
type QueryResult = sql.Result

// Row is one result tuple.
type Row = db.Row

// Value is one typed datum in a result row.
type Value = db.Value

// Open opens (creating if needed) a database directory with a default
// matcher.
func Open(dir string) (*DB, error) {
	return OpenWith(dir, NewDefault())
}

// OpenWith opens a database bound to a specific matcher configuration.
func OpenWith(dir string, m *Matcher) (*DB, error) {
	d, err := db.Open(dir)
	if err != nil {
		return nil, err
	}
	return wrap(d, m)
}

// OpenReplica opens a WAL-shipping read replica's directory (one
// written by `lexequald -follow`): reads work at the replica's applied
// horizon, every write is refused. Deleting the directory's replstate
// file promotes it to an ordinary database.
func OpenReplica(dir string) (*DB, error) {
	d, err := db.OpenOpts(dir, db.Options{Replica: true})
	if err != nil {
		return nil, err
	}
	return wrap(d, NewDefault())
}

// IsReplicaDir reports whether dir is marked as a read replica (it
// carries a replstate file); such a directory must be opened with
// OpenReplica.
func IsReplicaDir(dir string) bool { return db.IsReplicaDir(dir) }

func wrap(d *db.DB, m *Matcher) (*DB, error) {
	sess, err := sql.NewSession(d, m.operator())
	if err != nil {
		d.Close()
		return nil, err
	}
	return &DB{d: d, sess: sess}, nil
}

// Exec parses and runs one SQL statement.
func (x *DB) Exec(sqlText string) (*QueryResult, error) {
	return x.sess.Exec(sqlText)
}

// Close flushes and closes every table and index.
func (x *DB) Close() error { return x.d.Close() }

// Tables lists table names.
func (x *DB) Tables() []string { return x.d.Tables() }

// CheckIssue is one problem found by Check.
type CheckIssue = db.CheckIssue

// ErrCorrupt is the sentinel every detected-corruption error matches
// with errors.Is: page checksum mismatches, impossible page structure,
// damaged catalogs.
var ErrCorrupt = db.ErrCorrupt

// Check verifies the integrity of the whole database — page checksums,
// heap and B-tree structure, row codecs against schemas, and index ↔
// heap agreement. An empty result means the database is consistent.
func (x *DB) Check() []CheckIssue { return x.d.Check() }

// CheckWAL verifies the write-ahead log: segment and record checksums,
// LSN monotonicity, transaction well-formedness, and that no on-disk
// page was flushed ahead of its log record.
func (x *DB) CheckWAL() []CheckIssue { return x.d.CheckWAL() }

// WALStats reports write-ahead log activity (commits, fsyncs, LSN
// high-water marks).
type WALStats = db.WALStats

// WALStats returns a snapshot of write-ahead log activity.
func (x *DB) WALStats() WALStats { return x.d.WALStats() }

// NameTableSpec configures LoadNames.
type NameTableSpec = db.NameTableSpec

// LoadNames creates and loads the conventional multiscript name layout
// for texts — the base table with precomputed phonemic strings and
// grouped phoneme identifiers, its positional q-gram gram index (under
// the session's cluster set), and the id/group B-tree indexes —
// enabling the q-gram and indexed strategies for SQL queries over the
// table.
func (x *DB) LoadNames(table string, texts []Text, spec NameTableSpec) error {
	_, err := db.CreateNameTable(x.d, table, x.sess.Op, texts, spec)
	return err
}

// Format renders a query result as an aligned text table (a small
// convenience for examples and CLIs).
func Format(res *QueryResult) string {
	if res == nil {
		return ""
	}
	if len(res.Rows) == 0 && res.Message != "" {
		return res.Message + "\n"
	}
	widths := make([]int, len(res.Cols))
	for i, c := range res.Cols {
		widths[i] = len([]rune(c))
	}
	cells := make([][]string, len(res.Rows))
	for r, row := range res.Rows {
		cells[r] = make([]string, len(row))
		for i, v := range row {
			s := v.String()
			cells[r][i] = s
			if i < len(widths) && len([]rune(s)) > widths[i] {
				widths[i] = len([]rune(s))
			}
		}
	}
	var out []byte
	pad := func(s string, w int) {
		out = append(out, s...)
		for n := len([]rune(s)); n < w+2; n++ {
			out = append(out, ' ')
		}
	}
	for i, c := range res.Cols {
		pad(c, widths[i])
	}
	out = append(out, '\n')
	for i := range res.Cols {
		for n := 0; n < widths[i]; n++ {
			out = append(out, '-')
		}
		out = append(out, ' ', ' ')
		_ = i
	}
	out = append(out, '\n')
	for _, row := range cells {
		for i, s := range row {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			pad(s, w)
		}
		out = append(out, '\n')
	}
	return string(out)
}

// MustExec is Exec that panics on error (for examples).
func (x *DB) MustExec(sqlText string) *QueryResult {
	res, err := x.Exec(sqlText)
	if err != nil {
		panic(fmt.Errorf("lexequal: %s: %w", sqlText, err))
	}
	return res
}
