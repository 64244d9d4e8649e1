package server

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lexequal/internal/core"
	"lexequal/internal/db"
	"lexequal/internal/script"
	"lexequal/internal/sql"
)

// seedBooks creates and fills the Figure 1 catalog in dir.
func seedBooks(t *testing.T, dir string) {
	t.Helper()
	d, err := db.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := sql.NewSession(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range []string{
		`CREATE TABLE Books (Author NVARCHAR, Title NVARCHAR, Price FLOAT, Language TEXT)`,
		`INSERT INTO Books VALUES
			('Descartes' LANG french, 'Les Méditations Metaphysiques', 49.00, 'French'),
			('நேரு' LANG tamil, 'ஆசிய ஜோதி', 250, 'Tamil'),
			('Σαρρη' LANG greek, 'Παιχνίδια στο Πιάνο', 15.50, 'Greek'),
			('Nero' LANG english, 'The Coronation of the Virgin', 99.00, 'English'),
			('Nehru' LANG english, 'Discovery of India', 9.95, 'English'),
			('नेहरु' LANG hindi, 'भारत एक खोज', 175, 'Hindi')`,
	} {
		if _, err := sess.Exec(stmt); err != nil {
			t.Fatalf("%s\n-> %v", stmt, err)
		}
	}
	// The conventional name-table layout drives the lex-scan plans (the
	// ones that record PipelineCounters, surfaced by STATUS).
	texts := []core.Text{
		{Value: "Nehru", Lang: script.English},
		{Value: "नेहरु", Lang: script.Hindi},
		{Value: "நேரு", Lang: script.Tamil},
		{Value: "Nero", Lang: script.English},
		{Value: "Gandhi", Lang: script.English},
		{Value: "गांधी", Lang: script.Hindi},
		{Value: "Kathy", Lang: script.English},
		{Value: "Cathy", Lang: script.English},
	}
	if _, err := db.CreateNameTable(d, "names", sess.Op, texts, db.NameTableSpec{WithAux: true, WithIndexes: true}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// startServer opens dir and serves it. Shutdown (idempotent) runs at
// cleanup; the server owns closing the db.
func startServer(t *testing.T, dir string, cfg Config) (*Server, *db.DB) {
	t.Helper()
	d, err := db.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(d, nil, cfg)
	if err != nil {
		d.Close()
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		d.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown() })
	return srv, d
}

func dial(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestServeBasic(t *testing.T) {
	dir := t.TempDir()
	seedBooks(t, dir)
	srv, _ := startServer(t, dir, Config{})
	c := dial(t, srv)

	out, err := c.Query(`SELECT Author FROM Books WHERE Author LEXEQUAL 'Nehru' THRESHOLD 0.30 ORDER BY Author`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Nehru", "नेहरु", "நேரு"} {
		if !strings.Contains(out, want) {
			t.Errorf("result missing %q:\n%s", want, out)
		}
	}
	// Statement errors come back as RemoteError and leave the
	// connection usable.
	if _, err := c.Query(`SET lexequal_icsc = NaN`); err == nil {
		t.Error("NaN accepted over the wire")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, "[0,1]") {
			t.Errorf("unexpected error shape: %v", err)
		}
	}
	if _, err := c.Query(`SELECT COUNT(*) FROM Books`); err != nil {
		t.Errorf("connection unusable after statement error: %v", err)
	}
}

func TestStatusCommand(t *testing.T) {
	dir := t.TempDir()
	seedBooks(t, dir)
	srv, _ := startServer(t, dir, Config{MaxConns: 5})
	c := dial(t, srv)
	if _, err := c.Query(`SELECT id FROM names WHERE name LEXEQUAL 'Nehru' THRESHOLD 0.30`); err != nil {
		t.Fatal(err)
	}
	out, err := c.Query("status") // case-insensitive admin command
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"global:", "session:", "queries=1", "conns: active=1", "max=5",
		"pruned_sig=", "bitvec_ops=", "scalar_fallbacks=", "batches_built="} {
		if !strings.Contains(out, want) {
			t.Errorf("STATUS missing %q:\n%s", want, out)
		}
	}
	// The default model is dyadic: the naive scan above must have done
	// bit-parallel work and built a batch.
	if strings.Contains(out, "bitvec_ops=0 ") || strings.Contains(out, "batches_built=0 ") {
		t.Errorf("kernel counters flat after a LexEQUAL query:\n%s", out)
	}
	// A second connection's LexEQUAL traffic lands in the global
	// counters but not in the first session's.
	c2 := dial(t, srv)
	if _, err := c2.Query(`SELECT id FROM names WHERE name LEXEQUAL 'Nero' THRESHOLD 0.25`); err != nil {
		t.Fatal(err)
	}
	if g := srv.Global.Snapshot(); g.Queries != 2 {
		t.Errorf("global queries = %d, want 2", g.Queries)
	}
	out, err = c.Query("STATUS")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "session: queries=1 ") {
		t.Errorf("per-session counters leaked across connections:\n%s", out)
	}
}

func TestQueryDeadline(t *testing.T) {
	dir := t.TempDir()
	seedBooks(t, dir)
	srv, d := startServer(t, dir, Config{QueryTimeout: 100 * time.Millisecond, Logf: t.Logf})
	c := dial(t, srv)

	// Hold the db write lock so the statement blocks past the deadline.
	l := d.QueryLock()
	l.Lock()
	_, err := c.Query(`SELECT COUNT(*) FROM Books`)
	var re *RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "deadline") {
		l.Unlock()
		t.Fatalf("expected deadline error, got %v", err)
	}
	l.Unlock()
	// The abandoned statement finishes in the background; the next one
	// queues behind it and succeeds.
	if _, err := c.Query(`SELECT COUNT(*) FROM Books`); err != nil {
		t.Fatalf("connection dead after deadline: %v", err)
	}
}

// TestExecutorsExitWithTheirConnections: each connection runs its
// statements on one executor goroutine, started with the connection and
// gone once it closes — also the one a statement past its deadline was
// left running on. 50 connect/query/close cycles, one of them with a
// statement that misses its deadline, return the goroutine count to its
// baseline.
func TestExecutorsExitWithTheirConnections(t *testing.T) {
	dir := t.TempDir()
	seedBooks(t, dir)
	srv, d := startServer(t, dir, Config{QueryTimeout: 100 * time.Millisecond, Logf: t.Logf})
	goroutines := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		c, err := Dial(srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if i == 25 {
			l := d.QueryLock()
			l.Lock()
			_, err := c.Query(`SELECT COUNT(*) FROM Books`)
			l.Unlock()
			var re *RemoteError
			if !errors.As(err, &re) || !strings.Contains(re.Msg, "deadline") {
				t.Fatalf("cycle %d: expected a deadline error, got %v", i, err)
			}
		}
		if _, err := c.Query(`SELECT COUNT(*) FROM Books`); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		c.Close()
	}
	// A handler sees its client's close only on its next read; give
	// exiting goroutines a moment, a leaked one never leaves.
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); n > goroutines && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	if n > goroutines {
		t.Errorf("%d goroutines after 50 closed connections, %d before", n, goroutines)
	}
}

func TestAcceptBackpressure(t *testing.T) {
	dir := t.TempDir()
	seedBooks(t, dir)
	srv, _ := startServer(t, dir, Config{MaxConns: 1})

	c1 := dial(t, srv)
	if _, err := c1.Query(`SELECT COUNT(*) FROM Books`); err != nil {
		t.Fatal(err)
	}
	// The second dial lands in the kernel backlog: it is not served
	// until the first connection releases the only slot.
	c2 := dial(t, srv)
	done := make(chan error, 1)
	go func() {
		_, err := c2.Query(`SELECT COUNT(*) FROM Books`)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("second connection served beyond MaxConns=1 (err=%v)", err)
	case <-time.After(100 * time.Millisecond):
	}
	c1.Close()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("second connection failed after slot freed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second connection never served after slot freed")
	}
}

// TestDrainFinishesInflight pins the graceful-drain guarantee: a
// statement in flight when Shutdown starts still completes and its
// response reaches the client, and the pager is flushed exactly once
// across repeated Shutdowns.
func TestDrainFinishesInflight(t *testing.T) {
	dir := t.TempDir()
	seedBooks(t, dir)
	srv, d := startServer(t, dir, Config{})
	c := dial(t, srv)

	l := d.QueryLock()
	l.Lock()
	resp := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() {
		out, err := c.Query(`INSERT INTO Books VALUES ('Saare' LANG english, 'Inflight', 1.0, 'English')`)
		if err != nil {
			errCh <- err
			return
		}
		resp <- out
	}()
	time.Sleep(50 * time.Millisecond) // let the INSERT reach the db lock

	drained := make(chan error, 1)
	go func() { drained <- srv.Shutdown() }()
	time.Sleep(50 * time.Millisecond) // let the drain sweep connections
	l.Unlock()                        // statement may now proceed

	select {
	case out := <-resp:
		if !strings.Contains(out, "1 row(s) inserted") {
			t.Errorf("in-flight response garbled: %q", out)
		}
	case err := <-errCh:
		t.Fatalf("in-flight response lost during drain: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight response never arrived")
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if n := srv.Flushes(); n != 1 {
		t.Fatalf("pager flushed %d times, want exactly 1", n)
	}
	// The row the drain waited for is durable.
	d2, err := db.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	sess, err := sql.NewSession(d2, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec(`SELECT COUNT(*) FROM Books`)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Rows[0][0].I; n != 7 {
		t.Fatalf("row count after drain = %d, want 7", n)
	}
}

// soakScript is client i's deterministic statement sequence: mixed
// SELECT / LexEQUAL join / SET traffic, including statements that must
// fail identically every time.
func soakScript(i int) []string {
	icsc := []string{"0.25", "0.3", "0.2", "0.5"}[i%4]
	threshold := []string{"0.30", "0.25", "0.35"}[i%3]
	script := []string{
		`SET lexequal_threshold = ` + threshold,
		`SET lexequal_icsc = ` + icsc,
		`SELECT Author FROM Books WHERE Author LEXEQUAL 'Nehru' THRESHOLD ` + threshold + ` ORDER BY Author`,
		`SELECT B1.Author, B2.Author FROM Books B1, Books B2
			WHERE B1.Author LEXEQUAL B2.Author THRESHOLD 0.30 AND B1.Language <> B2.Language`,
		`SELECT Author, Price FROM Books WHERE Price < 100 ORDER BY Price`,
		`SELECT COUNT(*) FROM Books`,
		`SET lexequal_icsc = NaN`, // rejected, identically every time
		`SELECT id FROM names WHERE name LEXEQUAL 'Nero' THRESHOLD 0.25 ORDER BY id`,
		`SELECT Author FROM Books WHERE Author LEXEQUAL 'Nero' THRESHOLD 0.25 ORDER BY Author`,
		`SELECT nonsense FROM`, // parse error, identically every time
		`SHOW LEXSTATS`,        // per-session counters: deterministic per script
	}
	if i%2 == 0 {
		script = append(script, `EXPLAIN SELECT Author FROM Books WHERE Author LEXEQUAL 'Nehru' THRESHOLD 0.30`)
	}
	return script
}

// runSoakClient executes a script (rounds times) over one connection
// and returns the full response transcript, errors included.
func runSoakClient(addr string, i, rounds int) ([]string, error) {
	c, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var transcript []string
	for r := 0; r < rounds; r++ {
		for _, stmt := range soakScript(i) {
			out, err := c.Query(stmt)
			if err != nil {
				var re *RemoteError
				if !errors.As(err, &re) {
					return nil, fmt.Errorf("client %d transport: %w", i, err)
				}
				transcript = append(transcript, "ERR: "+re.Msg)
				continue
			}
			transcript = append(transcript, "OK: "+out)
		}
	}
	return transcript, nil
}

// TestSoakConcurrentVsSerialReplay is the acceptance soak: 8 client
// connections hammer one server concurrently; the same scripts replayed
// one client at a time over a fresh server on the same data must
// produce byte-identical transcripts. Run under -race.
func TestSoakConcurrentVsSerialReplay(t *testing.T) {
	const clients = 8
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	dir := t.TempDir()
	seedBooks(t, dir)

	run := func(concurrent bool) [][]string {
		srv, _ := startServer(t, dir, Config{MaxConns: clients})
		transcripts := make([][]string, clients)
		errs := make([]error, clients)
		if concurrent {
			var wg sync.WaitGroup
			for i := 0; i < clients; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					transcripts[i], errs[i] = runSoakClient(srv.Addr().String(), i, rounds)
				}(i)
			}
			wg.Wait()
		} else {
			for i := 0; i < clients; i++ {
				transcripts[i], errs[i] = runSoakClient(srv.Addr().String(), i, rounds)
			}
		}
		for i, err := range errs {
			if err != nil {
				t.Fatalf("client %d: %v", i, err)
			}
		}
		if err := srv.Shutdown(); err != nil {
			t.Fatalf("drain: %v", err)
		}
		if n := srv.Flushes(); n != 1 {
			t.Fatalf("pager flushed %d times, want 1", n)
		}
		return transcripts
	}

	concurrentRun := run(true)
	serialRun := run(false)
	for i := 0; i < clients; i++ {
		if len(concurrentRun[i]) != len(serialRun[i]) {
			t.Fatalf("client %d: %d concurrent responses vs %d serial",
				i, len(concurrentRun[i]), len(serialRun[i]))
		}
		for j := range concurrentRun[i] {
			if concurrentRun[i][j] != serialRun[i][j] {
				t.Errorf("client %d response %d diverged\nconcurrent: %s\nserial:     %s",
					i, j, concurrentRun[i][j], serialRun[i][j])
			}
		}
	}
}
