# Developer entry points. `make ci` is what a pipeline should run:
# static checks (gofmt, go vet, the engine-invariant lint suite), build,
# the full test suite under the race detector, and a short smoke run of
# each fuzz target.

GO      ?= go
FUZZTIME ?= 10s

.PHONY: all build vet fmt-check lint lint-json lockgraph test race fuzz-smoke bench bench-module bench-traced perf-smoke quality-smoke dataset-smoke serve-smoke repl-smoke crash-smoke mvcc-smoke ci clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any Go file in the tree (bench/ included) is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# The custom go/analysis suite (DESIGN.md §8, §13): the per-package AST
# tier (VFS-only I/O, wrap-tolerant error matching, no panics in
# library code, lock hygiene) plus the dataflow tier (errpath resource
# leaks on error paths, lockorder cycle/tier analysis). Exits non-zero
# on any finding, including stale //lint:ignore annotations.
lint:
	$(GO) run ./cmd/lexequallint ./...

# Same suite, findings as a JSON array in results/lexequallint.json (CI
# archives it). The exit status of the lint run is preserved.
lint-json:
	@mkdir -p results
	@$(GO) run ./cmd/lexequallint -json ./... > results/lexequallint.json; \
	status=$$?; cat results/lexequallint.json; exit $$status

# Dump the interprocedural lock-acquisition-order graph (DESIGN.md §13)
# as Graphviz DOT, tier inversions highlighted in red.
lockgraph:
	@mkdir -p results
	$(GO) run ./cmd/lexequallint -graph ./... > results/lockorder.dot
	@echo "wrote results/lockorder.dot"

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The BENCHMARK.json harness (DESIGN.md §9, §14): every workload end to
# end, then the per-layer metrics; writes bench/out/result-1.json.
bench:
	bash bench/run.sh

# bench/ is a nested module (the BENCHMARK.json harness) that compiles
# against internal/* but that `go build ./...` and `go test ./...` at
# the root never see: vet it and run its tests (percentile and compare
# logic, BENCHMARK.json-vs-tables, a smoke pass of all four workloads)
# so an internal API change cannot rot it unnoticed.
bench-module:
	cd bench && $(GO) vet . && $(GO) test .

# Every workload's traced pass of the BENCHMARK.json harness once (the
# per-layer metrics and their ledgers: a pager read per miss, say), then
# the insert_probe_mixed traced pass five more times with seeds 1-5: a
# concurrent writer and checkpoints make it the pass where a counter
# that splits under concurrency shows first. Any ledger breach fails.
bench-traced:
	@for w in scan_naive filter_qgram probe_indexed insert_probe_mixed; do \
		bash bench/run.sh -workload $$w -trace 1 || exit 1; \
	done
	@for s in 1 2 3 4 5; do \
		bash bench/run.sh -workload insert_probe_mixed -trace 1 -seed $$s || exit 1; \
	done

# The paper's Tables 1-3 and Figure 13 at 20k rows into a throwaway
# directory: the exact and UDF scan and join, the q-gram and phonetic
# index plans and the false-dismissal audit all run, and cmd/perf's
# load path (DESIGN.md §11: bulk loads go through BuildAtomic, not one
# WAL transaction) cannot break unnoticed.
perf-smoke:
	@dir=$$(mktemp -d) && $(GO) run ./cmd/perf -dir $$dir -rows 20000 -table 0 -queries 3; \
	status=$$?; rm -rf $$dir; exit $$status

# Figures 10-12 as a golden check: cmd/quality's output must be
# byte-identical to results/quality_full.txt. A change that moves a
# figure regenerates the file and says why.
quality-smoke:
	@out=$$(mktemp) && $(GO) run ./cmd/quality > $$out && cmp $$out results/quality_full.txt; \
	status=$$?; rm -f $$out; exit $$status

# The 10k-row mkdataset load into a throwaway directory (DESIGN.md §4b):
# perf.db must pass `lexequal check -wal` and hold at most 5,600,000
# bytes — the names table and its three indexes, no staging heap.
dataset-smoke:
	@dir=$$(mktemp -d) && $(GO) run ./cmd/mkdataset -out $$dir -rows 10000 >/dev/null && \
	size=$$(cat $$dir/perf.db/* | wc -c) && echo "perf.db: $$size bytes" && \
	{ [ $$size -le 5600000 ] || { echo "perf.db exceeds 5600000 bytes"; false; }; } && \
	$(GO) run ./cmd/lexequal check -wal $$dir/perf.db; \
	status=$$?; rm -rf $$dir; exit $$status

# Run each native fuzz target briefly; a regression in either parser
# robustness, TTP conversion, WAL replay, kernel equivalence, the IPA
# tokenizer (trie vs the substring-map reference) or the gram posting
# layout (range, saturation, never a narrower budget) shows up here
# before a long fuzz run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSQLParse -fuzztime $(FUZZTIME) ./internal/sql/
	$(GO) test -run '^$$' -fuzz FuzzTTPConvert -fuzztime $(FUZZTIME) ./internal/ttp/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzKernelEquivalence -fuzztime $(FUZZTIME) ./internal/editdist/
	$(GO) test -run '^$$' -fuzz FuzzParseEquivalence -fuzztime $(FUZZTIME) ./internal/phoneme/
	$(GO) test -run '^$$' -fuzz FuzzCoverPosting -fuzztime $(FUZZTIME) ./internal/db/

# End-to-end smoke of lexequald (DESIGN.md §10): spawn a server, run a
# mixed workload through the network client, SIGTERM, require a clean
# drain with exit 0.
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke of WAL-shipping replication (DESIGN.md §16): a
# primary and a follower lexequald over the wire, catch-up to lag=0,
# byte-identical answers, rejected replica writes, repl STATUS lines on
# both roles, and a follower restart that resumes without a resync.
repl-smoke:
	sh scripts/repl_smoke.sh

# The crash-torture sweep (DESIGN.md §11): kill the WAL workload at
# every write and sync point, recover, verify. Runs the full sweep (no
# -short stride) plus the recovery-idempotency properties — including
# the concurrent-writer sweep, which kills interleaved MVCC
# transactions mid-flight and demands per-transaction all-or-nothing.
crash-smoke:
	$(GO) test -run 'CrashTorture|RecoveryIdempotent|CrashDuringRecovery|BoundedRecovery|CheckpointENOSPC' -count=1 ./internal/db/
	$(GO) test -run 'GroupCommit|Checkpoint' -count=1 ./internal/server/

# The MVCC concurrency gate (DESIGN.md §15), under the race detector:
# the 8-client mixed read/write soak, the reader-never-blocks and
# conflict-retry contracts at the SQL layer, and the randomized
# serial-equivalence property at the db layer.
mvcc-smoke:
	$(GO) test -race -count=1 -run 'TestMVCCSmoke|TestSelectNeverBlocksBehindWriter|TestWriteWriteConflictAbortsAndRetries' ./internal/sql/
	$(GO) test -race -count=1 -run 'TestMVCC' ./internal/db/

ci: fmt-check vet build lint race fuzz-smoke serve-smoke repl-smoke crash-smoke mvcc-smoke bench-module perf-smoke quality-smoke dataset-smoke bench-traced

clean:
	$(GO) clean ./...
