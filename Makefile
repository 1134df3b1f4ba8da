GO ?= go
FUZZTIME ?= 10s

.PHONY: build test vet race verify bench bench-build bench-trace-smoke bench-layers bench-smoke fuzz-smoke daemon-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# The tier-1 gate, mechanically, and bench/ compiled against the tree, as CI
# does: bench/ drives the worker's write/read contract directly.
verify: build vet race bench-build

bench:
	$(GO) run ./cmd/qserv-bench -exp all

# bench/ is its own module (the repository's benchmark, run by
# `bash bench/run.sh`) and imports this module's packages by name, so
# root `go test ./...` never compiles it: build, vet and test it here,
# so a renamed function breaks tier-1 instead of the benchmark gate.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# The repository benchmark itself, traced, for a second of scan-agg and a
# second of interactive: its replay writes one-chunk payloads straight to a
# worker and runs the czar over canned workers that answer result reads by
# the one-chunk payload's hash, so this fails when that contract breaks,
# which bench-build (a compile) cannot see — for plans split over many
# chunks, and for the LV3 COUNT of one chunk that runs whole on its worker.
# The last line of each run must report a correct run with no failed query.
bench-trace-smoke:
	@for w in scan-agg interactive; do \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 1 --trace 1 | tail -n 1); \
		echo "$$out"; \
		echo "$$out" | grep -q '"correct":true' && echo "$$out" | grep -q '"failed":0' || exit 1; \
	done

# Per-layer testing.B benches, in ns/row and allocs/op: the scan layer —
# the chunk statements of the paper's query classes over one chunk-sized
# table, and (the *WorkingSet ones) rotating over the 94 chunk tables of
# the repository benchmark's catalog, which do not fit in cache — the
# materialization layer, one stored batch from bytes to a chunk table and
# its index, the near-neighbour job, one SHV1 chunk job at the repository
# benchmark's geometry from payload to result bytes (ns and allocations per
# job, statements parsed, pairs visited) and its subchunk build alone, the
# dispatch, a 24-chunk HV1 dispatch against the same 24 chunks as one-chunk
# payloads (ns and allocations per chunk), the result path, a pass-through
# row from a worker's column slices through the result stream and the czar's fold to a batch
# row frame, in ns per row returned, the merge session, one aggregate
# partial from its result stream through the session and its share of the
# merge statement, in ns and allocations per chunk result at 94 and at the
# paper's 8,983 chunks, and the client's stream decode, an HV2 answer's
# row frames to rows handed out, in ns and allocations per row.
# BenchmarkScanHV1InShell is the guarded comparisons' worst case, a table
# whose every cell makes the guard give up and call the function: read it
# against BenchmarkScanHV1 before the guards.
# BenchmarkScanHV1Nulls is HV1 over a table whose filtered column is 1 %
# NULL: the price of the NULL bitmap on the block filter's path;
# BenchmarkScanHV3Nulls is HV3 over a table whose summed and min/maxed
# columns are 1 % NULL: its price on the aggregate fold's path.
# (What they must never exceed is pinned as counts, which repeat exactly, by
# TestScanAllocBudget, TestSinkAllocBudget, TestMaterializeAllocBudget,
# TestAbsorbAllocBudget, TestRowLoopAllocBudget and
# TestClientDecodeAllocBudget in tier-1; what the guards must skip, also as
# counts, by TestGuardSkipsTheCall.)
bench-layers:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/sqlengine
	$(GO) test -run '^$$' -bench 'Materialize|NearNeighbourJob|SubchunkBuild|ScanTransaction' -benchmem ./internal/worker
	$(GO) test -run '^$$' -bench 'ResultPath|MergeSession' -benchmem ./internal/czar
	$(GO) test -run '^$$' -bench 'StreamDecode' -benchmem ./internal/frontend

# The live group of qserv-bench at a size fast enough for CI: a worker
# outage under checked query streams (detect, fail over, re-replicate,
# against a copy-free durable restart), paging under a memory budget a
# quarter of the working set, Cancel() -> worker-slot reclamation, and the
# frontend under a 1000-connection storm with admission shedding. Every
# checked query executes (result cache off) and is compared against the
# oracle; a failed gate fails the target; BENCH_smoke.json gets one record
# per experiment, metrics and gates, for CI artifact upload. Then the
# ablation benchmarks of bench_test.go (hash vs spatial partitioning,
# subchunks, index), one iteration each, so they keep compiling and
# running.
bench-smoke:
	$(GO) run ./cmd/qserv-bench -exp live -objects 5 -json BENCH_smoke.json
	$(GO) test -run '^$$' -bench Ablation -benchtime 1x .

# Native Go fuzzing over the untrusted-bytes decoders: chunkstore
# legacy segment framing + multi-frame unit files, the one row codec every format shares,
# the ingest batch / segment-set framings (a batch is also decoded
# straight into table columns, and must append whole or not at all), the
# worker result stream, the span trailer a worker appends to it, and the
# frontend wire protocol (frame reader, handshake, column-header frame and
# the batch row frame's count and rows — everything a hostile peer controls) — and over the engine's
# expression compiler, differentially: whatever expression text the
# fuzzer writes must evaluate as the reference interpreter does, and
# whatever constant and cells it picks, a guard that decides a comparison
# without the call must be borne out by the call, and whatever shape, cells
# and constant it picks, a block form keeps the rows its conjunct's row form
# calls TRUE — and over the worker's
# per-dispatch binding, also differentially: whatever edits the fuzzer makes
# to a rendered near-neighbour statement pair and its subchunk list, each
# chunk a dispatch lists must answer as its own one-chunk payload, renamed on
# a fresh parse apart from the binder — and over the planner's statement
# templates, differentially too: whatever statement the fuzzer writes,
# planning it right after one of its shape with other literals gives what a
# fresh planner gives. Go allows one
# -fuzz pattern per invocation, hence one run per target. Seed corpora
# (including hand-written hostile frames) live under each package's
# testdata/fuzz/ and also run as plain tests in `make test`.
fuzz-smoke:
	$(GO) test ./internal/chunkstore -run '^$$' -fuzz '^FuzzSegmentDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/chunkstore -run '^$$' -fuzz '^FuzzUnitFile$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/rowcodec -run '^$$' -fuzz '^FuzzDecodeRow$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ingest -run '^$$' -fuzz '^FuzzDecodeBatch$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ingest -run '^$$' -fuzz '^FuzzDecodeSegments$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dump -run '^$$' -fuzz '^FuzzResultDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/frontend -run '^$$' -fuzz '^FuzzFrameRead$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/frontend -run '^$$' -fuzz '^FuzzHandshake$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/frontend -run '^$$' -fuzz '^FuzzColsDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/frontend -run '^$$' -fuzz '^FuzzBatchDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqlengine -run '^$$' -fuzz '^FuzzCompiledExpr$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqlengine -run '^$$' -fuzz '^FuzzGuardedCompare$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/sqlengine -run '^$$' -fuzz '^FuzzBlockFilter$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/telemetry -run '^$$' -fuzz '^FuzzTrailerDecode$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/worker -run '^$$' -fuzz '^FuzzChunkScriptReuse$$' -fuzztime $(FUZZTIME)
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzPlanShape$$' -fuzztime $(FUZZTIME)

# The deployed system from its real binaries: two qserv-workers and a
# qserv-czar at replication 2, the catalog ingested over TCP, a client's
# COUNT(*) checked against the czar's ingest log, SHOW WORKERS and SHOW
# PROCESSLIST answered over TCP, both /metrics linted.
daemon-smoke:
	GO=$(GO) bash scripts/daemon-smoke.sh
