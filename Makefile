# Development entry points. `make ci` is what a checkout must pass; the
# bench targets emit benchstat-compatible output (use `make bench > old.txt`,
# change things, `make bench > new.txt`, then `benchstat old.txt new.txt`).

GO ?= go
BENCH ?= .
COUNT ?= 6
FAULTSEEDS ?= 8

.PHONY: ci ci-race vet build test race bench bench-mvcc bench-smoke bench-build bench-pairs test-vec heap-budget fmt-check faultinject fuzz fuzz-smoke lint lint-engine docs-check run-check

ci: vet build race test-vec heap-budget faultinject lint lint-engine fuzz-smoke bench-smoke bench-build docs-check run-check

# The static-analysis plane, all three layers: the decomposition linter
# over every checked-in spec (relvet0xx — adequacy, storage redundancy,
# cost smells), the Go-plane multichecker over the whole module
# (relvet1xx — engine misuse in client and generated packages; one
# invocation, `go list ./...` already includes examples/), and the
# codegen contract (relvet105 — regenerated output must be
# gofmt-idempotent and analyzer-clean). relvet is built once into bin/
# rather than `go run` three times. All legs must exit 0 on a healthy
# checkout; zero standing suppressions — enforced by
# TestNoStandingSuppressions in internal/vet. The greps keep the read
# ladder at two rungs (batch program, then interpreter) on every tier:
# outside tests only the frozen benchmark probe may still compile a closure
# program, and no point plan or routed point path runs beside it; and they
# keep FD enforcement off the option list: no Go file, test or not, names a
# switch that turns it off. The last
# line holds the API to its callers: every exported name or method of a
# non-main package is used by non-test code in this module or in bench/,
# or by a test of another package (interface methods and generated files
# are exempt), so an export only its own tests call is deleted, unexported
# or moved into those tests.
lint: bin/relvet
	$(GO) run ./cmd/relc -lint spec/*.rel
	bin/relvet ./...
	bin/relvet -gen spec/*.rel
	@if git grep -nE 'plan\.Compile\(|cand\.Prog|PlanCompiled' -- '*.go' ':!*_test.go' | grep -v '^bench/probes\.go:'; then \
		echo 'lint: a closure program is back outside bench/probes.go'; exit 1; fi
	@if git grep -nE 'PointPlan|CompilePoint|queryPoint|updatePoint' -- '*.go' ':!*_test.go' ':!bench'; then \
		echo 'lint: a point-plan side door is back beside the read ladder'; exit 1; fi
	@if git grep -nE 'CheckFDs|SetCheckFDs' -- '*.go'; then \
		echo 'lint: an FD-checking switch is back; the FDs always hold'; exit 1; fi
	$(GO) test -count 1 -run '^TestEveryExportHasACaller$$' ./internal/vet

# The engine-invariant plane (relvet2xx): the interprocedural analyzers
# turned inward on internal/core, instance, dstruct, colblock, durable, and
# wal — COW write containment (a clone copies the words it will write),
# lock-free read purity (no path from a read to the lineage dictionary's
# writer side), WAL-before-publish ordering, and atomic-pointer publication
# discipline. Exemptions only
# via //relvet:role annotations, never //relvet:ignore.
lint-engine: bin/relvet
	bin/relvet -engine

bin/relvet: $(shell find cmd/relvet internal -name '*.go' -not -path '*/testdata/*')
	$(GO) build -o bin/relvet ./cmd/relvet

# The race gate plus an explicit rerun of the execution-tier differential
# tests (plan-level and engine-level, including the randomized vectorized
# corpus) — the properties that must hold before anything touching the
# compiled or vectorized tiers merges — with the streamed-row test, whose
# copies of pooled views must survive the pool's reuse (its allocation
# count skips itself under the detector); the concurrent fault-injection
# schedule, whose containment paths (fan-out recover, lock release on
# contained panics) are what -race is for; and the containers' clone and
# first-write tests and the hash table's own, which must hold under the
# detector too. The instance package runs whole under it because -race turns
# on -d=checkptr: a node is one object whose unit words and containers are
# addressed from its header with unsafe.Add, and checkptr faults any such
# pointer that leaves the node's object.
ci-race: vet build race
	$(GO) test -race -count 2 -run 'Differential|Vectorized|QueryFuncRowsAreViews' ./internal/plan ./internal/core
	$(GO) test -race -count 2 -run 'Concurrent|Randomized' ./internal/faultinject/harness -faultseeds $(FAULTSEEDS)
	$(GO) test -race -count 1 -run 'ExhaustiveWALSharded|WALRecovery' ./internal/faultinject/harness
	$(GO) test -race -count 1 -run 'PartitionPrefix|ReplResubscribe|ReplCatchUpBatch|SnapshotCutIsExact|CloseRacesPin' ./internal/repl ./internal/faultinject/harness
	$(GO) test -race -count 1 -run 'EngineCorpus|EngineCleanOnModule' ./internal/vet
	$(GO) test -race -count 1 -run 'Clone|FirstWrite|HTable|List' ./internal/dstruct
	$(GO) test -race -count 1 ./internal/instance

# The vectorized-tier gate: the randomized corpus differential (every plan
# in the corpus executed on the interpreter, the closure tier, and the
# batch tier, results compared pairwise) plus the engine-level provenance
# and fallback-accounting tests.
test-vec:
	$(GO) test -count 1 -run 'Vectorized' ./internal/plan ./internal/core

# The representation's budget: live heap per stored tuple for the three
# benchmark decompositions at 20k tuples on the bare tier, held to a ceiling
# 10% above what the representation last measured, and Instance.Stats —
# resident bytes by category, from counts × sizes — held to within 15% of
# that heap. -v prints the per-category table.
heap-budget:
	$(GO) test -count 1 -v -run 'TestBytesPerTupleBudget' ./internal/core

# The fault-injection gate: exhaustive per-step injection over the harness
# corpus plus FAULTSEEDS randomized schedules per case. `make ci` runs it
# with the default seed count; raise FAULTSEEDS for a soak.
faultinject:
	$(GO) test -count 1 ./internal/faultinject
	$(GO) test -count 1 ./internal/faultinject/harness -faultseeds $(FAULTSEEDS)

# The crash-recovery fuzzer: random op histories, random torn/corrupt
# damage to the log, reopen, and compare against the acknowledged states.
# fuzz-smoke replays the committed corpus and runs a short randomized
# burst (part of `make ci`); `make fuzz` soaks for longer — new inputs it
# finds land in the build cache, promote keepers into
# internal/durable/testdata/fuzz/FuzzRecovery. fuzz-smoke does the same
# for FuzzCommitPayload, the replication commit payload's decode ∘ encode
# = id and its refusal of cut or damaged payloads, and for FuzzLogRecord,
# the same two properties on log records read through the Scanner's reused
# view, each view equal to ReadLog's owned copy.
fuzz:
	$(GO) test -count 1 -run '^FuzzRecovery$$' -fuzz 'FuzzRecovery' -fuzztime 60s ./internal/durable

fuzz-smoke:
	$(GO) test -count 1 -run '^FuzzRecovery$$' ./internal/durable
	$(GO) test -count 1 -run '^FuzzRecovery$$' -fuzz 'FuzzRecovery' -fuzztime 5s ./internal/durable
	$(GO) test -count 1 -run '^FuzzCommitPayload$$' ./internal/wal
	$(GO) test -count 1 -run '^FuzzCommitPayload$$' -fuzz 'FuzzCommitPayload' -fuzztime 5s ./internal/wal
	$(GO) test -count 1 -run '^FuzzLogRecord$$' ./internal/wal
	$(GO) test -count 1 -run '^FuzzLogRecord$$' -fuzz 'FuzzLogRecord' -fuzztime 5s ./internal/wal

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Repeated runs (-count) so benchstat can report variance; -benchmem for
# allocation deltas alongside time.
bench:
	$(GO) test -run '^$$' -bench '$(BENCH)' -benchmem -count $(COUNT) .

# Ten iterations of the three benchmark families kept outside bench/ — the
# internal/plan tier pairs (the per-layer drill-down under the three
# plan.exec_*_us metrics), the MVCC grid and the list micro-benchmarks: not
# a measurement, a smoke test that their fixtures still build and run. Part
# of `make ci` so bench-only regressions cannot land silently. The figures
# worth reading off it are allocs/op on the FirstWriteAfterClone rows,
# which must not grow with the list's length (DESIGN.md ablation 11), on
# the Collect*/Range*Vectorized rows, which must stay a handful per call —
# an object per row means set-valued reads are boxing tuples before they
# know which ones survive again (ablation 13) — on the word-keyed lookup
# rows (ListFindWords*, HTableGetWord, ListSmall/*/get), which must read 0: a
# lookup that allocates is boxing a key again (ablation 14) — and on the
# ListSmall/*/build rows, 1 at 3 and 4 entries (the list is its header) and
# 4 at 5 (promoted; ablation 19). The last leg is
# one durable.Open of a 30k-commit flows log (BenchmarkOpenReplay): the
# recovery path's quick local loop — run it at -benchtime 10x or more to
# read replays/s, B/op and allocs/op off it — and one update through a
# logged cell (BenchmarkDurableCommit), the commit path's: run it at
# -benchtime 100000x to read ns/op, B/op and allocs/op per commit. The
# replication leg is one catch-up of 1,000 flows records by a severed
# in-process follower (BenchmarkFollowerCatchUp): run it at the default
# benchtime to read records/s, B/op and allocs/op per catch-up.
bench-smoke:
	$(GO) test -run '^$$' -bench '(Scan|Enumerate|Join|Collect)(Interpreted|Compiled|Vectorized)$$|Range(Interpreted|Vectorized)$$|CollectDupVectorized$$' -benchmem -benchtime 10x ./internal/plan
	$(GO) test -run '^$$' -bench 'MVCC' -benchtime 10x .
	$(GO) test -run '^$$' -bench 'FirstWriteAfterClone|ListSmall|ListFindWords(64|512)|HTableGetWord' -benchmem -benchtime 10x ./internal/dstruct
	$(GO) test -run '^$$' -bench 'OpenReplay|DurableCommit' -benchmem -benchtime 1x ./internal/durable
	$(GO) test -run '^$$' -bench 'FollowerCatchUp' -benchmem -benchtime 1x ./internal/repl

# The repo's benchmark (bench/, BENCHMARK.json) is a nested module that
# root `go build/vet/test ./...` does not see, so an engine API change can
# break it silently. This leg compiles it against the engine and runs its
# smoke and model-vs-oracle tests; it measures nothing.
bench-build:
	$(GO) vet -C bench ./...
	$(GO) test -C bench -count 1 -run 'TestSmoke|TestModelIsTheOracle' ./...

# Paired runs of one workload of the repo's benchmark, BASE against this
# checkout, the way a performance claim has to be measured (choosing-metrics
# section 8): `make bench-pairs BASE=<rev> W=<workload> N=10` exports BASE
# into the git-ignored bench/out/ (git archive: a plain directory, no
# worktree to prune), builds both sides' benchmark binaries once, before the
# first pair, and runs each with `--workload W --seed i --seconds 28 --trace
# 0` for i = 1..N, alternating which side goes first. An edit to the working
# tree during the series therefore cannot reach its later runs; the new
# side's `git rev-parse HEAD` and a hash of `git diff HEAD` at build time are
# written to bench/out/pairs/W-new.tree. It then merges each side's result
# files (jq) and prints `bench compare old new`. About a minute per pair;
# run it for every workload the change's code runs in, and again if a cell
# comes back unresolved.
BASE ?= HEAD~1
W ?= flows-commit
N ?= 10
bench-pairs:
	@set -e; rev=$$(git rev-parse --short $(BASE)); base=bench/out/base-$$rev; \
	if [ ! -d $$base ]; then mkdir -p $$base; git archive $(BASE) | tar -x -C $$base; fi; \
	out=$$PWD/bench/out/pairs; mkdir -p $$out; rm -f $$out/$(W)-old-*.json $$out/$(W)-new-*.json; \
	for dir in $$base/bench bench; do \
		(cd $$dir && mkdir -p out/gocache out/gotmp && \
			GOCACHE=$$PWD/out/gocache GOTMPDIR=$$PWD/out/gotmp $(GO) build -o out/pairs-bench .); \
	done; \
	{ git rev-parse HEAD; git diff HEAD | sha256sum | cut -d' ' -f1; } > $$out/$(W)-new.tree; \
	for i in $$(seq 1 $(N)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="old new"; else order="new old"; fi; \
		for side in $$order; do \
			if [ $$side = old ]; then dir=$$base/bench; else dir=bench; fi; \
			echo "pair $$i/$(N): $$side" >&2; \
			(cd $$dir && ./out/pairs-bench --workload $(W) --seed $$i --seconds 28 --trace 0 -o $$out/$(W)-$$side-$$i.json >/dev/null); \
		done; \
	done; \
	for side in old new; do \
		jq -s '{env: .[0].env, runs: (map(.runs) | add)}' $$out/$(W)-$$side-*.json > $$out/$(W)-$$side.json; \
	done; \
	cd bench && ./out/pairs-bench compare out/pairs/$(W)-old.json out/pairs/$(W)-new.json

# Read-mostly throughput of the MVCC snapshot tiers (SyncRelation,
# ShardedRelation) against an RWMutex-wrapped single relation — the
# pre-MVCC design — across 90/10 and 99/1 read/write mixes at 8/16/64
# goroutines, with reads/s and writes/s reported per configuration, as
# benchstat-compatible text on stdout. This is the one grid bench/ cannot
# run (it pins GOMAXPROCS=1); the goroutine-scaling columns only separate
# on a host with real core counts, which is where the lock-free read
# claim still has to be proven (see the header of mvcc_bench_test.go).
bench-mvcc:
	$(GO) test -run '^$$' -bench 'MVCC' -benchmem -count $(COUNT) .

# Every tracked .md, .go and the Makefile may only name BENCH_*.json files,
# make targets and paperbench subcommands that exist.
docs-check:
	@bash scripts/docs-check.sh

# Every alternative of every `-run '<re>'` above must select at least one
# test in the packages it is run on (`go test -list`): a renamed test fails
# here instead of turning its CI leg into a no-op.
run-check:
	@GO=$(GO) bash scripts/run-check.sh
