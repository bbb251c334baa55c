GO ?= go

.PHONY: all build test shard-matrix race lint vet unitlint unitlint-self lint-baseline chaos scenarios fuzz obs-smoke bench bench-baseline bench-smoke bench-check golden repro-check perfbench-test ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...
	$(MAKE) shard-matrix

# Shard-count invariance leg: the golden replication pin (experiments
# reads UNIT_SHARDS, comma-separated), the front-door router property
# suites (engine + live server) and the weak-scaled scenario replays,
# all under -race. shards=1 staying green proves sharding disabled is a
# bitwise no-op; 2 and 8 pin the scatter-gather and merge laws.
SHARD_MATRIX ?= 1,2,8
shard-matrix:
	UNIT_SHARDS=$(SHARD_MATRIX) $(GO) test -race -run 'Shard' ./internal/engine/ ./internal/experiments/ ./internal/scenario/ ./internal/server/

# The live server (internal/server) is the concurrency hot spot; -race
# over the whole tree keeps the guarded-by annotations honest.
race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# unitlint enforces the determinism/concurrency invariants with
# thirteen analyzers — detclock, seededrand, guardedby, usmrange, the
# flow-sensitive locksafe, guardedflow, outcomeonce, the
# interprocedural deadlock, owned, maporder (over a devirtualized call
# graph), and the concurrency-primitive atomicsafe, chandisc, wgsafe
# (see cmd/unitlint -help).
# Findings stream to lint.json (the CI artifact) with a per-analyzer
# timings trailer; anything not in lint.baseline — or recorded there
# but stale, under -strict-baseline — fails the run.
unitlint:
	$(GO) run ./cmd/unitlint -json -timings -strict-baseline ./... > lint.json; code=$$?; cat lint.json; exit $$code

# Dogfood: the analyzers' own CFG/dataflow/callgraph code holds locks,
# ranges maps, and (in the new concurrency-primitive packages) judges
# the very patterns it uses itself. Same gates, scoped to internal/lint
# — ./internal/lint/... picks up atomicsafe, chandisc and wgsafe too.
unitlint-self:
	$(GO) run ./cmd/unitlint -strict-baseline ./internal/lint/... ./cmd/unitlint

# Re-record the tolerated-findings baseline. An empty lint.baseline is
# the healthy state: new findings should be fixed, not baselined.
lint-baseline:
	printf '%s\n' \
	  '# unitlint tolerated-findings baseline (JSON lines, one finding per line;' \
	  '# regenerate with make lint-baseline). Findings match by file, analyzer,' \
	  '# and message - not line numbers, which drift. Empty is the healthy state:' \
	  '# fix new findings instead of baselining them.' > lint.baseline
	$(GO) run ./cmd/unitlint -json -baseline - ./... >> lint.baseline; \
	$(GO) run ./cmd/unitlint ./...

lint: vet unitlint unitlint-self

# Chaos recovery regression: seeded fault injection against the simulator
# (internal/faults) plus the live server's failure paths, under -race.
chaos:
	$(GO) test -race -run 'TestChaos|TestPanic|TestCancellation|TestGracefulDrain|TestShed' ./...

# Scenario library: named, seeded end-to-end failure stories with
# asserted recovery properties (internal/scenario) under -race, then a
# replay of every scenario via cmd/unitscenario, dumping each run's
# report and trace JSONL into scenario-traces/ (the CI artifact). The
# replay exits non-zero if any recovery property is violated. unittrace
# then distills the dumps into one deterministic critical-path report
# (per-stage percentiles, outcome slices, slowest queries) that rides
# along in the same artifact.
scenarios:
	$(GO) test -race ./internal/scenario/
	mkdir -p scenario-traces
	$(GO) run ./cmd/unitscenario run -all -outdir scenario-traces > scenario-traces/reports.json
	$(GO) run ./cmd/unittrace scenario-traces/*.jsonl > scenario-traces/critical-path.txt
	tail -n 5 scenario-traces/critical-path.txt

# Fuzz smoke: each target briefly, catching regressions in the HTTP
# input contract, the shard router's partition/merge laws and QMF's
# drop-set selection (against the full-sort oracle) without an
# open-ended fuzzing session.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -fuzz=FuzzParseItems -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzQueryHandler -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -fuzz=FuzzShardRouter -fuzztime=$(FUZZTIME) ./internal/engine/
	$(GO) test -fuzz=FuzzQMFDropSet -fuzztime=$(FUZZTIME) ./internal/baseline/qmf/

# Observability smoke: boot unitd on an ephemeral local port, then lint
# the /metrics exposition (cmd/obslint retries the fetch while the server
# boots and fails on any malformed line or missing family — including the
# per-stage latency histograms and the build-info gauge) and probe the
# JSON debug endpoints. Kills the server whichever way the gate ends.
OBS_PORT ?= 18411
obs-smoke:
	$(GO) build -o bin/unitd ./cmd/unitd
	$(GO) build -o bin/obslint ./cmd/obslint
	./bin/unitd -addr 127.0.0.1:$(OBS_PORT) -cr 0.2 -cfm 0.8 -cfs 0.2 & \
	pid=$$!; \
	trap 'kill $$pid 2>/dev/null' EXIT; \
	./bin/obslint -url http://127.0.0.1:$(OBS_PORT)/metrics -timeout 15s \
	  -require unit_queries_total,unit_query_latency_seconds,unit_query_stage_seconds,unit_build_info,unit_usm_window,unit_usm,unit_admission_cflex,unit_queue_length,unit_lbc_decisions_total,unit_lbc_actions_total \
	  -probe http://127.0.0.1:$(OBS_PORT)/debug/slow,http://127.0.0.1:$(OBS_PORT)/debug/trace

# Benchmark harness (cmd/unitbench): run the full suite at a steady
# benchtime and write the schema-versioned BENCH_results.json artifact
# (timings + headline experiment USMs). BENCH_baseline.json is the
# checked-in reference; regenerate it only on a quiet machine and review
# the diff like code.
BENCHTIME ?= 0.2s
BENCHCOUNT ?= 3
bench:
	$(GO) run ./cmd/unitbench -out BENCH_results.json -benchtime $(BENCHTIME) -count $(BENCHCOUNT)

bench-baseline:
	$(GO) run ./cmd/unitbench -out BENCH_baseline.json -benchtime $(BENCHTIME) -count $(BENCHCOUNT)

# CI smoke: a shorter sweep that still exercises every benchmark, writes
# the artifact CI uploads, then gates it against the baseline.
bench-smoke:
	$(GO) run ./cmd/unitbench -out BENCH_results.json -benchtime 0.15s -count 2

bench-check:
	$(GO) run ./cmd/unitbench -check

# Replication pin: the QuickConfig experiment suite must reproduce the
# checked-in golden JSON byte-for-byte, sequentially and in parallel.
golden:
	$(GO) test ./internal/experiments/ -run TestGoldenQuickReplication -v

# Full-scale replication pin: re-run every paper experiment at the
# default seeds and diff the output against the checked-in
# results/unitexp-full.txt, and the Figure 3 CSVs against results/.
# Only the "[<exp> completed in <t>s]" timing lines and the
# "wrote <path>" lines, whose paths depend on -csv, are stripped first.
# After an intentional behaviour change, regenerate the artifacts with
#   go run ./cmd/unitexp -exp all -csv results > results/unitexp-full.txt
# and review the diff like code.
REPRO_DIR ?= repro-check
REPRO_STRIP = grep -v -e '^\[[a-z0-9]* completed in [0-9.]*s\]$$' -e '^wrote '
repro-check:
	rm -rf $(REPRO_DIR) && mkdir -p $(REPRO_DIR)
	$(GO) run ./cmd/unitexp -exp all -csv $(REPRO_DIR) > $(REPRO_DIR)/unitexp-full.txt
	$(REPRO_STRIP) results/unitexp-full.txt > $(REPRO_DIR)/want.txt
	$(REPRO_STRIP) $(REPRO_DIR)/unitexp-full.txt > $(REPRO_DIR)/got.txt
	diff -u $(REPRO_DIR)/want.txt $(REPRO_DIR)/got.txt
	for f in results/fig3-*.csv; do cmp $$f $(REPRO_DIR)/$${f#results/} || exit 1; done

# The end-to-end benchmark harness (perfbench/, its own module) keeps
# its unit tests green: percentile math, metric names against
# BENCHMARK.json, profile layer attribution, and a small simulator pass
# checked against internal/experiments.
perfbench-test:
	cd perfbench && $(GO) test ./...

# Everything CI runs, in CI's order.
ci: build lint test race chaos scenarios obs-smoke repro-check perfbench-test
