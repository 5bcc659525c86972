GO ?= go

.PHONY: build test check bench bench-one bench-smoke fuzz-smoke crash-smoke gate-smoke loc

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the tier-1 verification gate: vet plus the full test suite
# under the race detector (the chaos tests exercise concurrent retries,
# repair and fault injection), the nested benchmark module (frozen, so
# an API change that breaks it must fail here, not in the pipeline),
# the seeded crash-recovery sweep, and the experiment gates.
check:
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) -C bench vet .
	$(GO) -C bench test .
	$(MAKE) crash-smoke
	$(MAKE) gate-smoke

# gate-smoke runs each seeded, deterministic `kadop-bench -exp X -short`
# gate; every one exits non-zero when its property fails. Run a subset
# with `make gate-smoke GATES=slo`.
#   churn       join/leave/crash schedule: queries keep succeeding, index converges to the churn-free oracle
#   slo         overload run: burn-rate alert fires (quiet when healthy), flight dump links to histogram exemplars
#   load        adaptive replication: controllers promote and the serving-load Gini strictly improves (query p99 printed)
#   stats       statistics registry: p95 cardinality-estimation error under bound, every phase reports operator actuals
#   throughput  batched engine: group commit holds its publish bound at fsync=always, query p99 under bulk publish within 1.5x of the controls
GATES := churn slo load stats throughput
gate-smoke:
	@for g in $(GATES); do \
		echo "$(GO) run ./cmd/kadop-bench -exp $$g -short"; \
		$(GO) run ./cmd/kadop-bench -exp $$g -short || exit 1; \
	done

# crash-smoke is the durability gate: the crash-injection property and
# sweep tests at a fixed, deeper trial budget than the default `go
# test` run. Every trial kills the store's writes at an arbitrary byte
# offset and asserts recovery lands on exactly the committed prefix
# (the in-flight operation all-or-nothing). Deterministic: seeds derive
# from the trial index, so a failure reproduces by rerunning. Raise the
# budget with `make crash-smoke CRASH_TRIALS=400`.
CRASH_TRIALS ?= 160
crash-smoke:
	KADOP_CRASH_TRIALS=$(CRASH_TRIALS) $(GO) test -run 'TestCrash' -count=1 ./internal/store/

# loc prints the size the ROADMAP and the simplicity issues refer to:
# lines of non-test, non-generated Go per package of the root module
# (the nested bench/ module excluded), and their total.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' \
		| xargs grep -L '^// Code generated .* DO NOT EDIT' | xargs wc -l \
		| awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
			END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

bench:
	$(GO) run ./cmd/kadop-bench -exp all -short

# bench-one runs one BENCHMARK.json workload twice on one seed — the
# end-to-end pass, then the traced per-layer pass — and prints the two
# result lines, so a claimed row and its per-layer explanation come
# from one command: `make bench-one W=query_wan [SEED=7]`.
SEED ?= 7
bench-one:
	@test -n "$(W)" || { echo "usage: make bench-one W=<workload> [SEED=7]"; exit 2; }
	@for t in 0 1; do \
		out=$$(bash bench/run.sh --workload $(W) --seed $(SEED) --seconds 15 --trace $$t) || exit 1; \
		echo "$$out" | tail -n 1; \
	done

# bench-smoke is the fastest end-to-end signal that the experiment
# pipeline still runs: one figure, the robustness sweep (which also
# prints the per-phase latency percentiles), the block-cache cold/warm
# comparison and the load-distribution experiment, all at the smallest
# scales. The kadop-top selftest scrapes a live 4-peer cluster over
# HTTP and fails on an empty or malformed Prometheus exposition.
bench-smoke:
	$(GO) run ./cmd/kadop-bench -exp fig3 -short
	$(GO) run ./cmd/kadop-bench -exp robust -short
	$(GO) run ./cmd/kadop-bench -exp cache -short
	$(GO) run ./cmd/kadop-bench -exp load -short
	$(GO) run ./cmd/kadop-top -selftest 4

# fuzz-smoke runs each fuzz target for 30s on top of its checked-in
# seed corpus: the pattern parser, the posting codec, the DHT message
# codec, and the replica-advertisement codec.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=30s ./internal/pattern/
	$(GO) test -run='^$$' -fuzz=FuzzCodec -fuzztime=30s ./internal/postings/
	$(GO) test -run='^$$' -fuzz=FuzzMessage -fuzztime=30s ./internal/dht/
	$(GO) test -run='^$$' -fuzz=FuzzReplicaSetCodec -fuzztime=30s ./internal/replicate/
