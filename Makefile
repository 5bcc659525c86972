GO ?= go

.PHONY: build test check bench bench-one bench-pair bench-smoke fuzz-smoke crash-smoke gate-smoke tcp-smoke loc

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

# gate-smoke runs the gate entries of the experiment table
# (`kadop-bench -exp gates -short`): seeded, deterministic runs that
# print the bounds they check and exit non-zero when one fails. Run
# one with `make gate-smoke GATES=slo`.
#   churn       join/leave/crash schedule: queries keep succeeding, graceful leaves lose no keys, index converges to the churn-free oracle
#   load        adaptive replication: controllers promote and the serving-load Gini strictly improves (query p99 printed)
#   durability  group commit cuts the WAL commits of an fsync=always publish at least 2x, each commit carrying at least 2 writes handed to the coalescer; query p99 under bulk publish within 1.5x of the controls + 25ms
#   slo         overload run: burn-rate alert fires (quiet when healthy), flight dump links to histogram exemplars
#   stats       statistics registry: p95 cardinality-estimation error under bound, every phase reports operator actuals
GATES := gates
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

# tcp-smoke runs README's TCP recipe on loopback with the real binaries:
# three kadop-peers (each address read from its "listening on" line), a
# 40-record kadop-gen corpus served by kadop-publish, then kadop-query
# once per -strategy. It fails when a strategy errors or returns a
# different answer count from conventional, and kills every process it
# started on exit. The sim-only tests cannot catch a request the TCP
# server routes differently from the simulated network.
TCP_SMOKE_QUERY := //article//author[. contains "Ullman"]
tcp-smoke:
	@set -e; d=$$(mktemp -d); pids=""; \
	trap 'kill $$pids 2>/dev/null || true; wait 2>/dev/null || true; rm -rf $$d' EXIT; \
	$(GO) build -o $$d/ ./cmd/kadop-peer ./cmd/kadop-gen ./cmd/kadop-publish ./cmd/kadop-query; \
	wait_for() { \
		for _ in $$(seq 100); do grep -q "$$2" $$1 && return 0; sleep 0.1; done; \
		echo "tcp-smoke: no \"$$2\" in $$1:"; cat $$1; return 1; \
	}; \
	boot=""; \
	for i in 1 2 3; do \
		$$d/kadop-peer -listen 127.0.0.1:0 -id $$i $${boot:+-bootstrap $$boot} > $$d/peer$$i.log 2>&1 & pids="$$pids $$!"; \
		wait_for $$d/peer$$i.log "listening on"; \
		[ -n "$$boot" ] || boot=$$(sed -n 's/.* listening on //p' $$d/peer$$i.log); \
	done; \
	$$d/kadop-gen -corpus dblp -records 40 -out $$d/corpus > /dev/null; \
	$$d/kadop-publish -bootstrap $$boot -id 10 $$d/corpus/*.xml > $$d/publish.log 2>&1 & pids="$$pids $$!"; \
	wait_for $$d/publish.log "serving published documents"; \
	want=""; \
	for s in conventional ab db bloom subquery; do \
		out=$$($$d/kadop-query -bootstrap $$boot -id 99 -strategy $$s '$(TCP_SMOKE_QUERY)' 2>&1) \
			|| { echo "tcp-smoke: -strategy $$s failed:"; echo "$$out"; exit 1; }; \
		n=$$(echo "$$out" | sed -n 's/^total: .*, \([0-9]*\) answers$$/\1/p'); \
		echo "tcp-smoke: -strategy $$s: $${n:-?} answers"; \
		[ -n "$$n" ] || { echo "$$out"; exit 1; }; \
		[ -n "$$want" ] || want=$$n; \
		[ "$$n" = "$$want" ] || { echo "tcp-smoke: $$s answered $$n, conventional $$want"; exit 1; }; \
	done

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

# bench-pair compares the checkout against BASE on one workload: BASE is
# built in a git worktree under .bench_build/, then N parent/change pairs
# of bench/run.sh run on seeds SEED..SEED+N-1, the side that goes first
# alternating between pairs. It prints, per end-to-end metric, each
# side's quartiles and the pairs the change wins; takes N × 30 s.
#   make bench-pair W=query_wan [N=10] [BASE=HEAD~1] [SEED=101]
N ?= 10
BASE ?= HEAD~1
PAIR_DIR := .bench_build/pair
bench-pair:
	@test -n "$(W)" || { echo "usage: make bench-pair W=<workload> [N=10] [BASE=HEAD~1] [SEED=101]"; exit 2; }
	@set -e; base=$$(git rev-parse --verify "$(BASE)^{commit}"); \
	if [ -d $(PAIR_DIR)/base ]; then git -C $(PAIR_DIR)/base checkout -q --detach $$base; \
	else git worktree prune; git worktree add -q --detach $(PAIR_DIR)/base $$base; fi; \
	rm -rf $(PAIR_DIR)/out; mkdir -p $(PAIR_DIR)/out; \
	seed=$(if $(filter file,$(origin SEED)),101,$(SEED)); \
	echo "bench-pair: $(W), $(N) pairs from seed $$seed, base $$(git rev-parse --short $$base) vs the checkout"; \
	for i in $$(seq 0 $$(( $(N) - 1 ))); do \
		s=$$(( seed + i )); sides="base change"; \
		if [ $$(( i % 2 )) = 1 ]; then sides="change base"; fi; \
		for side in $$sides; do \
			dir=.; if [ $$side = base ]; then dir=$(PAIR_DIR)/base; fi; \
			bash $$dir/bench/run.sh --workload $(W) --seed $$s --seconds 15 --trace 0 2>/dev/null \
				| tail -n 1 > $(PAIR_DIR)/out/$$side-$$s.json; \
			echo "  seed $$s $$side done"; \
		done; \
	done; \
	awk "$$BENCH_PAIR_AWK" BENCHMARK.json $(PAIR_DIR)/out/*.json
export BENCH_PAIR_AWK
define BENCH_PAIR_AWK
# Reads BENCHMARK.json (the end-to-end metrics and their direction),
# then every result line, named <side>-<seed>.json.
function num(line, key,   i, s) {
	i = index(line, "\"" key "\":{\"value\":"); if (i == 0) return "";
	s = substr(line, i + length(key) + 12); match(s, /^[-0-9.eE+]+/);
	return substr(s, 1, RLENGTH) + 0
}
function field(line, key,   i, s) {
	i = index(line, "\"" key "\":"); if (i == 0) return 0;
	s = substr(line, i + length(key) + 3); match(s, /^[0-9]+/);
	return substr(s, 1, RLENGTH) + 0
}
function q(a, n, p,   i, j, t, x, lo) {
	for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j+1] = a[j]; a[j+1] = t }
	x = (n - 1) * p + 1; lo = int(x); if (lo >= n) return a[n];
	return a[lo] + (x - lo) * (a[lo+1] - a[lo])
}
FILENAME == "BENCHMARK.json" {
	if ($$0 ~ /"end_to_end"/) e2e = 1; else if ($$0 ~ /"per_layer"/) e2e = 0;
	if (e2e && match($$0, /"name": *"[^"]*"/)) { split(substr($$0, RSTART, RLENGTH), f, "\""); names[++nm] = f[4] }
	if (e2e && match($$0, /"better": *"[^"]*"/)) { split(substr($$0, RSTART, RLENGTH), f, "\""); better[names[nm]] = f[4] }
	next
}
{
	n = split(FILENAME, p, "/"); split(p[n], sf, "[-.]"); side = sf[1]; seed = sf[2];
	seeds[seed] = 1; att[side] += field($$0, "attempted"); fail[side] += field($$0, "failed");
	for (k = 1; k <= nm; k++) val[side, seed, names[k]] = num($$0, names[k])
}
END {
	printf "%-22s %-6s %-28s %-28s %s\n", "metric", "better", "parent p25/p50/p75", "change p25/p50/p75", "change wins";
	for (k = 1; k <= nm; k++) {
		m = names[k]; nb = nc = w = pairs = 0;
		for (s in seeds) {
			b = val["base", s, m]; c = val["change", s, m]; if (b == "" || c == "") continue;
			B[++nb] = b; C[++nc] = c; pairs++;
			if ((better[m] == "lower" && c < b) || (better[m] == "higher" && c > b)) w++
		}
		if (pairs == 0) continue;
		printf "%-22s %-6s %8.4g %8.4g %8.4g   %8.4g %8.4g %8.4g   %d/%d\n", m, better[m],
			q(B, nb, .25), q(B, nb, .5), q(B, nb, .75), q(C, nc, .25), q(C, nc, .5), q(C, nc, .75), w, pairs
	}
	printf "failed operations: parent %d/%d, change %d/%d\n", fail["base"], att["base"], fail["change"], att["change"]
}
endef

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
# seed corpus: the pattern parser, the compiled pattern evaluator
# (checked against both reference evaluators), the posting codec, run
# stitching (checked against the codec), the DHT message codec, the replica-advertisement codec, the phase-two
# answer codec in both of its formats, and the counting twig join
# (checked against the nested-loop reference).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzParse -fuzztime=30s ./internal/pattern/
	$(GO) test -run='^$$' -fuzz=FuzzMatch -fuzztime=30s ./internal/pattern/
	$(GO) test -run='^$$' -fuzz=FuzzCodec -fuzztime=30s ./internal/postings/
	$(GO) test -run='^$$' -fuzz=FuzzStitch -fuzztime=30s ./internal/postings/
	$(GO) test -run='^$$' -fuzz=FuzzMessage -fuzztime=30s ./internal/dht/
	$(GO) test -run='^$$' -fuzz=FuzzReplicaSetCodec -fuzztime=30s ./internal/replicate/
	$(GO) test -run='^$$' -fuzz=FuzzAnswerCodec -fuzztime=30s ./internal/kadop/
	$(GO) test -run='^$$' -fuzz=FuzzJoin -fuzztime=30s ./internal/twigjoin/
