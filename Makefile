# snmpv3fp — build, test and reproduction targets.

GO ?= go

.PHONY: all build vet test test-short race bench benchmark benchmark-smoke smoke-serve metrics-smoke durability-smoke dist-smoke replica-smoke reproduce examples ci fuzz-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Full suite, including the full-scale pipeline validation (~30 s extra).
test:
	$(GO) test ./...

# Fast suite for iteration.
test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

# What CI runs (see .github/workflows/ci.yml). Wall-clock budget on a
# 2-core x86-64 machine: benchmark-smoke runs all five workloads in about
# 110 s (the two bench steps it replaced took 2 s and 13 s), each fuzz
# target 10 s, and the race suite several minutes.
ci:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -race -shuffle=on ./...
	$(GO) test -race -count=5 -run 'TestReplica|TestView|TestSnapshot' ./internal/store ./internal/serve
	$(MAKE) fuzz-smoke
	$(MAKE) smoke-serve
	$(MAKE) metrics-smoke
	$(MAKE) durability-smoke
	$(MAKE) dist-smoke
	$(MAKE) replica-smoke
	$(MAKE) benchmark-smoke

# 10 seconds of native fuzzing per target. go test accepts one -fuzz target
# per invocation, so loop over every FuzzXxx the fuzzing packages list.
fuzz-smoke:
	@for pkg in ./internal/ber ./internal/snmp ./internal/probe ./internal/vantage ./internal/wire ./internal/store ./internal/fusion; do \
		for t in $$($(GO) test $$pkg -list '^Fuzz' | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$t"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$t$$" -fuzztime 10s || exit 1; \
		done; \
	done

# The four design-choice ablations over the shared full-scale campaigns
# (the paper's tables and figures are `make reproduce`).
bench:
	$(GO) test -run '^$$' -bench Ablation -benchmem .

# The pipeline benchmark (benchmark/README.md): every workload, end-to-end
# metrics and the per-layer ledger, written to benchmark/out/results.json.
# Compare two trees' results with `go run ./benchmark -compare A B`.
benchmark:
	$(GO) run ./benchmark

# One short run of every workload: the CI check that the whole pipeline
# still builds, runs and emits every declared metric with no failed
# operations. Its numbers are not a baseline.
benchmark-smoke:
	$(GO) run ./benchmark -runs 1 -seconds 2 -dir $$(mktemp -d)

# End-to-end daemon smoke: ingest a simulated world, self-query /v1/stats,
# /v1/vendors and /v1/metrics over HTTP.
smoke-serve:
	$(GO) run ./cmd/snmpfpd -sim -smoke

# Observability smoke: run the daemon's self-test and assert the key metric
# families from every layer (scanner, store, HTTP) are present and non-zero
# in the /v1/metrics exposition.
metrics-smoke:
	@$(GO) run ./cmd/snmpfpd -sim -smoke 2>/dev/null | awk ' \
		/^snmpfp_scan_probes_sent_total / && $$2+0 > 0 { seen["scan"]=1 } \
		/^snmpfp_store_ingested_total / && $$2+0 > 0 { seen["store"]=1 } \
		/^snmpfp_http_requests_total\{/ && $$2+0 > 0 { seen["http"]=1 } \
		END { \
			ok = 1; \
			split("scan store http", want, " "); \
			for (i in want) if (!(want[i] in seen)) { \
				printf "metrics-smoke: family %s missing or zero\n", want[i]; ok = 0; \
			} \
			if (!ok) exit 1; \
			print "metrics-smoke: scanner, store and HTTP families present and non-zero"; \
		}'

# Durability smoke: SIGKILL a live ingesting store process mid-flight,
# reopen its directory, and verify every acknowledged sample is recovered
# exactly once (internal/store/kill_test.go), under the race detector.
durability-smoke:
	$(GO) test -race -run TestKillDuringIngest -count=1 -v ./internal/store

# Distributed smoke: build snmpcoord and snmpscan, spawn one coordinator and
# three vantage worker processes over loopback TCP against a seeded netsim
# world (one worker rigged to die mid-campaign), and verify the merged
# campaign output is byte-identical to a single-process scan, the shutdown
# is clean, and the merged campaign landed in the durable store
# (internal/vantage/dist_smoke_test.go), under the race detector.
dist-smoke:
	$(GO) test -race -run TestDistSmoke -count=1 -v ./internal/vantage

# Read scale-out smoke: one durable primary shipping sealed segments over
# loopback TCP to two read replicas — one severed mid-ship and reconnected —
# then every /v1/* endpoint compared byte-for-byte across all three servers
# (internal/serve/replica_test.go), under the race detector.
replica-smoke:
	$(GO) test -race -run TestReplicaSmoke -count=1 -v ./internal/serve

# The complete evaluation, paper order, full scale.
reproduce:
	$(GO) run ./cmd/reproduce

# Run all runnable examples.
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/labtest
	$(GO) run ./examples/aliasres
	$(GO) run ./examples/vendorsurvey
	$(GO) run ./examples/security
	$(GO) run ./examples/monitoring

clean:
	$(GO) clean ./...
