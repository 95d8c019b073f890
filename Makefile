# Convenience targets; everything is plain `go` underneath.

.PHONY: test bench bench-gate profile study calibration artifacts examples cover fmt race e2e fuzz-smoke ci

test:
	go build ./... && go vet ./... && go test ./...

# CPU and heap profiles of the paper-hot study shape
# (BenchmarkPaperHotStudy): the starting point of any hot-path or
# memory change. Inspect with `go tool pprof -top cpu.out` and
# `go tool pprof -sample_index=inuse_space -top mem.out`.
profile:
	go test -run '^$$' -bench PaperHotStudy -benchtime 1x -cpuprofile cpu.out -memprofile mem.out .

# Race coverage for the concurrency-bearing packages (mirrors the CI
# race job). internal/core alone takes about 12 minutes under -race on 2
# CPUs, over go test's 10-minute default timeout.
race:
	go test -race -timeout 30m ./internal/core/... ./internal/sched/... ./internal/telemetry/... ./internal/fleet/... ./internal/cli/... ./internal/adaptive/... ./internal/warehouse/... ./internal/mem/...

# End-to-end checks that need real processes, each byte-compared with
# one -reference golden (mirrors the CI e2e job): SIGTERM mid-run and
# resume; a /metrics and /statusz scrape of a finished study (cell and
# attempt counts agree across the two, nothing in flight, replay and
# compiled engines observed) with -trace-out; a traced
# fiserve fleet with one worker SIGKILLed mid-lease, scraped once every
# cell has resolved (the retry can be the study's last grant) and then
# SIGTERMed to render; the calibration experiment on a fiserve fleet of
# two spawned workers, against its own -reference golden; a warehouse on
# disk with one record corrupted; an adaptive study (round 2 extends
# cells) SIGTERMed and resumed, run on a fiserve fleet of two spawned
# workers, and run on a fleet whose coordinator is SIGTERMed partway and
# restarted on its checkpoint (no worker outlives it), each against its
# own -reference golden. Every
# in-process combination (parallel, shard merge, resume, fleet,
# warehouse, instrumentation, adaptive, variant, execution policy) is
# proven by TestStudyMatrix in internal/core.
E2E = -experiment all -n 200 -benchmarks bzip2m,mcfm -q
E2E_ADAPTIVE = $(E2E) -adaptive eps=0.06,min=40,check=20
E2E_CALIBRATION = -experiment calibration -n 100 -benchmarks bzip2m,mcfm -q
e2e:
	go build -o .e2e-ficompare ./cmd/ficompare
	go build -o .e2e-fiserve ./cmd/fiserve
	./.e2e-ficompare $(E2E) -reference -parallel 4 > .e2e-golden.txt
	@echo "e2e: SIGTERM mid-run, then resume"
	./.e2e-ficompare $(E2E) -checkpoint .e2e-ck.jsonl > /dev/null 2>&1 & \
	pid=$$!; sleep 1; kill -TERM $$pid 2>/dev/null; wait $$pid; true
	test -s .e2e-ck.jsonl
	./.e2e-ficompare $(E2E) -resume .e2e-ck.jsonl > .e2e-resumed.txt
	cmp .e2e-golden.txt .e2e-resumed.txt
	@echo "e2e: /metrics and /statusz scrape of the finished study, -trace-out"
	./.e2e-ficompare $(E2E) -status 127.0.0.1:8791 -status-linger 5s -trace-attempts 2 \
		-trace-out .e2e-solo.json > .e2e-obs.txt 2>/dev/null & \
	pid=$$!; fin=""; \
	for i in $$(seq 1 600); do \
		if curl -fs http://127.0.0.1:8791/statusz 2>/dev/null | grep -q '"done": true'; then fin=1; break; fi; \
		sleep 0.1; \
	done; \
	if [ -z "$$fin" ]; then echo "e2e: study never reported done"; kill $$pid 2>/dev/null; exit 1; fi; \
	curl -fs http://127.0.0.1:8791/metrics > .e2e-metrics.txt; \
	curl -fs http://127.0.0.1:8791/statusz > .e2e-statusz.json; \
	wait $$pid
	grep -q '^hlfi_outcomes_total{outcome="sdc"}' .e2e-metrics.txt
	grep -q '^hlfi_trace_attempts_total ' .e2e-metrics.txt
	grep -q '^hlfi_attempt_seconds_bucket' .e2e-metrics.txt
	grep -q '^hlfi_snapshot_cache_bytes ' .e2e-metrics.txt
	test -s .e2e-statusz.json && jq -e '.done and .cellsDone > 0 and .attempts > 0' .e2e-statusz.json > /dev/null
	test "$$(awk '$$1=="hlfi_cells_done_total" {print $$2}' .e2e-metrics.txt)" = "$$(jq .cellsDone .e2e-statusz.json)"
	test "$$(awk '$$1=="hlfi_attempts_total" {print $$2}' .e2e-metrics.txt)" = "$$(jq .attempts .e2e-statusz.json)"
	awk '$$1=="hlfi_cells_in_flight" && $$2=="0" {ok=1} END {exit !ok}' .e2e-metrics.txt
	awk '$$1=="hlfi_replay_converged_total" && $$2+0>0 {ok=1} END {exit !ok}' .e2e-metrics.txt
	awk '$$1=="hlfi_replay_cycled_total" && $$2+0>0 {ok=1} END {exit !ok}' .e2e-metrics.txt
	awk '$$1=="hlfi_compiled_attempts_total" && $$2+0>0 {ok=1} END {exit !ok}' .e2e-metrics.txt
	awk '$$1=="hlfi_replay_restore_instrs_count" && $$2+0>0 {ok=1} END {exit !ok}' .e2e-metrics.txt
	cmp .e2e-golden.txt .e2e-obs.txt
	test -s .e2e-solo.json && jq -e '[.traceEvents[] | select(.cat=="cell")] | length > 0' .e2e-solo.json > /dev/null
	@echo "e2e: traced fiserve fleet, one worker SIGKILLed mid-lease"
	./.e2e-fiserve -listen 127.0.0.1:8792 -q $(E2E) \
		-lease-ttl 2s -retry-after 50ms -backoff 100ms -checkpoint .e2e-fleet-ck.jsonl \
		-trace -flight-recorder .e2e-flight.jsonl > .e2e-fleet.txt & \
	cpid=$$!; \
	for i in $$(seq 1 150); do \
		curl -fs http://127.0.0.1:8792/statusz > /dev/null 2>&1 && break; sleep 0.2; \
	done; \
	./.e2e-fiserve -worker -join http://127.0.0.1:8792 -name w1 -q & w1=$$!; \
	./.e2e-fiserve -worker -join http://127.0.0.1:8792 -name w2 -q & w2=$$!; \
	./.e2e-fiserve -worker -join http://127.0.0.1:8792 -name w3 -q & w3=$$!; \
	for i in $$(seq 1 300); do \
		curl -fs http://127.0.0.1:8792/statusz 2>/dev/null | grep -q '"worker": "w3"' && break; sleep 0.1; \
	done; \
	kill -9 $$w3 2>/dev/null; \
	i=0; until curl -fs http://127.0.0.1:8792/statusz 2>/dev/null \
			| jq '.study.resolved == .study.cells' 2>/dev/null | grep -qx true; do \
		i=$$((i+1)); \
		if [ $$i -ge 900 ]; then \
			echo "e2e: coordinator did not converge"; kill $$cpid $$w1 $$w2 2>/dev/null; exit 1; \
		fi; \
		sleep 0.2; \
	done; \
	curl -fs http://127.0.0.1:8792/metrics > .e2e-fleet-metrics.txt; \
	curl -fs 'http://127.0.0.1:8792/tracez?format=chrome' > .e2e-chrome.json; \
	kill -TERM $$cpid; wait $$cpid; rc=$$?; wait $$w1 2>/dev/null; wait $$w2 2>/dev/null; exit $$rc
	cmp .e2e-golden.txt .e2e-fleet.txt
	grep -q '^hlfi_fleet_leases_total ' .e2e-fleet-metrics.txt
	awk '$$1=="hlfi_fleet_lease_expiries_total" && $$2+0>=1 {ok=1} END {exit !ok}' .e2e-fleet-metrics.txt
	awk '$$1=="hlfi_fleet_retries_total" && $$2+0>=1 {ok=1} END {exit !ok}' .e2e-fleet-metrics.txt
	grep -q '^hlfi_fleet_workers_live ' .e2e-fleet-metrics.txt
	test -s .e2e-flight.jsonl && head -1 .e2e-flight.jsonl | jq -e '.type == "flight-recorder"' > /dev/null
	grep -q '"kind":"retry"' .e2e-flight.jsonl
	grep -q '"kind":"exec"' .e2e-flight.jsonl
	test -s .e2e-chrome.json && jq -e '[.traceEvents[] | select(.cat=="retry")] | length >= 1' .e2e-chrome.json > /dev/null
	jq -e '[.traceEvents[] | select(.cat=="exec") | .args.worker] | length >= 1 and all(. != null and . != "")' \
		.e2e-chrome.json > /dev/null
	@echo "e2e: calibration on a fiserve fleet of two spawned workers"
	./.e2e-ficompare $(E2E_CALIBRATION) -reference -parallel 4 > .e2e-calibration-golden.txt
	grep -q '^mean |crash gap to PINFI|' .e2e-calibration-golden.txt
	./.e2e-fiserve -listen 127.0.0.1:8793 -once -spawn-workers 2 -retry-after 50ms $(E2E_CALIBRATION) \
		> .e2e-calibration-fleet.txt
	cmp .e2e-calibration-golden.txt .e2e-calibration-fleet.txt
	@echo "e2e: warehouse on disk, one record corrupted"
	./.e2e-ficompare $(E2E) -warehouse .e2e-store > .e2e-cold.txt
	cmp .e2e-golden.txt .e2e-cold.txt
	./.e2e-ficompare $(E2E) -warehouse .e2e-store -warehouse-query | grep -q ' 0 miss of '
	./.e2e-ficompare $(E2E) -warehouse .e2e-store -events .e2e-events.jsonl > .e2e-warm.txt
	cmp .e2e-golden.txt .e2e-warm.txt
	head -1 .e2e-events.jsonl | grep -q '"type":"study_start"'
	tail -1 .e2e-events.jsonl | grep -q '"type":"study_done"'
	grep -q '"type":"warehouse_hit"' .e2e-events.jsonl
	! grep -q '"type":"cell_done"' .e2e-events.jsonl
	f="$$(find .e2e-store/objects -name '*.json' | sort | head -1)"; \
	test -n "$$f" && printf 'corrupted' > "$$f"
	./.e2e-ficompare $(E2E) -warehouse .e2e-store > .e2e-corrupt.txt
	cmp .e2e-golden.txt .e2e-corrupt.txt
	@echo "e2e: adaptive study, SIGTERM mid-run, then resume"
	./.e2e-ficompare $(E2E_ADAPTIVE) -reference -parallel 4 -events .e2e-adaptive-events.jsonl \
		> .e2e-adaptive-golden.txt
	grep -q '"type":"cell_extend"' .e2e-adaptive-events.jsonl
	./.e2e-ficompare $(E2E_ADAPTIVE) -checkpoint .e2e-adaptive-ck.jsonl > /dev/null 2>&1 & \
	pid=$$!; sleep 1; kill -TERM $$pid 2>/dev/null; wait $$pid; true
	test -s .e2e-adaptive-ck.jsonl
	./.e2e-ficompare $(E2E_ADAPTIVE) -resume .e2e-adaptive-ck.jsonl > .e2e-adaptive.txt
	cmp .e2e-adaptive-golden.txt .e2e-adaptive.txt
	@echo "e2e: adaptive study on a fiserve fleet of two spawned workers"
	./.e2e-fiserve -listen 127.0.0.1:8794 -once -spawn-workers 2 -retry-after 50ms $(E2E_ADAPTIVE) \
		> .e2e-adaptive-fleet.txt
	cmp .e2e-adaptive-golden.txt .e2e-adaptive-fleet.txt
	@echo "e2e: adaptive fleet coordinator SIGTERMed partway, then restarted on its checkpoint"
	./.e2e-fiserve -listen 127.0.0.1:8795 -q -spawn-workers 2 -retry-after 50ms \
		-checkpoint .e2e-restart-ck.jsonl $(E2E_ADAPTIVE) > /dev/null & \
	pid=$$!; i=0; \
	until curl -fs http://127.0.0.1:8795/statusz 2>/dev/null | jq -e '.study.resolved >= 4' > /dev/null 2>&1; do \
		i=$$((i+1)); \
		if [ $$i -ge 900 ]; then echo "e2e: coordinator resolved no cells"; kill $$pid 2>/dev/null; exit 1; fi; \
		sleep 0.1; \
	done; \
	kill -TERM $$pid; wait $$pid
	test -s .e2e-restart-ck.jsonl
	./.e2e-fiserve -listen 127.0.0.1:8795 -once -q -spawn-workers 2 -retry-after 50ms \
		-checkpoint .e2e-restart-ck.jsonl $(E2E_ADAPTIVE) > .e2e-restart.txt
	cmp .e2e-adaptive-golden.txt .e2e-restart.txt
	! pgrep -f -- '[-]join http://127.0.0.1:8795' > /dev/null
	rm -rf .e2e-*

# Fuzz smoke: each native fuzz target for 30s (mirrors the CI job).
# -fuzzminimizetime 100x caps minimizing a new input at 100 execs:
# under Go's 60s default the first new input's minimization ate the
# whole 30s of the file-writing targets.
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzMiniCParse$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/minic
	go test -run '^$$' -fuzz '^FuzzSnapshotRestore$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/interp
	go test -run '^$$' -fuzz '^FuzzSnapshotRestore$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/machine
	go test -run '^$$' -fuzz '^FuzzCompiledVsInterp$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/compile/irc
	go test -run '^$$' -fuzz '^FuzzConvergence$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/compile/irc
	go test -run '^$$' -fuzz '^FuzzAdaptiveDecision$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/adaptive
	go test -run '^$$' -fuzz '^FuzzMemoryModel$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/mem
	go test -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/core
	go test -run '^$$' -fuzz '^FuzzWarehouseRecord$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/warehouse
	go test -run '^$$' -fuzz '^FuzzFleetMessages$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/fleet
	go test -run '^$$' -fuzz '^FuzzFlightRecorder$$' -fuzztime 30s -fuzzminimizetime 100x ./internal/obs/trace

# The exact CI pipeline (.github/workflows/ci.yml), runnable locally.
ci:
	go build ./...
	go vet ./...
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	go test ./...
	(cd hlfibench && go build ./... && go vet ./...)
	$(MAKE) examples
	$(MAKE) race
	$(MAKE) bench-gate
	$(MAKE) fuzz-smoke
	$(MAKE) e2e
	$(MAKE) artifacts

# All tables/figures + ablations. HLFI_N controls injections per cell.
# Attempt-level and per-layer speed is measured by hlfibench
# (BENCHMARK.json); this target regenerates the paper artifacts as
# benchmarks and checks the performance gates.
bench:
	go test -bench=. -benchmem -benchtime=1x

# The two performance contracts (compiled IR engine >= 1.5x per attempt,
# adaptive never costlier than fixed-n; mirrors the CI bench-gate job).
bench-gate:
	go test -run '^$$' -bench '^BenchmarkPerfGates$$' -benchtime 1x .

# Paper-scale reproduction (the committed study_n1000.txt).
study:
	go run ./cmd/ficompare -experiment all -n 1000 -parallel 2 > study_n1000.txt

# The §VII future-work experiment (the committed calibration_n500.txt).
calibration:
	go run ./cmd/ficompare -experiment calibration -n 500 -parallel 2 > calibration_n500.txt

# Committed-artifact gate: regenerate study_n1000.txt and
# calibration_n500.txt and byte-compare both against the committed
# files (mirrors the CI artifacts job).
artifacts:
	go build -o .artifacts-bin ./cmd/ficompare
	./.artifacts-bin -experiment all -n 1000 -seed 1 -parallel 2 -q > .artifacts-study.txt
	cmp study_n1000.txt .artifacts-study.txt
	./.artifacts-bin -experiment calibration -n 500 -parallel 2 -q > .artifacts-calibration.txt
	cmp calibration_n500.txt .artifacts-calibration.txt
	rm -f .artifacts-bin .artifacts-study.txt .artifacts-calibration.txt

examples:
	go run ./examples/quickstart
	go run ./examples/resilience
	go run ./examples/tracing
	go run ./examples/customir
	go run ./examples/srcmap

cover:
	go test -cover ./internal/...

fmt:
	gofmt -w .
