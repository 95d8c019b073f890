# Convenience targets; everything is plain `go` underneath.

.PHONY: test bench profile study calibration artifacts examples cover fmt race smoke resume-smoke fuzz-smoke replay-determinism compiled-smoke obs-smoke shard-smoke fleet-smoke adaptive-smoke trace-smoke warehouse-smoke ci

test:
	go build ./... && go vet ./... && go test ./...

# CPU profile of the paper-hot study shape (BenchmarkPaperHotStudy):
# the starting point of any hot-path change. Inspect with
# `go tool pprof -top cpu.out`.
profile:
	go test -run '^$$' -bench PaperHotStudy -benchtime 1x -cpuprofile cpu.out .

# Race coverage for the concurrency-bearing packages (mirrors the CI
# race job). internal/core alone takes about 12 minutes under -race on 2
# CPUs, over go test's 10-minute default timeout.
race:
	go test -race -timeout 30m ./internal/core/... ./internal/sched/... ./internal/telemetry/... ./internal/fleet/... ./internal/cli/... ./internal/adaptive/... ./internal/warehouse/... ./internal/mem/...

# Study-binary smoke + determinism gate: the cell scheduler must produce
# byte-identical tables to the serial path (mirrors the CI smoke job).
smoke:
	go run ./cmd/ficompare -experiment all -n 20 -benchmarks bzip2m,mcfm -q > .smoke-serial.txt
	go run ./cmd/ficompare -experiment all -n 20 -benchmarks bzip2m,mcfm -q -parallel 4 > .smoke-parallel.txt
	cmp .smoke-serial.txt .smoke-parallel.txt
	rm -f .smoke-serial.txt .smoke-parallel.txt

# Kill-and-resume smoke: start a checkpointed study, SIGTERM it
# mid-run, resume from the checkpoint, and byte-compare the resumed
# output against an uninterrupted run; then do it again resuming with
# snapshot replay and the compiled engines off, which the checkpoint
# records as provenance only (mirrors the CI resume-smoke job).
resume-smoke:
	go build -o .resume-smoke-bin ./cmd/ficompare
	./.resume-smoke-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q > .resume-full.txt
	./.resume-smoke-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-checkpoint .resume-ck.jsonl > /dev/null 2>&1 & \
	pid=$$!; sleep 1; kill -TERM $$pid 2>/dev/null; wait $$pid; true
	test -s .resume-ck.jsonl
	./.resume-smoke-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-resume .resume-ck.jsonl > .resume-resumed.txt
	cmp .resume-full.txt .resume-resumed.txt
	./.resume-smoke-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-checkpoint .resume-ck2.jsonl > /dev/null 2>&1 & \
	pid=$$!; sleep 1; kill -TERM $$pid 2>/dev/null; wait $$pid; true
	test -s .resume-ck2.jsonl
	./.resume-smoke-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-no-snapshots -compiled=false -resume .resume-ck2.jsonl > .resume-policy.txt
	cmp .resume-full.txt .resume-policy.txt
	rm -f .resume-smoke-bin .resume-full.txt .resume-resumed.txt .resume-ck.jsonl \
		.resume-ck2.jsonl .resume-policy.txt

# Replay determinism gate: the snapshot fast-forward engine must be
# observationally invisible — a study with snapshots (the default) is
# byte-compared against -no-snapshots (mirrors the CI job).
replay-determinism:
	go run ./cmd/ficompare -experiment all -n 20 -benchmarks bzip2m,mcfm -q -no-snapshots > .replay-off.txt
	go run ./cmd/ficompare -experiment all -n 20 -benchmarks bzip2m,mcfm -q > .replay-on.txt
	cmp .replay-off.txt .replay-on.txt
	go run ./cmd/ficompare -experiment all -n 20 -benchmarks bzip2m,mcfm -q -parallel 4 -snapshot-stride 777 > .replay-stride.txt
	cmp .replay-off.txt .replay-stride.txt
	rm -f .replay-off.txt .replay-on.txt .replay-stride.txt

# Compiled-engine determinism gate: the compiled execution engines must
# be observationally invisible — a study with them (the default) is
# byte-compared against -no-compiled, sequentially and under the
# parallel scheduler (mirrors the CI compiled-determinism job).
compiled-smoke:
	go run ./cmd/ficompare -experiment all -n 20 -benchmarks bzip2m,mcfm -q -no-compiled > .compiled-off.txt
	go run ./cmd/ficompare -experiment all -n 20 -benchmarks bzip2m,mcfm -q > .compiled-on.txt
	cmp .compiled-off.txt .compiled-on.txt
	go run ./cmd/ficompare -experiment all -n 20 -benchmarks bzip2m,mcfm -q -parallel 4 > .compiled-parallel.txt
	cmp .compiled-off.txt .compiled-parallel.txt
	go run ./cmd/ficompare -experiment all -n 20 -benchmarks bzip2m,mcfm -q -no-compiled -no-snapshots > .compiled-neither.txt
	cmp .compiled-off.txt .compiled-neither.txt
	rm -f .compiled-off.txt .compiled-on.txt .compiled-parallel.txt .compiled-neither.txt

# Observability smoke + determinism gate: a tiny campaign with the live
# status endpoint and attempt tracing armed must serve /metrics and
# /statusz while running, and render byte-identical tables to an
# unobserved run (mirrors the CI obs-smoke job).
obs-smoke:
	go build -o .obs-smoke-bin ./cmd/ficompare
	./.obs-smoke-bin -experiment all -n 20 -benchmarks bzip2m,mcfm -q > .obs-off.txt
	./.obs-smoke-bin -experiment all -n 20 -benchmarks bzip2m,mcfm -q \
		-status 127.0.0.1:8791 -status-linger 5s -trace-attempts 2 > .obs-on.txt 2>/dev/null & \
	pid=$$!; up=""; \
	for i in $$(seq 1 150); do \
		if curl -fs http://127.0.0.1:8791/metrics > .obs-metrics.txt 2>/dev/null; then up=1; break; fi; \
		sleep 0.2; \
	done; \
	test -n "$$up"; \
	curl -fs http://127.0.0.1:8791/metrics > .obs-metrics.txt; \
	curl -fs http://127.0.0.1:8791/statusz > .obs-statusz.json; \
	wait $$pid
	grep -q '^hlfi_attempts_total ' .obs-metrics.txt
	grep -q '^hlfi_outcomes_total{outcome="sdc"}' .obs-metrics.txt
	grep -q '^hlfi_trace_attempts_total ' .obs-metrics.txt
	grep -q '^hlfi_attempt_seconds_bucket' .obs-metrics.txt
	grep -q '^hlfi_snapshot_cache_bytes ' .obs-metrics.txt
	grep -q '"cellsPlanned"' .obs-statusz.json
	cmp .obs-off.txt .obs-on.txt
	rm -f .obs-smoke-bin .obs-off.txt .obs-on.txt .obs-metrics.txt .obs-statusz.json

# Shard-and-merge smoke: run the study as three shard processes, kill
# one mid-run, resume only that shard, merge the checkpoints, and
# byte-compare the merged report against a single-process run (mirrors
# the CI shard-smoke job).
shard-smoke:
	go build -o .shard-smoke-bin ./cmd/ficompare
	./.shard-smoke-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q > .shard-full.txt
	./.shard-smoke-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-shard 0/3 -checkpoint .shard-0.jsonl > /dev/null
	./.shard-smoke-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-shard 1/3 -checkpoint .shard-1.jsonl > /dev/null 2>&1 & \
	pid=$$!; sleep 1; kill -TERM $$pid 2>/dev/null; wait $$pid; true
	test -s .shard-1.jsonl
	./.shard-smoke-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-shard 2/3 -checkpoint .shard-2.jsonl > /dev/null
	./.shard-smoke-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-shard 1/3 -resume .shard-1.jsonl > /dev/null
	./.shard-smoke-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-merge '.shard-*.jsonl' > .shard-merged.txt
	cmp .shard-full.txt .shard-merged.txt
	rm -f .shard-smoke-bin .shard-full.txt .shard-merged.txt .shard-[0-9].jsonl

# Campaign-fleet smoke: run the study as a service — a fiserve
# coordinator plus three worker processes, SIGKILL one worker while it
# holds a lease so the lease expires and its cell is retried — then
# byte-compare the coordinator's report against the single-process run
# (already gated sequential-vs-parallel) and assert the fleet counters
# recorded the churn (mirrors the CI fleet-smoke job).
fleet-smoke:
	go build -o .fleet-ficompare ./cmd/ficompare
	go build -o .fleet-fiserve ./cmd/fiserve
	./.fleet-ficompare -experiment all -n 200 -benchmarks bzip2m,mcfm -q > .fleet-golden.txt
	./.fleet-ficompare -experiment all -n 200 -benchmarks bzip2m,mcfm -q -parallel 4 > .fleet-parallel.txt
	cmp .fleet-golden.txt .fleet-parallel.txt
	./.fleet-fiserve -listen 127.0.0.1:8792 -once -q -experiment all -n 200 \
		-benchmarks bzip2m,mcfm -lease-ttl 2s -retry-after 50ms -backoff 100ms \
		-checkpoint .fleet-ck.jsonl > .fleet-report.txt & \
	cpid=$$!; \
	for i in $$(seq 1 150); do \
		curl -fs http://127.0.0.1:8792/statusz > /dev/null 2>&1 && break; sleep 0.2; \
	done; \
	./.fleet-fiserve -worker -join http://127.0.0.1:8792 -name w1 -q & w1=$$!; \
	./.fleet-fiserve -worker -join http://127.0.0.1:8792 -name w2 -q & w2=$$!; \
	./.fleet-fiserve -worker -join http://127.0.0.1:8792 -name w3 -q & w3=$$!; \
	for i in $$(seq 1 300); do \
		curl -fs http://127.0.0.1:8792/statusz 2>/dev/null | grep -q '"worker": "w3"' && break; sleep 0.1; \
	done; \
	kill -9 $$w3 2>/dev/null; \
	i=0; while kill -0 $$cpid 2>/dev/null && [ $$i -lt 900 ]; do \
		curl -fs http://127.0.0.1:8792/metrics > .fleet-metrics.tmp 2>/dev/null && mv .fleet-metrics.tmp .fleet-metrics.txt; \
		i=$$((i+1)); sleep 0.2; \
	done; \
	if kill -0 $$cpid 2>/dev/null; then \
		echo "fleet-smoke: coordinator did not converge"; kill $$cpid $$w1 $$w2 2>/dev/null; exit 1; \
	fi; \
	wait $$cpid; rc=$$?; wait $$w1 2>/dev/null; wait $$w2 2>/dev/null; exit $$rc
	cmp .fleet-golden.txt .fleet-report.txt
	grep -q '^hlfi_fleet_leases_total ' .fleet-metrics.txt
	awk '$$1=="hlfi_fleet_lease_expiries_total" && $$2+0>=1 {ok=1} END {exit !ok}' .fleet-metrics.txt
	awk '$$1=="hlfi_fleet_retries_total" && $$2+0>=1 {ok=1} END {exit !ok}' .fleet-metrics.txt
	grep -q '^hlfi_fleet_workers_live ' .fleet-metrics.txt
	rm -f .fleet-ficompare .fleet-fiserve .fleet-golden.txt .fleet-parallel.txt \
		.fleet-report.txt .fleet-ck.jsonl .fleet-metrics.txt .fleet-metrics.tmp

# Adaptive-sampling smoke + determinism gate: an adaptive study must
# render identically under the parallel scheduler and through a
# three-shard merge (which adopts the adaptive signature from the shard
# headers), and a fixed-n study must show no adaptive section at all
# (mirrors the CI adaptive-smoke job).
adaptive-smoke:
	go build -o .adaptive-bin ./cmd/ficompare
	./.adaptive-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q > .adaptive-off.txt
	! grep -q 'Adaptive sampling' .adaptive-off.txt
	./.adaptive-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-adaptive eps=0.05,min=50,check=64 > .adaptive-seq.txt
	grep -q 'Adaptive sampling' .adaptive-seq.txt
	grep -q 'converged' .adaptive-seq.txt
	./.adaptive-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-adaptive eps=0.05,min=50,check=64 -parallel 4 > .adaptive-par.txt
	cmp .adaptive-seq.txt .adaptive-par.txt
	./.adaptive-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-adaptive eps=0.05,min=50,check=64 -shard 0/3 -checkpoint .adaptive-0.jsonl > /dev/null
	./.adaptive-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-adaptive eps=0.05,min=50,check=64 -shard 1/3 -checkpoint .adaptive-1.jsonl > /dev/null
	./.adaptive-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-adaptive eps=0.05,min=50,check=64 -shard 2/3 -checkpoint .adaptive-2.jsonl > /dev/null
	./.adaptive-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-merge '.adaptive-[0-9].jsonl' > .adaptive-merged.txt
	cmp .adaptive-seq.txt .adaptive-merged.txt
	rm -f .adaptive-bin .adaptive-off.txt .adaptive-seq.txt .adaptive-par.txt \
		.adaptive-merged.txt .adaptive-[0-9].jsonl

# Flight-recorder smoke + determinism gate: a single-process study with
# -trace-out must render byte-identically to the untraced golden and
# write a well-formed Chrome trace; then a traced fiserve fleet with one
# worker SIGKILLed mid-lease must also match the golden, leave a durable
# flight-recorder file, and serve a /tracez Chrome export whose timeline
# shows the retry and the worker-attributed exec spans (mirrors the CI
# trace-smoke job).
trace-smoke:
	go build -o .trace-ficompare ./cmd/ficompare
	go build -o .trace-fiserve ./cmd/fiserve
	./.trace-ficompare -experiment all -n 200 -benchmarks bzip2m,mcfm -q > .trace-golden.txt
	./.trace-ficompare -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-trace-out .trace-solo.json > .trace-on.txt
	cmp .trace-golden.txt .trace-on.txt
	jq -e '.traceEvents | length > 0' .trace-solo.json > /dev/null
	jq -e '[.traceEvents[] | select(.cat=="cell")] | length > 0' .trace-solo.json > /dev/null
	./.trace-fiserve -listen 127.0.0.1:8793 -once -q -experiment all -n 200 \
		-benchmarks bzip2m,mcfm -lease-ttl 2s -retry-after 50ms -backoff 100ms \
		-trace -flight-recorder .trace-flight.jsonl > .trace-fleet.txt & \
	cpid=$$!; \
	for i in $$(seq 1 150); do \
		curl -fs http://127.0.0.1:8793/statusz > /dev/null 2>&1 && break; sleep 0.2; \
	done; \
	./.trace-fiserve -worker -join http://127.0.0.1:8793 -name w1 -q & w1=$$!; \
	./.trace-fiserve -worker -join http://127.0.0.1:8793 -name w2 -q & w2=$$!; \
	./.trace-fiserve -worker -join http://127.0.0.1:8793 -name w3 -q & w3=$$!; \
	for i in $$(seq 1 300); do \
		curl -fs http://127.0.0.1:8793/statusz 2>/dev/null | grep -q '"worker": "w3"' && break; sleep 0.1; \
	done; \
	kill -9 $$w3 2>/dev/null; \
	i=0; while kill -0 $$cpid 2>/dev/null && [ $$i -lt 900 ]; do \
		curl -fs 'http://127.0.0.1:8793/tracez?format=chrome' > .trace-chrome.tmp 2>/dev/null \
			&& mv .trace-chrome.tmp .trace-chrome.json; \
		i=$$((i+1)); sleep 0.2; \
	done; \
	if kill -0 $$cpid 2>/dev/null; then \
		echo "trace-smoke: coordinator did not converge"; kill $$cpid $$w1 $$w2 2>/dev/null; exit 1; \
	fi; \
	wait $$cpid; rc=$$?; wait $$w1 2>/dev/null; wait $$w2 2>/dev/null; exit $$rc
	cmp .trace-golden.txt .trace-fleet.txt
	test -s .trace-flight.jsonl
	head -1 .trace-flight.jsonl | jq -e '.type == "flight-recorder"' > /dev/null
	grep -q '"kind":"retry"' .trace-flight.jsonl
	grep -q '"kind":"exec"' .trace-flight.jsonl
	jq -e '.traceEvents | length > 0' .trace-chrome.json > /dev/null
	jq -e '[.traceEvents[] | select(.cat=="retry")] | length >= 1' .trace-chrome.json > /dev/null
	jq -e '[.traceEvents[] | select(.cat=="exec") | .args.worker] | length >= 1 and all(. != null and . != "")' \
		.trace-chrome.json > /dev/null
	rm -f .trace-ficompare .trace-fiserve .trace-golden.txt .trace-on.txt .trace-fleet.txt \
		.trace-solo.json .trace-flight.jsonl .trace-chrome.json .trace-chrome.tmp

# Result-warehouse smoke + determinism gate: a cold run with -warehouse
# must render byte-identically to an uncached run while populating the
# store, the warm replay must hit every cell (zero misses in the query,
# warehouse_hit events and no cell_done events in the stream) and still
# render byte-identically — sequentially and under -parallel — and
# corrupting a stored record must degrade to a silent re-execution, not
# a wrong report (mirrors the CI warehouse-smoke job).
warehouse-smoke:
	go build -o .wh-bin ./cmd/ficompare
	./.wh-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q > .wh-golden.txt
	./.wh-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-warehouse .wh-store > .wh-cold.txt
	cmp .wh-golden.txt .wh-cold.txt
	./.wh-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-warehouse .wh-store -warehouse-query > .wh-query.txt
	grep -q ' 0 miss of ' .wh-query.txt
	./.wh-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-warehouse .wh-store -events .wh-events.jsonl > .wh-warm.txt
	cmp .wh-golden.txt .wh-warm.txt
	grep -q '"type":"warehouse_hit"' .wh-events.jsonl
	! grep -q '"type":"cell_done"' .wh-events.jsonl
	./.wh-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-warehouse .wh-store -parallel 4 > .wh-warm-par.txt
	cmp .wh-golden.txt .wh-warm-par.txt
	f="$$(find .wh-store/objects -name '*.json' | head -1)"; \
	test -n "$$f" && printf 'corrupted' > "$$f"
	./.wh-bin -experiment all -n 200 -benchmarks bzip2m,mcfm -q \
		-warehouse .wh-store > .wh-corrupt.txt
	cmp .wh-golden.txt .wh-corrupt.txt
	rm -rf .wh-bin .wh-golden.txt .wh-cold.txt .wh-query.txt .wh-warm.txt \
		.wh-warm-par.txt .wh-corrupt.txt .wh-events.jsonl .wh-store

# Fuzz smoke: each native fuzz target for 30s (mirrors the CI job).
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzMiniCParse$$' -fuzztime 30s ./internal/minic
	go test -run '^$$' -fuzz '^FuzzSnapshotRestore$$' -fuzztime 30s ./internal/interp
	go test -run '^$$' -fuzz '^FuzzSnapshotRestore$$' -fuzztime 30s ./internal/machine
	go test -run '^$$' -fuzz '^FuzzCompiledVsInterp$$' -fuzztime 30s ./internal/compile/irc
	go test -run '^$$' -fuzz '^FuzzConvergence$$' -fuzztime 30s ./internal/compile/irc
	go test -run '^$$' -fuzz '^FuzzAdaptiveDecision$$' -fuzztime 30s ./internal/adaptive
	go test -run '^$$' -fuzz '^FuzzMemoryModel$$' -fuzztime 30s ./internal/mem
	go test -run '^$$' -fuzz '^FuzzLoadCheckpoint$$' -fuzztime 30s ./internal/core
	go test -run '^$$' -fuzz '^FuzzWarehouseRecord$$' -fuzztime 30s ./internal/warehouse

# The exact CI pipeline (.github/workflows/ci.yml), runnable locally.
ci:
	go build ./...
	go vet ./...
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	go test ./...
	$(MAKE) race
	$(MAKE) smoke
	$(MAKE) resume-smoke
	$(MAKE) replay-determinism
	$(MAKE) compiled-smoke
	$(MAKE) obs-smoke
	$(MAKE) shard-smoke
	$(MAKE) fleet-smoke
	$(MAKE) adaptive-smoke
	$(MAKE) trace-smoke
	$(MAKE) warehouse-smoke
	$(MAKE) artifacts
	$(MAKE) fuzz-smoke

# All tables/figures + ablations. HLFI_N controls injections per cell.
# Also times single injection attempts against snapshot replay
# (BENCH_replay.json), against the compiled execution engines
# (BENCH_compiled.json), and fixed-n against adaptive early-stopping
# campaigns (BENCH_adaptive.json). Each emitter writes to a temp file that is
# moved into place only after its gate passes, so a failed run never
# clobbers the previous good BENCH_*.json artifacts.
bench:
	go test -bench=. -benchmem -benchtime=1x
	HLFI_BENCH_REPLAY=BENCH_replay.json.tmp go test -run '^TestWriteReplayBench$$' -count=1 .
	mv BENCH_replay.json.tmp BENCH_replay.json
	HLFI_BENCH_COMPILED=BENCH_compiled.json.tmp go test -run '^TestWriteCompiledBench$$' -count=1 .
	mv BENCH_compiled.json.tmp BENCH_compiled.json
	HLFI_BENCH_ADAPTIVE=BENCH_adaptive.json.tmp go test -run '^TestWriteAdaptiveBench$$' -count=1 .
	mv BENCH_adaptive.json.tmp BENCH_adaptive.json
	@cat BENCH_replay.json BENCH_compiled.json BENCH_adaptive.json

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
