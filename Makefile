GO ?= go

.PHONY: check build fmt vet test race bench bench-repo bench-json bench-scaling bench-gate profile repro chaos-smoke shim-gate

## check: the full quality gate — formatting, build, vet, race-enabled
## tests, the retired-shim grep gate, and a fixed-seed chaos campaign.
check: fmt build vet race shim-gate chaos-smoke

## fmt: gofmt gate — fails listing any file that is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

## race: the tier-1 suite under the race detector; the exprun worker
## pool and every parallelised call path must stay race-clean.
race:
	$(GO) test -race ./...

bench:
	$(GO) test -run xxx -bench=. -benchmem

## bench-repo: the repository benchmark's headline pass (BENCHMARK.json;
## bench/README.md says what each number means): host cost per simulated
## record on the four workloads, written to bench/out/head.json. Compare
## two result sets with `go run ./bench -agree a.json b.json`.
bench-repo:
	$(GO) run ./bench -trace 0 -o bench/out/head.json

## bench-json: the observability benchmarks (obs overhead, timeline,
## exprun scaling, fleet) as a machine-readable artefact. EXPERIMENTS.md
## documents the JSON format.
bench-json:
	{ $(GO) test -run xxx -bench 'Observability|Timeline|ExprunScaling|Fleet' -benchmem -benchtime 3x . ; \
	  $(GO) test -run xxx -bench SpanPath -benchmem -benchtime 200000x . ; \
	  $(GO) test -run xxx -bench 'CommitPath|Rebalance' -benchmem -benchtime 2000x ./internal/coordinator ; } \
		| $(GO) run ./cmd/benchjson > BENCH_obs.json

## bench-scaling: wall-time of figure reproduction vs worker count
## (EXPERIMENTS.md records the results).
bench-scaling:
	$(GO) test -run xxx -bench 'ExprunScaling|Fig3SweepScaling' -benchtime 3x .

## bench-gate: the allocation-regression gate. Reruns the fig7 scaling
## and fleet scaling benchmarks, converts them to JSON, and fails if
## ns/op or allocs/op regressed more than 20% against the committed
## BENCH_obs.json baseline. Keeps issue 5's hot-path wins locked in and
## issue 6's fleet fan-out honest. The fleet workload is ~4x shorter
## per op than fig7 and proportionally noisier at -benchtime 3x, so its
## ns gate is wider; its allocs gate is as deterministic as fig7's.
## CommitPath locks in the coordinator's pooled durable-commit path
## (4 allocs/op steady state) and, via the same substring,
## TxnCommitPath — the full transactional begin/produce/send-offset/
## two-phase-commit cycle; its per-op wall time is ~1us and noisy,
## so the ns gate is wide while the allocs gate stays tight. SpanPath
## locks in the per-record latency-span observation (~60ns, 0 allocs);
## a zero-alloc baseline cannot gate allocations, so
## TestSpanPathZeroAllocs enforces that half and the gate here watches
## wall time with a wide bar. Rebalance locks in the coordinator-side
## generation bump (six cooperative members, sticky assignor, join
## barrier through sync-to-Stable) — the control-plane path the
## cooperative protocol takes twice per membership change; like
## CommitPath its per-op wall time is noisy at the microsecond scale,
## so the ns gate is wide and the allocs gate does the real work.
bench-gate:
	{ $(GO) test -run xxx -bench 'ExprunScaling|FleetScaling' -benchmem -benchtime 3x . ; \
	  $(GO) test -run xxx -bench SpanPath -benchmem -benchtime 200000x . ; \
	  $(GO) test -run xxx -bench 'CommitPath|Rebalance' -benchmem -benchtime 2000x ./internal/coordinator ; } \
		| $(GO) run ./cmd/benchjson > BENCH_fresh.json
	$(GO) run ./cmd/benchgate -baseline BENCH_obs.json -fresh BENCH_fresh.json -match fig7
	$(GO) run ./cmd/benchgate -baseline BENCH_obs.json -fresh BENCH_fresh.json -match FleetScaling \
		-max-regression 0.40
	$(GO) run ./cmd/benchgate -baseline BENCH_obs.json -fresh BENCH_fresh.json -match CommitPath \
		-max-regression 0.60
	$(GO) run ./cmd/benchgate -baseline BENCH_obs.json -fresh BENCH_fresh.json -match SpanPath \
		-max-regression 0.60
	$(GO) run ./cmd/benchgate -baseline BENCH_obs.json -fresh BENCH_fresh.json -match Rebalance \
		-max-regression 0.60

## profile: CPU + heap profiles of a fixed-seed sequential Fig. 7
## reproduction (cpu.pprof / heap.pprof). Inspect with
## `go tool pprof -top cpu.pprof`.
profile:
	$(GO) run ./cmd/profile

repro:
	$(GO) run ./cmd/repro -n 20000 all

## chaos-smoke: a fixed-seed end-to-end fault-injection campaign (60
## trials per mode, exactly-once and at-least-once) with a two-member
## consumer group committing through the coordinator on every trial,
## verified against the producer, broker, and end-to-end delivery
## invariants, plus a 60-trial transactional campaign (consume-process-
## produce pipeline at read_committed, zombie/crash/unclean faults,
## VerifyTxn exactly-once invariants), plus a 60-trial cooperative-
## churn campaign (two six-member groups per trial under generated
## redelivery-storm plans — overlapping broker outages that leave the
## rf=3/min-ISR-2 offsets log readable but unwritable, with correlated
## consumer restarts — each trial verified by VerifyE2E + VerifyCoop
## and paired with an identically-seeded eager control run). Exits
## non-zero on any violation; the JSON scorecards land in
## chaos-scorecard.json, chaos-txn-scorecard.json and
## chaos-coop-scorecard.json (CI archives all three).
chaos-smoke:
	$(GO) run ./cmd/chaos -trials 60 -seed 20260806 -e2e -out chaos-scorecard.json
	$(GO) run ./cmd/chaos -txn -trials 60 -seed 20260806 -out chaos-txn-scorecard.json
	$(GO) run ./cmd/chaos -coop -trials 60 -seed 20260806 -out chaos-coop-scorecard.json

## shim-gate: issue 7 retired the consumer group's local committed-
## offsets map in favour of the coordinator's durable offsets log; this
## grep keeps the shim from quietly growing back.
shim-gate:
	@if grep -q 'committed map\[int32\]int64' internal/consumer/group.go; then \
		echo "internal/consumer/group.go regrew a local committed-offsets map;"; \
		echo "commits must flow through the coordinator's offsets log"; exit 1; fi
