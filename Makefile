GO ?= go

.PHONY: check build fmt vet test race reach live fuzz-smoke bench-repo bench-pairs bench-seeds profile gc-trace repro repro-check repro-seeds chaos-smoke

## check: the full quality gate — formatting, build, vet, race-enabled
## tests, a fixed-seed chaos campaign, and the committed results/.
check: fmt build vet race chaos-smoke repro-check

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

## reach: the reachability census (DESIGN.md §6 "Reachability") — the gate
## TestReachability, which `make test` and `make race` run anyway, made
## to print what it counted: the exported fields of every config struct,
## the allowlist with its reasons, then the non-blank non-comment lines of
## non-test Go per package. Run it after adding an exported name or a
## config field; CI archives the output so the surface is diffable.
reach:
	$(GO) test -count=1 -run 'TestReachability$$' -v .
	@for d in . $$(find cmd examples internal bench -type d -not -path 'bench/out*' | sort); do \
		n=$$(cat /dev/null $$(ls $$d/*.go 2>/dev/null | grep -v _test.go) | grep -cv '^[[:space:]]*//\|^[[:space:]]*$$'); \
		[ $$n -gt 0 ] && printf 'lines  %6d  %s\n' $$n $$d; done; true

## live: dynamic reachability (ROADMAP 12) — which statements the runs a
## user can start actually execute, where `reach` asks which ones some
## root could call. Builds every cmd/* and examples/* main with -cover
## -coverpkg=kafkarel/..., runs each line of testdata/live-fixtures.txt
## (the CI invocations, every repro artefact at -n 4000 and the three
## chaos-smoke campaigns) in order in one scratch directory, merges their
## coverage counters with `go tool covdata`, and prints the statements run
## per package, then every function no fixture ran (0.0% in `go tool cover
## -func`). A failing fixture fails the target; the percentages gate
## nothing. The never-run listing is a ratchet (ROADMAP 25): it must equal
## testdata/never-run.txt as a sorted multiset of `<path>/<file>.go
## <func>` lines, so the target also fails on a never-run function the
## list lacks and on a listed function that now runs, naming each.
## Leaves no file in the tree; CI archives the listing.
live: SHELL := /bin/bash
live:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; mkdir -p $$tmp/bin $$tmp/cov $$tmp/run; \
	for d in cmd/* examples/*; do \
		$(GO) build -cover -coverpkg=kafkarel/... -o $$tmp/bin/$${d#*/} ./$$d || exit 1; \
	done; \
	while read -r main args; do \
		case "$$main" in ''|'#'*) continue;; esac; \
		if ! (cd $$tmp/run && GOCOVERDIR=$$tmp/cov $$tmp/bin/$$main $$args < /dev/null > /dev/null 2> $$tmp/err); then \
			cat $$tmp/err; echo "live: $$main $$args failed"; exit 1; fi; \
	done < testdata/live-fixtures.txt; \
	$(GO) tool covdata percent -i=$$tmp/cov | sort -k1,1 || exit 1; \
	$(GO) tool covdata textfmt -i=$$tmp/cov -o $$tmp/cov.txt && \
	$(GO) tool cover -func=$$tmp/cov.txt | awk '$$NF == "0.0%"' > $$tmp/never || exit 1; \
	awk '{print "never run  " $$1 " " $$2}' $$tmp/never; \
	export LC_ALL=C; \
	awk '{sub(/^kafkarel\//, "", $$1); sub(/:[0-9]+:$$/, "", $$1); print $$1 " " $$2}' $$tmp/never | sort > $$tmp/found; \
	grep -v '^#' testdata/never-run.txt | grep . | sort > $$tmp/listed; \
	comm -23 $$tmp/found $$tmp/listed | sed 's|^|live: never run, and not in testdata/never-run.txt: |' > $$tmp/diff; \
	comm -13 $$tmp/found $$tmp/listed | sed 's|^|live: in testdata/never-run.txt, but now run (remove the line): |' >> $$tmp/diff; \
	if [ -s $$tmp/diff ]; then cat $$tmp/diff; exit 1; fi

## fuzz-smoke: a few seconds of native fuzzing on each target of the
## byte-level protocol (internal/wire/fuzz_test.go), of the replicated
## log (internal/storage/replica_test.go: three replicas appending,
## truncating and catching up against a model), of a partition's producer
## and transaction state (internal/broker: appends, markers, crashes and
## catch-ups with producer ids in any order, against a map model of the
## flush checkpoint), of the predictor file
## reader (internal/core: a file Load accepts predicts a probability), of
## the event kernel (internal/des: fuzz bytes drive the model-checked
## interleavings of heap and lane events), of the experiment
## configuration (internal/testbed: one field of a valid experiment
## mutated; an error or a run bounded by its horizon and the event cap),
## of the fleet configuration (internal/testbed: the same oracle, one
## field of a small fleet mutated) and of the dense key tally (internal/consumer: range sets with gaps,
## empty ranges, key 0 and foreign keys, against a map reconciler) —
## one invocation per target because `go test -fuzz` takes exactly one,
## nothing downloaded.
## The seed corpus already runs in `make test`; this leg mutates it. A
## crasher is written to internal/<pkg>/testdata/fuzz/<target>/ and fails
## the run: commit it with the fix, and it is a regression test from then on.
fuzz-smoke:
	@for t in wire:FuzzSplitter wire:FuzzDecode wire:FuzzSlabClone storage:FuzzLogReplicas broker:FuzzPartitionState core:FuzzPredictorLoad des:FuzzModel testbed:FuzzExperiment testbed:FuzzFleet consumer:FuzzKeyRanges; do \
		$(GO) test ./internal/$${t%%:*} -run '^$$' -fuzz "^$${t#*:}\$$" -fuzztime 3s || exit 1; done

## bench-repo: the repository benchmark's headline pass (BENCHMARK.json;
## bench/README.md says what each number means): host cost per simulated
## record on the four workloads, written to bench/out/head.json. Compare
## two result sets with `go run ./bench -agree a.json b.json`. A perf claim
## is measured with `make bench-pairs`, below, not with one run of this.
bench-repo:
	$(GO) run ./bench -trace 0 -o bench/out/head.json

## bench-pairs: the standing rule for a perf claim as one command —
## make bench-pairs WORKLOAD=fleet_fanout PARENT=<git ref> [PAIRS=10] [REPEATS=n]
## builds ./bench from a clean export of PARENT and from this tree (into
## bench/out/pairs/), runs the two binaries alternately at `-seed 2 -trace 0`
## — odd pairs parent first, even pairs change first — and prints every run
## with the four end-to-end metrics of BENCHMARK.json (wall_ns_per_record,
## allocs_per_record, alloc_bytes_per_record, setup_s; its full output
## stays in bench/out/pairs/<pair>-<side>.txt), then each side's quartiles
## (nearest rank) and, for each of the four metrics, how many pairs each
## side won (lower wins), the change/parent ratio of the medians, the
## median of the per-pair change/parent ratios, and the exact one-sided
## sign-test p that the change is lower, over the pairs that are not ties
## (9 of 10 → 0.011, 10 of 10 → 0.001) — a claim's "won >= 9 of 10",
## "ratio <= x" and "nothing else moved" read off one command. Fails if a run is not correct=true or the fingerprints
## differ. cpu_s is the process's user+system time: at the default run
## length (a fixed 20 s of repeats) it says nothing; give REPEATS to
## compare it.
PAIRS ?= 10
bench-pairs: SHELL := /bin/bash
bench-pairs:
	@test -n "$(PARENT)" || { echo "usage: make bench-pairs WORKLOAD=<name> PARENT=<git ref> [PAIRS=10] [REPEATS=n]"; exit 2; }
	@out=bench/out/pairs; rm -rf $$out && mkdir -p $$out/src && git archive $(PARENT) | tar -x -C $$out/src && \
	(cd $$out/src && $(GO) build -o ../parent ./bench) && $(GO) build -o $$out/change ./bench || exit 1; \
	TIMEFORMAT='%U %S'; fail=0; \
	metric() { sed -n "s/^  $$1 *\([0-9.]*\) .*/\1/p" $$out/$$i-$$side.txt; }; \
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi; \
		for side in $$order; do \
			cpu=$$( { time $$out/$$side -workload $(WORKLOAD) -seed 2 -trace 0 $(if $(REPEATS),-repeats $(REPEATS)) > $$out/$$i-$$side.txt 2>&1; } 2>&1 | awk '{print $$1 + $$2}'); \
			wall=$$(metric wall_ns_per_record); allocs=$$(metric allocs_per_record); bytes=$$(metric alloc_bytes_per_record); setup=$$(metric setup_s); \
			fp=$$(sed -n 's/^  sim_fingerprint //p' $$out/$$i-$$side.txt); \
			ok=$$(grep -o -m1 'correct=[a-z]*' $$out/$$i-$$side.txt); \
			echo "pair $$i $$side wall_ns_per_record=$$wall allocs_per_record=$$allocs alloc_bytes_per_record=$$bytes setup_s=$$setup cpu_s=$$cpu $$ok sim_fingerprint=$$fp"; \
			echo "$$i $$side $$wall $$cpu $$fp $$allocs $$bytes $$setup" >> $$out/runs.txt; \
			[ "$$ok" = correct=true ] || { echo "bench-pairs: $$side run of pair $$i is not correct=true"; fail=1; }; \
		done; \
	done; \
	quart() { sort -n | awk '{a[NR] = $$1} END {print "q1=" a[int((NR + 3) / 4)], "median=" (NR % 2 ? a[(NR + 1) / 2] : (a[NR / 2] + a[NR / 2 + 1]) / 2), "q3=" a[int((3 * NR + 3) / 4)]}'; }; \
	field() { awk -v s=$$1 -v f=$$2 '$$2 == s {print $$f}' $$out/runs.txt; }; \
	metrics="wall_ns_per_record:3 allocs_per_record:6 alloc_bytes_per_record:7 setup_s:8"; \
	for side in parent change; do \
		for m in $$metrics cpu_s:4; do echo "$$side $${m%:*} $$(field $$side $${m#*:} | quart)"; done; \
	done; \
	median() { field $$1 $$2 | quart | sed 's/.*median=\([^ ]*\).*/\1/'; }; \
	for m in $$metrics; do \
		f=$${m#*:}; \
		awk -v m=$${m%:*} -v f=$$f -v mc=$$(median change $$f) -v mp=$$(median parent $$f) '{v[$$2, $$1] = $$f} END { \
			n = NR / 2; k = 0; \
			for (i = 1; i <= n; i++) { \
				c += v["change", i] < v["parent", i]; p += v["parent", i] < v["change", i]; \
				if (v["parent", i] != 0) { r = v["change", i] / v["parent", i]; for (j = k++; j > 0 && rs[j] > r; j--) rs[j + 1] = rs[j]; rs[j + 1] = r } \
			} \
			pr = k % 2 ? rs[(k + 1) / 2] : (rs[k / 2] + rs[k / 2 + 1]) / 2; \
			u = c + p; tail = 0; comb = 1; \
			for (j = 0; j <= u; j++) { if (j >= c) tail += comb; comb = comb * (u - j) / (j + 1) } \
			printf "%s: pairs won change %d, parent %d, of %d; median ratio change/parent %.4f (%s / %s); median per-pair ratio %.4f; sign-test p %.3f (change lower in %d of %d untied pairs)\n", m, c, p, n, mc / mp, mc, mp, pr, tail / 2 ^ u, c, u \
		}' $$out/runs.txt; \
	done; \
	[ "$$(awk '{print $$5}' $$out/runs.txt | sort -u | wc -l)" = 1 ] || { echo "bench-pairs: sim_fingerprint differs between runs"; fail=1; }; \
	exit $$fail

## bench-seeds: the repository benchmark as a correctness sweep over
## seeds — one untimed repeat each, so a seed-dependent failure (a chaos
## verifier tripping on one generated plan in thirty) is found here and
## not by whoever next runs the benchmark at a seed nobody tried.
## chaos_mix, whose fault plans the seed generates, runs at every seed of
## CHAOS_SEEDS; the other three workloads at 1, 2 and 45798949 (the seed
## that exposed the recovered-replica bug). Fails on any correct=false
## and, at seed 1, on a fingerprint that left bench/golden.json.
## make bench-seeds PARENT=<git ref> also builds ./bench from a clean
## export of PARENT (into bench/out/seeds/, as bench-pairs does), runs it
## at every same workload and seed, and fails on any seed whose
## sim_fingerprint differs from the parent's: "simulated behaviour
## unchanged at all sixteen chaos seeds" as one command, for a change to
## the recovery path or any other change that must not move a run.
CHAOS_SEEDS = 1 2 45798949 3 5 7 11 13 17 101 202 4242 65537 20260806 271828182 3141592653
bench-seeds: SHELL := /bin/bash
bench-seeds:
	@mkdir -p bench/out && $(GO) build -o bench/out/bench-seeds ./bench
	@$(if $(PARENT),out=bench/out/seeds; rm -rf $$out && mkdir -p $$out/src && git archive $(PARENT) | tar -x -C $$out/src && \
		(cd $$out/src && $(GO) build -o ../parent ./bench) || exit 1)
	@fail=0; \
	fingerprint() { sed -n 's/^  sim_fingerprint //p' <<< "$$1"; }; \
	run() { out="$$(bench/out/bench-seeds -workload $$1 -seed $$2 -trace 0 -repeats 1 2>&1)"; \
		echo "$$out" | grep -E '^workload|FAILED' | sed "s/^/seed $$2: /"; \
		if echo "$$out" | grep -qE 'correct=false|sim_stats_changed: true' || ! echo "$$out" | grep -q 'correct=true'; then \
			echo "bench-seeds: $$1 at seed $$2 failed"; fail=1; fi; \
		if [ -n "$(PARENT)" ]; then \
			fp=$$(fingerprint "$$out"); pfp=$$(fingerprint "$$(bench/out/seeds/parent -workload $$1 -seed $$2 -trace 0 -repeats 1 2>&1)"); \
			if [ -z "$$fp" ] || [ "$$fp" != "$$pfp" ]; then \
				echo "bench-seeds: $$1 at seed $$2: sim_fingerprint $$fp, $(PARENT) has $$pfp"; fail=1; \
			else echo "seed $$2: sim_fingerprint equals $(PARENT)'s"; fi; \
		fi; }; \
	for s in $(CHAOS_SEEDS); do run chaos_mix $$s; done; \
	for w in fig7_sweep ingest_steady fleet_fanout; do for s in 1 2 45798949; do run $$w $$s; done; done; \
	exit $$fail

## profile: CPU + heap profiles (cpu.pprof / heap.pprof) of one
## repository-benchmark workload — make profile WORKLOAD=ingest_steady;
## fig7_sweep when not given — run sequentially at GOMAXPROCS=1 as the
## benchmark's headline pass is, at a fixed seed and run count, plus the
## top-40 tables of CPU time, allocated bytes and allocated objects
## (cpu-top.txt / alloc-top.txt / alloc-objects-top.txt). The two heap
## tables are exact counts of one further pass run after the CPU profile
## stopped, with every allocation recorded, not sampled estimates. Read
## the object table too: many small allocations cost mallocgc and GC time
## that the byte table ranks last.
WORKLOAD ?= fig7_sweep
profile:
	GOMAXPROCS=1 $(GO) run ./cmd/profile -workload $(WORKLOAD)
	$(GO) tool pprof -top -nodecount 40 cpu.pprof > cpu-top.txt
	$(GO) tool pprof -top -nodecount 40 -sample_index=alloc_space heap.pprof > alloc-top.txt
	$(GO) tool pprof -top -nodecount 40 -sample_index=alloc_objects heap.pprof > alloc-objects-top.txt

## gc-trace: how long the collector's mark phases stay open — make
## gc-trace WORKLOAD=chaos_mix — over the benchmark's headline pass of one
## workload (`go run ./bench -workload … -seed 2 -trace 0 -repeats 2`,
## built first so that the go tool's own collections stay out) under
## GODEBUG=gctrace=1. Prints the cycles, their summed and mean
## concurrent-mark clock (the middle term of gctrace's "a+b+c ms clock")
## and that sum's share of the wall time; the pass and its set-up children
## run one at a time, so the share is of time a simulation could have
## used. The write barrier is on for exactly this long: a mean far above
## the ~0.6 ms a 25 % mark worker needs on these heaps means the mark
## worker is waiting for a P (DESIGN.md §7, "What the run loop owes the
## runtime"). The raw trace stays in bench/out/gc-trace.txt.
gc-trace: SHELL := /bin/bash
gc-trace:
	@mkdir -p bench/out && $(GO) build -o bench/out/gc-trace ./bench
	@start=$$(date +%s%N); \
	GODEBUG=gctrace=1 bench/out/gc-trace -workload $(WORKLOAD) -seed 2 -trace 0 -repeats 2 2> bench/out/gc-trace.txt | grep -E '^workload|^  wall_ns_per_record' || exit 1; \
	awk -v wall=$$((($$(date +%s%N) - start) / 1000000)) \
		'/^gc [0-9]+ @/ {split($$5, clock, "+"); cycles++; mark += clock[2]} \
		END {if (!cycles) {print "gc-trace: no gctrace lines"; exit 1}; \
			printf "gc cycles=%d concurrent_mark_ms=%.0f mean_ms=%.2f wall_ms=%d share=%.1f%%\n", cycles, mark, mark / cycles, wall, 100 * mark / wall}' \
		bench/out/gc-trace.txt

repro:
	$(GO) run ./cmd/repro -n 20000 all

## repro-check: the committed artefacts in results/ are what this tree
## prints. Each one is regenerated with `repro -q -n 20000 -seed 1
## <artefact>` (ann-accuracy is written to ann.txt) and compared byte for
## byte; a differing file fails the target. After a change that moves
## simulated behaviour, regenerate the files with the same command and
## commit them with the change. ~10 s.
REPRO_ARTEFACTS = fig4 fig5 fig6 fig7 fig8 fig9 table1 table2 ann-accuracy sensitivity throughput latency
repro-check:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; $(GO) build -o $$tmp/repro ./cmd/repro || exit 1; \
	fail=0; for a in $(REPRO_ARTEFACTS); do \
		f=$$a; [ $$a = ann-accuracy ] && f=ann; \
		if ! $$tmp/repro -q -n 20000 -seed 1 $$a > $$tmp/$$f.txt 2> $$tmp/err; then \
			cat $$tmp/err; echo "repro-check: repro $$a failed"; fail=1; \
		elif ! cmp -s $$tmp/$$f.txt results/$$f.txt; then \
			diff results/$$f.txt $$tmp/$$f.txt | head -20; \
			echo "repro-check: results/$$f.txt differs from repro -q -n 20000 -seed 1 $$a"; fail=1; fi; \
	done; exit $$fail

## repro-seeds: one artefact as a distribution over seeds —
## make repro-seeds A=table2 [SEEDS="1 2 3 4 5 6 7 8"] runs
## `repro -q -n 20000 -seed s A` per seed and prints every output row
## prefixed with its seed and a tab, so a verdict is read as a count over
## seeds (k/8) with its range, not from seed 1 alone. A failing run
## prints its stderr and fails the target. table2 takes ~16 s on 2 cores.
SEEDS ?= 1 2 3 4 5 6 7 8
repro-seeds:
	@test -n "$(A)" || { echo 'usage: make repro-seeds A=<artefact> [SEEDS="1 2 ... 8"]'; exit 2; }
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; $(GO) build -o $$tmp/repro ./cmd/repro || exit 1; \
	for s in $(SEEDS); do \
		if ! $$tmp/repro -q -n 20000 -seed $$s $(A) > $$tmp/out 2> $$tmp/err; then \
			cat $$tmp/err; echo "repro-seeds: repro -seed $$s $(A) failed"; exit 1; fi; \
		sed "s/^/$$s	/" $$tmp/out; \
	done

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
## chaos-coop-scorecard.json (generated, git-ignored; CI archives all
## three, and TestSmokeScorecardsPinned in internal/chaos/campaign pins
## their content by hash).
chaos-smoke:
	$(GO) run ./cmd/chaos -trials 60 -seed 20260806 -e2e -out chaos-scorecard.json
	$(GO) run ./cmd/chaos -txn -trials 60 -seed 20260806 -out chaos-txn-scorecard.json
	$(GO) run ./cmd/chaos -coop -trials 60 -seed 20260806 -out chaos-coop-scorecard.json
