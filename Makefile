# Test tiers (see DESIGN.md §8 "Testing architecture"):
#   test-short  — seconds; skips everything that trains an ensemble
#   test        — tier-1 gate: build + vet + all tests + serve-smoke +
#                 audit-smoke + bench-check + rank-check
#   rank-check  — the score memo's parity, invalidation, cancellation,
#                 stored-median and race tests, core's day-block,
#                 critic-order, scoring-grid parity, mid-grid cancellation,
#                 first-error and concurrent-scoring tests, the daemon's
#                 group table against the batch GroupTable (live, after a
#                 crash and after resumed closes), and the
#                 deviation stream's parity, row-partitioned and
#                 frozen-header tests, under the race detector (seconds):
#                 every served list equals the uncached one and no user-day
#                 is scored twice, with closes, retrains and rankers running
#                 at once, the group fill's plane workers write one table
#                 without a race, and row-partitioned streams read their own
#                 tables' leaving days while they advance concurrently into
#                 one shared field
#   bench-check — vet and toy-scale test of the bench/ referee harness (a
#                 module of its own, so `go test ./...` does not see it;
#                 it compiles against serve/deviation/daemon internals)
#   test-race   — full suite under the race detector (slow; CI tier)
#   fuzz-smoke  — each native fuzz target for $(FUZZTIME) on top of its corpus
#   serve-smoke — boot the acobed daemon selftest (real HTTP listener:
#                 ingest → close days → retrain → rank) and diff its ranked
#                 CSV against the committed golden copy
#   audit-smoke — tiny audited ingest via acobed (-audit-smoke), offline
#                 -verify must pass, then flip one sealed byte and -verify
#                 must exit non-zero (the CLI face of the tamper matrix in
#                 internal/serve/audit_tamper_test.go)
#   bench       — the micro-benchmarks: nn kernels, train step, batched
#                 scoring, critic, served rank, daemon ingest (shards 1
#                 and 4), the per-event extraction kernel (CERT
#                 and enterprise: ns and allocs per event, ms per day
#                 closed, 500 users), the Event wire codec against
#                 encoding/json and the HTTP ingest handler per 500-event
#                 body, audit chain fold, observer hooks, one snapshot
#                 publish and load (users 250 and 2000: MB/s, allocs/op),
#                 one recovery at shards 1/2/4 with its load/walk/replay/
#                 publish split, the persist codec's float path — one
#                 `go test -bench` run, benchstat-readable text on stdout
#                 (add -count=10 to the printed command to compare runs).
#                 Serving numbers come from `bash bench/run.sh`, not here.
#   load        — on demand (~4 min and ~8.5 GB resident on 2 cores):
#                 acobeload against an in-process 100k-user daemon
#                 (closed-loop concurrency sweep, ranks/s during retrain,
#                 rank-during-close probe); the JSON report goes to stdout
#                 and nowhere else
#   vet         — static checks: go vet, go vet of internal/nn for arm64
#                 (keeps the scalar fallback and its stubs compiling), and
#                 gofmt -l must list nothing (bench/out/ excepted)
#   loc         — non-test, non-generated Go lines per package, the counts
#                 the simplicity PRs quote (`make loc | grep internal/serve`)
#   golden-update — regenerate testdata/golden snapshots after an intended
#                   behavior change; run twice and `git diff` to prove the
#                   pipelines are still deterministic

GO ?= go
FUZZTIME ?= 10s

FUZZ_TARGETS = \
	./internal/cert:FuzzReadEventsCSV \
	./internal/cert:FuzzParseDay \
	./internal/dga:FuzzDomains \
	./internal/logstore:FuzzReadJSONL \
	./internal/deviation:FuzzSigma \
	./internal/serve:FuzzWALDecode \
	./internal/serve:FuzzShardRouter \
	./internal/serve:FuzzManifestDecode \
	./internal/serve:FuzzEventCodec \
	./internal/serve:FuzzSnapshotFile \
	./internal/audit:FuzzProofDecode \
	./internal/audit:FuzzAuditTrailerDecode \
	./internal/persist:FuzzPersistReader \
	./internal/features:FuzzOpenDayState \
	./internal/features:FuzzExtractorState \
	./internal/enterprise:FuzzExtractorState \
	./internal/nn:FuzzModelLoad

.PHONY: build test test-short test-race bench load bench-check rank-check fuzz-smoke serve-smoke audit-smoke vet loc golden-update

build:
	$(GO) build ./...

test: build vet
	$(GO) test ./...
	$(MAKE) serve-smoke
	$(MAKE) audit-smoke
	$(MAKE) bench-check
	$(MAKE) rank-check

rank-check:
	$(GO) test -race -count=1 -run 'RankMemo|RankDuringMergeSwapRace|ShardParityTrainedRanks|GroupTableMatchesBatch|RankingMatchesReference|DayBlocks|RankBlocks|CriticOrdersSpecialScores|ScoreGrid|FirstErrorMixedTypes|ScoreBatchConcurrent|ConcurrentScoring' ./internal/serve ./internal/core
	$(GO) test -race -count=1 -run 'StreamField|RowPartitioned|FrozenHeader' ./internal/deviation

bench-check:
	(cd bench && $(GO) vet . && $(GO) test .)

test-short:
	$(GO) vet ./...
	$(GO) test -short ./...

test-race:
	$(GO) test -race -timeout 90m ./...

bench:
	$(GO) test -run '^$$' -bench '^Benchmark(NNMatMul|MatMulATB|MatMulABT|MatMulDirectDispatch|TrainStep|DetectorFit|ScoreBatch|Critic|ServeRank|ServeIngest|ExtractorApply|GroupTable|EventCodec|HandleIngest|SnapshotWrite|SnapshotLoad|Recover|PersistF64s|ChainFold.*|Observe.*)$$' -benchmem -timeout 60m . ./internal/nn ./internal/features ./internal/enterprise ./internal/serve ./internal/persist ./internal/audit ./internal/obs

load:
	$(GO) run ./cmd/acobeload -self -users 100000 -shards 4 -days 2 -concurrency 2,4 -batch 5000

fuzz-smoke:
	@set -e; for t in $(FUZZ_TARGETS); do \
		pkg=$${t%%:*}; fn=$${t##*:}; \
		echo "--- $$pkg $$fn"; \
		$(GO) test $$pkg -run "^$$fn$$" -fuzz "^$$fn$$" -fuzztime $(FUZZTIME); \
	done

serve-smoke:
	@echo "--- acobed selftest (online serving smoke, one shard)"
	@$(GO) run ./cmd/acobed -selftest | diff -u cmd/acobed/testdata/golden/selftest.csv - \
		&& echo "serve-smoke: ranked list matches golden"
	@echo "--- acobed selftest (online serving smoke, -shards 4)"
	@$(GO) run ./cmd/acobed -selftest -shards 4 | diff -u cmd/acobed/testdata/golden/selftest.csv - \
		&& echo "serve-smoke: 4-shard ranked list matches golden"
	@echo "--- acobeload smoke (small closed-loop sweep + retrain against an in-process daemon)"
	@$(GO) run ./cmd/acobeload -self -users 100 -shards 2 -days 2 -concurrency 1,2 -batch 500 >/dev/null \
		&& echo "serve-smoke: acobeload sweep + retrain phase ok"

audit-smoke:
	@set -e; dir=$$(mktemp -d); trap "rm -rf $$dir" EXIT; \
	echo "--- acobed audit smoke (provable ingest -> verify; tamper -> verify fails)"; \
	$(GO) run ./cmd/acobed -audit-smoke -data-dir $$dir >/dev/null; \
	$(GO) run ./cmd/acobed -verify -data-dir $$dir >/dev/null \
		&& echo "audit-smoke: untampered chain verifies"; \
	seg=$$(ls $$dir/wal/wal-*.log | head -1); \
	printf '\377' | dd of=$$seg bs=1 seek=0 count=1 conv=notrunc status=none; \
	if $(GO) run ./cmd/acobed -verify -data-dir $$dir >/dev/null 2>&1; then \
		echo "audit-smoke: FAIL: tampered chain verified"; exit 1; \
	else echo "audit-smoke: tamper detected, -verify exits non-zero"; fi

vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/nn
	@unformatted=$$(gofmt -l . | grep -v '^bench/out/'); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l: needs formatting:"; echo "$$unformatted"; exit 1; fi

loc:
	@$(GO) list -f '{{.ImportPath}} {{.Dir}}' ./... | while read pkg dir; do \
		n=$$(find $$dir -maxdepth 1 -name '*.go' ! -name '*_test.go' \
			-exec grep -L '^// Code generated .* DO NOT EDIT' {} + | xargs cat | wc -l); \
		printf '%7d  %s\n' $$n $$pkg; \
	done

golden-update:
	$(GO) test ./internal/testkit ./internal/experiment ./cmd/repro ./cmd/acobed -run 'Golden' -update -count=1
