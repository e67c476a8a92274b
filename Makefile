GO ?= go

.PHONY: all build test race lint lint-ignores loc bench perf-ledger vet fmt clean crash scenarios fuzz examples results

all: build vet lint test

build:
	$(GO) build ./...

test:
	$(GO) test -count=1 ./...

race:
	$(GO) test -race -count=1 ./...

# Durability gate: the journaled-state fence sweep (internal/wal), the
# full crash matrices (power cut at every journal write on both ends),
# the power cut at every step of the atomic image write, torn-tail
# truncation, journal-failure rejection, and the kill-and-restart on a
# real filesystem (internal/integration), under the race detector.
crash:
	$(GO) test -race -count=1 -run 'Crash|Torn|Journal|Recovery|Corrupt' \
		./internal/wal/ ./internal/crashfs/ ./internal/venus/ ./internal/server/ ./internal/cml/ ./internal/group/ ./internal/integration/

# Decoder fuzz gate: the wire codec's FuzzDecode, the server and Venus
# journals' FuzzJournalDecode and their images' FuzzLoadState, the rpc2 header parser's FuzzDecodePacket, the SFTP
# receive path's FuzzDeliver and the scenario parser's FuzzParseScenario
# (a .scn file is input from outside the process too), 10 s each (go
# test -fuzz takes one target in one package per run). A crasher is
# written to that package's testdata/fuzz/<target>/ — commit it with
# the fix.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecode$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzJournalDecode$$' -fuzztime=10s ./internal/server/
	$(GO) test -run='^$$' -fuzz='^FuzzJournalDecode$$' -fuzztime=10s ./internal/venus/
	$(GO) test -run='^$$' -fuzz='^FuzzLoadState$$' -fuzztime=10s ./internal/server/
	$(GO) test -run='^$$' -fuzz='^FuzzLoadState$$' -fuzztime=10s ./internal/venus/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodePacket$$' -fuzztime=10s ./internal/rpc2/
	$(GO) test -run='^$$' -fuzz='^FuzzDeliver$$' -fuzztime=10s ./internal/sftp/
	$(GO) test -run='^$$' -fuzz='^FuzzParseScenario$$' -fuzztime=10s ./internal/scenario/

# Scenario gate: the declarative corpus (parse, validate, run, golden
# dumps, determinism) plus the generated chaos matrix — the crash-point
# x victim x link-churn sweep expanded from crash_matrix.scn — all
# under the race detector, then the determinism tests sixteen times over:
# two same-seed runs must dump and export a trace of identical bytes
# however the Go scheduler orders goroutines runnable at one instant. `codascn run` then executes
# the runnable corpus through the CLI path as well.
scenarios:
	$(GO) test -race -count=1 ./internal/scenario/
	$(GO) test -race -count=16 -run 'TestRunDeterministic|TestGoldenTrace' ./internal/scenario/
	$(GO) run ./cmd/codascn validate internal/scenario/testdata/scenarios
	$(GO) run ./cmd/codascn matrix -run internal/scenario/testdata/scenarios/crash_matrix.scn

# Examples fence: the six examples are seeded sims on the public API, run
# (not just compiled) and their stdout diffed against the committed
# examples/<name>/expected.txt. A non-zero exit or any difference fails;
# a change that moves an example's output commits the new file.
examples:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
	for e in examples/*/; do echo "== $$e"; \
		$(GO) run ./$$e > "$$tmp" || exit 1; \
		diff -u "$${e}expected.txt" "$$tmp" || exit 1; \
	done

# Results fence: regenerate the paper's tables (results_full.txt, the
# full sweep, about half a minute) and the design-choice ablations
# (results_ablations.txt) into a temporary directory, and fail on any
# difference from the committed files (codabench prints its wall times
# to stderr, so the files hold none). A change that moves a figure
# commits the new files.
results:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/codabench" ./cmd/codabench && \
	"$$tmp/codabench" -o "$$tmp/results_full.txt" >/dev/null && \
	"$$tmp/codabench" -fig none -ablations -o "$$tmp/results_ablations.txt" >/dev/null && \
	for f in results_full.txt results_ablations.txt; do \
		diff -u "$$f" "$$tmp/$$f" || exit 1; \
	done && echo "results: results_full.txt and results_ablations.txt regenerate unchanged"

# Same wall-clock budget as CI so a local `make lint` catches an
# analysis-time regression before the workflow does.
lint:
	$(GO) run ./cmd/codalint -deadline 60s ./...

# Audit of every //codalint:ignore suppression (file:line, analyzer,
# reason).
lint-ignores:
	$(GO) run ./cmd/codalint -ignores ./...

# Size ledger: non-test, non-testdata Go lines per package and in total,
# then the suppression count — the two numbers a "net-negative" claim is
# read off.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -print0 | xargs -0 wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d total\n", t }'
	@$(GO) run ./cmd/codalint -ignores ./... | tail -1

bench:
	$(GO) test -run=^$$ -bench=. -benchtime=1x ./...

# Perf ledger: one full codaperf run (all four workloads end to end, the
# traced pass and the probes, ~3 min) recorded as this PR's row of the
# committed wall-clock trajectory. Usage: make perf-ledger PR=17
perf-ledger:
	@test -n "$(PR)" || { echo "usage: make perf-ledger PR=<number>"; exit 2; }
	$(GO) run ./cmd/codaperf -json BENCH_$(PR).json

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

clean:
	$(GO) clean ./...
