GO ?= go

.PHONY: all build test race lint lint-structure lint-ignores loc bench perf-ledger vet fmt clean crash scenarios fuzz examples results

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
# under the race detector, then the determinism test sixteen times over:
# two same-seed runs must dump identical bytes however the Go scheduler
# orders goroutines runnable at one instant. `codascn run` then executes
# the runnable corpus through the CLI path as well.
scenarios:
	$(GO) test -race -count=1 ./internal/scenario/
	$(GO) test -race -count=16 -run TestRunDeterministic ./internal/scenario/
	$(GO) run ./cmd/codascn validate internal/scenario/testdata/scenarios
	$(GO) run ./cmd/codascn matrix -run internal/scenario/testdata/scenarios/crash_matrix.scn

# The six examples are seeded sims on the public API: run, not just
# compiled. Any non-zero exit fails.
examples:
	@for e in examples/*/; do echo "== $$e"; $(GO) run ./$$e || exit 1; done

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

# Structural fences, the one copy CI calls too. The first grep keeps
# encoding/gob out of the module: every byte format is the wire codec's.
# The next two keep world assembly in internal/world (cmd/codaperf has
# its own until it moves): nothing else outside tests constructs a Sim
# or a fault-injectable disk. The last three keep the update pipeline in
# one place each: records are admitted, journaled and committed only by
# the server's batch functions in apply.go, so every server state change
# commits there (administrative writes included), Venus sends a
# connected-mode mutation from one line (update's), and ships a chunk
# from one call site (shipRecords').
# Then the one replication rule: a log entry is pushed from one call site
# (shipToPeers', reached only from a client commit), never relayed. And no
# Sleep(0) orders same-instant goroutines outside the kernel that defines it.
# Last, the copy ledger (DESIGN.md §4.11): file contents are immutable once
# published, so a defensive append([]byte(nil), x.Data...) belongs only at
# the three trust edges that spell it that way (Venus.WriteFile,
# Server.WriteFile, Server.ReadFile); a fourth fails here until the ledger
# has a row for it. Then one count per event: a Venus or server Stats
# count is its own field, read by the registry through CounterFunc, so
# no met.<handle> for one of those events comes back beside it. And a
# cached directory is listed from its kept, sorted name list: Venus
# calls ChildNames( from one place, the builder of that list
# (fso.listing), so no second per-call sort comes back. Last, a
# directory's Length is kept by one rule: outside internal/codafs
# (Object.SetEntry / DropEntry) exactly one line writes into a Children
# map, the wire coder's Object walk handing it to Map. Every byte format
# is a walk over wire.Coder, so no non-test file outside internal/wire
# names the per-field framing functions or the Reader the Coder replaced
# (wire.Append..., wire.NewReader, wire.Reader). And contents are replaced, never written
# through: no non-test line in Venus or codafs copies into, assigns into
# or appends onto a .Data slice, which is what lets Venus.ViewFile hand
# out the cache's own bytes as a snapshot. Last, a record has one effect,
# cml.Record.Apply, on the server and in the client cache alike: outside
# internal/cml nothing counts a link up or down or enters or drops a
# directory entry: the server's administrative writes are records too.
# And a cache hit's path memo stays true by one rule: in Venus only
# cache.install, cache.recharge and cache.remove write the namespace
# generation (cache.gen), and only walk reads or writes the memo
# (Venus.memo, Venus.memoGen). And rpc2 serves each request as a tracked
# goroutine of its own: outside tests it starts one only in Node.serve,
# which under Sim runs on a carrier the clock reuses; its datagrams are
# served by the conn (PacketConn.Serve), on no goroutine of rpc2's. And
# the server stages a batch in
# place with an undo list, so a batch costs what its records change:
# server/apply.go calls no .Clone() (a directory's clone copies its whole
# entry map).
lint-structure:
	! grep -rn --include='*.go' '"encoding/gob"' .
	! grep -rn --include='*.go' --exclude='*_test.go' 'simtime\.NewSim(' . | grep -v -e '^./internal/simtime/' -e '^./internal/world/' -e '^./cmd/codaperf/'
	! grep -rn --include='*.go' --exclude='*_test.go' 'crashfs\.NewMem(' . | grep -v -e '^./internal/crashfs/' -e '^./internal/world/' -e '^./cmd/codaperf/'
	! grep -rn --include='*.go' --exclude='*_test.go' -e 'admitRecord(' -e 'journalBatchLocked(' -e 'commitApply(' . | grep -v -e '^./internal/server/apply.go:' -e ':func '
	! grep -n '\.Clone()' internal/server/apply.go
	test "$$(grep -rn --include='*.go' --exclude='*_test.go' -F 'callVol[wire.MutateRep]' . | wc -l)" -eq 1
	test "$$(grep -rn --include='*.go' --exclude='*_test.go' 'reintegrateCall(' . | grep -vc ':func ')" -eq 1
	test "$$(grep -rn --include='*.go' --exclude='*_test.go' 'shipVolume(' . | grep -vc ':func ')" -eq 1
	! grep -rn --include='*.go' --exclude='*_test.go' 'Sleep(0)' . | grep -v '^./internal/simtime/'
	test "$$(grep -rnE --include='*.go' --exclude='*_test.go' 'append\(\[\]byte\(nil\), [A-Za-z0-9_.]*[dD]ata\.\.\.\)' . | grep -vc -e '^./cmd/codaperf/' -e '/testdata/')" -le 3
	! grep -rnE --include='*.go' --exclude='*_test.go' 'met\.(calls|reintegrations|reintegFails|recordsApplied|conflicts|breaks|replApplied|replDups|catchupRecs|verdict[A-Za-z]*|volValidations[A-Za-z]*|objsSaved|missingStamp|objValidations|failovers|shipped[A-Za-z]*|delta[A-Za-z]*|transitions)\b' internal/venus internal/server
	test "$$(grep -rn --include='*.go' --exclude='*_test.go' 'ChildNames(' internal/venus | wc -l)" -eq 1
	test "$$(grep -rnE --include='*.go' --exclude='*_test.go' -e 'Children\[[^]]*\] *=[^=]' -e 'delete\([^,]*Children,' -e 'Map\([^,]*, *&[A-Za-z0-9_.]*Children,' . | grep -v '^./internal/codafs/' | wc -l)" -eq 1
	grep -qE '^\s*Map\(c, &o\.Children, ' internal/wire/codec.go
	! grep -rnE --include='*.go' --exclude='*_test.go' 'wire\.(Append[A-Za-z]*|NewReader|Reader)\b' . | grep -v '^./internal/wire/'
	! grep -rnE --include='*.go' --exclude='*_test.go' 'Links(\+\+|--)' . | grep -v '^./internal/cml/'
	! grep -rnE --include='*.go' --exclude='*_test.go' '\.(SetEntry|DropEntry)\(' . | grep -v '^./internal/cml/'
	! grep -rnE --include='*.go' --exclude='*_test.go' -e 'copy\([][A-Za-z0-9_.]*\.Data[^A-Za-z0-9_]' -e '\.Data\[[^]]*\] *([-+*/%&|^]?=[^=]|\+\+|--)' -e 'append\([][A-Za-z0-9_.]*\.Data,' internal/venus internal/codafs
	! awk 'FILENAME ~ /_test[.]go$$/ {next} FNR == 1 {fn = ""} /^func / {fn = $$0} /[.]gen *(\+\+|--|[-+*\/|&^]?=[^=])/ {print FILENAME ": " fn}' internal/venus/*.go | grep -v '^internal/venus/cache.go: func (c \*cache) \(install\|recharge\|remove\)('
	! awk 'FILENAME ~ /_test[.]go$$/ {next} FNR == 1 {fn = ""} /^func / {fn = $$0} /[.]memo(Gen)?([^A-Za-z0-9_]|$$)/ {print FILENAME ": " fn}' internal/venus/*.go | grep -v '^internal/venus/ops.go: func (v \*Venus) walk('
	! awk 'FILENAME ~ /_test[.]go$$/ {next} FNR == 1 {fn = ""} /^func / {fn = $$0} /clock[.]Go\(/ {print FILENAME ": " fn}' internal/rpc2/*.go | grep -v '^internal/rpc2/rpc2.go: func (n \*Node) serve('

# Same wall-clock budget as CI so a local `make lint` catches an
# analysis-time regression before the workflow does.
lint: lint-structure
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
