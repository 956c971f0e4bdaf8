#!/usr/bin/env sh
# ci.sh — the tier-1 gate for this repository (see README.md): a list of
# commands, every one of which must exit 0. A threshold is a Go test named
# TestGate* next to the code that produces the measurement, never shell.
set -eu

cd "$(dirname "$0")"

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> viper-vet ./..."
go run ./cmd/viper-vet ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# The leakcheck-gated packages rerun uncached: a cached 'ok' would skip
# the TestMain goroutine-leak check entirely, so -count=1 forces the
# binaries to actually execute. The allocation and held budgets
# (TestAllocBudget, TestAllocBudgetColdJoin, TestHeldBudget) and the count
# gates (Test*CountGate) of remote
# and relay rerun here with them: the buffer pool is a deterministic free
# list, so the budgets hold under the race detector as they do without it.
echo "==> leakcheck packages (-race -count=1)"
go test -race -count=1 \
    ./internal/transport/ ./internal/pubsub/ ./internal/remote/ \
    ./internal/kvstore/ ./internal/coupled/ ./internal/relay/ \
    ./internal/metrics/ ./internal/chunkstore/ ./internal/debugsrv/ \
    ./internal/experiments/

# Code ordered by notifications, gates and snapshots, not by one
# goroutine's program order sees one interleaving per -race pass, so each
# package lists the tests that exercise such code in its TestInterleavings
# (interleavings_test.go: function values, so a renamed or deleted test
# stops compiling) and it runs five more times here. It skips itself in
# every other pass. Every one of these packages' tests runs with the buffer
# pool's ownership contract armed (internal/bufpool).
echo "==> interleaving reruns (-race -count=5)"
go test -race -count=5 -run '^TestInterleavings$' \
    ./internal/remote/ ./internal/relay/ ./internal/chunkstore/ ./internal/transport/ \
    ./internal/core/

# The decoder's one concurrent path three times over: a blob that carries
# one chunk index at two positions once had two workers decoding into the
# same span — red two runs in three.
echo "==> vformat under the race detector (-race -count=3)"
go test -race -count=3 ./internal/vformat

# The socket- and disk-fed parsers are fuzzed on every run: no panic, no
# allocation out of proportion to the input, only sound results. Seeds,
# testdata/fuzz regressions and a few thousand deterministic mutants per
# target (internal/mutate, TestMutated*) already ran in the test pass above;
# this adds one budget of the native engine, shared by the targets (failures
# land in testdata/fuzz). The store's segment scan opens real files, a
# millisecond an input, so its minimization of a new input is capped in
# runs rather than left to take the whole budget. The parsers with no
# native target — kvstore and pubsub wire protocols, the store's log
# replay — are covered by their mutant passes alone. Beside the parsers, the
# codec's round trip is fuzzed: a consumer advertises the hashes of the
# records its installed weights re-encode to, so a precision whose
# decode-then-encode is not exact would silently cost every delta.
echo "==> fuzz DecodeAuto + ManifestAssembler + HashDecoded + TCPLinkRecv + SegmentScan (25s in all)"
go test -run '^$' -fuzz FuzzDecodeAuto -fuzztime 5s ./internal/vformat
go test -run '^$' -fuzz FuzzManifestAssembler -fuzztime 5s ./internal/vformat
go test -run '^$' -fuzz FuzzHashDecoded -fuzztime 5s ./internal/vformat
go test -run '^$' -fuzz FuzzTCPLinkRecv -fuzztime 5s ./internal/transport
go test -run '^$' -fuzz FuzzSegmentScan -fuzztime 5s -fuzzminimizetime 200x ./internal/chunkstore

echo "==> bench smoke (every micro-benchmark of seven packages runs 1x so none rots; nothing recorded)"
go test -run '^$' -bench . -benchtime 1x \
    ./internal/transport/ ./internal/pubsub/ ./internal/kvstore/ \
    ./internal/relay/ ./internal/metrics/ ./internal/chunkstore/ \
    ./internal/vformat/

# The runtime gates (DESIGN.md §7): delta dedup and store recovery over live
# TCP (internal/experiments), fan-out flatness and the records ingest hashes
# (internal/relay), the analysis suite's wall budget (internal/analysis),
# the fp64 record copy against the portable loop (internal/vformat).
# Each skips itself in every other pass, states its floors beside the
# measurement and fails with its own message; `go test -run
# TestGateDeltaDedup -v ./internal/experiments` runs one and prints what it
# measured.
echo "==> gates (go test -run '^TestGate')"
go test -count=1 -run '^TestGate' ./...

echo "==> ci.sh: all green"
