#!/usr/bin/env sh
# ci.sh — the tier-1 gate for this repository (see README.md).
#
# Runs static analysis, a full build, the test suite under the race
# detector, a fuzz pass and the benchmark gates (BENCH_4, 5, 7, 8).
# Every change must leave this script exiting 0.
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
# The registered analyzers must be exactly the checked-in list: a
# refactor that silently drops one from All() would otherwise pass this
# gate forever, and retiring one on purpose is a reviewed one-line diff
# to cmd/viper-vet/analyzers.txt.
if ! go run ./cmd/viper-vet -list | awk '{ print $1 }' | diff -u cmd/viper-vet/analyzers.txt -; then
    echo "ci.sh: viper-vet -list does not match cmd/viper-vet/analyzers.txt" >&2
    exit 1
fi
go run ./cmd/viper-vet ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# The leakcheck-gated packages rerun uncached: a cached 'ok' would skip
# the TestMain goroutine-leak check entirely, so -count=1 forces the
# binaries to actually execute. The allocation budgets (TestAllocBudget,
# TestAllocBudgetColdJoin) and the count gates (Test*CountGate) of remote
# and relay rerun here with them: the buffer pool is a deterministic free
# list, so the budgets hold under the race detector as they do without it.
echo "==> leakcheck packages (-race -count=1)"
go test -race -count=1 \
    ./internal/transport/ ./internal/pubsub/ ./internal/remote/ \
    ./internal/kvstore/ ./internal/coupled/ ./internal/relay/ \
    ./internal/metrics/ ./internal/chunkstore/ ./internal/debugsrv/

# Code ordered by notifications, gates and snapshots, not by one
# goroutine's program order sees one interleaving per -race pass, so each
# package lists the tests that exercise such code in its TestInterleavings
# (interleavings_test.go: function values, so a renamed or deleted test
# stops compiling) and it runs five more times here. It skips itself in
# every other pass. Every one of these packages' tests runs with the buffer
# pool's ownership contract armed (internal/bufpool).
echo "==> interleaving reruns (-race -count=5)"
go test -race -count=5 -run '^TestInterleavings$' \
    ./internal/remote/ ./internal/relay/ ./internal/chunkstore/ ./internal/transport/

# The socket- and disk-fed parsers are fuzzed on every run: no panic, no
# allocation out of proportion to the input, only sound results. Seeds,
# testdata/fuzz regressions and a few thousand deterministic mutants per
# target (internal/mutate, TestMutated*) already ran in the test pass above —
# that is where the mutation coverage comes from on a machine where the
# native engine barely runs; this adds one budget of it, shared by the
# targets (failures land in testdata/fuzz). The parsers with no native
# target — kvstore and pubsub wire protocols, the store's segment scan and
# log replay — are covered by their mutant passes alone.
#
# First, the decoder's one concurrent path three times over: a blob that
# carries one chunk index at two positions used to have two workers
# decoding into the same span (ISSUE 23) — red two runs in three.
echo "==> vformat under the race detector (-race -count=3)"
go test -race -count=3 ./internal/vformat
echo "==> fuzz DecodeAuto + ManifestAssembler + TCPLinkRecv (20s in all)"
go test -run '^$' -fuzz FuzzDecodeAuto -fuzztime 7s ./internal/vformat
go test -run '^$' -fuzz FuzzManifestAssembler -fuzztime 6s ./internal/vformat
go test -run '^$' -fuzz FuzzTCPLinkRecv -fuzztime 7s ./internal/transport

# One timed pass of the full analyzer suite over the repository.
# chanlife and lockorder run a per-function fixpoint and lockorder a
# bottom-up pass over the module call graph, so a pathological slowdown
# should fail CI as a number, not surface as a mysteriously slow
# viper-vet gate. 250 ms is ~10x the measured cost of a full pass, so
# the bound rejects accidental quadratic blowups without flaking on a
# loaded runner.
echo "==> analysis suite bench smoke (full suite, 1x)"
bench7_out=$(go test -run '^$' -bench 'BenchmarkSuiteFull' -benchtime 1x \
    ./internal/analysis/)
echo "$bench7_out"
suite_ns=$(echo "$bench7_out" | awk '$1 ~ /SuiteFull/ { print $3; exit }')
if [ -z "$suite_ns" ]; then
    echo "ci.sh: missing analysis suite benchmark result" >&2
    exit 1
fi
awk "BEGIN { printf \"analysis suite wall-time: %.1f ms per full pass\\n\", $suite_ns / 1000000 }"
if ! awk "BEGIN { exit !($suite_ns <= 250000000) }"; then
    echo "ci.sh: full analysis suite pass took ${suite_ns}ns, budget is 250ms" >&2
    exit 1
fi

echo "==> bench smoke (every micro-benchmark of six packages runs 1x so none rots; nothing recorded)"
go test -run '^$' -bench . -benchtime 1x \
    ./internal/transport/ ./internal/pubsub/ ./internal/kvstore/ \
    ./internal/relay/ ./internal/metrics/ ./internal/chunkstore/

# PR 4's gate: the chunked transfer pipeline must not regress against
# the monolithic wire format. 5 iterations keeps the signal stable on a
# loaded runner while staying fast; the 16 MiB case is the paper-scale
# representative. The chunked path is expected to WIN (see BENCH_4.json
# for the measured speedup); the hard floor only rejects a >10%
# regression so CI stays robust to runner noise.
echo "==> transfer bench (monolithic vs chunked, 5x)"
bench4_out=$(go test -run '^$' -bench 'BenchmarkTransfer' -benchtime 5x \
    ./internal/transport/)
echo "$bench4_out"

mono_ns=$(echo "$bench4_out" | awk '$1 ~ /TransferMonolithic\/16MiB/ { print $3; exit }')
chunk_ns=$(echo "$bench4_out" | awk '$1 ~ /TransferChunked\/16MiB/ { print $3; exit }')
if [ -z "$mono_ns" ] || [ -z "$chunk_ns" ]; then
    echo "ci.sh: missing 16MiB transfer benchmark results" >&2
    exit 1
fi

{
    echo "{"
    echo "  \"benchmarks\": ["
    echo "$bench4_out" | awk '
        /^Benchmark/ && NF >= 4 {
            if (n++) printf ",\n"
            printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s}", $1, $2, $3
        }
        END { if (n) printf "\n" }
    '
    echo "  ],"
    echo "  \"mono_16mib_ns\": $mono_ns,"
    echo "  \"chunk_16mib_ns\": $chunk_ns,"
    awk "BEGIN { printf \"  \\\"chunked_speedup_16mib\\\": %.3f\\n\", $mono_ns / $chunk_ns }"
    echo "}"
} > BENCH_4.json
echo "wrote BENCH_4.json (16MiB: monolithic ${mono_ns}ns, chunked ${chunk_ns}ns)"

if ! awk "BEGIN { exit !($mono_ns >= $chunk_ns * 0.9) }"; then
    echo "ci.sh: chunked transfer regressed >10% vs monolithic on 16MiB" >&2
    echo "       (monolithic ${mono_ns}ns/op, chunked ${chunk_ns}ns/op)" >&2
    exit 1
fi

# PR 5's gate: through the relay, producer-side publish cost must be
# ~independent of the consumer count. Direct serial broadcast is the
# baseline (it scales linearly and is expected to be far slower at 32).
# Two hard floors keep the encode-once/send-many claim honest on a 16
# MiB model over real TCP: relay-at-32 within 25% of relay-at-1 (the
# flatness claim — measured cross-run noise on a loaded runner is ±15%
# on this ratio even for an unchanged tree, so 10% was a flaky bound),
# and relay-at-32 at least 2x cheaper than direct-at-32 (the scaling
# claim; measured margin is ~10x). Each figure is the MEDIAN of 5 runs.
# It was the minimum of 3 until ISSUE 13 halved the timed region (the
# encode no longer hashes): about one run in twelve hits every pooled
# 16 MiB buffer warm and reads ~11 ms against a usual ~20, and a
# minimum that catches that mode on one side of the ratio only failed
# the flatness floor on an unchanged tree one sitting in three.
echo "==> fan-out bench (direct vs relay at 1/8/32 consumers, 5x, 5 runs)"
bench5_out=$(go test -run '^$' -bench 'BenchmarkFanOut' -benchtime 5x \
    -count 5 ./internal/relay/)
echo "$bench5_out"

bench5_median() {
    echo "$bench5_out" | awk '$1 ~ /'"$1"'\/consumers='"$2"'(-|$)/ { print $3 }' |
        sort -n | awk '{ v[NR] = $1 } END { if (NR) print v[int((NR + 1) / 2)] }'
}
direct1_ns=$(bench5_median FanOutDirect 1)
direct32_ns=$(bench5_median FanOutDirect 32)
relay1_ns=$(bench5_median FanOutRelay 1)
relay32_ns=$(bench5_median FanOutRelay 32)
if [ -z "$direct1_ns" ] || [ -z "$direct32_ns" ] || [ -z "$relay1_ns" ] || [ -z "$relay32_ns" ]; then
    echo "ci.sh: missing fan-out benchmark results" >&2
    exit 1
fi

{
    echo "{"
    echo "  \"benchmarks\": ["
    echo "$bench5_out" | awk '
        /^Benchmark/ && NF >= 4 {
            if (n++) printf ",\n"
            printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s}", $1, $2, $3
        }
        END { if (n) printf "\n" }
    '
    echo "  ],"
    echo "  \"direct_1_ns\": $direct1_ns,"
    echo "  \"direct_32_ns\": $direct32_ns,"
    echo "  \"relay_1_ns\": $relay1_ns,"
    echo "  \"relay_32_ns\": $relay32_ns,"
    awk "BEGIN { printf \"  \\\"direct_scaling_32_over_1\\\": %.3f,\\n\", $direct32_ns / $direct1_ns }"
    awk "BEGIN { printf \"  \\\"relay_scaling_32_over_1\\\": %.3f\\n\", $relay32_ns / $relay1_ns }"
    echo "}"
} > BENCH_5.json
echo "wrote BENCH_5.json (relay@1 ${relay1_ns}ns, relay@32 ${relay32_ns}ns, direct@32 ${direct32_ns}ns)"

if ! awk "BEGIN { exit !($relay32_ns <= $relay1_ns * 1.25) }"; then
    echo "ci.sh: relay producer-side cost at 32 consumers regressed >25% vs 1 consumer" >&2
    echo "       (relay@1 ${relay1_ns}ns/op, relay@32 ${relay32_ns}ns/op)" >&2
    exit 1
fi
if ! awk "BEGIN { exit !($relay32_ns * 2 <= $direct32_ns) }"; then
    echo "ci.sh: relay fan-out at 32 consumers is not at least 2x cheaper than direct broadcast" >&2
    echo "       (relay@32 ${relay32_ns}ns/op, direct@32 ${direct32_ns}ns/op)" >&2
    exit 1
fi

# PR 9's gate: content-addressed delta distribution. A steady-state
# training run is replayed through the remote producer → consumer pair
# over real TCP twice — reconciliation off (every checkpoint ships
# whole) and on (manifest + only the chunks whose content hashes the
# receiver lacks). Three hard floors keep the tentpole honest at the
# default chunk size: steady-state wire bytes reduced at least 3x
# (measured margin is ~5x beyond that), zero torn streams in either
# phase, and every reconciled install byte-identical to a full decode
# of the producer's staged blob. The reduction is deterministic (fixed
# training seed, exact byte counts off the transport counters), so the
# 3x floor does not flake with runner load.
echo "==> delta dedup scenario (full snapshots vs chunk-addressed deltas)"
go run ./cmd/viper-bench -exp deltadedup -json > BENCH_7.json # the table goes to stderr

dedup_reduction=$(awk -F': *|,' '/"reduction"/ { print $2; exit }' BENCH_7.json)
dedup_torn=$(awk -F': *|,' '/"torn_streams"/ { print $2; exit }' BENCH_7.json)
dedup_identical=$(awk -F': *|,' '/"identical"/ { print $2; exit }' BENCH_7.json)
if [ -z "$dedup_reduction" ] || [ -z "$dedup_torn" ] || [ -z "$dedup_identical" ]; then
    echo "ci.sh: BENCH_7.json missing delta-dedup gate fields" >&2
    exit 1
fi
echo "wrote BENCH_7.json (reduction ${dedup_reduction}x, torn ${dedup_torn}, identical ${dedup_identical})"

if ! awk "BEGIN { exit !($dedup_reduction >= 3) }"; then
    echo "ci.sh: delta distribution reduced steady-state wire bytes only ${dedup_reduction}x; gate is 3x" >&2
    exit 1
fi
if [ "$dedup_torn" != "0" ]; then
    echo "ci.sh: delta-dedup scenario tore ${dedup_torn} streams; must be exactly 0" >&2
    exit 1
fi
if [ "$dedup_identical" != "true" ]; then
    echo "ci.sh: a reconciled install was not byte-identical to the full decode" >&2
    exit 1
fi

# PR 10's gate: the durable chunk store. Three hard floors keep the
# crash-consistency and durability claims honest. Warm restart: a
# 64-version / paper-scale history must recover (manifest-log replay +
# torn-tail scan + full reload of every version) inside a fixed wall
# budget — 2 s is ~50x the measured replay cost, so the bound rejects
# accidental O(history²) recovery without flaking on a loaded runner.
# Late joiner: a consumer served from demoted disk shells after a relay
# restart must install within 10 ms of one served from the resident
# cache — the read-through cost itself (disk_ns - cache_ns, minima across
# trials; measured -4..+7 ms on the 8 MiB model). It was a ratio
# (disk/cache <= 1.25) until ISSUE 13 halved the denominator and the
# unchanged numerator started failing it: an unrelated speed-up of the
# shared path must not fail the gate on what read-through adds. Chaos: with ≥10% of store writes failing
# mid-append/mid-commit/mid-GC, every post-crash reopen must serve zero
# corrupt chunks — exact, not a threshold — and every surviving version
# must reload byte-identically (the experiment errors out otherwise).
echo "==> store recovery scenario (warm restart + late joiner + chaos)"
go run ./cmd/viper-bench -exp storerecovery -json > BENCH_8.json # the table goes to stderr

recovery_ns=$(awk -F': *|,' '/"recovery_ns"/ { print $2; exit }' BENCH_8.json)
cache_ns=$(awk -F': *|,' '/"cache_ns"/ { print $2; exit }' BENCH_8.json)
disk_ns=$(awk -F': *|,' '/"disk_ns"/ { print $2; exit }' BENCH_8.json)
store_identical=$(awk -F': *|,' '/"identical"/ { print $2; exit }' BENCH_8.json)
store_faults=$(awk -F': *|,' '/"faults_injected"/ { print $2; exit }' BENCH_8.json)
store_corrupt=$(awk -F': *|,' '/"corrupt_chunks"/ { print $2; exit }' BENCH_8.json)
if [ -z "$recovery_ns" ] || [ -z "$cache_ns" ] || [ -z "$disk_ns" ] || [ -z "$store_identical" ] \
    || [ -z "$store_faults" ] || [ -z "$store_corrupt" ]; then
    echo "ci.sh: BENCH_8.json missing store-recovery gate fields" >&2
    exit 1
fi
echo "wrote BENCH_8.json (recovery ${recovery_ns}ns, cache ${cache_ns}ns, disk ${disk_ns}ns, faults ${store_faults}, corrupt ${store_corrupt})"

if ! awk "BEGIN { exit !($recovery_ns <= 2000000000) }"; then
    echo "ci.sh: 64-version warm-restart recovery took ${recovery_ns}ns; budget is 2s" >&2
    exit 1
fi
if ! awk "BEGIN { exit !($disk_ns - $cache_ns <= 10000000) }"; then
    echo "ci.sh: disk-served late-joiner install (${disk_ns}ns) costs more than 10ms over the cache-served install (${cache_ns}ns)" >&2
    exit 1
fi
if [ "$store_identical" != "true" ]; then
    echo "ci.sh: a late-joiner install did not match the published weights bit for bit" >&2
    exit 1
fi
if ! awk "BEGIN { exit !($store_faults >= 10) }"; then
    echo "ci.sh: chaos phase injected only ${store_faults} faults; the drill needs at least 10" >&2
    exit 1
fi
if [ "$store_corrupt" != "0" ]; then
    echo "ci.sh: ${store_corrupt} corrupt chunks served after injected crashes; must be exactly 0" >&2
    exit 1
fi

echo "==> ci.sh: all green"
