#!/usr/bin/env bash
# Regenerates the checked-in benchmark reports:
#
#   BENCH_hotpath.json — hot-path wall-time of the analysis engines and
#       the PAg loop over pinned-seed synthetic workloads at three trace
#       sizes.
#   BENCH_server.json  — daemon throughput (req/sec, p50/p99 latency)
#       and deterministic overload shedding with retry-after recovery.
#   BENCH_corpus.json  — corpus batch analytics: BWSS2-vs-BWSS3 cold
#       ingest (mmap and buffered), cross-format result identity,
#       end-to-end batch throughput serial vs fanned (summaries
#       byte-identical), and the isolated fleet-fold wall time.
#
# Always a release build — both binaries refuse to write a report from a
# debug build. Each report is validated right after it is written.
#
# Usage: scripts/bench.sh [--quick] [--iters N]
set -euo pipefail
cd "$(dirname "$0")/.."

# server_bench and corpus_bench only understand --quick; hotpath takes
# everything.
server_quick=""
for arg in "$@"; do
    [ "$arg" = "--quick" ] && server_quick="--quick"
done

cargo build --release -p bwsa-bench --bin hotpath --bin server_bench --bin corpus_bench
target/release/hotpath --out BENCH_hotpath.json "$@"
target/release/hotpath --validate BENCH_hotpath.json
target/release/server_bench --out BENCH_server.json $server_quick
target/release/server_bench --validate BENCH_server.json
target/release/corpus_bench --out BENCH_corpus.json $server_quick
target/release/corpus_bench --validate BENCH_corpus.json
