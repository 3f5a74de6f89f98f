#!/usr/bin/env bash
# Offline CI gate: everything a merge must pass, no network required.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> benchmark harness builds (perfbench sits outside the workspace)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> unit tests of every crate (--lib)"
cargo test -q --workspace --lib

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc: no broken or ambiguous doc links"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> clippy: no unwrap on library fallible paths"
cargo clippy -p bwsa-resilience -p bwsa-trace -p bwsa-graph -p bwsa-predictor \
    -p bwsa-workload -p bwsa-obs -p bwsa-core -p bwsa-server -p bwsa-corpus --lib \
    -- -D warnings -D clippy::unwrap_used

echo "==> parallel/serial equivalence + golden fixtures"
cargo test -q --test parallel_prop -p bwsa-core
cargo test -q --test golden_regression
cargo test -q --test cli_jobs

echo "==> hot-path engine equivalence (ring vs naive oracle, flat table vs HashMap)"
cargo test -q --test hotpath_prop -p bwsa-core
cargo test -q --test prop -p bwsa-graph

echo "==> windowed equivalence (fold(windows) == whole trace, incremental recoloring oracle)"
cargo test -q --test windowed_equiv -p bwsa-core
cargo test -q --test cli_window

echo "==> observability: instrumented == uninstrumented + report schema"
cargo test -q --test observed_equivalence -p bwsa-core
cargo test -q --test run_report

echo "==> chaos: every failpoint site contained, fuzzed decoders never panic"
cargo test -q --test chaos
cargo test -q --test stream_prop -p bwsa-trace
cargo test -q --test columnar_prop -p bwsa-trace
cargo test -q --test prop -p bwsa-workload

echo "==> server: end-to-end daemon suite + zero-leak accounting properties"
cargo test -q --test server_integration -p bwsa-server
cargo test -q --test quota_prop -p bwsa-server
cargo test -q --test cli_client_retry

echo "==> corpus: fold algebra properties + batch integration + CLI contract"
cargo test -q --test fleet_prop -p bwsa-corpus
cargo test -q --test corpus_integration -p bwsa-corpus
cargo test -q --test cache_prop -p bwsa-corpus
cargo test -q --test cli_corpus
cargo test -q --test fleet_summary

echo "==> run report smoke (--report json validates against the golden schema)"
report_tmp="$(mktemp -d)"
trap 'rm -rf "$report_tmp"' EXIT
bwsa="target/release/bwsa"
"$bwsa" generate pgp --scale 0.01 -o "$report_tmp/pgp.bwst" > /dev/null
"$bwsa" analyze "$report_tmp/pgp.bwst" --report json --metrics "$report_tmp/analyze.json" > /dev/null
"$bwsa" validate-report "$report_tmp/analyze.json"
"$bwsa" simulate "$report_tmp/pgp.bwst" --predictor pag --report json \
    --metrics "$report_tmp/simulate.json" > /dev/null
"$bwsa" validate-report "$report_tmp/simulate.json"

echo "==> windowed analyze smoke (--window summary, sidecar JSON, v3 report validates)"
"$bwsa" analyze "$report_tmp/pgp.bwst" --window 500 \
    --emit-windows "$report_tmp/windows.json" > "$report_tmp/windowed.out"
grep -q "^windows: " "$report_tmp/windowed.out"
grep -q '"windows"' "$report_tmp/windows.json"
"$bwsa" analyze "$report_tmp/pgp.bwst" --window 500 \
    --metrics "$report_tmp/windowed.json" > /dev/null
"$bwsa" validate-report "$report_tmp/windowed.json"
# The windowed fold is the run's analysis, so its report keeps the
# whole-trace stages and counters.
for stage in conflict_prune working_sets classify; do
    grep -q "\"name\": \"$stage\"" "$report_tmp/windowed.json" \
        || { echo "windowed report lacks the $stage stage"; exit 1; }
done
grep -q '"core.graph_edges_kept": ' "$report_tmp/windowed.json" \
    || { echo "windowed report lacks core.graph_edges_kept"; exit 1; }
# --jobs does not change a windowed run: stdout and sidecar are identical.
"$bwsa" analyze "$report_tmp/pgp.bwst" --window 500 --jobs 2 \
    --emit-windows "$report_tmp/windows-j2.json" > "$report_tmp/windowed-j2.out"
cmp "$report_tmp/windowed.out" "$report_tmp/windowed-j2.out"
cmp "$report_tmp/windows.json" "$report_tmp/windows-j2.json"
# Malformed --window values are usage errors (exit 2) before any I/O.
if "$bwsa" analyze /no/such.bwst --window 0 2> /dev/null; then
    echo "--window 0 unexpectedly succeeded"; exit 1
else
    rc=$?
    [ "$rc" -eq 2 ] || { echo "--window 0: expected exit 2, got $rc"; exit 1; }
fi

echo "==> convert smoke (BWSS3 round-trip; analysis byte-identical across formats, jobs, resume)"
convert_dir="$report_tmp/convert"
mkdir -p "$convert_dir"
"$bwsa" generate li --scale 0.01 -o "$convert_dir/li.bwst" > /dev/null
"$bwsa" convert "$convert_dir/li.bwst" "$convert_dir/li.bws3" > /dev/null
"$bwsa" convert "$convert_dir/li.bws3" "$convert_dir/back.bwst" > /dev/null
cmp "$convert_dir/li.bwst" "$convert_dir/back.bwst"
# The streaming BWSS3 analyze path must print byte-for-byte what the
# in-memory BWST path prints, and windowed sidecars must match too.
"$bwsa" analyze "$convert_dir/li.bwst" > "$convert_dir/bwst.out"
"$bwsa" analyze "$convert_dir/li.bws3" > "$convert_dir/bws3.out"
cmp "$convert_dir/bwst.out" "$convert_dir/bws3.out"
"$bwsa" analyze "$convert_dir/li.bwst" --window 500 \
    --emit-windows "$convert_dir/bwst-windows.json" > /dev/null
"$bwsa" analyze "$convert_dir/li.bws3" --window 500 \
    --emit-windows "$convert_dir/bws3-windows.json" > /dev/null
cmp "$convert_dir/bwst-windows.json" "$convert_dir/bws3-windows.json"
# gcc at 0.1 (1026 static branches): BWST in memory, BWSS2 and BWSS3
# streaming and runs splitting the static branches among 2 and 3 workers
# (an uneven split) print the same bytes, and so does a checkpointed
# BWSS2 run and a run resumed from its rotated checkpoint.
"$bwsa" generate gcc --scale 0.1 -o "$convert_dir/gcc.bwst" > /dev/null
"$bwsa" convert "$convert_dir/gcc.bwst" "$convert_dir/gcc.bwss" > /dev/null
"$bwsa" convert "$convert_dir/gcc.bwst" "$convert_dir/gcc.bws3" > /dev/null
"$bwsa" analyze "$convert_dir/gcc.bwst" --jobs 1 > "$convert_dir/gcc.out"
"$bwsa" analyze "$convert_dir/gcc.bwss" > "$convert_dir/gcc-bwss.out"
"$bwsa" analyze "$convert_dir/gcc.bws3" > "$convert_dir/gcc-bws3.out"
"$bwsa" analyze "$convert_dir/gcc.bwst" --jobs 2 > "$convert_dir/gcc-j2.out"
"$bwsa" analyze "$convert_dir/gcc.bwst" --jobs 3 > "$convert_dir/gcc-j3.out"
"$bwsa" analyze "$convert_dir/gcc.bwss" --checkpoint "$convert_dir/gcc.ck" \
    --checkpoint-every 4 > "$convert_dir/gcc-ck.out"
[ -f "$convert_dir/gcc.ck.prev" ] || { echo "no rotated checkpoint"; exit 1; }
"$bwsa" analyze "$convert_dir/gcc.bwss" --resume "$convert_dir/gcc.ck.prev" \
    > "$convert_dir/gcc-resumed.out"
# --salvage on the undamaged file changes nothing, streamed or decoded
# whole for a 2-worker run.
"$bwsa" analyze "$convert_dir/gcc.bws3" --salvage > "$convert_dir/gcc-salvage.out"
"$bwsa" analyze "$convert_dir/gcc.bws3" --salvage --jobs 2 \
    > "$convert_dir/gcc-salvage-j2.out"
# A windowed run folds its windows into the streaming answer: without
# its windows line it prints the same bytes, and --jobs 2 leaves the
# per-window sidecar unchanged.
"$bwsa" analyze "$convert_dir/gcc.bws3" --window 4096 \
    --emit-windows "$convert_dir/gcc-windows.json" \
    | grep -v '^windows: ' > "$convert_dir/gcc-window.out"
"$bwsa" analyze "$convert_dir/gcc.bws3" --window 4096 --jobs 2 \
    --emit-windows "$convert_dir/gcc-windows-j2.json" > /dev/null
cmp "$convert_dir/gcc-windows.json" "$convert_dir/gcc-windows-j2.json"
for run in bwss bws3 j2 j3 ck resumed salvage salvage-j2 window; do
    cmp "$convert_dir/gcc.out" "$convert_dir/gcc-$run.out"
done
# A torn file has no instruction total: streamed, decoded for 2 workers
# or windowed, --salvage counts up to the last record it recovered and
# prints the same bytes. The BWSS2 stream loses its 40-byte end frame,
# the BWSS3 file its footer and last third.
"$bwsa" convert "$convert_dir/li.bwst" "$convert_dir/li.bwss" > /dev/null
bwss_len=$(wc -c < "$convert_dir/li.bwss")
head -c $((bwss_len - 40)) "$convert_dir/li.bwss" > "$convert_dir/torn.bwss"
bws3_len=$(wc -c < "$convert_dir/li.bws3")
head -c $((bws3_len * 2 / 3)) "$convert_dir/li.bws3" > "$convert_dir/torn.bws3"
for torn in torn.bwss torn.bws3; do
    "$bwsa" analyze "$convert_dir/$torn" --salvage 2> /dev/null > "$convert_dir/$torn.out"
    "$bwsa" analyze "$convert_dir/$torn" --salvage --jobs 2 2> /dev/null \
        > "$convert_dir/$torn-j2.out"
    "$bwsa" analyze "$convert_dir/$torn" --salvage --window 4096 2> /dev/null \
        | grep -v '^windows: ' > "$convert_dir/$torn-window.out"
    cmp "$convert_dir/$torn.out" "$convert_dir/$torn-j2.out"
    cmp "$convert_dir/$torn.out" "$convert_dir/$torn-window.out"
    if grep -q unknown "$convert_dir/$torn.out"; then
        echo "$torn: analyze printed an unknown instruction count"; exit 1
    fi
done

echo "==> corpus smoke (manifest batch → fleet summary validates, order-invariant)"
corpus_dir="$report_tmp/corpus"
mkdir -p "$corpus_dir"
for bench in compress pgp li; do
    "$bwsa" generate "$bench" --scale 0.01 --format bwss \
        -o "$corpus_dir/$bench.bwss" > /dev/null
done
cat > "$corpus_dir/corpus.toml" << 'MANIFEST'
name = "smoke"

[defaults]
threshold = 10
class = "integer"

[[trace]]
path = "compress.bwss"

[[trace]]
path = "pgp.bwss"
class = "crypto"

[[trace]]
path = "li.bwss"
MANIFEST
"$bwsa" corpus "$corpus_dir/corpus.toml" --jobs 2 \
    --emit-fleet "$corpus_dir/fleet.json" > /dev/null
"$bwsa" validate-fleet "$corpus_dir/fleet.json"
# The fleet fold is order- and schedule-invariant: a permuted manifest
# run serially emits byte-identical JSON.
cat > "$corpus_dir/permuted.toml" << 'MANIFEST'
name = "smoke"

[defaults]
threshold = 10
class = "integer"

[[trace]]
path = "li.bwss"

[[trace]]
path = "compress.bwss"

[[trace]]
path = "pgp.bwss"
class = "crypto"
MANIFEST
"$bwsa" corpus "$corpus_dir/permuted.toml" --jobs 1 \
    --emit-fleet "$corpus_dir/fleet_permuted.json" > /dev/null
cmp "$corpus_dir/fleet.json" "$corpus_dir/fleet_permuted.json"
# A dangling manifest entry is a typed usage error (exit 2).
printf 'name = "bad"\n\n[[trace]]\npath = "ghost.bwss"\n' > "$corpus_dir/bad.toml"
if "$bwsa" corpus "$corpus_dir/bad.toml" 2> /dev/null; then
    echo "dangling corpus entry unexpectedly succeeded"; exit 1
else
    rc=$?
    [ "$rc" -eq 2 ] || { echo "dangling entry: expected exit 2, got $rc"; exit 1; }
fi

echo "==> crash-resume smoke (kill -9 mid-batch, --resume replays byte-identically)"
crash_dir="$report_tmp/crash"
mkdir -p "$crash_dir"
cp "$corpus_dir/compress.bwss" "$corpus_dir/pgp.bwss" "$corpus_dir/li.bwss" \
    "$corpus_dir/corpus.toml" "$crash_dir/"
"$bwsa" corpus "$crash_dir/corpus.toml" --no-cache \
    --emit-fleet "$crash_dir/baseline.json" > /dev/null
# Stall the first journal append for 30s, then kill the run mid-batch:
# exactly one entry's result reached the cache before the process died.
BWSA_FAILPOINTS="corpus.journal_append=delay(30000)" \
    "$bwsa" corpus "$crash_dir/corpus.toml" --jobs 1 > /dev/null 2>&1 &
crash_pid=$!
sleep 2
kill -9 "$crash_pid" 2> /dev/null
wait "$crash_pid" 2> /dev/null || true
"$bwsa" corpus "$crash_dir/corpus.toml" --resume \
    --emit-fleet "$crash_dir/resumed.json" > /dev/null 2> "$crash_dir/resume.err"
grep -q "cache: 1 hits, 2 misses" "$crash_dir/resume.err"
cmp "$crash_dir/baseline.json" "$crash_dir/resumed.json"

echo "==> warm cache smoke (second run is all hits, byte-identical, zero analyses)"
"$bwsa" corpus "$crash_dir/corpus.toml" \
    --emit-fleet "$crash_dir/warm.json" > /dev/null 2> "$crash_dir/warm.err"
grep -q "cache: 3 hits, 0 misses" "$crash_dir/warm.err"
cmp "$crash_dir/baseline.json" "$crash_dir/warm.json"

echo "==> bench smoke (single iteration, parallel sweep)"
cargo run --release -p bwsa-bench --bin experiments_all -- --quick --bench compress --jobs 2 > /dev/null

echo "==> hotpath bench smoke (tiny trace, JSON parses, throughput positive)"
cargo run --release -p bwsa-bench --bin hotpath -- \
    --quick --iters 1 --out "$report_tmp/hotpath.json" 2> /dev/null
cargo run --release -p bwsa-bench --bin hotpath -- --validate "$report_tmp/hotpath.json"

echo "==> server smoke (daemon up, healthy + poisoned request, clean drain)"
sock="$report_tmp/bwsa.sock"
"$bwsa" generate compress --scale 0.01 -o "$report_tmp/smoke.bwst" > /dev/null
"$bwsa" serve "$sock" &
serve_pid=$!
for _ in $(seq 1 100); do [ -S "$sock" ] && break; sleep 0.05; done
[ -S "$sock" ] || { echo "daemon socket never appeared"; exit 1; }
# Every trace format uploads as-is: a BWST file and its BWSS3
# conversion get the same answer.
"$bwsa" convert "$report_tmp/smoke.bwst" "$report_tmp/smoke.bws3" > /dev/null
"$bwsa" client "$sock" analyze "$report_tmp/smoke.bwst" --tenant smoke \
    > "$report_tmp/served-bwst.json"
"$bwsa" client "$sock" analyze "$report_tmp/smoke.bws3" --tenant smoke \
    > "$report_tmp/served-bws3.json"
cmp "$report_tmp/served-bwst.json" "$report_tmp/served-bws3.json"
# A windowed subscription streams summaries, then the whole-trace answer.
"$bwsa" client "$sock" subscribe "$report_tmp/smoke.bwst" --tenant smoke \
    --window 200 > "$report_tmp/subscribe.out"
grep -q '"index"' "$report_tmp/subscribe.out"
# A served RunReport must validate against this build's golden schema.
"$bwsa" client "$sock" report "$report_tmp/smoke.bwst" --tenant smoke \
    > "$report_tmp/served-report.json"
"$bwsa" validate-report "$report_tmp/served-report.json"
# A served corpus batch answers a fleet summary that validates
# against this build's golden schema.
"$bwsa" client "$sock" corpus "$corpus_dir/corpus.toml" --tenant smoke \
    --jobs 2 > "$report_tmp/served-fleet.json"
"$bwsa" validate-fleet "$report_tmp/served-fleet.json"
# A poisoned payload (valid magic, garbage body) must be a typed
# refusal (exit 1) answered by the daemon — which must survive it.
printf 'BWSS\377\377\377\377 this is not a stream' > "$report_tmp/poison.bwss"
if "$bwsa" client "$sock" analyze "$report_tmp/poison.bwss" \
    > /dev/null 2> "$report_tmp/poison.err"; then
    echo "poisoned request unexpectedly succeeded"; exit 1
else
    rc=$?
    [ "$rc" -eq 1 ] || { echo "poisoned request: expected exit 1, got $rc"; exit 1; }
fi
grep -q "server refused" "$report_tmp/poison.err"
"$bwsa" client "$sock" ping > /dev/null
"$bwsa" client "$sock" status > /dev/null
"$bwsa" client "$sock" shutdown > /dev/null
wait "$serve_pid" || { echo "daemon did not exit 0 on drain"; exit 1; }
[ ! -e "$sock" ] || { echo "socket file left behind after drain"; exit 1; }

echo "==> server bench smoke (throughput + overload phases, schema validates)"
cargo run --release -p bwsa-bench --bin server_bench -- \
    --quick --clients 2 --requests 3 --out "$report_tmp/server.json" 2> /dev/null
cargo run --release -p bwsa-bench --bin server_bench -- --validate "$report_tmp/server.json"

echo "==> corpus bench smoke (BWSS3 cold ingest, cross-format identity, schema validates)"
cargo run --release -p bwsa-bench --bin corpus_bench -- \
    --quick --jobs 2 --out "$report_tmp/corpus.json" 2> /dev/null
cargo run --release -p bwsa-bench --bin corpus_bench -- --validate "$report_tmp/corpus.json"

echo "==> all checks passed"
