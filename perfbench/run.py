#!/usr/bin/env python3
"""The bwsa benchmark of record: end-to-end runs of the real `bwsa` binary,
plus a separate traced run of the library calls behind each command.

    python3 perfbench/run.py --workload paper-large --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload windowed --steadiness 5 --seed 1

Run from the repository root. The script builds `bwsa` and the `perfbench`
helper in release mode (into $CARGO_TARGET_DIR, default .bench_build),
generates the workload's inputs from --seed, sets up, measures for
--seconds, checks every output, and prints an environment block, a table of
every metric (median, quartiles, min, max, sample count) and, as the last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
For the command-line workloads, op_ms and setup_s are times at a nominal
host speed: each op cycle and set-up round is scaled by a fixed reference
load timed just before and after it (see Gauge), because the shared host's
speed drifts by more than the metrics' bounds.

--steadiness K runs the workload K times on --seed (--vary-seeds: on seeds
--seed .. --seed+K-1) and prints each end-to-end metric's quartile spread
against its bound in BENCHMARK.json, then runs the held-out seed
(HELD_OUT_SEED, for checking a claim on inputs nobody tuned against) once
and fails if its outputs are wrong.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("paper-large", "windowed", "corpus-small", "daemon-mix")
HELD_OUT_SEED = 7_700_417
SETUPS = 25  # set-up repetitions per run; setup_s is their median
MIN_OPS = 3  # op cycles measured even when --seconds runs out first
REFERENCE_S = 0.25  # the reference load's time on a nominal host (see Gauge)
LOAD_EXPONENT = 1.25  # how much more the host's load slows bwsa than the reference (see Gauge)
TRACE_REPS = 2  # untraced/traced op pairs in a traced run, at least


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """A broken run: nothing is measured, no result is printed."""


def build():
    """Builds `bwsa` and the helper; returns their paths."""
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "bwsa",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(BENCH_DIR, "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise Failure("build failed: " + " ".join(cmd))
    release = os.path.join(target, "release")
    return os.path.join(release, "bwsa"), os.path.join(release, "perfbench")


def environment(args):
    def out(cmd):
        try:
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            return r.stdout.strip() if r.returncode == 0 else None
        except OSError:
            return None

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return [
        ("nproc", str(os.cpu_count())),
        ("cpu", cpu),
        ("rustc", out(["rustc", "--version"]) or "unknown"),
        ("profile", "release"),
        ("git_rev", out(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)"),
        ("workload", args.workload),
        ("seed", str(args.seed)),
        ("seconds", str(args.seconds)),
        ("trace", str(args.trace)),
    ]


def helper(perfbench, *args):
    r = subprocess.run([perfbench, *map(str, args)], cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        raise Failure(f"perfbench {args[0]} failed: {r.stderr.strip()}")
    return json.loads(r.stdout)


class Op:
    """One finished `bwsa` child: wall time, peak RSS, exit code, output."""

    def __init__(self, seconds, rss_mib, code, stdout, stderr):
        self.seconds, self.rss_mib, self.code = seconds, rss_mib, code
        self.stdout, self.stderr = stdout, stderr


def run_bwsa(bwsa, args, work):
    err_path = os.path.join(work, "bwsa.stderr")
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        p = subprocess.Popen([bwsa, *args], cwd=work, stdin=subprocess.DEVNULL,
                             stdout=subprocess.PIPE, stderr=err)
        out = p.stdout.read()
        _, status, usage = os.wait4(p.pid, 0)
        seconds = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        p.stdout.close()
    with open(err_path, encoding="utf-8", errors="replace") as f:
        stderr = f.read()
    return Op(seconds, usage.ru_maxrss / 1024.0, p.returncode,
              out.decode("utf-8", errors="replace"), stderr)


class Gate:
    """Counts checked ops; an op fails on a non-zero exit or a wrong answer."""

    def __init__(self):
        self.attempted, self.failures = 0, []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            log(f"FAILED: {what}")
        return ok

    def absorb(self, doc):
        self.attempted += doc["attempted"]
        for f in doc["failures"]:
            self.failures.append(f)
            log(f"FAILED: {f}")


class Gauge:
    """Gauges the shared host's speed with `perfbench reference`, a fixed
    load that uses none of the program's code.

    On a shared 2-vCPU Xeon VM, other tenants slowed every step by up to
    ~1.8x, in stretches from seconds to many minutes, and CPU time moved with
    wall time. A measured step is sandwiched between two reference runs, and
    `scale()` gives the factor that turns its time into the time on a nominal
    host, one that runs the reference in REFERENCE_S.

    The load slows bwsa's ops more than it slows the reference: over 10
    minutes, the log of the op time moved about 1.25 times as far as the log
    of the reference time, on both workloads. So the factor is
    (REFERENCE_S / reference) ** LOAD_EXPONENT. Over 40 s windows this cut
    the spread of the op median from ~0.2-0.3 to ~0.04 of its value (~0.06
    with an exponent of 1)."""

    def __init__(self, perfbench, work, gate):
        self.perfbench, self.work, self.gate = perfbench, work, gate
        self.samples, self.checksum = [], None
        self.sample()

    def sample(self):
        op = run_bwsa(self.perfbench, ["reference"], self.work)
        checksum = json.loads(op.stdout)["checksum"] if op.code == 0 else None
        self.gate.op(checksum is not None and self.checksum in (None, checksum),
                     f"reference load exited {op.code} or changed its checksum to {checksum}")
        self.checksum = self.checksum or checksum
        self.samples.append(op.seconds)

    def scale(self):
        """Runs the reference after the step just measured; returns the
        factor for the mean of the reference times before and after it."""
        self.sample()
        reference = (self.samples[-2] + self.samples[-1]) / 2
        return (REFERENCE_S / reference) ** LOAD_EXPONENT


def set_up(bwsa, work, traces, gate, rounds, gauge=None):
    """Converts the generated BWSS2 streams to BWSS3 with `bwsa convert`,
    `rounds` times; returns the time of each round, scaled by `gauge` when
    one is given."""
    times, first = [], None
    for _ in range(rounds):
        total, outputs = 0.0, []
        for t in traces:
            out = os.path.join(work, t["key"] + ".bws3")
            op = run_bwsa(bwsa, ["convert", t["bwss"], out], work)
            gate.op(op.code == 0, f"convert {t['key']} exited {op.code}: {op.stderr.strip()}")
            total += op.seconds
            with open(out, "rb") as f:
                outputs.append(f.read())
        gate.op(first is None or outputs == first, "convert is not deterministic")
        first = first or outputs
        times.append(total * gauge.scale() if gauge else total)
    for t in traces:
        if t["alternate"]:
            key = os.path.join(work, t["key"])
            op = run_bwsa(bwsa, ["convert", t["alternate"], key + ".alt.bws3"], work)
            gate.op(op.code == 0, f"convert {t['key']} (regenerated) exited {op.code}")
            shutil.copyfile(key + ".bws3", key + ".orig.bws3")
    return times


def set_corpus_state(work, traces, regenerated):
    for t in traces:
        if t["alternate"]:
            key = os.path.join(work, t["key"])
            shutil.copyfile(key + (".alt.bws3" if regenerated else ".orig.bws3"), key + ".bws3")


def check_stdout(gate, op, expected, what):
    if op.code != 0:
        return gate.op(False, f"{what} exited {op.code}: {op.stderr.strip()}")
    return gate.op(op.stdout == expected, f"{what} printed a result that differs from the library's")


def cache_counts(stderr):
    """(hits, misses) from `bwsa corpus`'s cache line on stderr."""
    for line in stderr.splitlines():
        if line.startswith("cache: "):
            words = line.split()
            return int(words[1]), int(words[3])
    return None


def corpus_cycle(bwsa, work, traces, expected, gate):
    """A cold run into an empty cache, then the incremental re-run after
    one entry in four is regenerated. Returns (cold op, incremental op)."""
    cache = os.path.join(work, "cache")
    shutil.rmtree(cache, ignore_errors=True)
    set_corpus_state(work, traces, False)
    args = ["corpus", "corpus.toml", "--jobs", "2", "--report", "json", "--cache-dir", cache]
    cold = run_bwsa(bwsa, args, work)
    set_corpus_state(work, traces, True)
    incr = run_bwsa(bwsa, args, work)
    set_corpus_state(work, traces, False)
    changed = {t["key"] + ".bws3" for t in traces if t["alternate"]}
    summaries = {}
    for name, op in (("cold", cold), ("incremental", incr)):
        if not gate.op(op.code == 0, f"corpus {name} run exited {op.code}: {op.stderr.strip()}"):
            return cold, incr
        summaries[name] = {e["path"]: e for e in json.loads(op.stdout)["entries"]}
    fields = ("records", "total_sets", "max_set", "required_size")
    for key, entry in summaries["cold"].items():
        want = expected["corpus"].get("orig:" + key)
        gate.op(want is not None and all(entry.get(f) == want[f] for f in fields)
                and entry.get("status") == "ok", f"corpus cold entry {key} differs from the library's")
    for key, entry in summaries["incremental"].items():
        if key in changed:
            want = expected["corpus"].get("alt:" + key)
            ok = want is not None and all(entry.get(f) == want[f] for f in fields)
        else:
            ok = entry == summaries["cold"].get(key)
        gate.op(ok, f"corpus incremental entry {key} differs")
    counts = cache_counts(incr.stderr)
    unchanged = len(traces) - len(changed)
    gate.op(counts == (unchanged, len(changed)),
            f"incremental cache hits/misses {counts}, expected {unchanged}/{len(changed)}")
    return cold, incr


def run_cycle(workload, bwsa, work, traces, expected, gate):
    """One op cycle of a command-line workload: the `bwsa` children it ran,
    by the name of the metric that times them."""
    if workload == "corpus-small":
        cold, incr = corpus_cycle(bwsa, work, traces, expected, gate)
        return {"corpus_cold_s": cold, "corpus_incr_s": incr}
    key = traces[0]["key"]
    trace = key + ".bws3"
    if workload == "paper-large":
        a = run_bwsa(bwsa, ["analyze", trace], work)
        check_stdout(gate, a, expected["stdout"]["analyze:" + key], "analyze")
        b = run_bwsa(bwsa, ["allocate", "--classify", trace], work)
        check_stdout(gate, b, expected["stdout"]["allocate:" + key], "allocate --classify")
        return {"analyze_s": a, "allocate_s": b}
    a = run_bwsa(bwsa, ["analyze", trace, "--window", "4096", "--jobs", "2"], work)
    check_stdout(gate, a, expected["stdout"]["window:" + key], "analyze --window 4096 --jobs 2")
    return {"analyze_s": a}


def stats(values):
    v = sorted(values)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
    return {"median": statistics.median(v), "q1": q1, "q3": q3, "min": v[0], "max": v[-1],
            "n": len(v)}


def tail(values):
    """The highest percentile (a multiple of 10) with at least ten samples
    beyond it, and its nearest-rank value."""
    v = sorted(values)
    for p in range(90, 0, -10):
        if len(v) * (100 - p) / 100 >= 10:
            return p, v[max(1, -(-p * len(v) // 100)) - 1]
    return 0, v[0]


def measure(args, bwsa, perfbench, work, gate):
    """The untraced run; returns (table rows, end-to-end metrics)."""
    traces = helper(perfbench, "gen", "--workload", args.workload, "--seed", args.seed,
                    "--dir", work)["traces"]
    samples, extra = {}, []
    if args.workload == "daemon-mix":
        doc = helper(perfbench, "daemon", "--workload", args.workload, "--dir", work,
                     "--bwsa", bwsa, "--seed", args.seed, "--seconds", args.seconds)
        gate.absorb(doc)
        gate.op(doc["shed"] == 0, f"{doc['shed']} requests shed at the fixed rate")
        samples["setup_s"] = doc["setup_s"]
        op_values = samples["req_p50_ms"] = doc["latency_ms"]
        p, value = tail(op_values)
        extra.append((f"req_p{p}_ms", "ms", {"value": value, "n": len(op_values),
                      "note": f"at {doc['fixed_rate']:g} req/s offered"}))
        extra.append(("max_rps", "req/s", {"value": doc["max_rps"], "n": len(doc["steps"])}))
        for s in doc["steps"]:
            verdict = "meets limit" if s["meets_limit"] else "over limit or backlog"
            extra.append((f"  p90 at {s['rate']:g} req/s", "ms", {"value": s["p90_ms"],
                          "note": verdict}))
        peak = doc["peak_rss_mib"]
    else:
        gauge = Gauge(perfbench, work, gate)
        samples["setup_s"] = set_up(bwsa, work, traces, gate, SETUPS, gauge)
        expected = helper(perfbench, "expect", "--workload", args.workload, "--dir", work,
                          "--bwsa", bwsa)
        gate.absorb(expected)
        expected = expected["expected"]
        op_values, scaled, peak, start = [], [], 0.0, time.perf_counter()
        while len(op_values) < MIN_OPS or time.perf_counter() - start < args.seconds:
            ops = run_cycle(args.workload, bwsa, work, traces, expected, gate)
            for k, op in ops.items():
                samples.setdefault(k, []).append(op.seconds)
            op_values.append(sum(op.seconds for op in ops.values()) * 1e3)
            scaled.append(op_values[-1] * gauge.scale())
            peak = max(peak, max(op.rss_mib for op in ops.values()))
    # Command-line ops report their median time at nominal host speed (see
    # Gauge); daemon latencies are reported as measured.
    op_ms = statistics.median(op_values if args.workload == "daemon-mix" else scaled)
    rows = [(k, "ms" if k.endswith("_ms") else "s", stats(v)) for k, v in samples.items()]
    rows += extra
    rows.append(("op cycle", "ms", stats(op_values)))
    if args.workload != "daemon-mix":
        rows.append(("reference", "s", stats(gauge.samples)))
        rows.append(("op cycle at nominal speed", "ms", stats(scaled)))
    rows.append(("op_ms", "ms", {"value": op_ms}))
    rows.append(("peak_rss_mib", "MiB", {"value": peak}))
    rows.append(("failed_ratio", "ratio", {"value": len(gate.failures) / max(gate.attempted, 1),
                                          "n": gate.attempted}))
    metrics = {
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "op_ms": (op_ms, "ms"),
        "peak_rss_mib": (peak, "MiB"),
    }
    return rows, metrics


def traced(args, bwsa, perfbench, work, gate):
    """The traced run: per-layer metrics, plus one command-line op cycle
    checked against the traced run's library results."""
    traces = helper(perfbench, "gen", "--workload", args.workload, "--seed", args.seed,
                    "--dir", work)["traces"]
    set_up(bwsa, work, traces, gate, 1)
    spans = os.path.join(os.path.dirname(work), f"spans-{args.workload}-seed{args.seed}.jsonl")
    doc = helper(perfbench, "trace", "--workload", args.workload, "--dir", work, "--bwsa", bwsa,
                 "--reps", TRACE_REPS, "--seconds", args.seconds, "--spans", spans)
    gate.absorb(doc)
    if args.workload != "daemon-mix":
        run_cycle(args.workload, bwsa, work, traces, doc["expected"], gate)
    log(f"spans written to {os.path.relpath(spans, ROOT)}")
    metrics = {k: (v["value"], v["unit"]) for k, v in doc["metrics"].items()}
    rows = [(k, unit, {"value": value}) for k, (value, unit) in metrics.items()]
    return rows, metrics


def print_table(env, rows):
    for k, v in env:
        print(f"# {k}: {v}")
    cols = ("median", "q1", "q3", "min", "max")
    print(f"{'metric':<36} {'unit':<7}" + "".join(f"{c:>12}" for c in cols) + f"{'n':>6}")
    for name, unit, s in rows:
        if "median" in s:
            cells = "".join(f"{s[c]:>12.6g}" for c in cols)
        else:
            cells = f"{s['value']:>12.6g}" + " " * 48
        note = f"  ({s['note']})" if "note" in s else ""
        print(f"{name:<36} {unit:<7}{cells}{s.get('n', ''):>6}{note}")


def one_run(args, seed):
    """One untraced run in a child process; its result, checked correct."""
    r = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", args.workload,
                        "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                       cwd=ROOT, capture_output=True, text=True)
    if r.returncode != 0:
        raise Failure(f"seed {seed} failed:\n{r.stderr}")
    result = json.loads(r.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise Failure(f"seed {seed} produced wrong results:\n{r.stderr}")
    log(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()))
    return result


def steadiness(args):
    """Runs the workload K times on --seed (or, with --vary-seeds, on K
    consecutive seeds) and prints each end-to-end metric's quartile spread
    against its bound; then runs the held-out seed once for correctness.
    Steady means every spread, setup_s's too, is at most a third of its
    bound."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    for i in range(args.steadiness):
        result = one_run(args, args.seed + i if args.vary_seeds else args.seed)
        for k, v in result["metrics"].items():
            values.setdefault(k, []).append(v["value"])
    one_run(args, HELD_OUT_SEED)
    print(f"{'metric':<16}{'median':>12}{'spread':>9}{'bound':>8}{'spread/bound':>14}")
    steady = True
    for k, v in values.items():
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med
        ok = spread <= bounds[k] / 3
        steady &= ok
        print(f"{k:<16}{med:>12.6g}{spread:>9.3f}{bounds[k]:>8.2f}{spread / bounds[k]:>14.2f}"
              + ("" if ok else "  above a third of the bound"))
    return 0 if steady else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="K", help="run K times and print spreads")
    ap.add_argument("--vary-seeds", action="store_true",
                    help="with --steadiness: run seeds --seed .. --seed+K-1 instead of --seed K times")
    args = ap.parse_args()
    try:
        if args.steadiness:
            return steadiness(args)
        bwsa, perfbench = build()
        env = environment(args)
        work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        gate = Gate()
        try:
            rows, metrics = (traced if args.trace else measure)(args, bwsa, perfbench, work, gate)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except Failure as e:
        log(f"run.py: {e}")
        return 1
    print_table(env, rows)
    print(json.dumps({
        "correct": not gate.failures,
        "attempted": max(gate.attempted, 1),
        "failed": len(gate.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
