"""Benchmark for the pgn toolkit: whole CLI runs, one closed-loop client.

    python3 bench/run.py --workload profile-window --seed 1 --seconds 35 --trace 0

One single-threaded client runs ops back to back through ``pgn.cli.run``,
in-process; each op starts when the previous one ends.  The last line of
stdout is one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
each op runs once untraced and once with layer spans installed, and the
metrics are the per-layer ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("profile-window", "profile-box", "build-validate")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
SPAN_OPS = 3          # traced ops whose raw spans are written out
TAIL_BEYOND = 10      # samples above the reported tail latency


def _die(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help=argparse.SUPPRESS)  # child mode for setup_s
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


class _Workdir:
    """A scratch directory inside the checkout, entered for the ops."""

    def __init__(self, tag: str):
        self.path = OUT / f"work-{tag}-{os.getpid()}"
        self.previous = None

    def __enter__(self):
        self.path.mkdir(parents=True, exist_ok=True)
        self.previous = os.getcwd()
        os.chdir(self.path)
        return self

    def __exit__(self, *exc):
        os.chdir(self.previous)
        shutil.rmtree(self.path, ignore_errors=True)


# ---------------------------------------------------------------------------
# set-up time: fresh interpreters, each importing pgn, generating the inputs
# and running one untimed warm-up op


def _probe(args):
    import workloads
    ops = workloads.generate(args.workload, args.seed)
    with _Workdir(f"probe-{args.workload}"):
        workloads.execute(ops[0])
    print("ready", flush=True)


def _setup_seconds(args) -> list[float]:
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--probe"]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                ready, _, _ = select.select([proc.stdout], [], [],
                                            PROBE_TIMEOUT_S)
                line = proc.stdout.readline() if ready else ""
                elapsed = time.perf_counter() - start
                if line.strip() == "ready":
                    proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                pass
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            _die(f"set-up probe failed or took over {PROBE_TIMEOUT_S} s "
                 f"(exit {proc.returncode})")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------------------
# the timed loop


class _Ledger:
    """First-run digest and checks per op; every rerun must match."""

    def __init__(self, workloads, ops):
        self.workloads = workloads
        self.ops = ops
        self.digests: list[str | None] = [None] * len(ops)
        self.sizes = [0] * len(ops)
        self.problems: dict[int, list[str]] = {}
        self.counts: list[dict | None] = [None] * len(ops)

    def record(self, j: int, outcome, counts=None) -> bool:
        """True when this run of op j is correct."""
        digest = outcome.digest()
        if self.digests[j] is None:
            self.digests[j] = digest
            self.sizes[j] = sum(len(t.encode())
                                for t in outcome.texts.values())
            problems = self.workloads.check(self.ops[j], outcome)
            if problems:
                self.problems[j] = problems
        elif digest != self.digests[j]:
            self.problems.setdefault(j, []).append(
                "output differs from the op's first run")
        if counts is not None:
            if self.counts[j] is None:
                self.counts[j] = counts
            elif counts != self.counts[j]:
                self.problems.setdefault(j, []).append(
                    "layer counters differ from the op's first run")
        return j not in self.problems

    def digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()

    def cycle_counters(self) -> dict:
        total: Counter = Counter()
        for counts in self.counts:
            for key, value in counts.items():
                if key == "template.q_end_bits":
                    total[key] = max(total[key], value)
                else:
                    total[key] += value
        return dict(sorted(total.items()))


def _traced_run(workloads, tracer, op, index: int, keep: bool):
    tracer.counts = Counter()
    tracer.op = index
    tracer.keep_spans = keep
    tracer.install()
    try:
        outcome, elapsed = workloads.execute(op)
    finally:
        tracer.uninstall()
    return outcome, elapsed, dict(tracer.counts)


def _run_loop(args, workloads, ops, ledger, tracer):
    plain, traced = [], []
    attempted = failed = 0
    spent = 0.0
    i = 0
    while spent < args.seconds:
        j = i % len(ops)
        outcome, elapsed = workloads.execute(ops[j])
        spent += elapsed
        plain.append(elapsed)
        attempted += 1
        failed += not ledger.record(j, outcome)
        if tracer is not None:
            outcome, elapsed, counts = _traced_run(
                workloads, tracer, ops[j], i, len(traced) < SPAN_OPS)
            spent += elapsed
            traced.append(elapsed)
            attempted += 1
            failed += not ledger.record(j, outcome, counts)
        i += 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # Ops the timed loop did not reach still run once, untimed, so checks,
    # digest and counters always cover the whole cycle.
    busy = self_time = None
    if tracer is not None:
        busy, self_time = Counter(tracer.busy), Counter(tracer.self_time)
    for j in range(i, len(ops)):
        ledger.record(j, workloads.execute(ops[j])[0])
        if tracer is not None:
            outcome, _, counts = _traced_run(workloads, tracer, ops[j], j,
                                             False)
            ledger.record(j, outcome, counts)
    return {"plain": plain, "traced": traced, "attempted": attempted,
            "failed": failed, "spent": spent, "peak_rss_mb": peak_rss_mb,
            "busy": busy, "self": self_time}


# ---------------------------------------------------------------------------
# metrics


def _tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    k = len(ordered) - 1 - min(TAIL_BEYOND, len(ordered) - 1)
    return ordered[k], 100.0 * (k + 1) / len(ordered), len(ordered)


def _percentile(latencies, share):
    """Nearest-rank percentile: the smallest sample with at least ``share``
    of the samples at or below it."""
    ordered = sorted(latencies)
    return ordered[max(math.ceil(share * len(ordered)) - 1, 0)]


def _end_to_end(loop, setup) -> dict:
    """The metrics BENCHMARK.json bounds.

    On a shared host the speed of the same op drifts by a third or more
    over minutes, and how much of a run falls in fast stretches varies from
    run to run, while the slow, contended stretches recur in every run.
    The median, the mean and the 75th percentile follow the share of fast
    stretches; the 90th percentile and the tail do not, so those are the
    latency metrics that are bounded."""
    tail, _, _ = _tail(loop["plain"])
    return {
        "setup_s": (statistics.median(setup), "s"),
        "op_p90_s": (_percentile(loop["plain"], 0.9), "s"),
        "op_tail_s": (tail, "s"),
        "peak_rss_mb": (loop["peak_rss_mb"], "MB"),
    }


def _unbounded(loop) -> dict:
    """Printed and kept in the detail line, but too noisy on a shared host,
    or (error_rate) 0 on correct code, so BENCHMARK.json does not list them."""
    plain = loop["plain"]
    return {
        "op_p50_s": (statistics.median(plain), "s"),
        "throughput_ops_s": (len(plain) / sum(plain), "ops/s"),
        "error_rate": (loop["failed"] / loop["attempted"], "ratio"),
    }


def _per_layer(loop, counters, absent_spans) -> tuple[dict, list[str]]:
    traced = loop["traced"]
    ops = len(traced)
    busy, self_time = loop["busy"], loop["self"]
    metrics, absent = {}, []

    def put(name, value, unit, *spans):
        if any(s in absent_spans for s in spans):
            absent.append(name)
            value = 0
        metrics[name] = (value, unit)

    def busy_s(span):
        put(f"{span}.busy_s", busy[span] / ops, "s", span)

    def self_s(span):
        put(f"{span}.self_s", self_time[span] / ops, "s", span)

    def count(key, span, unit="count"):
        put(key, counters.get(key, 0), unit, span)

    def calls(span):
        count(f"{span}.calls", span)

    for span in ("core.gap_exp", "core.gap_log"):
        busy_s(span)
        calls(span)
    busy_s("minima.certified")
    calls("minima.certified")
    self_s("minima.enumerate_within")
    calls("minima.enumerate_within")
    count("minima.enumerate_within.candidates", "minima.enumerate_within")
    passes = counters.get("minima.enumerate_within.calls", 0)
    points = counters.get("minima.certified.calls", 0)
    solved = counters.get("minima.certified.ok", 0)
    put("minima.passes_per_point", passes / points if points else 0,
        "ratio", "minima.certified", "minima.enumerate_within")
    put("minima.wasted_pass_share", (passes - solved) / passes if passes
        else 0, "ratio", "minima.certified", "minima.enumerate_within")
    busy_s("minima.box")
    self_s("minima.enumerate_box")
    count("minima.enumerate_box.candidates", "minima.enumerate_box")
    self_s("minima.greedy_minima")
    calls("minima.greedy_minima")
    count("minima.greedy_minima.candidates_in", "minima.greedy_minima")
    busy_s("minima.profile_to_csv")
    busy_s("minima.profile_from_csv")
    count("minima.csv_bytes", "minima.profile_to_csv", "bytes")
    busy_s("template.build_system")
    self_s("template.build_block")
    calls("template.build_block")
    count("template.q_end_bits", "template.build_system", "bits")
    busy_s("validator.validate_raw")
    self_s("validator.validate")
    count("validator.segments", "validator.validate")
    count("validator.violations", "validator.validate_raw")
    self_s("diagnostics.analyze")
    busy_s("diagnostics.analyze_profile")
    busy_s("svg.render_svg")
    count("svg.bytes", "svg.render_svg", "bytes")
    self_s("cli.run")
    count("cli.json_bytes", "cli.json", "bytes")
    traced_p50 = statistics.median(traced)
    plain_p50 = statistics.median(loop["plain"])
    put("trace.op_p50_s", traced_p50, "s")
    put("trace.untraced_op_p50_s", plain_p50, "s")
    put("trace.overhead_s", traced_p50 - plain_p50, "s")
    put("trace.accounted_share", sum(self_time.values()) / sum(traced),
        "ratio")
    return metrics, absent


# ---------------------------------------------------------------------------
# environment and cross-run ledger


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "pgn").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return None


def _environment(args, gap_bits: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": args.seed, "gap_bits": gap_bits,
            "git_commit": _git_commit(), "source_sha256": _source_digest()}


def _compare_with_earlier(args, record: dict) -> list[str]:
    """Digest and counters must equal those of any earlier run of the same
    source with the same workload and seed."""
    path = OUT / "ledger" / f"{args.workload}-seed{args.seed}.json"
    try:
        earlier = json.loads(path.read_text())
    except (OSError, ValueError):
        earlier = {}
    problems = []
    if earlier.get("source_sha256") == record["source_sha256"]:
        for key in ("digest", "output_bytes", "counters"):
            if key in earlier and key in record \
                    and earlier[key] != record[key]:
                problems.append(f"{key} differs from an earlier run of the "
                                "same code")
    else:
        earlier = {}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**earlier, **record}, sort_keys=True) + "\n")
    return problems


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "pgn" / "cli.py").is_file() \
            or not (ROOT / "tests" / "oracles.py").is_file():
        _die("run from a checkout of the pgn repository (src/pgn and "
             "tests/oracles.py are missing)")
    sys.path.insert(0, str(ROOT / "src"))
    if args.probe:
        _probe(args)
        return 0

    setup = [] if args.trace else _setup_seconds(args)
    import workloads
    from pgn.core import DEFAULT_GAP_BITS
    ops = workloads.generate(args.workload, args.seed)
    ledger = _Ledger(workloads, ops)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    with _Workdir(args.workload):
        ledger.record(0, workloads.execute(ops[0])[0])  # warm-up, untimed
        loop = _run_loop(args, workloads, ops, ledger, tracer)

    gap_bits = int(os.environ.get("PGN_GAP_BITS", DEFAULT_GAP_BITS))
    env = _environment(args, gap_bits)
    record = {"source_sha256": env["source_sha256"], "digest": ledger.digest(),
              "output_bytes": sum(ledger.sizes)}
    counters = None
    if tracer is not None:
        counters = ledger.cycle_counters()
        record["counters"] = counters
    problems = [f"op {j}: {p}" for j, ps in sorted(ledger.problems.items())
                for p in ps]
    problems += _compare_with_earlier(args, record)

    if tracer is not None:
        metrics, absent = _per_layer(loop, counters, tracer.absent)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.dump_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        metrics, absent = _end_to_end(loop, setup), []
    _, percentile, samples = _tail(loop["plain"])
    unbounded = _unbounded(loop)
    detail = {
        "workload": args.workload, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "ops_per_cycle": len(ops), "digest": record["digest"],
        "output_bytes": record["output_bytes"], "counters": counters,
        "unbounded": {name: value
                      for name, (value, _) in unbounded.items()},
        "tail": {"percentile": percentile, "samples": samples},
        "setup_samples_s": setup, "absent": absent, "problems": problems[:20],
    }
    for name, (value, unit) in metrics.items():
        note = " (absent)" if name in absent else ""
        print(f"{name} {value:.6g} {unit}{note}")
    for name, (value, unit) in unbounded.items():
        print(f"{name} {value:.6g} {unit} (not bounded)")
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not problems and loop["failed"] == 0,
        "attempted": loop["attempted"], "failed": loop["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
