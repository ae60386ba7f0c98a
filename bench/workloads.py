"""The benchmark's workloads: seeded op specs, one op's run, its checks.

An op is a short sequence of ``pgn`` invocations run in-process through
``pgn.cli.run``.  Each workload draws a fixed list of ops (one *cycle*) from
its seed; the timed loop repeats the cycle.  Every op's outputs are checked
the first time it runs, and every later run of the same op must reproduce
them byte for byte.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import importlib.util
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from xml.etree import ElementTree

from pgn import cli
from pgn.core import GapFunction, PgnError
from pgn.minima import (GaugeBody, LINEAR_FORM, SIMULTANEOUS, gauge_at_scale,
                        minkowski_check, profile_from_csv,
                        successive_minima_certified)

ROOT = Path(__file__).resolve().parent.parent

WINDOW = "profile-window"
BOX = "profile-box"
BUILD = "build-validate"
WORKLOADS = (WINDOW, BOX, BUILD)

PROFILE = "profile.csv"
SYSTEM = "system.json"
FIGURE = "figure.svg"

# (mode, target count, grid, ops per cycle).  The top grid points dominate:
# window cost grows like e^{nq/(n+1)}, so each grid stops where one op takes
# a few tenths of a second.  Simultaneous m >= 2 and q > 8 are kept out: a
# single op there runs for minutes.
WINDOW_MIX = ((LINEAR_FORM, 2, "0:10:1/2", 128),
              (LINEAR_FORM, 1, "0:13:1/2", 32),
              (SIMULTANEOUS, 1, "0:7:1/2", 32))
# (mode, target count, grid, box bound B, ops per cycle).  Targets whose
# window certificate needs a box larger than B are redrawn, so B certifies
# every point.
BOX_MIX = ((LINEAR_FORM, 2, "0:4:1/2", 6, 48),
           (LINEAR_FORM, 1, "0:5:1/2", 24, 12),
           (SIMULTANEOUS, 1, "0:3:1/2", 24, 12))

# Block counts per n, sized so that ops of every n cost about the same: the
# median op then sits inside one cluster of latencies, not in the gap between
# a cheap n=2 cluster and a dear n=4 one, where it would jump between runs.
BUILD_BLOCKS = {2: (115, 145, 170), 3: (80, 100, 120), 4: (70, 85, 105)}

# Targets are badly approximable at desk scale: ||v.x|| * |v|^n >= 1/10 for
# every integer vector 0 < |v| <= height.  Without this filter a target near
# a rational with a small denominator makes one op 20x slower than the rest,
# and the tail metric follows the few such targets a seed happens to draw.
# Even so, the last window pass lands anywhere in [lambda, 2 lambda), so op
# cost still varies about 2x between targets; many distinct targets per
# cycle keep the run's median and tail steady across seeds.
_BADLY_C = Fraction(1, 10)
_BADLY_HEIGHT = {(LINEAR_FORM, 2): 32, (LINEAR_FORM, 1): 1200,
                 (SIMULTANEOUS, 1): 3000}
# Oracle comparisons use points with q <= 2, where the full box is small.
_ORACLE_MAX_Q = 2
_ORACLE_POINTS = 2
_MAX_DRAWS = 10_000


@dataclass(frozen=True)
class Op:
    kind: str
    calls: tuple[tuple[tuple[str, ...], int], ...]  # (argv, expected exit)
    body: GaugeBody | None = None
    grid: str = ""
    oracle_qs: tuple[Fraction, ...] = ()
    paper: bool = False


@dataclass
class Outcome:
    codes: tuple[int, ...]
    texts: dict[str, str]

    def digest(self) -> str:
        h = hashlib.sha256()
        h.update(repr(self.codes).encode())
        for key in sorted(self.texts):
            data = self.texts[key].encode()
            h.update(f"\0{key}\0{len(data)}\0".encode())
            h.update(data)
        return h.hexdigest()


# ---------------------------------------------------------------------------
# generation


def _grid_points(text: str) -> list[Fraction]:
    start, stop, step = (Fraction(p) for p in text.split(":"))
    points, q = [], start
    while q <= stop:
        points.append(q)
        q += step
    return points


def _badly_approximable(nums, den: int, height: int) -> bool:
    """||v.x|| * |v|^n >= _BADLY_C for 0 < |v| <= height, x = nums/den, n <= 2.

    Vectors are scanned shell by shell (one of each +-v pair), so most
    rejections happen early."""
    limit = _BADLY_C.numerator * den
    for h in range(1, height + 1):
        scale = h ** len(nums) * _BADLY_C.denominator
        if len(nums) == 1:
            residues = (h * nums[0],)
        else:
            a1, a2 = nums
            residues = [v * a1 + h * a2 for v in range(-h, h + 1)]
            residues += [h * a1 + v * a2 for v in range(1 - h, h)]
        for r in residues:
            r %= den
            if min(r, den - r) * scale < limit:
                return False
    return True


def _draw_target(rng: random.Random, mode: str, count: int) -> GaugeBody:
    """A rational target with a 6-7 digit denominator."""
    for _ in range(_MAX_DRAWS):
        den = rng.randrange(100_000, 10_000_000)
        nums = [rng.randrange(-den + 1, den) for _ in range(count)]
        if any(math.gcd(a, den) != 1 for a in nums):
            continue
        if _badly_approximable(nums, den, _BADLY_HEIGHT[mode, count]):
            return GaugeBody(mode, tuple(Fraction(a, den) for a in nums))
    raise RuntimeError(f"no acceptable {mode} target in {_MAX_DRAWS} draws")


def _x_arg(body: GaugeBody) -> str:
    # "--x=<value>": a target starting with '-' given as a separate argument
    # is taken for an option by argparse (see README.md).
    return "--x=" + ",".join(f"{v.numerator}/{v.denominator}" for v in body.x)


def _interleave(groups: list[list[Op]]) -> list[Op]:
    """Merge groups so that every stretch of the cycle holds each group in
    proportion: a run that ends partway through a cycle still sees the
    workload's mix."""
    total = sum(len(g) for g in groups)
    taken = [0] * len(groups)
    out = []
    for i in range(1, total + 1):
        k = max(range(len(groups)),
                key=lambda k: (len(groups[k]) * i - taken[k] * total, -k))
        out.append(groups[k][taken[k]])
        taken[k] += 1
    return out


def _oracle_sample(rng: random.Random, grid: str) -> tuple[Fraction, ...]:
    small = [q for q in _grid_points(grid) if q <= _ORACLE_MAX_Q]
    return tuple(sorted(rng.sample(small, _ORACLE_POINTS)))


def _window_ops(rng: random.Random) -> list[Op]:
    groups = []
    for mode, count, grid, repeat in WINDOW_MIX:
        ops = []
        for k in range(repeat):
            body = _draw_target(rng, mode, count)
            minima_argv = ("minima", "--mode", mode, _x_arg(body),
                           "--grid", grid, "--bound", "auto", "--out", PROFILE)
            diagnose_argv = ("diagnose", "--input", PROFILE,
                             "--w", str(count + 1))
            sample = _oracle_sample(rng, grid) if k % 3 == 0 else ()
            ops.append(Op(WINDOW, ((minima_argv, 0), (diagnose_argv, 0)),
                          body, grid, sample))
        rng.shuffle(ops)
        groups.append(ops)
    return _interleave(groups)


def _box_ops(rng: random.Random) -> list[Op]:
    groups = []
    for mode, count, grid, bound, repeat in BOX_MIX:
        ops = []
        gap = GapFunction()
        qs = _grid_points(grid)
        for _ in range(repeat):
            for _ in range(_MAX_DRAWS):
                body = _draw_target(rng, mode, count)
                if all(successive_minima_certified(body, q, gap=gap).bound
                       <= bound for q in qs):
                    break
            else:
                raise RuntimeError(f"no {mode} target certifies at B={bound}")
            argv = ("minima", "--mode", mode, _x_arg(body), "--grid", grid,
                    "--bound", str(bound), "--out", PROFILE)
            ops.append(Op(BOX, ((argv, 0),), body, grid))
        rng.shuffle(ops)
        groups.append(ops)
    return _interleave(groups)


def _build_ops(rng: random.Random) -> list[Op]:
    # Every (n, w, beta mode, block count) combination once per cycle, since
    # these set the cost; the seed picks the rest.  One op in six, one per
    # (n, beta mode) pair among the w = 2n ops, uses the printed step.  It
    # needs w = 2n: the printed step cannot even build n=4, w=5 in log mode.
    printed = {(n, mode, rng.choice(BUILD_BLOCKS[n]))
               for n in (2, 3, 4) for mode in ("bounded", "log")}
    groups = {n: [] for n in (2, 3, 4)}
    for n, w_kind, beta_mode in product((2, 3, 4), (1, 2),
                                        ("bounded", "log")):
        for blocks in BUILD_BLOCKS[n]:
            w = n + 1 if w_kind == 1 else 2 * n
            paper = w_kind == 2 and (n, beta_mode, blocks) in printed
            argv = ["build", "--n", str(n), "--w", str(w),
                    "--alpha", rng.choice(("1", "3/2", "2")),
                    "--beta-mode", beta_mode,
                    "--delta", str(Fraction(rng.randrange(0, 9), 8)),
                    "--q1", "1000", "--blocks", str(blocks), "--out", SYSTEM]
            if beta_mode == "bounded":
                # beta never equals alpha: with alpha = beta_k the printed step
                # coincides with the closure step and the map is valid.
                argv += ["--beta", rng.choice(("1/2", "3/4", "5/4"))]
            if paper:
                argv.append("--paper-qk1")
            diagnose = ("diagnose", "--input", SYSTEM,
                        "--epsilon", rng.choice(("1/2", "1/3", "2/3")),
                        "--nu", rng.choice(("1/2", "1/4", "3/5")))
            groups[n].append(Op(BUILD, (
                (tuple(argv), 0),
                (("validate", SYSTEM), 2 if paper else 0),
                (diagnose, 0),
                (("plot", "--input", SYSTEM, "--out", FIGURE), 0)),
                paper=paper))
    for ops in groups.values():
        rng.shuffle(ops)
    return _interleave(list(groups.values()))


def generate(workload: str, seed: int) -> list[Op]:
    """The cycle of ops for a workload; the same seed gives the same ops."""
    rng = random.Random(f"{workload}:{seed}")
    make = {WINDOW: _window_ops, BOX: _box_ops, BUILD: _build_ops}[workload]
    return make(rng)


# ---------------------------------------------------------------------------
# execution


def _invoke(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(list(argv))
        except Exception as exc:  # a crash fails the op, not the benchmark
            traceback.print_exc(file=sys.__stderr__)
            print(f"uncaught {type(exc).__name__}: {exc}", file=err)
            code = 1
    return code, out.getvalue(), err.getvalue()


def execute(op: Op) -> tuple[Outcome, float]:
    """Run one op in the current directory; returns its outputs and latency.

    Only the CLI calls are timed; reading the written files back is not."""
    codes, texts = [], {}
    elapsed = 0.0
    for i, (argv, _) in enumerate(op.calls):
        start = time.perf_counter()
        code, out, err = _invoke(argv)
        elapsed += time.perf_counter() - start
        codes.append(code)
        texts[f"{i}.stdout"] = out
        texts[f"{i}.stderr"] = err
    for name in ((PROFILE,) if op.kind != BUILD else (SYSTEM, FIGURE)):
        path = Path(name)
        texts[name] = path.read_text() if path.exists() else ""
        path.unlink(missing_ok=True)
    return Outcome(tuple(codes), texts), elapsed


# ---------------------------------------------------------------------------
# checks


def integer_det(rows) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    size, sign, prev = len(a), 1, 1
    for k in range(size - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def _required_box(body: GaugeBody, scale: Fraction, lam: Fraction) -> int:
    """Box max-norm containing every vector of gauge <= lam.

    Restated from the body definitions rather than imported, so the oracle
    comparison does not rest on the certificate code it checks."""
    if body.mode == LINEAR_FORM:
        need = max(lam, lam / scale + lam * sum(abs(x) for x in body.x))
    else:
        v0 = lam * scale ** len(body.x)
        need = max(v0, lam / scale + max(abs(x) for x in body.x) * v0)
    return math.ceil(need)


@functools.cache
def _oracles():
    path = ROOT / "tests" / "oracles.py"
    spec = importlib.util.spec_from_file_location("pgn_bench_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _parse_rows(text: str, dim: int):
    """(q, minima, witnesses, error) per CSV row, parsed independently."""
    rows = []
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    for line in lines[1:]:
        cells = line.split(",")
        q = Fraction(cells[0])
        error = ",".join(cells[1 + 3 * dim:])
        if error or not cells[1]:
            rows.append((q, None, None, error or "empty row"))
            continue
        lams = tuple(Fraction(c) for c in cells[1:1 + dim])
        wits = tuple(tuple(int(c) for c in cell.split(";"))
                     for cell in cells[1 + 2 * dim:1 + 3 * dim])
        rows.append((q, lams, wits, ""))
    return rows


def _check_profile(op: Op, text: str) -> list[str]:
    body, dim = op.body, op.body.dim
    gap = GapFunction(profile_from_csv(text).gap_bits)
    rows = _parse_rows(text, dim)
    problems = []
    if [r[0] for r in rows] != _grid_points(op.grid):
        problems.append("profile grid differs from the requested grid")
    for q, lams, wits, error in rows:
        if error:
            problems.append(f"q={q}: refused grid point: {error}")
            continue
        scale = gap.exp(q)
        if any(b < a for a, b in zip(lams, lams[1:])):
            problems.append(f"q={q}: minima decrease")
        if any(lam != gauge_at_scale(body, scale, w)
               for lam, w in zip(lams, wits)):
            problems.append(f"q={q}: a minimum differs from its witness gauge")
        if integer_det(wits) == 0:
            problems.append(f"q={q}: witnesses are not of full rank")
        if q in op.oracle_qs:
            bound = _required_box(body, scale, lams[-1])
            expect = _oracles().oracle_minima_values(body.mode, body.x, scale,
                                                     bound)
            if tuple(expect) != lams:
                problems.append(f"q={q}: minima differ from the oracle")
        if op.kind == BOX:
            ref = successive_minima_certified(body, q, gap=gap)
            if ref.minima != lams or ref.witnesses != wits:
                problems.append(f"q={q}: box result differs from the window "
                                "result")
    if not minkowski_check(profile_from_csv(text)).ok:
        problems.append("Minkowski second-theorem check fails")
    return problems


def _check_build(op: Op, out: Outcome) -> list[str]:
    problems = []
    doc = json.loads(out.texts[SYSTEM])
    if not doc.get("breakpoints") \
            or len(doc["values"]) != len(doc["breakpoints"]):
        problems.append("system JSON lacks breakpoints or value rows")
    lines = out.texts["1.stdout"].splitlines()
    summary = json.loads(lines[-1])
    listed = len(lines) - 1
    if op.paper:
        if summary["is_system"] or summary["violations"] < 1 \
                or summary["violations"] != listed:
            problems.append(f"printed-step build not rejected: {lines[-1]}")
    elif lines[-1] != '{"is_system": true, "violations": 0}':
        problems.append(f"closure build not a system: {lines[-1]}")
    if not isinstance(json.loads(out.texts["2.stdout"]), dict):
        problems.append("diagnose output is not a JSON object")
    root = ElementTree.fromstring(out.texts[FIGURE])
    if not root.tag.endswith("svg"):
        problems.append("plot output is not an SVG document")
    return problems


def check(op: Op, out: Outcome) -> list[str]:
    """Every problem with one op's outputs; an empty list means correct."""
    expected = tuple(code for _, code in op.calls)
    if out.codes != expected:
        return [f"exit codes {out.codes}, expected {expected}: "
                + " | ".join(t.strip() for k, t in sorted(out.texts.items())
                             if k.endswith("stderr") and t.strip())]
    try:
        if op.kind == BUILD:
            return _check_build(op, out)
        return _check_profile(op, out.texts[PROFILE])
    except (PgnError, ValueError, KeyError, IndexError,
            ElementTree.ParseError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
