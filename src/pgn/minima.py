"""Successive minima of parametrized convex bodies by exact enumeration.

Two gauge bodies are supported, both in one integer row form

    {v : max_r |A_r . v| * E^p_r / d_r <= T},

with integer rows A_r triangular in a pivot order: each row brings in one
new coordinate, its pivot, and reads only pivots of earlier rows.  The
linear-form body has n unit rows on v_1..v_n (p=0, d=1), then the form row
(den, nums...) (p=1, d=den); the simultaneous-approximation body has the
unit row on v_0 (p=-m, d=1), then m rows den*v_i - num_i*v_0 (p=1, d=den).
A GaugeBody builds these rows once, when it is created, in sparse form:
each keeps its pivot coefficient d and only the nonzero coefficients it
reads.  The scale e^q is replaced once by the GapFunction's dyadic
surrogate E, after which every gauge value is an exact rational.  Weights
are kept over one common denominator, so a window point runs in integers
(thresholds, gauges, the certificate box); a Fraction is built only for
its minima.

One triangular scan, the max-norm form of Fincke-Pohst, serves two
enumeration strategies with bit-identical results:

* plain box enumeration up to a caller bound B, with a completeness
  certificate that rejects bounds too small to be conclusive;
* self-certifying window enumeration of exactly {v != 0 : gauge(v) <= T},
  complete once the window has full rank.  Each pivot runs over the
  integers its row allows given the earlier pivots, a provably lossless
  pruning of box enumeration; positions with an empty leaf range are
  skipped before any gauge.  T doubles from 1, with no scan for a pass
  that provably adds no pick, or along a profile is set once from the
  previous point's witnesses.

Selection streams: the scan offers each point to a selector that holds
at most _COMPACT pairs, however many points the pass covers, cutting them
back to their least basis whenever it fills.  Once that basis has full
rank, its largest gauge clips every later leaf range (Schnorr-Euchner
radius shrinking); the box path seeds it with the unit vectors and, along
a profile, the previous point's witnesses, so clipping starts at once and
near lambda_dim.

Before scanning, the widths of all coordinate ranges are multiplied, the
form coordinate's too (about 2T/E wide at negative q), and a product past
the desk-scale limit refuses the grid point.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from .core import (DEFAULT_GAP_BITS, GapFunction, PgnError, _DEFAULT_GAP,
                   format_rational, parse_rational)

LINEAR_FORM = "linear-form"
SIMULTANEOUS = "simultaneous"

_MAX_DOUBLINGS = 80
_MAX_WINDOW_POINTS = 40_000_000
_COMPACT = 512


class BoundTooSmallError(PgnError):
    """The enumeration box cannot certify the computed minima."""

    def __init__(self, message: str, suggested: int):
        super().__init__(message)
        self.suggested = suggested


@dataclass(frozen=True)
class GaugeBody:
    """A gauge body; ``rows`` holds its integer rows ``(pivot, lead, reads,
    p)`` in pivot order, built once: ``lead`` is the pivot coefficient (the
    row's d) and ``reads`` the nonzero ``(j, a)`` off the pivot."""
    mode: str
    x: tuple[Fraction, ...]
    rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in (LINEAR_FORM, SIMULTANEOUS):
            raise PgnError(f"unknown body mode {self.mode!r}")
        object.__setattr__(self, "x", tuple(Fraction(v) for v in self.x))
        if not self.x:
            raise PgnError("the body needs at least one target coordinate")
        den = math.lcm(*(x.denominator for x in self.x))
        nums = [x.numerator * (den // x.denominator) for x in self.x]
        if self.mode == LINEAR_FORM:
            rows = [(i, 1, (), 0) for i in range(1, self.dim)]
            rows.append((0, den, tuple((j, a) for j, a in enumerate(nums, 1)
                                       if a), 1))
        else:
            rows = [(0, 1, (), -len(nums))]
            rows += [(i, den, ((0, -a),) if a else (), 1)
                     for i, a in enumerate(nums, 1)]
        object.__setattr__(self, "rows", tuple(rows))

    @property
    def dim(self) -> int:
        return len(self.x) + 1

    def is_kernel(self, vec) -> bool:
        """True when every scaled row (p > 0) vanishes on vec, which no
        scale changes."""
        return not any(lead * vec[pivot] + sum(a * vec[j] for j, a in reads)
                       for pivot, lead, reads, p in self.rows if p > 0)


class IntegerBody:
    """A gauge body at one exact scale E, as integer rows with integer
    weights over one common denominator: gauge(v) = numerator(v) / den,
    numerator(v) = max_r |A_r . v| * weights[r]."""

    __slots__ = ("rows", "weights", "den")

    def __init__(self, body: GaugeBody, scale: Fraction):
        if scale <= 0:
            raise PgnError(f"the body scale must be positive, got {scale}")
        self.rows = body.rows
        a, b = scale.numerator, scale.denominator
        # per row, E^p / d as (numerator, denominator)
        exact = [(a ** p, b ** p * d) if p >= 0 else (b ** -p, a ** -p * d)
                 for _, d, _, p in self.rows]
        self.den = math.lcm(*(dn // math.gcd(num, dn) for num, dn in exact))
        self.weights = tuple(num * self.den // dn for num, dn in exact)

    def numerator(self, vec) -> int:
        return max(abs(lead * vec[pivot] + sum(a * vec[j] for j, a in reads))
                   * w for (pivot, lead, reads, _), w
                   in zip(self.rows, self.weights))

    def gauge(self, vec) -> Fraction:
        return Fraction(self.numerator(vec), self.den)

    def radii(self, t: int) -> list[int]:
        """Per row, the largest |A_r . v| that gauge(v) <= t / den allows."""
        return [t // w for w in self.weights]

    def reach(self, lam) -> int:
        """Least integer box max-norm holding every vector of gauge <= lam
        (the certificate): each pivot's reach, from its row's bound and the
        reach of the pivots it reads, kept over one running denominator."""
        num, dnm = lam.numerator, lam.denominator
        reach, common = [0] * len(self.rows), 1
        for (pivot, lead, reads, _), w in zip(self.rows, self.weights):
            spread = sum(abs(a) * reach[j] for j, a in reads)
            factor = dnm * w * lead
            reach = [r * factor for r in reach]
            reach[pivot] = num * self.den * common + spread * dnm * w
            common *= factor
        return -(-max(reach) // common)


def gauge_at_scale(body: GaugeBody, scale: Fraction, vec) -> Fraction:
    """Minkowski functional of vec for the body at exact scale E ~ e^q."""
    vec = tuple(int(c) for c in vec)
    if not any(vec):
        raise PgnError("gauge of the zero vector is undefined")
    if len(vec) != body.dim:
        raise PgnError(f"vector has {len(vec)} coordinates, body needs {body.dim}")
    return IntegerBody(body, Fraction(scale)).gauge(vec)


class _RankTracker:
    """Exact incremental rank of integer vectors by fraction-free
    elimination: each kept row is an integer vector with its pivot."""

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: list[tuple[int, list[int]]] = []

    def try_add(self, vec) -> bool:
        v = list(vec)
        for pivot, row in self.rows:
            c = v[pivot]
            if c:
                lead = row[pivot]
                v = [a * lead - c * b for a, b in zip(v, row)]
        for pivot, c in enumerate(v):
            if c:
                self.rows.append((pivot, v))
                return True
        return False


def _scan_points(ib: IntegerBody, radii, bound: int = 0) -> int:
    """Points the scan can visit, decided before any is scanned: the
    product of every level's range width, the top one halved since one
    vector of each +- pair is scanned."""
    widths = [2 * bound + 1 if r is None else 2 * r // lead + 1
              for r, (_, lead, _, _) in zip(radii, ib.rows)]
    return (widths[0] + 1) // 2 * math.prod(widths[1:])


def _shown(value) -> str:
    """format_rational(value), or, past the interpreter's digit limit for
    text, what the limit says of it (a count has at least limit+1 digits)."""
    try:
        return format_rational(value)
    except PgnError:
        limit = sys.get_int_max_str_digits()
        if isinstance(value, int):
            return f"10^{limit} or more"
        return f"a rational of over {limit} digits"


def _check_size(ib: IntegerBody, radii, bound: int = 0):
    """Refuse a scan past the desk-scale limit."""
    points = _scan_points(ib, radii, bound)
    if points > _MAX_WINDOW_POINTS:
        raise PgnError(f"desk-scale limit: certifying minima at this point "
                       f"needs a scan of {_shown(points)} points")


def _least_basis(pairs, dim: int):
    """The least basis of (g, vector) pairs, each of gauge g / den, as
    (minima, witnesses), or as much of it as their rank allows; the minima
    are returned as numerators g.

    Pairs are ranked by gauge, ties broken by smallest coordinate
    magnitudes then lexicographically, and picked greedily subject to
    exact linear independence; matroid exchange makes the greedy choice
    optimal.  As den is shared and positive, the sort is on the integer g
    alone; the tie-break sorts only the runs of equal g, of more than one
    pair, that the greedy reaches before it has dim picks."""
    pairs.sort(key=itemgetter(0))
    tracker = _RankTracker()
    minima: list[int] = []
    witnesses: list[tuple[int, ...]] = []
    for g, run in groupby(pairs, key=itemgetter(0)):
        run = list(run)
        if len(run) > 1:
            run.sort(key=lambda item: (tuple(abs(c) for c in item[1]),
                                       item[1]))
        for _, vec in run:
            if tracker.try_add(vec):
                minima.append(g)
                witnesses.append(vec)
                if len(minima) == dim:
                    return minima, witnesses
    return minima, witnesses


class _Selector:
    """The sink of one scan: it takes (g, vector) pairs and keeps only what
    the selection can still choose, at most _COMPACT pairs.

    Whenever it holds _COMPACT pairs it cuts them back to their least
    basis, which is exact: in a matroid under a strict total order the
    least basis of A | B is that of (least basis of A) | B.  Once that
    basis has full rank, its largest g, ``worst``, bounds every pair still
    choosable, and the scan clips its leaf ranges to it (Schnorr-Euchner
    radius shrinking).  ``covered`` counts every point the scan went over,
    kept or not, and is the sink's length."""

    __slots__ = ("dim", "pairs", "worst", "covered")

    def __init__(self, dim: int, seed=()):
        self.dim, self.pairs, self.worst, self.covered = (dim, list(seed),
                                                          None, 0)
        if seed:
            self.compact()

    def __len__(self) -> int:
        return self.covered

    def append(self, pair):
        pairs = self.pairs
        pairs.append(pair)
        if len(pairs) >= _COMPACT:
            self.compact()

    def compact(self):
        minima, witnesses = _least_basis(self.pairs, self.dim)
        self.pairs = list(zip(minima, witnesses))
        if len(minima) == self.dim:
            self.worst = minima[-1]


def _scan(ib: IntegerBody, radii, sink, bound: int = 0):
    """Append (g, vector) to sink for one vector of each +- pair in the
    scan, flipped into canonical order (first nonzero coordinate positive);
    the gauge is g / ib.den.  Returns the sink.

    Pivots are set in row order, each over the integers where its row stays
    within its radius given the earlier pivots, or over [-bound, bound] if
    the radius is None; while all earlier pivots are 0, only over v >= 0.
    Once ``sink.worst`` is not None, no vector of larger g is offered,
    though ``sink.covered`` still counts it."""
    _check_size(ib, radii, bound)
    levels = [(pivot, lead, reads, w, r) for (pivot, lead, reads, _), w, r
              in zip(ib.rows, ib.weights, radii)]
    # the leaf row's coefficient on the pivot above it, and its other reads
    above, reads = levels[-2][0], levels[-1][2]
    step = sum(a for j, a in reads if j == above)
    others = tuple((j, a) for j, a in reads if j != above)
    _scan_level(levels, bound, 0, [0] * len(levels), 0, True, sink,
                step, others)
    return sink


def _scan_level(levels, bound, k, vec, best, free, sink, step, others):
    pivot, lead, reads, weight, radius = levels[k]
    s = sum(a * vec[j] for j, a in reads)
    if radius is None:
        lo, hi = -bound, bound
    else:
        lo, hi = -((radius + s) // lead), (radius - s) // lead
    if k + 2 < len(levels):
        for v in range(0 if free else lo, hi + 1):
            vec[pivot] = v
            g = abs(lead * v + s) * weight
            _scan_level(levels, bound, k + 1, vec,
                        g if g > best else best, free and not v, sink,
                        step, others)
        return
    # the level above the leaf runs the leaf's range itself, with no call
    # per v; its row sum is base + step * v.  Most leaf ranges of a window
    # are empty, and a u exists iff (radius - leaf_s) % leaf_lead <= 2 radius
    leaf, leaf_lead, _, leaf_weight, leaf_radius = levels[k + 1]
    base = sum(a * vec[j] for j, a in others)
    u_lo, u_hi = -bound, bound
    span = None if leaf_radius is None else 2 * leaf_radius
    covered = 0
    append = sink.append
    for v in range(0 if free else lo, hi + 1):
        leaf_s = base + step * v
        if span is not None:
            rest = leaf_radius - leaf_s
            if rest % leaf_lead > span:
                continue
            u_lo = -((leaf_radius + leaf_s) // leaf_lead)
            u_hi = rest // leaf_lead
        first = 1 if free and not v else u_lo
        covered += u_hi + 1 - first
        g = abs(lead * v + s) * weight
        top = g if g > best else best
        last, worst = u_hi, sink.worst
        if worst is not None:
            # no u with g > worst can be chosen: skip or clip the range
            if top > worst:
                continue
            r = worst // leaf_weight
            first = max(first, -((r + leaf_s) // leaf_lead))
            last = min(last, (r - leaf_s) // leaf_lead)
        vec[pivot] = v
        for u in range(first, last + 1):
            vec[leaf] = u
            g = abs(leaf_lead * u + leaf_s) * leaf_weight
            t = tuple(vec)
            if next(filter(None, t)) < 0:
                t = tuple(-c for c in t)
            append((g if g > top else top, t))
    sink.covered += covered


def _enumerate_box(ib: IntegerBody, bound: int, start=()):
    """A selector over all canonical nonzero integer vectors with max-norm
    <= bound, seeded so that it clips from the first leaf range: with the
    unit vectors (in every box) and with each vector of ``start`` that is a
    box point, flipped into canonical sign.  Seeding with box points leaves
    the least basis that of the box alone."""
    dim = len(ib.rows)
    seed = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    for vec in start:
        if (len(vec) == dim and any(vec)
                and all(-bound <= c <= bound for c in vec)):
            seed.append(tuple(-c for c in vec)
                        if next(filter(None, vec)) < 0 else tuple(vec))
    return _scan(ib, [None] * dim, _Selector(
        dim, [(ib.numerator(e), e) for e in seed]), bound)


def _enumerate_within(ib: IntegerBody, t: int):
    """A selector over exactly the canonical vectors whose gauge is
    <= t / ib.den."""
    return _scan(ib, ib.radii(t), _Selector(len(ib.rows)))


def _greedy_minima(sink: _Selector, dim: int):
    """The minima (numerators g) and witnesses of one scan: the least basis
    of what its selector holds."""
    return _least_basis(sink.pairs, dim)


@dataclass(frozen=True)
class MinimaResult:
    minima: tuple[Fraction, ...]
    witnesses: tuple[tuple[int, ...], ...]
    scale: Fraction
    bound: int
    certified: bool


def successive_minima(body: GaugeBody, q, bound: int, *,
                      gap: GapFunction = _DEFAULT_GAP,
                      scale: Fraction | None = None,
                      require_certificate: bool = True,
                      start: tuple[tuple[int, ...], ...] | None = None
                      ) -> MinimaResult:
    """Minima by plain box enumeration with max-norm <= bound.

    The body scale defaults to the dyadic surrogate of e^q; pass ``scale``
    to pin an exact rational scale instead.  ``start``, vectors such as
    the previous grid point's witnesses, seeds the selection beside the
    unit vectors, so the scan skips vectors above their least basis from
    the first range on; vectors outside the box, zero or of the wrong
    length are ignored, and the result, refusals included, is the one
    without ``start``.
    """
    if bound < 1:
        raise PgnError("enumeration bound must be at least 1")
    scale = gap.exp(q) if scale is None else Fraction(scale)
    ib = IntegerBody(body, scale)
    nums, witnesses = _greedy_minima(_enumerate_box(ib, bound, start or ()),
                                     body.dim)
    minima = tuple(Fraction(g, ib.den) for g in nums)
    needed = ib.reach(minima[-1])
    certified = needed <= bound
    if require_certificate and not certified:
        raise BoundTooSmallError(
            f"bound {bound} cannot certify lambda_{body.dim} = "
            f"{_shown(minima[-1])}; need {_shown(needed)}", suggested=needed)
    return MinimaResult(minima, tuple(witnesses), scale, bound, certified)


def _floor(ib: IntegerBody, witnesses) -> int:
    """A threshold below which no pass can add a pick to ``witnesses``, or
    0.  Let Z be the rows vanishing on every witness: when the witnesses
    number dim - |Z|, they span every integer vector on which Z vanishes,
    so a new pick has a nonzero integer value on some row of Z, and its
    numerator is at least that row's weight."""
    zero = [w for (pivot, lead, reads, _), w in zip(ib.rows, ib.weights)
            if not any(lead * v[pivot] + sum(a * v[j] for j, a in reads)
                       for v in witnesses)]
    return min(zero) if len(zero) + len(witnesses) == len(ib.rows) else 0


def _cold(body: GaugeBody, ib: IntegerBody, replay=None):
    """Cold doubling: scan thresholds t = den, 2 den, 4 den, ... until the
    window has full rank; the (minima, witnesses) of the last pass, which
    for a replay are its final picks.

    The picks at T are the prefix of the final picks with lambda <= T, and
    they alone decide the next T.  So a pass below the _floor of the last
    picks keeps them without a scan, and ``replay`` = (minima, witnesses,
    fits), the final picks and a threshold known to fit, replays the
    schedule without scanning.  Each T not scanned goes through the size
    check, which raises what it would.  A replay checks only each T past
    ``fits``: one at or below it passes, as the scan only grows with T.  A
    replay needs no _floor either: below the floor of the picks held, no
    final pick beyond them has lambda <= T, so the prefix it takes is the
    picks a skip would keep."""
    t, dim = ib.den, body.dim
    jump = min(w for w, (*_, p) in zip(ib.weights, ib.rows) if p > 0)
    minima, witnesses = [], []
    for _ in range(_MAX_DOUBLINGS):
        if replay is not None:
            final, chosen, fits = replay
            if t > fits:
                _check_size(ib, ib.radii(t))
            minima = [g for g in final if g <= t]
            witnesses = chosen[:len(minima)]
        elif t < _floor(ib, witnesses):
            _check_size(ib, ib.radii(t))
        else:
            minima, witnesses = _greedy_minima(_enumerate_within(ib, t), dim)
        if len(minima) == dim:
            return minima, witnesses
        t *= 2
        if (len(minima) == dim - 1 and jump > t
                and all(body.is_kernel(v) for v in witnesses)):
            # the witnesses span the form-kernel sublattice, and off it a
            # scaled row value is a nonzero integer: numerator >= jump
            t = jump
    raise PgnError("window enumeration failed to reach full rank")


def successive_minima_certified(
        body: GaugeBody, q, *, gap: GapFunction = _DEFAULT_GAP,
        scale: Fraction | None = None,
        start: tuple[tuple[int, ...], ...] | None = None) -> MinimaResult:
    """Certified minima by window enumeration.

    A pass enumerates exactly {v != 0 : gauge(v) <= T}; once that set has
    full rank, every vector relevant to any lambda_d has been seen and the
    greedy selection is complete, bit-identical to what a sufficiently
    large box enumeration would return.

    T doubles from 1 until the window has full rank.  ``start``, vectors
    such as the previous grid point's witnesses, sets one warm pass at
    their largest gauge; zero and wrong-length vectors are ignored.  When
    that window has full rank the pass is complete, and the doubling
    schedule is replayed through the size check, so the result, refusals
    included, is the one doubling gives.  A warm pass past the desk-scale
    limit or below full rank falls back to doubling.
    """
    scale = gap.exp(q) if scale is None else Fraction(scale)
    ib = IntegerBody(body, scale)
    replay = None
    seeds = [w for w in start or () if len(w) == body.dim and any(w)]
    if seeds:
        t = max(ib.numerator(w) for w in seeds)
        if _scan_points(ib, ib.radii(t)) <= _MAX_WINDOW_POINTS:
            picks = _greedy_minima(_enumerate_within(ib, t), body.dim)
            if len(picks[0]) == body.dim:
                replay = (*picks, t)
    nums, witnesses = _cold(body, ib, replay)
    minima = tuple(Fraction(g, ib.den) for g in nums)
    return MinimaResult(minima, tuple(witnesses), scale,
                        ib.reach(minima[-1]), True)


@dataclass(frozen=True)
class GridPoint:
    """One grid point of a profile: its minima, their logs and witnesses,
    or, for a refused point, minima None and the refusal text."""
    q: Fraction
    minima: tuple[Fraction, ...] | None
    logs: tuple[Fraction, ...] | None = None
    witnesses: tuple[tuple[int, ...], ...] | None = None
    error: str | None = None


@dataclass(frozen=True)
class MinimaProfile:
    body: GaugeBody
    gap_bits: int
    bound_mode: str
    points: tuple[GridPoint, ...]

    @property
    def dim(self) -> int:
        return self.body.dim

    @property
    def valid(self) -> tuple[GridPoint, ...]:
        return tuple(p for p in self.points if p.minima is not None)


def proxy_horizon(body: GaugeBody) -> int:
    """Denominator scale of the rational target: profile values reflect the
    true (possibly irrational) target only while the scale stays well below
    this number."""
    return max(v.denominator for v in body.x)


def minima_profile(body: GaugeBody, grid, *, bound="auto",
                   gap: GapFunction = _DEFAULT_GAP) -> MinimaProfile:
    """The minima of ``body`` at each q of the increasing ``grid``: window
    enumeration for bound "auto", else box enumeration to that bound.  Each
    point starts from the last certified point's witnesses, and a refused
    point records its refusal text.  Each distinct minimum of the profile
    gets one log: equal Fractions have equal logs."""
    grid = tuple(Fraction(g) for g in grid)
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise PgnError("grid must be strictly increasing")
    points = []
    start = None  # the last certified point's witnesses
    logs = {}  # one log per distinct minimum, for this call alone
    for q in grid:
        try:
            if bound == "auto":
                res = successive_minima_certified(body, q, gap=gap,
                                                  start=start)
            else:
                res = successive_minima(body, q, int(bound), gap=gap,
                                        start=start)
            start = res.witnesses
            row = []
            for v in res.minima:
                key = v.numerator, v.denominator  # hashes faster than v
                if key not in logs:
                    logs[key] = gap.log(v)
                row.append(logs[key])
            points.append(GridPoint(q, res.minima, tuple(row),
                                    res.witnesses))
        except PgnError as exc:
            start = None
            points.append(GridPoint(q, None, error=str(exc)))
    return MinimaProfile(body, gap.bits, str(bound), tuple(points))


@dataclass(frozen=True)
class MinkowskiReport:
    ok: bool
    points: tuple[dict, ...]
    violations: tuple[str, ...]


def minkowski_check(profile: MinimaProfile) -> MinkowskiReport:
    """Second-theorem sanity oracle on the product of the minima.

    The body has volume 2^dim / E^s, as det A = prod d_r, with s the sum
    of the row powers p (1 for the linear-form body, 0 for the
    simultaneous one), so the theorem pins E^s/dim! <= product(lambda_d)
    <= E^s exactly.  The exact product inequality is decided over the
    rationals; log-scale margins are reported for inspection.
    """
    gap = GapFunction(profile.gap_bits)
    exponent = sum(p for *_, p in profile.body.rows)
    fact = math.factorial(profile.dim)
    log_fact = gap.log(fact)
    points, violations = [], []
    for p in profile.valid:
        prod = math.prod(p.minima)
        upper, log_hi = gap.exp(p.q) ** exponent, p.q * exponent
        lower, log_lo = upper / fact, log_hi - log_fact
        exact_ok = lower <= prod <= upper
        points.append({
            "q": p.q,
            "sum_logs": sum(p.logs),
            "log_lower": log_lo,
            "log_upper": log_hi,
            "exact_ok": exact_ok,
        })
        if not exact_ok:
            violations.append(
                f"q={format_rational(p.q)}: product {format_rational(prod)} "
                f"outside [{format_rational(lower)}, {format_rational(upper)}]")
    return MinkowskiReport(not violations, tuple(points),
                           tuple(violations))


# ---------------------------------------------------------------------------
# profile serialization: '#'-prefixed metadata, then plain CSV


def profile_to_csv(profile: MinimaProfile) -> str:
    d = profile.dim
    lines = [
        "# pgn-profile v1",
        f"# mode={profile.body.mode}",
        "# x=" + ",".join(format_rational(v) for v in profile.body.x),
        f"# gap_bits={profile.gap_bits}",
        f"# bound={profile.bound_mode}",
        f"# proxy-horizon: values reflect the rational target exactly; they "
        f"track an irrational target only while e^q stays well below "
        f"{proxy_horizon(profile.body)}",
    ]
    header = (["q"] + [f"lambda_{i}" for i in range(1, d + 1)]
              + [f"L_{i}" for i in range(1, d + 1)]
              + [f"witness_{i}" for i in range(1, d + 1)] + ["error"])
    out = io.StringIO()
    out.write("\n".join(lines) + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for p in profile.points:
        row = [format_rational(p.q)]
        if p.minima is None:
            row += [""] * (3 * d) + [p.error or "error"]
        else:
            row += [format_rational(v) for v in p.minima]
            row += [format_rational(v) for v in p.logs]
            row += [";".join(str(c) for c in w) for w in p.witnesses]
            row += [""]
        writer.writerow(row)
    return out.getvalue()


def _witness(cell: str, dim: int) -> tuple[int, ...]:
    try:
        vec = tuple(int(c) for c in cell.split(";"))
    except ValueError as exc:
        raise PgnError(f"profile witness {cell!r} is not integers") from exc
    if len(vec) != dim:
        raise PgnError(f"profile witness {cell!r} has {len(vec)} "
                       f"coordinates, expected {dim}")
    return vec


def profile_from_csv(text: str) -> MinimaProfile:
    meta: dict[str, str] = {}
    data_lines: list[str] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if "=" in body:
                key, _, value = body.partition("=")
                meta[key.strip()] = value.strip()
            continue
        data_lines.append(line)
    rows = list(csv.reader(data_lines))
    if not rows:
        raise PgnError("empty profile file")
    try:
        mode = meta["mode"]
        x = tuple(parse_rational(v) for v in meta["x"].split(","))
        gap_bits = GapFunction(int(meta.get("gap_bits",
                                            DEFAULT_GAP_BITS))).bits
        bound_mode = meta.get("bound", "auto")
    except KeyError as exc:
        raise PgnError(f"profile file missing metadata {exc}") from exc
    except ValueError as exc:
        raise PgnError(f"profile file has malformed metadata: {exc}") from exc
    body = GaugeBody(mode, x)
    d = body.dim
    header, data = rows[0], rows[1:]
    if header[0] != "q":
        raise PgnError("profile file missing the CSV header row")
    points = []
    for number, row in enumerate(data, 1):
        if len(row) != 3 * d + 2:
            raise PgnError(f"profile data row {number} has {len(row)} "
                           f"cells, expected {3 * d + 2}")
        q = parse_rational(row[0])
        if not row[1].strip():
            points.append(GridPoint(q, None,
                                    error=row[1 + 3 * d].strip() or "error"))
            continue
        points.append(GridPoint(
            q, tuple(parse_rational(v) for v in row[1:1 + d]),
            tuple(parse_rational(v) for v in row[1 + d:1 + 2 * d]),
            tuple(_witness(cell, d) for cell in row[1 + 2 * d:1 + 3 * d])))
    return MinimaProfile(body, gap_bits, bound_mode, tuple(points))
