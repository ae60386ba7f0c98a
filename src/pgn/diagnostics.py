"""Improvability and Diophantine-type diagnostics for maps and profiles.

The three tail functionals of the first component decide membership
criteria at desk scale: the margin q/(n+1) - P_1(q) (improvability), the
margin q/(w+1) - P_1(q) (w-Diophantine behaviour) and the ratio P_1(q)/q,
whose limit inferior encodes the approximation exponent.  All verdicts
are explicitly range-limited: they certify behaviour on the tested tail,
never asymptotics.
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .core import (GapFunction, PgnError, PiecewiseLinearMap, _DEFAULT_GAP,
                   _json_record, format_rational)
from .minima import MinimaProfile

RANGE_NOTE = ("verdicts are range-limited: they certify the tested tail, "
              "not asymptotic membership")


@dataclass(frozen=True)
class DiagnosticsReport:
    tested_range: tuple[Fraction, Fraction]
    di_margin_min: Fraction
    di_margin_at: Fraction
    di_margin_max: Fraction
    di_margin_max_at: Fraction
    dw_margin_max: Fraction
    dw_margin_at: Fraction
    ratio_min: Fraction | None
    ratio_min_at: Fraction | None
    ratio_min_global: Fraction | None
    ratio_min_global_at: Fraction | None
    omega_estimate: Fraction | None
    omega_is_infinite: bool
    di_threshold: Fraction | None
    di_satisfied: bool | None
    dw_threshold: Fraction | None
    dw_satisfied: bool | None
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        record = _json_record(self)
        if self.omega_is_infinite:
            record["omega_estimate"] = "inf"
        return record


def _last_local_min(points: list[tuple], less=operator.lt) -> tuple | None:
    """Last local minimum of a sampled sequence of (q, value) pairs, the
    values ordered by ``less``.

    The right endpoint qualifies when the sequence descends into it; this
    tracks the limit-inferior structure of tails that end mid-descent
    while ignoring endpoints that sit on a rising run.
    """
    if len(points) < 2:
        return points[0] if points else None
    vals = [v for _, v in points]
    if less(vals[-1], vals[-2]):
        return points[-1]
    for i in range(len(vals) - 2, 0, -1):
        if less(vals[i], vals[i + 1]) and not less(vals[i - 1], vals[i]):
            return points[i]
    return points[0]


def _ratio_less(a: tuple[int, int], b: tuple[int, int]) -> bool:
    """p/q < p'/q' for (p, q) pairs with q, q' > 0."""
    return a[0] * b[1] < b[0] * a[1]


def analyze(subject: PiecewiseLinearMap, w, *,
            tail_start=None, epsilon=None, nu=None,
            gap: GapFunction = _DEFAULT_GAP,
            kernel_locked: bool = False,
            censored: bool = False) -> DiagnosticsReport:
    """Exact tail extrema of P_1's functionals, n + 1 = subject.n_components.

    The tail starts by default at the third breakpoint, or at the one
    before the domain end when there are fewer than four, so that it is
    never empty.  The functionals are piecewise linear (the ratio monotone
    per segment), so extrema over [tail_start, end] are attained at
    breakpoints or at tail_start itself; only tail_start is interpolated,
    the breakpoints after it are read off their rows.  q and P_1 are
    numerators over one denominator c; the margins are compared as
    q - (n+1) P_1 and q wd - (wn + wd) P_1 for w = wn/wd, their values
    times (n+1) c and (wn + wd) c, which are positive for w > -1, and the
    ratio by cross-multiplication.
    """
    w = Fraction(w)
    if w <= -1:
        raise PgnError(f"w must exceed -1, got {format_rational(w)}")
    n = subject.n_components - 1
    lo, hi = subject.domain
    den, bps, rows = subject.den, subject.bps, subject.rows
    if tail_start is None:
        tail_start = Fraction(bps[min(2, len(bps) - 2)], den)
    tail_start = Fraction(tail_start)
    if tail_start < lo or tail_start > hi:
        raise PgnError(
            f"tail start {tail_start} outside the domain [{lo}, {hi}]")
    if tail_start == hi:
        raise PgnError("empty tail: tail start equals the domain end")

    x, b = tail_start.numerator, tail_start.denominator
    after = bisect_right(bps, x * den // b)
    row, c = subject.row_at(x, b)
    k = c // den  # 1 when tail_start is a breakpoint
    qs = [x * (c // b)] + [q * k for q in bps[after:]]
    ps = [row[0]] + [r[0] * k for r in rows[after:]]
    notes = [RANGE_NOTE]
    wn, wd = w.numerator, w.denominator
    di = [q - (n + 1) * p for q, p in zip(qs, ps)]
    dw = [q * wd - (wn + wd) * p for q, p in zip(qs, ps)]
    ratio = [(j, (ps[j], qs[j])) for j in range(len(qs)) if qs[j] > 0]
    if not ratio:
        notes.append("ratio undefined on the tail (no positive q)")

    def at(j: int) -> Fraction:
        return Fraction(qs[j], c)

    i_min = min(range(len(di)), key=di.__getitem__)
    i_max = max(range(len(di)), key=di.__getitem__)
    i_dw = max(range(len(dw)), key=dw.__getitem__)
    di_min, di_max = (Fraction(di[i], (n + 1) * c) for i in (i_min, i_max))
    dw_max = Fraction(dw[i_dw], (wn + wd) * c)

    if ratio:
        glob = ratio[0]
        for point in ratio:
            if _ratio_less(point[1], glob[1]):
                glob = point
        last = _last_local_min(ratio, _ratio_less)
        r_glob, r_glob_q = Fraction(*glob[1]), at(glob[0])
        r_last, r_last_q = Fraction(*last[1]), at(last[0])
    else:
        r_glob = r_glob_q = r_last = r_last_q = None

    omega: Fraction | None = None
    infinite = bool(kernel_locked)
    if kernel_locked:
        notes.append("a first-minimum witness annihilates the form exactly; "
                     "the exponent is infinite for this rational target")
    elif r_last is not None:
        if r_last == 0:
            infinite = True
        elif r_last > 0:
            omega = 1 / r_last - 1
        else:
            notes.append("ratio minimum is negative; exponent estimate "
                         "withheld (scale too small)")
    if censored:
        notes.append("profile endpoints are censored: the tail beyond the "
                     "last grid point is unobserved")

    di_threshold = di_ok = dw_threshold = dw_ok = None
    if epsilon is not None:
        epsilon = Fraction(epsilon)
        if not (0 < epsilon < 1):
            raise PgnError("epsilon must lie in (0,1)")
        di_threshold = -gap.log(epsilon) / (n + 1)
        di_ok = di_min >= di_threshold
    if nu is not None:
        nu = Fraction(nu)
        if not (0 < nu < 1):
            raise PgnError("nu must lie in (0,1)")
        dw_threshold = -gap.log(nu) / (w + 1)
        dw_ok = dw_max <= dw_threshold

    return DiagnosticsReport(
        tested_range=(tail_start, hi),
        di_margin_min=di_min, di_margin_at=at(i_min),
        di_margin_max=di_max, di_margin_max_at=at(i_max),
        dw_margin_max=dw_max, dw_margin_at=at(i_dw),
        ratio_min=r_last, ratio_min_at=r_last_q,
        ratio_min_global=r_glob, ratio_min_global_at=r_glob_q,
        omega_estimate=omega, omega_is_infinite=infinite,
        di_threshold=di_threshold, di_satisfied=di_ok,
        dw_threshold=dw_threshold, dw_satisfied=dw_ok,
        notes=tuple(notes),
    )


def profile_interpolant(profile: MinimaProfile) -> PiecewiseLinearMap:
    """Linear interpolation of the log-minima columns between grid points."""
    valid = profile.valid
    if len(valid) < 2:
        raise PgnError("profile has fewer than two valid grid points")
    return PiecewiseLinearMap(tuple(p.q for p in valid),
                              tuple(p.logs for p in valid))


def profile_kernel_locked(profile: MinimaProfile) -> bool:
    """Whether any first-minimum witness annihilates the form exactly."""
    return any(profile.body.is_kernel(p.witnesses[0]) for p in profile.valid)


def analyze_profile(profile: MinimaProfile, w, *, tail_start=None,
                    epsilon=None, nu=None) -> DiagnosticsReport:
    return analyze(profile_interpolant(profile), w, tail_start=tail_start,
                   epsilon=epsilon, nu=nu, gap=GapFunction(profile.gap_bits),
                   kernel_locked=profile_kernel_locked(profile),
                   censored=True)


@dataclass(frozen=True)
class ComparisonReport:
    sup_distance_on_grid: Fraction
    per_component_max: tuple[Fraction, ...]
    points: int
    overlap: tuple[Fraction, Fraction]
    rn: Fraction | None
    within_rn: bool | None

    def to_json_dict(self) -> dict:
        return _json_record(self)


def compare_system_profile(system: PiecewiseLinearMap,
                           profile: MinimaProfile,
                           rn=None) -> ComparisonReport:
    """Max-norm distance between profile logs and system values on the grid.

    Informational: bounded distance to some realizing point is guaranteed
    per system, not for any particular profiled target.
    """
    if system.n_components != profile.dim:
        raise PgnError(
            f"system has {system.n_components} components, profile has "
            f"{profile.dim}")
    if not profile.points:
        raise PgnError("profile has no grid points")
    lo = max(system.domain[0], Fraction(profile.points[0].q))
    hi = min(system.domain[1], Fraction(profile.points[-1].q))
    if lo > hi:
        raise PgnError("system and profile ranges are disjoint")
    per_comp = [Fraction(0)] * profile.dim
    count = 0
    for p in profile.valid:
        if p.q < lo or p.q > hi:
            continue
        sys_row = system.evaluate(p.q)
        for d, (a, b) in enumerate(zip(p.logs, sys_row)):
            diff = abs(a - b)
            if diff > per_comp[d]:
                per_comp[d] = diff
        count += 1
    if count == 0:
        raise PgnError("no profile grid points inside the overlap")
    sup = max(per_comp)
    rn = None if rn is None else Fraction(rn)
    return ComparisonReport(sup, tuple(per_comp), count, (lo, hi), rn,
                            None if rn is None else sup <= rn)
