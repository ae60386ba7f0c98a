"""Exact axiom checking for piecewise-linear approximation systems.

A map qualifies as a system when (i) its components are ordered,
nonnegative and sum to q at every point, (ii) on every smooth segment a
single contiguous group of coinciding components moves with slope
1/(group size) while the rest stay constant, and (iii) at every kink the
components spanning the left-moving and right-moving groups take equal
values.  Every comparison is exact; violations are reported, not thrown.
The sum and slope axioms are decided by integer cross-multiplication: a
row's sum over one common denominator, a slope 1/size as
(right - left) * size == dq.  Slopes and sums as Fractions are built only
for the detail text of a violation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (PiecewiseLinearMap, StructureError, _as_fraction_tuple,
                   format_rational)

AXIOM_ORDER = "i-order"
AXIOM_SUM = "i-sum"
AXIOM_SLOPE = "ii-slope"
AXIOM_JUNCTION = "iii-junction"
AXIOM_CONTINUITY = "continuity"


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    location: Fraction
    detail: str

    def to_json_dict(self) -> dict:
        return {"axiom": self.axiom,
                "q": format_rational(self.location),
                "detail": self.detail}


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple[AxiomViolation, ...]

    @property
    def is_system(self) -> bool:
        return not self.violations

    def first(self) -> AxiomViolation | None:
        return self.violations[0] if self.violations else None


def _segment_pattern(m: PiecewiseLinearMap, i: int) -> tuple[int, int] | None:
    """(r1, r2), 1-based, when segment i is a well-formed moving block."""
    left, right = m.values[i], m.values[i + 1]
    moving = [d for d, (a, b) in enumerate(zip(left, right)) if a != b]
    if not moving:
        return None
    r1, r2 = moving[0], moving[-1]
    size = r2 - r1 + 1
    if len(moving) != size:
        return None
    if any(left[d] != left[r1] or right[d] != right[r1] for d in moving):
        return None
    dq = m.breakpoints[i + 1] - m.breakpoints[i]
    if (right[r1] - left[r1]) * size != dq:
        return None
    return (r1 + 1, r2 + 1)


def _sums_to(row: tuple[Fraction, ...], q: Fraction) -> bool:
    """sum(row) == q, over the common denominator of the row."""
    den = math.lcm(*(v.denominator for v in row))
    total = sum(v.numerator * (den // v.denominator) for v in row)
    return total * q.denominator == q.numerator * den


def validate(m: PiecewiseLinearMap) -> AxiomReport:
    """Check the three system axioms exactly and report every violation."""
    violations: list[AxiomViolation] = []
    bps, rows = m.breakpoints, m.values
    width = m.n_components

    for q, row in zip(bps, rows):
        if row[0] < 0:
            violations.append(AxiomViolation(
                AXIOM_ORDER, q,
                f"P_1({format_rational(q)}) = {format_rational(row[0])} < 0"))
        for d in range(width - 1):
            if row[d] > row[d + 1]:
                violations.append(AxiomViolation(
                    AXIOM_ORDER, q,
                    f"P_{d + 1} > P_{d + 2} at q={format_rational(q)} "
                    f"({format_rational(row[d])} > {format_rational(row[d + 1])})"))
                break
        if not _sums_to(row, q):
            violations.append(AxiomViolation(
                AXIOM_SUM, q,
                f"component sum {format_rational(sum(row))} "
                f"!= q = {format_rational(q)}"))

    patterns: list[tuple[int, int] | None] = []
    for i in range(len(bps) - 1):
        pattern = _segment_pattern(m, i)
        patterns.append(pattern)
        if pattern is None:
            slopes = m.segment_slopes(i)
            moving = [d + 1 for d, s in enumerate(slopes) if s != 0]
            slope_sum = sum(slopes)
            detail = (
                f"segment ({format_rational(bps[i])}, {format_rational(bps[i + 1])}): "
                f"moving components {moving or 'none'} with slopes "
                f"{[format_rational(slopes[d - 1]) for d in moving]}; "
                f"slope sum {format_rational(slope_sum)}"
            )
            if slope_sum != 1:
                detail += " (slopes do not sum to 1)"
            violations.append(AxiomViolation(AXIOM_SLOPE, bps[i], detail))

    for j in range(1, len(bps) - 1):
        left, right = patterns[j - 1], patterns[j]
        if left is None or right is None:
            continue
        if left == right:
            continue  # no kink for this pair; nothing to check
        r1 = left[0]
        s2 = right[1]
        if r1 <= s2:
            row = rows[j]
            vals = row[r1 - 1:s2]
            if any(v != vals[0] for v in vals):
                violations.append(AxiomViolation(
                    AXIOM_JUNCTION, bps[j],
                    f"P_{r1}..P_{s2} not all equal at q={format_rational(bps[j])}: "
                    f"{[format_rational(v) for v in vals]}"))

    violations.sort(key=lambda v: (v.location, v.axiom))
    return AxiomReport(tuple(violations))


def validate_raw(breakpoints, values) -> AxiomReport:
    """Validate raw row data, tolerating jump discontinuities.

    Adjacent duplicate breakpoints with differing rows encode a jump and
    yield a continuity violation; genuinely unsorted breakpoints are a
    structural error.
    """
    bps = _as_fraction_tuple(breakpoints)
    rows = [_as_fraction_tuple(row) for row in values]
    if len(bps) != len(rows):
        raise StructureError("breakpoint/value row count mismatch")
    if any(b2 < b1 for b1, b2 in zip(bps, bps[1:])):
        raise StructureError("breakpoints are not sorted")
    width = len(rows[0]) if rows else 0
    if any(len(r) != width for r in rows):
        raise StructureError("value rows have inconsistent lengths")

    continuity: list[AxiomViolation] = []
    merged_bps: list[Fraction] = []
    merged_rows: list[tuple[Fraction, ...]] = []
    for b, row in zip(bps, rows):
        if merged_bps and b == merged_bps[-1]:
            if row != merged_rows[-1]:
                jump = max(abs(x - y) for x, y in zip(row, merged_rows[-1]))
                continuity.append(AxiomViolation(
                    AXIOM_CONTINUITY, b,
                    f"jump of max-norm {format_rational(jump)} at "
                    f"q={format_rational(b)}"))
            continue
        merged_bps.append(b)
        merged_rows.append(row)
    if len(merged_bps) < 2:
        raise StructureError("fewer than two distinct breakpoints")
    m = PiecewiseLinearMap(tuple(merged_bps), tuple(merged_rows))
    report = validate(m)
    merged = sorted(continuity + list(report.violations),
                    key=lambda v: (v.location, v.axiom))
    return AxiomReport(tuple(merged))
