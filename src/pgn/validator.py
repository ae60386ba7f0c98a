"""Exact axiom checking for piecewise-linear approximation systems.

A map qualifies as a system when (i) its components are ordered,
nonnegative and sum to q at every point, (ii) on every smooth segment a
single contiguous group of coinciding components moves with slope
1/(group size) while the rest stay constant, and (iii) at every kink the
components spanning the left-moving and right-moving groups take equal
values.  Every comparison is exact; violations are reported, not thrown.
Every axiom is decided on the map's integer numerators over its one
denominator: a row sums to q when its numerators sum to q's, and a slope
is 1/size when (right - left) * size == dq.  Values, slopes and sums as
Fractions are built only for the detail text of a violation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import (PiecewiseLinearMap, StructureError, _check_counts,
                   _json_record, _ratio_text, format_rational)

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
        return _json_record(self, {"location": "q"})


@dataclass(frozen=True)
class AxiomReport:
    violations: tuple[AxiomViolation, ...]

    @property
    def is_system(self) -> bool:
        return not self.violations


def _segment_pattern(left: tuple[int, ...], right: tuple[int, ...],
                     dq: int) -> tuple[int, int] | None:
    """(r1, r2), 1-based, when the segment between the two rows, dq long,
    is a well-formed moving block."""
    moving = [d for d, (a, b) in enumerate(zip(left, right)) if a != b]
    if not moving:
        return None
    r1, r2 = moving[0], moving[-1]
    size = r2 - r1 + 1
    if len(moving) != size:
        return None
    if any(left[d] != left[r1] or right[d] != right[r1] for d in moving):
        return None
    if (right[r1] - left[r1]) * size != dq:
        return None
    return (r1 + 1, r2 + 1)


def validate(m: PiecewiseLinearMap) -> AxiomReport:
    """Check the three system axioms exactly and report every violation."""
    found: list[tuple[int, str, AxiomViolation]] = []
    den, bps, rows = m.den, m.bps, m.rows
    width = m.n_components

    def text(num: int) -> str:
        return _ratio_text(num, den)

    def report(axiom: str, q: int, detail: str):
        found.append((q, axiom, AxiomViolation(axiom, Fraction(q, den),
                                               detail)))

    for q, row in zip(bps, rows):
        if row[0] < 0:
            report(AXIOM_ORDER, q, f"P_1({text(q)}) = {text(row[0])} < 0")
        for d in range(width - 1):
            if row[d] > row[d + 1]:
                report(AXIOM_ORDER, q,
                       f"P_{d + 1} > P_{d + 2} at q={text(q)} "
                       f"({text(row[d])} > {text(row[d + 1])})")
                break
        if sum(row) != q:
            report(AXIOM_SUM, q,
                   f"component sum {text(sum(row))} != q = {text(q)}")

    patterns: list[tuple[int, int] | None] = []
    for i in range(len(bps) - 1):
        pattern = _segment_pattern(rows[i], rows[i + 1], bps[i + 1] - bps[i])
        patterns.append(pattern)
        if pattern is None:
            slopes = m.segment_slopes(i)
            moving = [d + 1 for d, s in enumerate(slopes) if s != 0]
            slope_sum = sum(slopes)
            detail = (
                f"segment ({text(bps[i])}, {text(bps[i + 1])}): "
                f"moving components {moving or 'none'} with slopes "
                f"{[format_rational(slopes[d - 1]) for d in moving]}; "
                f"slope sum {format_rational(slope_sum)}"
            )
            if slope_sum != 1:
                detail += " (slopes do not sum to 1)"
            report(AXIOM_SLOPE, bps[i], detail)

    for j in range(1, len(bps) - 1):
        left, right = patterns[j - 1], patterns[j]
        if left is None or right is None:
            continue
        if left == right:
            continue  # no kink for this pair; nothing to check
        r1 = left[0]
        s2 = right[1]
        if r1 <= s2:
            vals = rows[j][r1 - 1:s2]
            if any(v != vals[0] for v in vals):
                report(AXIOM_JUNCTION, bps[j],
                       f"P_{r1}..P_{s2} not all equal at q={text(bps[j])}: "
                       f"{[text(v) for v in vals]}")

    found.sort(key=lambda f: f[:2])
    return AxiomReport(tuple(v for _, _, v in found))


def validate_raw(den: int, bps, rows) -> AxiomReport:
    """Validate raw row data, tolerating jump discontinuities.

    The breakpoints and value rows are integer numerators over ``den``, as
    map_document_rows returns them.  Adjacent duplicate breakpoints with
    differing rows encode a jump and yield a continuity violation;
    genuinely unsorted breakpoints are a structural error.
    """
    _check_counts(bps, rows)
    if any(b2 < b1 for b1, b2 in zip(bps, bps[1:])):
        raise StructureError("breakpoints are not sorted")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise StructureError("value rows have inconsistent lengths")

    continuity: list[AxiomViolation] = []
    merged_bps: list[int] = []
    merged_rows: list = []
    for b, row in zip(bps, rows):
        if merged_bps and b == merged_bps[-1]:
            if row != merged_rows[-1]:
                jump = max(abs(x - y) for x, y in zip(row, merged_rows[-1]))
                continuity.append(AxiomViolation(
                    AXIOM_CONTINUITY, Fraction(b, den),
                    f"jump of max-norm {_ratio_text(jump, den)} at "
                    f"q={_ratio_text(b, den)}"))
            continue
        merged_bps.append(b)
        merged_rows.append(row)
    if len(merged_bps) < 2:
        raise StructureError("fewer than two distinct breakpoints")
    report = validate(PiecewiseLinearMap.over(den, merged_bps, merged_rows))
    if not continuity:
        return report
    merged = sorted(continuity + list(report.violations),
                    key=lambda v: (v.location, v.axiom))
    return AxiomReport(tuple(merged))
