"""Exact-arithmetic foundations.

Everything downstream works over ``fractions.Fraction``.  The only
non-rational quantities in the whole toolkit -- natural logarithms and
exponentials -- enter through :class:`GapFunction`, which rounds them once
to a dyadic rational with a fixed number of fractional bits.  From that
point on all comparisons, interpolations and envelope computations are
exact, so validity checks carry no tolerances.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

DEFAULT_GAP_BITS = 64


class PgnError(Exception):
    """Base class for all toolkit errors."""


class DomainError(PgnError, ValueError):
    """A query point lies outside a map's domain, or intervals mismatch."""


class StructureError(PgnError, ValueError):
    """Malformed raw map data (unsorted breakpoints, ragged rows, ...)."""


# exactly the form format_rational writes, ASCII digits only
_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# a decimal exponent as Fraction reads one (\d is any Unicode digit), and
# its largest magnitude: Fraction expands 10**exponent in full
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*\Z", re.IGNORECASE)
_MAX_DECIMAL_EXPONENT = 4300


def parse_rational(text: str | int) -> Fraction:
    """Parse "a/b", integer or decimal literals, or an int (a JSON integer),
    exactly into a Fraction; anything else, bool included, is refused.

    A string is accepted exactly when Fraction(text.strip()) accepts it
    and any decimal exponent is at most _MAX_DECIMAL_EXPONENT in absolute
    value; the canonical form is split with int, the rest goes to
    Fraction once its exponent is checked."""
    if type(text) is int:
        return Fraction(text)
    if not isinstance(text, str):
        raise PgnError(f"not a rational literal: {text!r}")
    try:
        canonical = _CANONICAL.fullmatch(text)
        if canonical:
            num, den = canonical.groups()
            return Fraction(int(num), int(den)) if den else Fraction(int(num))
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent[1])) > _MAX_DECIMAL_EXPONENT:
            raise PgnError(f"decimal exponent of {text!r} is beyond "
                           f"+-{_MAX_DECIMAL_EXPONENT}")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PgnError(f"not a rational literal: {text!r}") from exc


def exact_type(value, kind: type):
    """value itself if its type is kind exactly (so a bool is no int)."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def format_rational(x: Fraction) -> str:
    """Canonical text of x; PgnError when a part has more digits than the
    interpreter converts to text (sys.get_int_max_str_digits())."""
    if type(x) is not Fraction:
        x = Fraction(x)
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        raise PgnError(f"a value with over {sys.get_int_max_str_digits()} "
                       f"digits cannot be written as text") from None


def _round_half_even(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0), ties to even."""
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2):
        q += 1
    return q


def _floor_log2(num: int, den: int) -> int:
    """floor(log2(num/den)) for positive integers, exactly."""
    e = num.bit_length() - den.bit_length()
    if e >= 0:
        if num < (den << e):
            e -= 1
    else:
        if (num << (-e)) < den:
            e -= 1
    return e


def _atanh_fp(z_fp: int, work: int) -> int:
    """atanh(z) in fixed point for 0 <= z < 1/2; input/output scaled by 2**work."""
    z2 = (z_fp * z_fp) >> work
    total = z_fp
    term = z_fp
    k = 3
    while term:
        term = (term * z2) >> work
        if not term:
            break
        total += term // k
        k += 2
    return total


def _fp_mul(a: int, b: int, work: int) -> int:
    return (a * b) >> work


def _fp_pow(base: int, exponent: int, work: int) -> int:
    result = 1 << work
    b = base
    e = exponent
    while e:
        if e & 1:
            result = _fp_mul(result, b, work)
        b = _fp_mul(b, b, work)
        e >>= 1
    return result


class GapFunction:
    """Dyadic-rational surrogate for ln/exp at a fixed fractional precision.

    ``log`` and ``exp`` return Fractions with denominator ``2**bits``; the
    internal computation carries 32 guard bits.  ``log(x)`` is within
    ``2**-bits`` of ln x for ``2**-300 <= x <= 2**300``, and ``exp(x)``
    within ``2**-bits`` of e**x for ``x <= 16``, refused only where e**x
    is below ``2**-bits`` (checked against a decimal oracle at 8 and 64
    bits).  Past ``x = 16`` the guard bits no longer cover e**x, and the
    absolute error of ``exp`` grows with it.  Instances are pure and
    deterministic: two instances with equal ``bits`` agree bit for bit.
    """

    __slots__ = ("bits", "_work", "_ln2", "_e1")

    def __init__(self, bits: int = DEFAULT_GAP_BITS):
        if bits < 8:
            raise PgnError("GapFunction needs at least 8 fractional bits")
        self.bits = bits
        self._work = bits + 32
        self._ln2: int | None = None
        self._e1: int | None = None

    def _ln2_fp(self) -> int:
        if self._ln2 is None:
            w = self._work
            self._ln2 = 2 * _atanh_fp((1 << w) // 3, w)
        return self._ln2

    def _e1_fp(self) -> int:
        if self._e1 is None:
            w = self._work
            total = term = 1 << w
            k = 1
            while term:
                term //= k
                if not term:
                    break
                total += term
                k += 1
            self._e1 = total
        return self._e1

    def _round_to_bits(self, value_fp: int) -> Fraction:
        shift = self._work - self.bits
        return Fraction(_round_half_even(value_fp, 1 << shift), 1 << self.bits)

    def log(self, x) -> Fraction:
        """Dyadic approximation of ln(x) for a positive rational x."""
        x = Fraction(x)
        if x <= 0:
            raise PgnError(f"log requires a positive argument, got {x}")
        num, den = x.numerator, x.denominator
        w = self._work
        e = _floor_log2(num, den)
        shift = w - e
        if shift >= 0:
            m_fp = (num << shift) // den
        else:
            m_fp = num // (den << (-shift))
        one = 1 << w
        z_fp = ((m_fp - one) << w) // (m_fp + one)
        total = e * self._ln2_fp() + 2 * _atanh_fp(z_fp, w)
        return self._round_to_bits(total)

    def exp(self, x) -> Fraction:
        """Dyadic approximation of e**x for rational x."""
        x = Fraction(x)
        w = self._work
        a = x.numerator // x.denominator
        f = x - a
        one = 1 << w
        # e**f by power series, f in [0, 1)
        f_fp = (f.numerator << w) // f.denominator
        total = term = one
        k = 1
        while term:
            term = (term * f_fp) >> w
            term //= k
            if not term:
                break
            total += term
            k += 1
        if a:
            pa = _fp_pow(self._e1_fp(), abs(a), w)
            if a < 0:
                pa = (1 << (2 * w)) // pa
            total = _fp_mul(total, pa, w)
        result = self._round_to_bits(total)
        if result <= 0:
            raise PgnError(
                f"exp({x}) underflows the {self.bits}-bit dyadic surrogate")
        return result


def _as_fraction_tuple(row: Iterable) -> tuple[Fraction, ...]:
    return tuple(v if type(v) is Fraction else Fraction(v) for v in row)


@dataclass(frozen=True)
class PiecewiseLinearMap:
    """A continuous, component-wise piecewise-linear map on a closed interval.

    Stores strictly increasing breakpoints and one value row per breakpoint;
    between breakpoints each component interpolates affinely.  Immutable and
    safe to share.
    """

    breakpoints: tuple[Fraction, ...]
    values: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        bps = _as_fraction_tuple(self.breakpoints)
        rows = tuple(_as_fraction_tuple(r) for r in self.values)
        if len(bps) < 2:
            raise StructureError("a map needs at least two breakpoints")
        if len(rows) != len(bps):
            raise StructureError(
                f"{len(bps)} breakpoints but {len(rows)} value rows")
        width = len(rows[0])
        if width < 2:
            raise StructureError("component count must be at least 2")
        if any(len(r) != width for r in rows):
            raise StructureError("value rows have inconsistent lengths")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise StructureError(
                    f"breakpoints must be strictly increasing ({a} then {b})")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "values", rows)

    @property
    def n_components(self) -> int:
        return len(self.values[0])

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return self.breakpoints[0], self.breakpoints[-1]

    def evaluate(self, q) -> tuple[Fraction, ...]:
        q = Fraction(q)
        lo, hi = self.domain
        if q < lo or q > hi:
            raise DomainError(f"q={q} outside the map domain [{lo}, {hi}]")
        i = bisect_right(self.breakpoints, q) - 1
        if i == len(self.breakpoints) - 1:
            return self.values[-1]
        q0, q1 = self.breakpoints[i], self.breakpoints[i + 1]
        if q == q0:
            return self.values[i]
        t = (q - q0) / (q1 - q0)
        row0, row1 = self.values[i], self.values[i + 1]
        return tuple(a + (b - a) * t for a, b in zip(row0, row1))

    def segment_slopes(self, i: int) -> tuple[Fraction, ...]:
        """Slope vector on the open segment between breakpoints i and i+1."""
        dq = self.breakpoints[i + 1] - self.breakpoints[i]
        return tuple((b - a) / dq
                     for a, b in zip(self.values[i], self.values[i + 1]))

    def to_json_dict(self, meta: dict | None = None) -> dict:
        doc = {
            "n": self.n_components - 1,
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "values": [[format_rational(v) for v in row]
                       for row in self.values],
        }
        if meta is not None:
            doc["meta"] = meta
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PiecewiseLinearMap":
        return cls(*map_document_rows(doc))


def map_document_rows(doc) -> tuple[list[Fraction], list[list[Fraction]]]:
    """Raw breakpoints and value rows of a map document, every row checked
    against the declared n; repeated breakpoints are left to the caller."""
    if not isinstance(doc, dict):
        raise StructureError("a map document must be a JSON object")
    try:
        n = exact_type(doc["n"], int)
        bps = [parse_rational(b) for b in doc["breakpoints"]]
        rows = [[parse_rational(v) for v in row] for row in doc["values"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise StructureError(f"malformed map document: {exc}") from exc
    for row in rows:
        if len(row) != n + 1:
            raise StructureError(
                f"document says n={n} but rows have {len(row)} components")
    return bps, rows


def sup_distance(a: PiecewiseLinearMap, b: PiecewiseLinearMap,
                 interval: tuple | None = None) -> Fraction:
    """Max over the interval of the max-norm distance between the two maps.

    Both maps are piecewise linear, so per component the absolute difference
    is piecewise linear too and attains its maximum at a breakpoint of the
    union of the breakpoint sets; only those points are evaluated.
    """
    if a.n_components != b.n_components:
        raise DomainError(
            f"component counts differ: {a.n_components} vs {b.n_components}")
    lo = max(a.domain[0], b.domain[0])
    hi = min(a.domain[1], b.domain[1])
    if interval is not None:
        lo2, hi2 = Fraction(interval[0]), Fraction(interval[1])
        if lo2 < lo or hi2 > hi:
            raise DomainError(
                f"interval [{lo2}, {hi2}] not contained in both domains "
                f"(common part [{lo}, {hi}])")
        lo, hi = lo2, hi2
    if lo > hi:
        raise DomainError("the maps' domains are disjoint")
    points = {lo, hi}
    for m in (a, b):
        points.update(p for p in m.breakpoints if lo <= p <= hi)
    best = Fraction(0)
    for q in sorted(points):
        va, vb = a.evaluate(q), b.evaluate(q)
        d = max(abs(x - y) for x, y in zip(va, vb))
        if d > best:
            best = d
    return best


def concatenate(maps: Sequence[PiecewiseLinearMap],
                junction: str = "equal") -> PiecewiseLinearMap:
    """Join maps whose domains share endpoints into one map.

    junction="equal" requires exact value agreement at each shared
    breakpoint; junction="right" keeps the right map's row there (used to
    materialize deliberately inconsistent constructions for the validator).
    """
    if not maps:
        raise PgnError("nothing to concatenate")
    if junction not in ("equal", "right"):
        raise PgnError(f"unknown junction policy {junction!r}")
    bps: list[Fraction] = list(maps[0].breakpoints)
    rows: list[tuple[Fraction, ...]] = list(maps[0].values)
    for m in maps[1:]:
        if m.n_components != len(rows[0]):
            raise DomainError("component counts differ across pieces")
        if m.breakpoints[0] != bps[-1]:
            raise DomainError(
                f"pieces do not abut: {bps[-1]} then {m.breakpoints[0]}")
        if junction == "equal" and m.values[0] != rows[-1]:
            raise PgnError(
                f"value mismatch at shared breakpoint {bps[-1]}: "
                f"{rows[-1]} vs {m.values[0]}")
        if junction == "right":
            rows[-1] = m.values[0]
        bps.extend(m.breakpoints[1:])
        rows.extend(m.values[1:])
    return PiecewiseLinearMap(tuple(bps), tuple(rows))
