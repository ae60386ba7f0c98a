"""Exact-arithmetic foundations.

Everything downstream works over exact rationals.  The only non-rational
quantities in the whole toolkit -- natural logarithms and exponentials --
enter through :class:`GapFunction`, which rounds them once to a dyadic
rational with a fixed number of fractional bits.  From that point on all
comparisons, interpolations and envelope computations are exact, so
validity checks carry no tolerances.

A :class:`PiecewiseLinearMap` holds only integer numerators over one
positive denominator, the lcm of its values' reduced denominators; its
breakpoints and values as ``fractions.Fraction`` are a view computed on
each read and never stored.  The builder, validator, diagnostics and
renderer read the integers.  The document reader (``map_document_rows``)
puts a document over one denominator too, and refuses, from the
denominators alone and before any numerator is scaled, a document whose
integer form would hold more than ``_WIDENING`` times the bits of its
literals.  A document repeats its values, so the reader reads and scales
each distinct literal once, and the writer (``to_json_dict``) formats each
distinct numerator once; the size check still counts every occurrence.
The command line caps ``build --blocks`` at ``cli._MAX_BLOCKS``.
"""

from __future__ import annotations

import math
import re
import sys
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

DEFAULT_GAP_BITS = 64
# a first log+exp pair (its constants included) takes about 0.1 s at 4096
# bits and 1.4 s at 16,384, so the cap keeps one precision field in a
# document from stalling a command
MAX_GAP_BITS = 4096


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
    value."""
    return Fraction(*_literal(text))


def _literal(text: str | int) -> tuple[int, int]:
    """Numerator and positive denominator, not necessarily coprime, of a
    literal that parse_rational accepts; PgnError for any other.  The
    canonical form is split with int, the rest goes to Fraction once its
    exponent is checked."""
    if type(text) is int:
        return text, 1
    if not isinstance(text, str):
        raise PgnError(f"not a rational literal: {text!r}")
    try:
        canonical = _CANONICAL.fullmatch(text)
        if canonical:
            num, den = canonical.groups()
            den = int(den) if den else 1
            if not den:
                raise ZeroDivisionError
            return int(num), den
        exponent = _EXPONENT.search(text)
        if exponent and abs(int(exponent[1])) > _MAX_DECIMAL_EXPONENT:
            raise PgnError(f"decimal exponent of {text!r} is beyond "
                           f"+-{_MAX_DECIMAL_EXPONENT}")
        x = Fraction(text.strip())
        return x.numerator, x.denominator
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
    return _ratio_text(x.numerator, x.denominator)


def _ratio_text(num: int, den: int) -> str:
    """format_rational(Fraction(num, den)) for den > 0, at one gcd."""
    g = math.gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
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

    ``log`` and ``exp`` return Fractions with denominator ``2**bits``, for
    8 <= bits <= MAX_GAP_BITS; the internal computation carries 32 guard
    bits.  ``log(x)`` is within ``2**-bits`` of ln x for
    ``2**-300 <= x <= 2**300``, and ``exp(x)`` within ``2**-bits`` of
    e**x for ``x <= 16``, refused only where e**x is below ``2**-bits``
    (checked against a decimal oracle at 8 and 64 bits).  Past ``x = 16``
    the guard bits no longer cover e**x, and the absolute error of ``exp``
    grows with it.  Instances are pure and deterministic: two instances
    with equal ``bits`` agree bit for bit.
    """

    __slots__ = ("bits", "_work", "_ln2", "_e1")

    def __init__(self, bits: int = DEFAULT_GAP_BITS):
        if bits < 8:
            raise PgnError("GapFunction needs at least 8 fractional bits")
        if bits > MAX_GAP_BITS:
            raise PgnError(f"GapFunction allows at most {MAX_GAP_BITS} "
                           f"fractional bits, got {bits}")
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


# A document's integer form may hold at most _WIDENING times the bits of its
# literals, plus _WIDENING_SLACK bits so that no small document is refused.
_WIDENING = 4
_WIDENING_SLACK = 1 << 16


def _fraction(v) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


def _integer_form(breakpoints, values) -> tuple[int, list[int], list[list[int]]]:
    """The lcm of the denominators of breakpoints and value rows given as
    rationals in any form Fraction accepts, and their numerators over it."""
    bps = list(map(_fraction, breakpoints))
    rows = [list(map(_fraction, row)) for row in values]
    den = math.lcm(*(v.denominator for v in bps),
                   *(v.denominator for row in rows for v in row))
    return (den, [v.numerator * (den // v.denominator) for v in bps],
            [[v.numerator * (den // v.denominator) for v in row]
             for row in rows])


@dataclass(frozen=True, init=False)
class PiecewiseLinearMap:
    """A continuous, component-wise piecewise-linear map on a closed interval.

    Stores strictly increasing breakpoints and one value row per breakpoint;
    between breakpoints each component interpolates affinely.  Breakpoint i
    is ``bps[i] / den`` and its row ``rows[i][d] / den``: integer numerators
    over one positive denominator, the lcm of the reduced denominators, so
    ``==`` and ``hash`` are value equality.  ``breakpoints`` and ``values``
    are a Fraction view of those integers, computed on each read.
    Immutable and safe to share.
    """

    den: int
    bps: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, breakpoints, values):
        self._set(*_integer_form(breakpoints, values))

    @classmethod
    def over(cls, den: int, bps, rows) -> "PiecewiseLinearMap":
        """The map with breakpoints bps[i]/den and rows rows[i][d]/den, for
        integers and den > 0; one gcd brings den to its least value."""
        g = math.gcd(den, *bps, *chain.from_iterable(rows))
        if g != 1:
            den //= g
            bps = [b // g for b in bps]
            rows = [[v // g for v in row] for row in rows]
        m = cls.__new__(cls)
        m._set(den, bps, rows)
        return m

    def _set(self, den: int, bps, rows):
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
                    f"breakpoints must be strictly increasing "
                    f"({Fraction(a, den)} then {Fraction(b, den)})")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "bps", tuple(bps))
        object.__setattr__(self, "rows", tuple(map(tuple, rows)))

    def __repr__(self):
        return (f"{type(self).__name__}(breakpoints={self.breakpoints!r}, "
                f"values={self.values!r})")

    @property
    def breakpoints(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(b, self.den) for b in self.bps)

    @property
    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(tuple(Fraction(v, den) for v in row) for row in self.rows)

    @property
    def n_components(self) -> int:
        return len(self.rows[0])

    @property
    def domain(self) -> tuple[Fraction, Fraction]:
        return Fraction(self.bps[0], self.den), Fraction(self.bps[-1], self.den)

    def row_at(self, x: int, b: int) -> tuple[tuple[int, ...], int]:
        """Numerators and one positive denominator of the row at q = x/b
        (b > 0), for q inside the domain."""
        den, bps = self.den, self.bps
        s = x * den  # q = s / (b * den)
        i = bisect_right(bps, s // b) - 1
        if i == len(bps) - 1 or bps[i] * b == s:
            return self.rows[i], den
        q0, dq = bps[i], bps[i + 1] - bps[i]
        t, scale = s - q0 * b, b * dq  # q sits t/scale of the way along
        return tuple(a * scale + (c - a) * t for a, c
                     in zip(self.rows[i], self.rows[i + 1])), den * scale

    def evaluate(self, q) -> tuple[Fraction, ...]:
        q = Fraction(q)
        x, b = q.numerator, q.denominator
        if x * self.den < self.bps[0] * b or x * self.den > self.bps[-1] * b:
            lo, hi = self.domain
            raise DomainError(f"q={q} outside the map domain [{lo}, {hi}]")
        row, den = self.row_at(x, b)
        return tuple(Fraction(v, den) for v in row)

    def segment_slopes(self, i: int) -> tuple[Fraction, ...]:
        """Slope vector on the open segment between breakpoints i and i+1."""
        dq = self.bps[i + 1] - self.bps[i]
        return tuple(Fraction(b - a, dq)
                     for a, b in zip(self.rows[i], self.rows[i + 1]))

    def to_json_dict(self, meta: dict | None = None) -> dict:
        den = self.den
        text = {v: _ratio_text(v, den) for v in
                {*self.bps, *chain.from_iterable(self.rows)}}.__getitem__
        doc = {
            "n": self.n_components - 1,
            "breakpoints": list(map(text, self.bps)),
            "values": [list(map(text, row)) for row in self.rows],
        }
        if meta is not None:
            doc["meta"] = meta
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PiecewiseLinearMap":
        return cls.over(*map_document_rows(doc))


def map_document_rows(doc) -> tuple[int, list[int], list[list[int]]]:
    """A map document's rows in integer form: one positive denominator,
    breakpoint numerators and value-row numerators, every row checked
    against the declared n; repeated breakpoints are left to the caller.
    The breakpoints, the values and each row must be arrays.

    Each distinct literal is read and scaled once; a refused document
    gets the error of its first refused literal.  Whether the common
    denominator would widen the literals past _WIDENING times their bits
    is decided from the denominators alone, before any numerator is
    scaled, and counts the bits of every occurrence of a literal."""
    if not isinstance(doc, dict):
        raise StructureError("a map document must be a JSON object")
    try:
        n = exact_type(doc["n"], int)
        bps = _array(doc["breakpoints"], "breakpoints")
        rows = [_array(row, "a value row")
                for row in _array(doc["values"], "values")]
    except (KeyError, TypeError) as exc:
        raise StructureError(f"malformed map document: {exc}") from exc
    texts = [*bps, *chain.from_iterable(rows)]
    literal: dict = {}
    for text in texts:
        # only a str or an int is looked up: no str equals an int, but 1,
        # True and 1.0 are one key; any other entry is read, and all but a
        # str subclass refused, in document order like the rest
        if type(text) is not str and type(text) is not int \
                or text not in literal:
            literal[text] = _literal(text)
    for row in rows:
        if len(row) != n + 1:
            raise StructureError(
                f"document says n={n} but rows have {len(row)} components")
    # each scaled numerator a*(L/b) has at most bits(a) + bits(L) - bits(b)
    # + 1 bits, so the integer form fits when bits(L) stays within reach;
    # the bits are those of every occurrence, not of each distinct literal
    occurrences = Counter(texts)
    num_bits = den_bits = 0
    for text, k in occurrences.items():
        a, b = literal[text]
        num_bits += k * a.bit_length()
        den_bits += k * b.bit_length()
    budget = _WIDENING * (num_bits + den_bits) + _WIDENING_SLACK
    reach = (budget - num_bits + den_bits) // max(len(texts), 1) - 1
    den, distinct = 1, {b for _, b in literal.values()}
    for d in distinct:
        den = math.lcm(den, d)
        if den.bit_length() > reach:
            raise StructureError(
                f"map document refused: its values need a common "
                f"denominator of over {reach} bits, which would widen its "
                f"{num_bits + den_bits} bits of literals more than "
                f"{_WIDENING} times")
    scale = {d: den // d for d in distinct}
    value = {text: a * scale[b]
             for text, (a, b) in literal.items()}.__getitem__
    return den, list(map(value, bps)), [list(map(value, row)) for row in rows]


def _array(value, name: str):
    """value if it is a JSON array (a list, or a tuple), else TypeError."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{name} must be an array, not {type(value).__name__}")
    return value


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
    den = math.lcm(a.den, b.den, lo.denominator, hi.denominator)
    lo_n, hi_n = lo.numerator * (den // lo.denominator), \
        hi.numerator * (den // hi.denominator)
    points = {lo_n, hi_n}
    for m in (a, b):
        k = den // m.den
        points.update(p for p in (v * k for v in m.bps) if lo_n <= p <= hi_n)
    best, best_den = 0, 1
    for x in points:
        (va, da), (vb, db) = a.row_at(x, den), b.row_at(x, den)
        d = max(abs(u * db - v * da) for u, v in zip(va, vb))
        if d * best_den > best * da * db:
            best, best_den = d, da * db
    return Fraction(best, best_den)


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
    den = math.lcm(*(m.den for m in maps))
    bps: list[int] = []
    rows: list[tuple[int, ...]] = []
    width = maps[0].n_components
    for m in maps:
        k = den // m.den
        m_bps = [b * k for b in m.bps] if k != 1 else m.bps
        m_rows = [tuple(v * k for v in row) for row in m.rows] \
            if k != 1 else m.rows
        if bps:
            if m.n_components != width:
                raise DomainError("component counts differ across pieces")
            if m_bps[0] != bps[-1]:
                raise DomainError(
                    f"pieces do not abut: {Fraction(bps[-1], den)} then "
                    f"{Fraction(m_bps[0], den)}")
            if junction == "equal" and m_rows[0] != rows[-1]:
                raise PgnError(
                    f"value mismatch at shared breakpoint "
                    f"{Fraction(bps[-1], den)}: "
                    f"{tuple(Fraction(v, den) for v in rows[-1])} vs "
                    f"{tuple(Fraction(v, den) for v in m_rows[0])}")
            rows[-1] = m_rows[0]
            m_bps, m_rows = m_bps[1:], m_rows[1:]
        bps.extend(m_bps)
        rows.extend(m_rows)
    return PiecewiseLinearMap.over(den, bps, rows)
