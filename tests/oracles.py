"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths: logs come from the
decimal module, sup distances from dense sampling, minima from a full-box
prefix-rank sweep with fraction-free integer elimination, first minima
of one-dimensional bodies from continued-fraction best approximations, and
a tie between the linear-form and simultaneous minima of one target from
Mahler's transference theorem.
"""

from __future__ import annotations

from decimal import Decimal, getcontext
from fractions import Fraction
from itertools import combinations, product
from math import factorial


def to_decimal(x: Fraction, prec: int = 60) -> Decimal:
    getcontext().prec = prec
    return Decimal(x.numerator) / Decimal(x.denominator)


def ln_oracle(x: Fraction, prec: int = 60) -> Decimal:
    getcontext().prec = prec
    return to_decimal(Fraction(x), prec).ln()


def exp_oracle(x: Fraction, prec: int = 60) -> Decimal:
    getcontext().prec = prec
    return to_decimal(Fraction(x), prec).exp()


def dense_max_distance(a, b, lo, hi, samples: int = 400) -> Fraction:
    """Max-norm distance between two maps sampled densely plus at every
    breakpoint inside [lo, hi]."""
    lo, hi = Fraction(lo), Fraction(hi)
    points = {lo, hi}
    for i in range(1, samples):
        points.add(lo + (hi - lo) * Fraction(i, samples))
    for m in (a, b):
        points.update(p for p in m.breakpoints if lo <= p <= hi)
    best = Fraction(0)
    for q in sorted(points):
        va, vb = a.evaluate(q), b.evaluate(q)
        best = max(best, max(abs(x - y) for x, y in zip(va, vb)))
    return best


def oracle_gauge(mode: str, x: tuple[Fraction, ...], scale: Fraction,
                 vec) -> Fraction:
    scale = Fraction(scale)
    if mode == "linear-form":
        box = max(abs(c) for c in vec[1:])
        form = abs(Fraction(vec[0]) + sum(xi * c for xi, c in zip(x, vec[1:])))
        return max(Fraction(box), scale * form)
    m = len(x)
    stretched = Fraction(abs(vec[0])) / scale ** m
    form = max(abs(vec[0] * xi - c) for xi, c in zip(x, vec[1:]))
    return max(stretched, scale * form)


def _extend_rank(rows: list, vec) -> bool:
    """Fraction-free integer elimination; True when vec grows the rank."""
    v = list(vec)
    for pivot, row in rows:
        if v[pivot]:
            f1, f2 = row[pivot], v[pivot]
            v = [a * f1 - b * f2 for a, b in zip(v, row)]
    for pivot, c in enumerate(v):
        if c:
            rows.append((pivot, v))
            return True
    return False


def integer_rank(vectors) -> int:
    rows: list = []
    for v in vectors:
        _extend_rank(rows, v)
    return len(rows)


def oracle_minima_values(mode: str, x, scale: Fraction, bound: int,
                         ) -> list[Fraction]:
    """Successive minima over the full +/- box by a rank sweep of the
    gauge-sorted prefix (no witness selection, no canonical halving)."""
    x = tuple(Fraction(v) for v in x)
    dim = len(x) + 1
    items = []
    for vec in product(range(-bound, bound + 1), repeat=dim):
        if not any(vec):
            continue
        items.append((oracle_gauge(mode, x, scale, vec), vec))
    items.sort(key=lambda t: t[0])
    rows: list = []
    values: list[Fraction] = []
    for g, vec in items:
        if _extend_rank(rows, vec):
            values.append(g)
            if len(values) == dim:
                break
    return values


def subsets_minima_values(mode: str, x, scale: Fraction, bound: int,
                          ) -> list[Fraction]:
    """Literal all-subsets definition; only viable for tiny boxes."""
    x = tuple(Fraction(v) for v in x)
    dim = len(x) + 1
    vecs = [v for v in product(range(-bound, bound + 1), repeat=dim)
            if any(v)]
    gauges = {v: oracle_gauge(mode, x, scale, v) for v in vecs}
    values = []
    for d in range(1, dim + 1):
        best = None
        for comb in combinations(vecs, d):
            if integer_rank(comb) < d:
                continue
            worst = max(gauges[v] for v in comb)
            if best is None or worst < best:
                best = worst
        values.append(best)
    return values


def convergents(x: Fraction) -> list[tuple[int, int]]:
    """All continued-fraction convergents (p, q) of a nonnegative rational."""
    n, d = x.numerator, x.denominator
    p0, q0, p1, q1 = 1, 0, 0, 1
    out = []
    while d:
        a, r = divmod(n, d)
        p0, p1 = a * p0 + p1, p0
        q0, q1 = a * q0 + q1, q0
        out.append((p0, q0))
        n, d = d, r
    return out


def cf_lambda1(x: Fraction, scale: Fraction) -> Fraction:
    """First minimum of the 1-target linear-form body via best rational
    approximations: the optimum over vectors (v1, v2) with v2 != 0 is
    attained at a convergent denominator, and v2 = 0 contributes scale."""
    best = Fraction(scale)
    for p, q in convergents(x):
        g = max(Fraction(q), scale * abs(q * x - p))
        if g < best:
            best = g
    return best


def transference_products(lin, sim, scale: Fraction) -> list[Fraction]:
    """lambda_j(lin) * lambda_{d+1-j}(sim) / F for j = 1..d, checked
    against Mahler's bound [1/d, d!].

    lin are the d linear-form minima of a target x at scale F^d, sim the
    simultaneous minima of x at scale F.  The box dual to the linear-form
    body at gauge 1, {|w_0| <= F^d, |w_i - x_i w_0| <= 1}, is F times the
    simultaneous body; it holds the polar body and lies inside d times it.
    Mahler's 1 <= lambda_j(K) lambda_{d+1-j}(K*) <= d! then gives the
    bound (Cassels, An Introduction to the Geometry of Numbers, ch. VIII).
    """
    d = len(lin)
    assert len(sim) == d
    products = [lin[j] * sim[d - 1 - j] / scale for j in range(d)]
    for j, p in enumerate(products, 1):
        assert Fraction(1, d) <= p <= factorial(d), (j, p)
    return products
