"""Construction of the explicit piecewise-linear template systems.

A template system is a concatenation of blocks on intervals
[q_k, q_{k+1}].  Within a block the components follow a fixed slope
schedule between derived breakpoints q_k < r_k < s_k < t_k < u_k < p_k <
q_{k+1}; the auxiliary points s_k^m <= s_k <= s_k^M bound the family
parameter delta's sliding breakpoint.  All arithmetic is exact; the only
rounding happens once inside the GapFunction log surrogate.

The step q_{k+1} is derived here by closure: continuing P_1 with slope 1
from p_k until it meets the next block's anchor forces
q_{k+1} = ((n+1) p_k - q_k) / n.  A flag builds instead with the
alternative printed step (w/n) q_k + ((w-1)(n+1)/n)(alpha - beta_k) so the
validator can exhibit its inconsistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (DEFAULT_GAP_BITS, GapFunction, PgnError,
                   PiecewiseLinearMap, _DEFAULT_GAP, _json_record,
                   concatenate, exact_type, format_rational, parse_rational)

BETA_BOUNDED = "bounded"
BETA_LOG = "log"


class TemplateOrderingError(PgnError):
    """A derived breakpoint chain is out of order (e.g. q_1 too small)."""

    def __init__(self, block: int, inequality: str, message: str):
        super().__init__(message)
        self.block = block
        self.inequality = inequality


class TemplateInternalError(PgnError):
    """A junction identity failed; indicates a bug, not bad input."""


def default_rn(n: int) -> Fraction:
    """Default transfer constant 5(n+1)^2(n+10)."""
    return Fraction(5 * (n + 1) ** 2 * (n + 10))


def transfer_exponents(n: int, w: Fraction, rn: Fraction) -> tuple[Fraction, Fraction]:
    """Log-scale shrink factors (4(n+1)R_n, 4(w+1)R_n) of the two-sided
    improvability sandwich; the multiplicative constants are their
    negative exponentials."""
    rn = Fraction(rn)
    return 4 * (n + 1) * rn, 4 * (Fraction(w) + 1) * rn


def derive_alpha_beta(epsilon, nu, rn, n: int, w,
                      gap: GapFunction = _DEFAULT_GAP) -> tuple[Fraction, Fraction]:
    """Margins (alpha, beta) from tolerance parameters epsilon, nu in (0,1):
    alpha = -log(epsilon)/(n+1) + 2 R_n and beta = -log(nu)/(w+1) + 2 R_n."""
    epsilon, nu, rn, w = map(Fraction, (epsilon, nu, rn, w))
    if not (0 < epsilon < 1):
        raise PgnError(f"epsilon must lie in (0,1), got {epsilon}")
    if not (0 < nu < 1):
        raise PgnError(f"nu must lie in (0,1), got {nu}")
    if rn < 0:
        raise PgnError(f"R_n must be nonnegative, got {rn}")
    alpha = -gap.log(epsilon) / (n + 1) + 2 * rn
    beta = -gap.log(nu) / (w + 1) + 2 * rn
    return alpha, beta


@dataclass(frozen=True)
class TemplateParams:
    n: int
    w: Fraction
    alpha: Fraction
    delta: Fraction
    q1: Fraction
    blocks: int
    beta: Fraction | None = None
    beta_mode: str = BETA_BOUNDED
    gap_bits: int = DEFAULT_GAP_BITS
    paper_qk1: bool = False

    def __post_init__(self):
        object.__setattr__(self, "w", Fraction(self.w))
        object.__setattr__(self, "alpha", Fraction(self.alpha))
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "q1", Fraction(self.q1))
        if self.beta is not None:
            object.__setattr__(self, "beta", Fraction(self.beta))
        if self.n < 2:
            raise PgnError("dimension n must be at least 2")
        if self.w <= self.n:
            raise PgnError(f"target exponent w must exceed n ({self.w} <= {self.n})")
        if self.alpha <= 0:
            raise PgnError("alpha must be positive")
        if not (0 <= self.delta <= 1):
            raise PgnError("delta must lie in [0, 1]")
        if self.blocks < 1:
            raise PgnError("need at least one block")
        if self.beta_mode not in (BETA_BOUNDED, BETA_LOG):
            raise PgnError(f"unknown beta mode {self.beta_mode!r}")
        if self.beta_mode == BETA_BOUNDED:
            if self.beta is None or self.beta <= 0:
                raise PgnError("bounded beta mode needs beta > 0")
        elif self.beta is not None:
            raise PgnError("log beta mode takes no beta")
        if self.q1 < (self.n + 1) * self.alpha:
            raise PgnError(
                f"q1 = {self.q1} < (n+1)*alpha = {(self.n + 1) * self.alpha}; "
                "the first component would start negative")
        if self.q1 <= 1:
            raise PgnError("q1 must exceed 1 so the log gap is positive")

    def gap(self) -> GapFunction:
        return GapFunction(self.gap_bits)


@dataclass(frozen=True)
class BlockBreakpoints:
    k: int
    q_k: Fraction
    r_k: Fraction
    s_k_m: Fraction
    s_k: Fraction
    s_k_M: Fraction
    t_k: Fraction
    u_k: Fraction
    p_k: Fraction
    q_k1: Fraction
    beta_k: Fraction

    def as_row(self) -> dict:
        return _json_record(self, {"s_k_m": "s_k^m", "s_k_M": "s_k^M"})


def closure_step(params: TemplateParams, q_k: Fraction,
                 beta_k: Fraction) -> Fraction:
    n, w = params.n, params.w
    return w / Fraction(n) * q_k - (w + 1) * (n + 1) / Fraction(n) * (params.alpha - beta_k)


def printed_step(params: TemplateParams, q_k: Fraction,
                 beta_k: Fraction) -> Fraction:
    n, w = params.n, params.w
    return w / Fraction(n) * q_k + (w - 1) * (n + 1) / Fraction(n) * (params.alpha - beta_k)


def derive_block_breakpoints(params: TemplateParams, k: int,
                             q_k) -> BlockBreakpoints:
    """Block k's breakpoints from q_k at params.gap_bits, the full ordering
    asserted; raises TemplateOrderingError naming the violated inequality."""
    return _derive(params, k, Fraction(q_k))[0]


def _derive(params: TemplateParams, k: int, q_k: Fraction
            ) -> tuple[BlockBreakpoints, int, dict[str, int]]:
    """derive_block_breakpoints, with the numerators of q_k, r_k, s_k^m,
    s_k, s_k^M, t_k, u_k, p_k, q_{k+1}, alpha and beta_k over one
    denominator D, keyed q, r, sm, s, sM, t, u, p, q1, a, b.  D is the lcm
    of the denominators of q_k, alpha, log(q_k) and beta_k times delta's
    and w's denominators, n - 1, n and n + 1, so every formula, and each
    gain of build_block, divides exactly."""
    n, w, alpha, delta = params.n, params.w, params.alpha, params.delta

    def fail(ineq: str, lhs, rhs):
        raise TemplateOrderingError(
            k, ineq,
            f"block {k}: required {ineq} but got "
            f"{format_rational(Fraction(lhs, den))} vs "
            f"{format_rational(Fraction(rhs, den))}; "
            "q_1 too small for these parameters")

    den = 1  # until the common denominator is known, fail takes Fractions
    if q_k <= 1:
        fail("q_k > 1", q_k, 1)
    g = params.gap().log(q_k)
    if g <= 0:
        fail("log(q_k) > 0", g, 0)
    beta_k = params.beta if params.beta_mode == BETA_BOUNDED else g
    wn, wd = w.numerator, w.denominator
    dn, dd = delta.numerator, delta.denominator
    den = math.lcm(q_k.denominator, alpha.denominator, g.denominator,
                   beta_k.denominator) * dd * wd * (n - 1) * n * (n + 1)
    q, a, g, b = (v.numerator * (den // v.denominator)
                  for v in (q_k, alpha, g, beta_k))
    r = q + (n * n - 1) * a
    sm, sM = r + g, r + n * g
    s = sM - dn * (n - 1) * g // dd  # delta*sm + (1 - delta)*sM
    t = s + (n - 1) * (s - r)
    p = (wn + wd) * (q // (n + 1) - a + b) // wd
    u = p - (n + 1) * a
    if params.paper_qk1:
        q1 = (wn * q + (wn - wd) * (n + 1) * (a - b)) // (wd * n)
    else:
        q1 = (wn * q - (wn + wd) * (n + 1) * (a - b)) // (wd * n)

    if not t < u:
        fail("t_k < u_k", t, u)
    if not p < q1:
        fail("p_k < q_{k+1}", p, q1)
    # the remaining links hold by construction; check them anyway
    chain = [("q_k < r_k", q, r), ("r_k < s_k^m", r, sm),
             ("u_k < p_k", u, p)]
    for name, lo, hi in chain:
        if not lo < hi:
            fail(name, lo, hi)
    if not (sm <= s <= sM):
        fail("s_k^m <= s_k <= s_k^M", sm, sM)
    if not sM <= t:  # equality exactly when delta = 1
        fail("s_k^M <= t_k", sM, t)
    nums = dict(q=q, r=r, sm=sm, s=s, sM=sM, t=t, u=u, p=p, q1=q1, a=a, b=b)
    bp = BlockBreakpoints(k, q_k, *(Fraction(nums[key], den) for key in
                                    ("r", "sm", "s", "sM", "t", "u", "p",
                                     "q1")), beta_k)
    return bp, den, nums


# slope schedule: per segment, the 1-based index range of the moving group
def _schedule(n: int) -> list[tuple[int, int]]:
    return [(2, n), (n + 1, n + 1), (2, n), (2, n + 1), (n + 1, n + 1), (1, 1)]


def build_block(params: TemplateParams, k: int, q_k
                ) -> tuple[PiecewiseLinearMap, BlockBreakpoints]:
    """One block on [q_k, q_{k+1}] with its junction identities verified;
    the rows are numerators over the breakpoints' denominator."""
    bp, den, nums = _derive(params, k, Fraction(q_k))
    n, w = params.n, params.w
    wn, wd = w.numerator, w.denominator
    q, r, s, t, u, p, q1, a, b = (nums[key] for key in (
        "q", "r", "s", "t", "u", "p", "q1", "a", "b"))
    points = [q, r, s, t, u, p, q1]
    low = q // (n + 1) - a
    rows: list[list[int]] = [[low] * n + [low + (n + 1) * a]]
    for (m1, m2), lo, hi in zip(_schedule(n), points, points[1:]):
        gain = (hi - lo) // (m2 - m1 + 1)
        row = list(rows[-1])
        for d in range(m1 - 1, m2):
            row[d] += gain
        rows.append(row)

    def require(name: str, lhs: int, rhs: int, scale: int = 1):
        """lhs == rhs / scale, for numerators over den"""
        if lhs * scale != rhs:
            raise TemplateInternalError(
                f"block {k}: junction identity {name} failed: "
                f"{format_rational(Fraction(lhs, den))} != "
                f"{format_rational(Fraction(rhs, den * scale))}")

    require("P_2(r_k) = P_{n+1}(r_k)", rows[1][1], rows[1][n])
    require("P_{n+1}(t_k) = P_2(t_k)", rows[3][n], rows[3][1])
    require("P_{n+1}(p_k) - P_n(p_k) = (n+1)alpha",
            rows[5][n] - rows[5][n - 1], (n + 1) * a)
    require("P_1(p_k) = p_k/(w+1) - beta_k",
            rows[5][0], p * wd - (wn + wd) * b, wn + wd)
    for point, row in zip(points, rows):
        require("sum = q", sum(row), point)
    if not params.paper_qk1:
        end_low = q1 // (n + 1) - a
        for d in range(n):
            require("P_d(q_{k+1}) = q_{k+1}/(n+1) - alpha", rows[6][d], end_low)
        require("P_{n+1}(q_{k+1}) = q_{k+1}/(n+1) + n*alpha", rows[6][n],
                end_low + (n + 1) * a)
    return PiecewiseLinearMap.over(den, points, rows), bp


@dataclass(frozen=True)
class BuiltSystem:
    map: PiecewiseLinearMap
    blocks: tuple[BlockBreakpoints, ...]
    block_maps: tuple[PiecewiseLinearMap, ...]
    params: TemplateParams

    @property
    def q_sequence(self) -> list[Fraction]:
        return [b.q_k for b in self.blocks] + [self.blocks[-1].q_k1]

    def to_json_dict(self) -> dict:
        meta = {
            "template": template_to_meta(self.params),
            "blocks": [b.as_row() for b in self.blocks],
        }
        return self.map.to_json_dict(meta=meta)


def build_system(params: TemplateParams) -> BuiltSystem:
    """Concatenate the requested number of blocks starting at q1."""
    q = params.q1
    block_maps: list[PiecewiseLinearMap] = []
    blocks: list[BlockBreakpoints] = []
    for k in range(1, params.blocks + 1):
        pl, bp = build_block(params, k, q)
        block_maps.append(pl)
        blocks.append(bp)
        q = bp.q_k1
    junction = "right" if params.paper_qk1 else "equal"
    try:
        full = concatenate(block_maps, junction=junction)
    except PgnError as exc:  # closure-mode junctions always agree
        raise TemplateInternalError(str(exc)) from exc
    return BuiltSystem(full, tuple(blocks), tuple(block_maps), params)


@dataclass(frozen=True)
class BlockFunctionals:
    min_di_margin: Fraction
    min_di_at: tuple[Fraction, ...]
    max_di_margin: Fraction
    max_di_at: tuple[Fraction, ...]
    dw_peak: Fraction
    dw_peak_at: tuple[Fraction, ...]
    min_ratio: Fraction
    min_ratio_at: tuple[Fraction, ...]


def block_functionals(block_map: PiecewiseLinearMap, params: TemplateParams,
                      bp: BlockBreakpoints) -> BlockFunctionals:
    """Exact per-block extrema of the three first-component functionals.

    q/(n+1) - P_1 and q/(w+1) - P_1 are piecewise linear in q and P_1/q is
    monotone on every segment (P_1 affine, q > 0), so all three attain
    their extrema at breakpoints; only those are inspected.
    """
    n, w = params.n, params.w
    di: list[tuple[Fraction, Fraction]] = []
    dw: list[tuple[Fraction, Fraction]] = []
    ratio: list[tuple[Fraction, Fraction]] = []
    for q, row in zip(block_map.breakpoints, block_map.values):
        p1 = row[0]
        di.append((q / (n + 1) - p1, q))
        dw.append((q / (w + 1) - p1, q))
        ratio.append((p1 / q, q))

    def extreme(pairs, best):
        target = best(v for v, _ in pairs)
        return target, tuple(q for v, q in pairs if v == target)

    min_di, min_di_at = extreme(di, min)
    max_di, max_di_at = extreme(di, max)
    peak, peak_at = extreme(dw, max)
    min_r, min_r_at = extreme(ratio, min)
    return BlockFunctionals(min_di, min_di_at, max_di, max_di_at,
                            peak, peak_at, min_r, min_r_at)


def template_to_meta(params: TemplateParams) -> dict:
    """The parameters as JSON, beta left out when it is None (log mode)."""
    return {key: value for key, value in _json_record(params).items()
            if value is not None}


def params_from_meta(meta: dict) -> TemplateParams:
    try:
        return TemplateParams(
            n=exact_type(meta["n"], int),
            w=parse_rational(meta["w"]),
            alpha=parse_rational(meta["alpha"]),
            delta=parse_rational(meta["delta"]),
            q1=parse_rational(meta["q1"]),
            blocks=exact_type(meta["blocks"], int),
            beta=parse_rational(meta["beta"]) if "beta" in meta else None,
            beta_mode=meta.get("beta_mode", BETA_BOUNDED),
            gap_bits=exact_type(meta.get("gap_bits", DEFAULT_GAP_BITS), int),
            paper_qk1=exact_type(meta.get("paper_qk1", False), bool),
        )
    except KeyError as exc:
        raise PgnError(f"template meta missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise PgnError(f"malformed template meta: {exc}") from exc


def system_meta(meta: dict) -> tuple[TemplateParams | None, tuple]:
    """Template parameters (None if absent) and block starts q_1..q_{K+1}
    (empty if absent) of a system document's meta, as to_json_dict writes."""
    if not isinstance(meta, dict):
        raise PgnError("system document 'meta' must be an object")
    params = params_from_meta(meta["template"]) if "template" in meta else None
    if "blocks" not in meta:
        return params, ()
    rows = meta["blocks"]
    try:
        return params, tuple([parse_rational(row["q_k"]) for row in rows]
                             + [parse_rational(rows[-1]["q_k1"])])
    except (KeyError, TypeError, IndexError) as exc:
        raise PgnError("meta 'blocks' must be a nonempty list of rows with "
                       "q_k and q_k1") from exc
