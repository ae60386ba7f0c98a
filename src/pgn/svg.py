"""Deterministic SVG rendering of piecewise-linear maps.

Byte-identical output for identical inputs, with no floats and no
timestamps: each coordinate is an exact rational, rounded half to even at 3
decimal places by one integer division.  One polyline per component (first
component emitted first, so it sits at the bottom of the stack at the left
edge for ordered maps), optional dotted overlays, dashed verticals with
labels at annotated breakpoints, and gray guide lines q/(n+1) and q/(w+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .core import PgnError, PiecewiseLinearMap, _round_half_even


@dataclass(frozen=True)
class PlotSpec:
    subject: PiecewiseLinearMap
    overlays: tuple[PiecewiseLinearMap, ...] = ()
    annotations: tuple[tuple[Fraction, str], ...] = ()
    guide_n: int | None = None
    guide_w: Fraction | None = None
    width: int = 900
    height: int = 540
    title: str = ""


def _axis(base: int, lo: Fraction, hi: Fraction, span: int):
    """v -> base + (v - lo)*span/(hi - lo) as a decimal string with 3
    places, rounded half to even; the coordinate takes a Fraction v, or
    integers a and b > 0 for v = a/b.  The milli-units are
    (a*p + b*r) / (b*s) for integers fixed once per axis, so a coordinate
    costs a few integer products and one division."""
    k = Fraction(1000 * span) / (hi - lo)
    p, s = lo.denominator * k.numerator, lo.denominator * k.denominator
    r = 1000 * base * s - lo.numerator * k.numerator

    def coordinate(v, b: int | None = None) -> str:
        if b is None:
            v, b = v.numerator, v.denominator
        milli = _round_half_even(v * p + b * r, b * s)
        whole, frac = divmod(abs(milli), 1000)
        return f"{'-' if milli < 0 else ''}{whole}.{frac:03d}"
    return coordinate


_MARGIN, _LABEL_BAND = 50, 34
_ESCAPE = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


class _Frame:
    def __init__(self, spec: PlotSpec):
        maps = (spec.subject, *spec.overlays)
        self.q_lo = min(m.domain[0] for m in maps)
        self.q_hi = max(m.domain[1] for m in maps)
        # every value of one map is a numerator over its den
        vals = [Fraction(pick(pick(row) for row in m.rows), m.den)
                for m in maps for pick in (min, max)]
        vals += [q / (Fraction(guide) + 1) for q in (self.q_lo, self.q_hi)
                 for guide in (spec.guide_n, spec.guide_w) if guide is not None]
        lo, hi = min(vals), max(vals)
        if lo == hi:
            lo, hi = lo - 1, hi + 1
        pad = (hi - lo) / 12
        self.v_lo, self.v_hi = lo - pad, hi + pad
        usable = spec.height - _MARGIN - _LABEL_BAND
        self.x = _axis(_MARGIN, self.q_lo, self.q_hi, spec.width - 2 * _MARGIN)
        self.y = _axis(spec.height - _LABEL_BAND, self.v_lo, self.v_hi,
                       _MARGIN // 2 - usable)


def _polyline(ys: dict, xs: list[str], m: PiecewiseLinearMap,
              component: int, cls: str) -> str:
    pts = " ".join(f"{x},{ys[row[component]]}" for x, row in zip(xs, m.rows))
    return f'<polyline class="{cls}" points="{pts}"/>'


def render_svg(spec: PlotSpec) -> str:
    """Render the plot as an SVG 1.1 document string."""
    if spec.subject is None:
        raise PgnError("empty plot subject")
    frame = _Frame(spec)
    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{spec.width}" height="{spec.height}" '
        f'viewBox="0 0 {spec.width} {spec.height}">')
    parts.append(
        "<style>"
        ".component{fill:none;stroke:#000;stroke-width:1.5}"
        ".overlay{fill:none;stroke:#000;stroke-width:1;stroke-dasharray:2,4}"
        ".guide{stroke:#999;stroke-width:1}"
        ".bp{stroke:#444;stroke-width:0.8;stroke-dasharray:5,4}"
        ".bp-label{font:italic 13px serif;text-anchor:middle}"
        ".guide-label{font:italic 13px serif}"
        ".title{font:13px sans-serif}"
        "</style>")
    parts.append(f'<rect width="{spec.width}" height="{spec.height}" fill="#fff"/>')
    if spec.title:
        parts.append(f'<text class="title" x="{_MARGIN}" y="20">'
                     f"{spec.title.translate(_ESCAPE)}</text>")

    for guide, name in ((spec.guide_n, "n"), (spec.guide_w, "w")):
        if guide is None:
            continue
        g = Fraction(guide) + 1
        x1, y1 = frame.x(frame.q_lo), frame.y(frame.q_lo / g)
        x2, y2 = frame.x(frame.q_hi), frame.y(frame.q_hi / g)
        parts.append(f'<line class="guide" x1="{x1}" y1="{y1}" '
                     f'x2="{x2}" y2="{y2}"/>')
        parts.append(f'<text class="guide-label" x="{x2}" y="{y2}" dx="2">'
                     f"q/({name}+1)</text>")

    y_top, y_bot = frame.y(frame.v_hi), frame.y(frame.v_lo)
    for q, label in spec.annotations:
        x = frame.x(q)
        parts.append(f'<line class="bp" x1="{x}" y1="{y_top}" '
                     f'x2="{x}" y2="{y_bot}"/>')
        parts.append(
            f'<text class="bp-label" x="{x}" '
            f'y="{spec.height - 10}">{label.translate(_ESCAPE)}</text>')

    layers = [(m, "overlay") for m in spec.overlays]
    for m, cls in (*layers, (spec.subject, "component")):
        xs = [frame.x(q, m.den) for q in m.bps]
        # the y coordinate of each distinct value, computed once per map
        ys = {v: frame.y(v, m.den) for v in set(chain.from_iterable(m.rows))}
        for d in range(m.n_components):
            parts.append(_polyline(ys, xs, m, d, cls))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
