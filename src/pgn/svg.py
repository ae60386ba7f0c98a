"""Deterministic SVG rendering of piecewise-linear maps.

Byte-identical output for identical inputs: coordinates are computed over
the rationals and rounded once to fixed decimal places, no floats, no
timestamps.  One polyline per component (first component emitted first, so
it sits at the bottom of the stack at the left edge for ordered maps),
optional dotted overlays, dashed verticals with labels at annotated
breakpoints, and gray guide lines q/(n+1) and q/(w+1).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from xml.sax.saxutils import escape

from .core import PgnError, PiecewiseLinearMap


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


def _decimal(x: Fraction, places: int = 3) -> str:
    """Exact fixed-point decimal string, round half to even."""
    x = Fraction(x)
    scale = 10 ** places
    num, den = (x * scale).numerator, (x * scale).denominator
    q, r = divmod(num, den)
    twice = 2 * r
    if twice > den or (twice == den and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    q = abs(q)
    whole, frac = divmod(q, scale)
    return f"{sign}{whole}.{frac:0{places}d}"


class _Frame:
    def __init__(self, spec: PlotSpec):
        maps = (spec.subject, *spec.overlays)
        self.q_lo = min(m.domain[0] for m in maps)
        self.q_hi = max(m.domain[1] for m in maps)
        vals = [v for m in maps for row in m.values for v in row]
        for guide in (spec.guide_n, spec.guide_w):
            if guide is not None:
                vals.append(self.q_lo / (Fraction(guide) + 1))
                vals.append(self.q_hi / (Fraction(guide) + 1))
        self.v_lo, self.v_hi = min(vals), max(vals)
        if self.v_lo == self.v_hi:
            self.v_lo -= 1
            self.v_hi += 1
        pad = (self.v_hi - self.v_lo) / 12
        self.v_lo -= pad
        self.v_hi += pad
        self.margin = 50
        self.label_band = 34
        self.width = spec.width
        self.height = spec.height

    def x(self, q: Fraction) -> str:
        t = (Fraction(q) - self.q_lo) / (self.q_hi - self.q_lo)
        return _decimal(self.margin + t * (self.width - 2 * self.margin))

    def y(self, v: Fraction) -> str:
        t = (Fraction(v) - self.v_lo) / (self.v_hi - self.v_lo)
        usable = self.height - self.margin - self.label_band
        return _decimal(self.height - self.label_band - t * (usable - self.margin // 2))


def _polyline(frame: _Frame, m: PiecewiseLinearMap, component: int,
              cls: str) -> str:
    pts = " ".join(
        f"{frame.x(q)},{frame.y(row[component])}"
        for q, row in zip(m.breakpoints, m.values))
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
        parts.append(f'<text class="title" x="{frame.margin}" y="20">'
                     f"{escape(spec.title)}</text>")

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

    for q, label in spec.annotations:
        x = frame.x(q)
        y_top = frame.y(frame.v_hi)
        y_bot = frame.y(frame.v_lo)
        parts.append(f'<line class="bp" x1="{x}" y1="{y_top}" '
                     f'x2="{x}" y2="{y_bot}"/>')
        parts.append(
            f'<text class="bp-label" x="{x}" '
            f'y="{frame.height - 10}">{escape(label)}</text>')

    for overlay in spec.overlays:
        for d in range(overlay.n_components):
            parts.append(_polyline(frame, overlay, d, "overlay"))
    for d in range(spec.subject.n_components):
        parts.append(_polyline(frame, spec.subject, d, "component"))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
