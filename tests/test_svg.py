import hashlib
import re
import xml.dom.minidom
from fractions import Fraction as F
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgn import (PgnError, PiecewiseLinearMap, PlotSpec, format_rational,
                 render_svg, sup_distance)
from pgn.cli import _block_figure, run
from pgn.svg import _axis, _Frame
from pgn.template import TemplateParams, build_block


def trivial_map():
    return PiecewiseLinearMap((F(1), F(2)),
                              ((F(0), F(0), F(1)), (F(0), F(0), F(2))))


def block_with_overlays():
    base = dict(n=2, w=F(3), alpha=F(1), q1=F(100), blocks=1, beta=F(1, 2))
    main, bp = build_block(TemplateParams(delta=F(1, 2), **base), 1, F(100))
    lo, bp0 = build_block(TemplateParams(delta=F(0), **base), 1, F(100))
    hi, bp1 = build_block(TemplateParams(delta=F(1), **base), 1, F(100))
    return main, bp, lo, bp0, hi, bp1


class TestRenderSvg:
    def test_valid_svg_with_expected_polylines(self):
        doc = render_svg(PlotSpec(subject=trivial_map()))
        parsed = xml.dom.minidom.parseString(doc)
        assert parsed.documentElement.tagName == "svg"
        assert parsed.documentElement.getAttribute("version") == "1.1"
        assert doc.count("<polyline") == 3

    def test_deterministic_output(self):
        spec = PlotSpec(subject=trivial_map(), guide_n=2, guide_w=F(3),
                        annotations=((F(1), "a"), (F(2), "b")))
        assert render_svg(spec) == render_svg(spec)

    def test_annotations_and_guides_present(self):
        spec = PlotSpec(subject=trivial_map(), guide_n=2, guide_w=F(3),
                        annotations=((F(1), "start"), (F(2), "end")))
        doc = render_svg(spec)
        assert "start</text>" in doc and "end</text>" in doc
        assert "q/(n+1)" in doc and "q/(w+1)" in doc
        assert doc.count('class="bp"') == 2

    def test_rejects_empty_subject(self):
        with pytest.raises(PgnError):
            render_svg(PlotSpec(subject=None))

    def test_overlays_are_dotted_and_under_main(self):
        main, bp, lo, _, hi, _ = block_with_overlays()
        doc = render_svg(PlotSpec(subject=main, overlays=(lo, hi)))
        assert doc.count('class="overlay"') == 6
        assert doc.count('class="component"') == 3
        assert doc.index('class="overlay"') < doc.index('class="component"')


class TestBlockGeometry:
    def test_axis_label_order(self):
        main, bp, lo, bp0, hi, bp1 = block_with_overlays()
        labels = [(bp.q_k, "q_1"), (bp.r_k, "r_1"), (bp.s_k_m, "s_1^m"),
                  (bp.s_k, "s_1"), (bp.s_k_M, "s_1^M"), (bp.t_k, "t_1"),
                  (bp.u_k, "u_1"), (bp.p_k, "p_1"), (bp.q_k1, "q_2")]
        doc = render_svg(PlotSpec(subject=main, overlays=(lo, hi),
                                  annotations=tuple(labels)))
        found = re.findall(
            r'<text class="bp-label" x="([0-9.]+)" y="[0-9.]+">([^<]+)</text>',
            doc)
        assert [name for _, name in found] == [n for _, n in labels]
        xs = [float(x) for x, _ in found]
        assert xs == sorted(xs)

    def test_family_variants_differ_only_inside_the_slide_region(self):
        main, bp, lo, bp0, hi, bp1 = block_with_overlays()
        # region boundary: the widest variant (delta=0) stops sliding at its t
        t_widest = bp0.t_k
        for a, b in ((lo, hi), (main, lo), (main, hi)):
            assert sup_distance(a, b, (bp.q_k, bp.r_k)) == 0
            assert sup_distance(a, b, (t_widest, bp.q_k1)) == 0
            assert sup_distance(a, b, (bp.r_k, t_widest)) > 0


_N2 = ("--n", "2", "--w", "3", "--alpha", "1", "--beta", "1/2", "--q1", "100",
       "--blocks", "3")
# build and plot arguments of each pinned command-line plot
CLI_PLOTS = {
    "system-n4-guides": (("--n", "4", "--w", "5", "--alpha", "1", "--beta",
                          "1/2", "--delta", "1/2", "--q1", "1000", "--blocks",
                          "12"), ()),
    "block-delta-0": ((*_N2, "--delta", "0"), ("--block", "2")),
    "block-delta-1/2": ((*_N2, "--delta", "1/2"), ("--block", "2")),
    "block-delta-1": ((*_N2, "--delta", "1"), ("--block", "2")),
}


def _pinned_svg(case, tmp_path):
    """The SVG bytes of one pinned case."""
    if case in CLI_PLOTS:
        build, plot = CLI_PLOTS[case]
        system, fig = tmp_path / "system.json", tmp_path / "fig.svg"
        assert run(["build", *build, "--out", str(system)]) == 0
        assert run(["plot", "--input", str(system), *plot,
                    "--out", str(fig)]) == 0
        return fig.read_bytes()
    negative = PiecewiseLinearMap(
        (F(-3), F(-1, 3), F(5, 2)),
        ((F(-7, 2), F(-1), F(0)), (F(-1, 7), F(2, 3), F(-5)),
         (F(4), F(-22, 9), F(1, 1000))))
    size = {"negative-values": {},
            "negative-values-tiny": {"width": 80, "height": 10}}[case]
    spec = PlotSpec(subject=negative, guide_n=2, guide_w=F(7, 2),
                    annotations=((F(-3), "a"), (F(-1, 3), "b")), **size)
    return render_svg(spec).encode()


# sha256 of each case's SVG, recorded with the earlier renderer, which
# rounded each coordinate by Fraction arithmetic; the integer axis must
# reproduce every byte.  The tiny size puts coordinates below zero.
SVG_PINS = {
    "system-n4-guides":
        "f93d131546b9d24baafd44d9971209895813e916b7bf8057ac73dbe258031e7d",
    "block-delta-0":
        "7c8f70e830eeffeaeeaef17b7d6bb0eada9725bf54dec38f4b5a239c84ee297c",
    "block-delta-1/2":
        "8f023b8e85654e7c6b3585af6d5d2c0d781c67b9c3011991e85e26b282c19c4f",
    "block-delta-1":
        "5040b4c4802a1ab80a30f6aa99e01a73c7bd72a2ae2a0314e116b35c86bff210",
    "negative-values":
        "572cfb71f5acecf407453d1f0efa9945fe497ad2fb969be375742f0fd59cd202",
    "negative-values-tiny":
        "17c3293e4d9b7185858dd12397d21d8edd577bf9a881323cce847f46752ee07a",
}


@pytest.mark.parametrize("case", list(SVG_PINS))
def test_svg_bytes_are_pinned(case, tmp_path):
    assert hashlib.sha256(_pinned_svg(case, tmp_path)).hexdigest() \
        == SVG_PINS[case]


def _reference_coordinate(base, lo, hi, span, v):
    """base + (v - lo)*span/(hi - lo), rounded half to even at 3 places by
    Fraction's own rounding."""
    milli = round((base + (v - lo) * span / (hi - lo)) * 1000)
    whole, frac = divmod(abs(milli), 1000)
    return f"{'-' if milli < 0 else ''}{whole}.{frac:03d}"


# Rationals up to about 330-bit numerators over 310-bit denominators,
# mixed with small ones so that ties and short values are drawn too.
_RATIONALS = st.builds(
    F, st.integers(-2**330, 2**330) | st.integers(-60, 60),
    st.integers(1, 2**310) | st.integers(1, 12))
_NONZERO = _RATIONALS.filter(bool)
_BASES = st.integers(-1000, 1000)
_SPANS = st.integers(-2000, 2000)


@settings(max_examples=300, deadline=None)
@given(_BASES, _RATIONALS, _NONZERO, _SPANS, _RATIONALS)
def test_axis_matches_fraction_reference(base, lo, width, span, v):
    hi = lo + width
    assert _axis(base, lo, hi, span)(v) \
        == _reference_coordinate(base, lo, hi, span, v)


@settings(max_examples=200, deadline=None)
@given(_BASES, _RATIONALS, _NONZERO, _SPANS.filter(bool),
       st.integers(-10**7, 10**7))
def test_axis_rounds_half_milli_ties_to_even(base, lo, width, span, k):
    hi = lo + width
    # v lands exactly on the milli-unit k + 1/2
    v = lo + (F(2 * k + 1, 2000) - base) * width / span
    assert (base + (v - lo) * span / (hi - lo)) * 1000 == k + F(1, 2)
    got = _axis(base, lo, hi, span)(v)
    assert got == _reference_coordinate(base, lo, hi, span, v)
    assert int(got.replace(".", "")) == k + k % 2


def test_axis_signs_and_zero():
    axis = _axis(0, F(0), F(1), 1)
    assert [axis(F(v, 10000)) for v in (-5, -15, 5, 15, -12345, 0)] \
        == ["0.000", "-0.002", "0.000", "0.002", "-1.234", "0.000"]


# -- the value range of a frame -----------------------------------------------


def _reference_range(spec):
    """v_lo, v_hi of a frame with Fraction min and max."""
    maps = (spec.subject, *spec.overlays)
    q_lo = min(m.domain[0] for m in maps)
    q_hi = max(m.domain[1] for m in maps)
    vals = [v for m in maps for row in m.values for v in row]
    vals += [q / (F(guide) + 1) for q in (q_lo, q_hi)
             for guide in (spec.guide_n, spec.guide_w) if guide is not None]
    lo, hi = min(vals), max(vals)
    if lo == hi:
        lo, hi = lo - 1, hi + 1
    pad = (hi - lo) / 12
    return lo - pad, hi + pad


_OVERLAY = PiecewiseLinearMap((F(-1), F(1)),
                              ((F(0), F(1, 3)), (F(1, 3), F(1, 3))))


@pytest.mark.parametrize("rows, guides, overlays", [
    (((F(-3), F(-1, 2)), (F(-7, 3), F(-3))), (None, None), ()),
    (((F(1), F(2)), (F(2), F(2)), (F(-1), F(2))), (None, None), ()),
    (((F(5, 2), F(5, 2)), (F(5, 2), F(5, 2))), (None, None), ()),
    (((F(-4), F(-4)), (F(-4), F(-4))), (2, F(7, 2)), ()),
    (((F(0), F(10 ** 40, 3 ** 50)), (F(-1, 2 ** 70), F(1))), (3, None),
     (_OVERLAY,))],
    ids=["negatives", "ties", "one-value", "one-value-guides", "overlay"])
def test_frame_range_matches_fraction_min_max(rows, guides, overlays):
    bps = tuple(F(k) for k in range(len(rows)))
    spec = PlotSpec(subject=PiecewiseLinearMap(bps, rows), overlays=overlays,
                    guide_n=guides[0], guide_w=guides[1])
    frame = _Frame(spec)
    assert (frame.v_lo, frame.v_hi) == _reference_range(spec)


# '&', 'a', 'm', 'p' and ';' also spell entities that must be escaped again
_MARKUP = st.text(alphabet="&<>;amp1 \"'", max_size=12)


@settings(max_examples=60, deadline=None)
@given(_MARKUP, _MARKUP)
def test_title_and_labels_are_escaped_as_saxutils_escapes(title, label):
    doc = render_svg(PlotSpec(subject=trivial_map(), title=title,
                              annotations=((F(1), label),)))
    if title:
        assert f'y="20">{escape(title)}</text>' in doc
    assert f'y="530">{escape(label)}</text>' in doc
    xml.dom.minidom.parseString(doc)


def test_block_figure_title_escapes_the_left_out_inequality():
    # at q_1 = 4 the delta=0 sibling fails t_k < u_k, which the title names
    params = TemplateParams(n=2, w=F(6), alpha=F(1, 10), delta=F(1, 2),
                            q1=F(4), blocks=1, beta=F(1, 20))
    title = ("block 1, delta=1/2 (dotted: delta=0 and delta=1); "
             "delta=0 left out (t_k < u_k fails)")
    doc = _block_figure(params, 1, params.q1)
    assert f'<text class="title" x="50" y="20">{escape(title)}</text>' in doc
    assert "(t_k &lt; u_k fails)" in doc


# -- per-value tables on maps that repeat their values -----------------------


@st.composite
def _maps_with_repeated_values(draw):
    """A map whose rows draw from a pool of at most four values."""
    pool = draw(st.lists(_RATIONALS, min_size=1, max_size=4))
    width = draw(st.integers(2, 5))
    steps = draw(st.lists(_NONZERO.map(abs), min_size=1, max_size=10))
    bps = [draw(_RATIONALS)]
    for step in steps:
        bps.append(bps[-1] + step)
    rows = [[draw(st.sampled_from(pool)) for _ in range(width)] for _ in bps]
    return PiecewiseLinearMap(bps, rows)


@settings(max_examples=150, deadline=None)
@given(_maps_with_repeated_values())
def test_writer_matches_a_per_value_reference(m):
    doc = m.to_json_dict()
    assert doc["breakpoints"] == [format_rational(F(b, m.den)) for b in m.bps]
    assert doc["values"] == [[format_rational(F(v, m.den)) for v in row]
                             for row in m.rows]


@settings(max_examples=100, deadline=None)
@given(_maps_with_repeated_values(), _maps_with_repeated_values())
def test_polylines_match_a_per_value_reference(m, overlay):
    spec = PlotSpec(subject=m, overlays=(overlay,))
    frame = _Frame(spec)  # its x and y are the two _axis coordinates
    want = [(cls, " ".join(f"{frame.x(q, n.den)},{frame.y(row[d], n.den)}"
                           for q, row in zip(n.bps, n.rows)))
            for n, cls in ((overlay, "overlay"), (m, "component"))
            for d in range(n.n_components)]
    assert re.findall(r'<polyline class="(\w+)" points="([^"]*)"/>',
                      render_svg(spec)) == want
