import functools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgn import (PiecewiseLinearMap, StructureError, format_rational,
                 validate, validate_raw)
from pgn.validator import (AXIOM_CONTINUITY, AXIOM_JUNCTION, AXIOM_ORDER,
                           AXIOM_SLOPE, AXIOM_SUM)
from pgn.template import TemplateParams, build_system


def axioms(report):
    return [v.axiom for v in report.violations]


class TestValidSystems:
    def test_trivial_top_component_system(self):
        # flat lower components, the top one carrying all the growth
        m = PiecewiseLinearMap((F(1), F(2)),
                               ((F(0), F(0), F(1)), (F(0), F(0), F(2))))
        assert validate(m).is_system

    def test_two_component_diagonal(self):
        m = PiecewiseLinearMap((F(1), F(2)), ((F(0), F(1)), (F(0), F(2))))
        assert validate(m).is_system

    def test_built_template_is_a_system(self):
        params = TemplateParams(n=2, w=F(3), alpha=F(1), delta=F(1, 2),
                                q1=F(100), blocks=10, beta=F(1, 2))
        report = validate(build_system(params).map)
        assert report.is_system and report.violations == ()


class TestViolations:
    def test_negative_first_component(self):
        m = PiecewiseLinearMap((F(0), F(1)),
                               ((F(-1), F(1)), (F(-1), F(2))))
        assert AXIOM_ORDER in axioms(validate(m))

    def test_order_swap(self):
        m = PiecewiseLinearMap((F(1), F(3)), ((F(0), F(1)), (F(2), F(1))))
        assert AXIOM_ORDER in axioms(validate(m))

    def test_sum_mismatch(self):
        m = PiecewiseLinearMap((F(0), F(2)), ((F(0), F(0)), (F(1), F(2))))
        report = validate(m)
        assert AXIOM_SUM in axioms(report)
        locations = [v.location for v in report.violations
                     if v.axiom == AXIOM_SUM]
        assert locations == [F(2)]

    def test_disjoint_moving_blocks_single_violation(self):
        m = PiecewiseLinearMap(
            (F(0), F(1)),
            ((F(0), F(0), F(0), F(0)),
             (F(1, 2), F(0), F(0), F(1, 2))))
        report = validate(m)
        slope_violations = [v for v in report.violations
                            if v.axiom == AXIOM_SLOPE]
        assert len(slope_violations) == 1
        assert "[1, 4]" in slope_violations[0].detail

    def test_right_slope_wrong_coincidence(self):
        # both components climb with slope 1/2 but never coincide
        m = PiecewiseLinearMap((F(1), F(2)),
                               ((F(0), F(1)), (F(1, 2), F(3, 2))))
        assert axioms(validate(m)) == [AXIOM_SLOPE]

    def test_wrong_slope_value(self):
        m = PiecewiseLinearMap((F(0), F(4)), ((F(0), F(0)), (F(0), F(4))))
        # single moving component must have slope 1, has it; this is valid
        assert validate(m).is_system
        m2 = PiecewiseLinearMap((F(0), F(4)), ((F(0), F(0)), (F(1), F(1))))
        # both move with slope 1/4 instead of 1/2
        assert AXIOM_SLOPE in axioms(validate(m2))

    def test_junction_equality_violated(self):
        m = PiecewiseLinearMap(
            (F(1), F(3, 2), F(5, 2)),
            ((F(0), F(1)), (F(1, 2), F(1)), (F(1, 2), F(2))))
        assert axioms(validate(m)) == [AXIOM_JUNCTION]
        assert validate(m).violations[0].location == F(3, 2)

    def test_junction_skipped_when_blocks_disjoint(self):
        # top component moves, then the bottom one: r1 > s2, no condition
        m = PiecewiseLinearMap(
            (F(1), F(2), F(3)),
            ((F(0), F(1)), (F(0), F(2)), (F(1), F(2))))
        assert validate(m).is_system


class TestRawValidation:
    def test_unsorted_is_structural(self):
        with pytest.raises(StructureError):
            validate_raw([F(1), F(0)], [(F(0), F(1)), (F(0), F(0))])

    def test_duplicate_rows_collapse(self):
        report = validate_raw(
            [F(1), F(2), F(2), F(3)],
            [(F(0), F(1)), (F(0), F(2)), (F(0), F(2)), (F(0), F(3))])
        assert report.is_system

    def test_jump_reports_continuity(self):
        report = validate_raw(
            [F(1), F(2), F(2), F(3)],
            [(F(0), F(1)), (F(0), F(2)), (F(1), F(1)), (F(1), F(2))])
        assert AXIOM_CONTINUITY in axioms(report)
        jump = [v for v in report.violations if v.axiom == AXIOM_CONTINUITY]
        assert jump[0].location == F(2)

    def test_ragged_rows_are_structural(self):
        with pytest.raises(StructureError):
            validate_raw([F(0), F(1)], [(F(0), F(0)), (F(1),)])


class TestAlternativeStepFalsification:
    def test_alternative_step_fails_at_first_junction(self):
        params = TemplateParams(n=2, w=F(3), alpha=F(1), delta=F(1, 2),
                                q1=F(200), blocks=3, beta=F(1, 2),
                                paper_qk1=True)
        built = build_system(params)
        report = validate(built.map)
        assert not report.is_system
        first = report.violations[0]
        p1, q2 = built.blocks[0].p_k, built.blocks[0].q_k1
        assert p1 <= first.location <= q2
        assert first.axiom == AXIOM_SLOPE


SWEEP = [
    dict(n=2, w=F(3), delta=F(0), beta=F(1, 2), beta_mode="bounded", q1=F(200)),
    dict(n=2, w=F(5), delta=F(1, 3), beta=F(1, 2), beta_mode="bounded", q1=F(200)),
    dict(n=3, w=F(4), delta=F(1), beta=None, beta_mode="log", q1=F(300)),
    dict(n=3, w=F(7), delta=F(1, 2), beta=None, beta_mode="log", q1=F(300)),
    # a slow-growth family (w close to n) needs a distant start
    dict(n=4, w=F(9, 2), delta=F(2, 5), beta=F(3), beta_mode="bounded", q1=F(3000)),
]


@pytest.mark.parametrize("combo", SWEEP)
def test_every_built_system_validates(combo):
    params = TemplateParams(alpha=F(1), blocks=6, **combo)
    built = build_system(params)
    assert validate(built.map).is_system


@settings(max_examples=30, deadline=None)
@given(st.fractions(min_value=0, max_value=1, max_denominator=16),
       st.fractions(min_value=0, max_value=1, max_denominator=32))
def test_sum_and_monotonicity_at_interior_points(delta, t):
    params = TemplateParams(n=2, w=F(3), alpha=F(1), delta=delta,
                            q1=F(100), blocks=4, beta=F(1, 2))
    m = build_system(params).map
    lo, hi = m.domain
    q = lo + (hi - lo) * t
    row = m.evaluate(q)
    assert sum(row) == q
    # slopes are all nonnegative: each component is nondecreasing
    for i in range(len(m.breakpoints) - 1):
        assert all(s >= 0 for s in m.segment_slopes(i))


# -- validate_raw against a slow restatement of the axioms -------------------
#
# The validator decides the sum and slope axioms with integers; this
# restatement decides them directly over Fractions, with sum(row) != q and
# segment_slopes compared to Fraction(1, size), and writes the same detail
# text.  Both must list the same violations in the same order.


def _slow_violations(breakpoints, values):
    fmt = format_rational
    found = []
    bps, rows = [], []
    for b, row in zip(breakpoints, values):
        if bps and b == bps[-1]:
            if tuple(row) != rows[-1]:
                jump = max(abs(x - y) for x, y in zip(row, rows[-1]))
                found.append((AXIOM_CONTINUITY, b,
                              f"jump of max-norm {fmt(jump)} at q={fmt(b)}"))
            continue
        bps.append(b)
        rows.append(tuple(row))
    m = PiecewiseLinearMap(tuple(bps), tuple(rows))
    for q, row in zip(bps, rows):
        if row[0] < 0:
            found.append((AXIOM_ORDER, q,
                          f"P_1({fmt(q)}) = {fmt(row[0])} < 0"))
        for d in range(len(row) - 1):
            if row[d] > row[d + 1]:
                found.append((AXIOM_ORDER, q,
                              f"P_{d + 1} > P_{d + 2} at q={fmt(q)} "
                              f"({fmt(row[d])} > {fmt(row[d + 1])})"))
                break
        if sum(row) != q:
            found.append((AXIOM_SUM, q,
                          f"component sum {fmt(sum(row))} != q = {fmt(q)}"))
    patterns = []
    for i in range(len(bps) - 1):
        slopes = m.segment_slopes(i)
        moving = [d for d, s in enumerate(slopes) if s != 0]
        left, right = rows[i], rows[i + 1]
        pattern = None
        if moving and moving == list(range(moving[0], moving[-1] + 1)):
            r1 = moving[0]
            if all(slopes[d] == F(1, len(moving)) and left[d] == left[r1]
                   and right[d] == right[r1] for d in moving):
                pattern = (r1 + 1, moving[-1] + 1)
        patterns.append(pattern)
        if pattern is None:
            detail = (f"segment ({fmt(bps[i])}, {fmt(bps[i + 1])}): "
                      f"moving components {[d + 1 for d in moving] or 'none'}"
                      f" with slopes {[fmt(slopes[d]) for d in moving]}; "
                      f"slope sum {fmt(sum(slopes))}")
            if sum(slopes) != 1:
                detail += " (slopes do not sum to 1)"
            found.append((AXIOM_SLOPE, bps[i], detail))
    for j in range(1, len(bps) - 1):
        left, right = patterns[j - 1], patterns[j]
        if left is None or right is None or left == right:
            continue
        vals = rows[j][left[0] - 1:right[1]]
        if any(v != vals[0] for v in vals):
            found.append((AXIOM_JUNCTION, bps[j],
                          f"P_{left[0]}..P_{right[1]} not all equal at "
                          f"q={fmt(bps[j])}: {[fmt(v) for v in vals]}"))
    found.sort(key=lambda v: (v[1], v[0]))
    return found


def _listed(report):
    return [(v.axiom, v.location, v.detail) for v in report.violations]


_BUILT = [
    dict(n=2, w=F(3), delta=F(1, 2), beta=F(1, 2), q1=F(100)),
    dict(n=3, w=F(5), delta=F(1, 3), beta=None, beta_mode="log", q1=F(300)),
    dict(n=2, w=F(4), delta=F(0), beta=F(1, 2), q1=F(200), paper_qk1=True),
]


@functools.lru_cache(maxsize=None)
def _built_rows(index):
    m = build_system(TemplateParams(alpha=F(1), blocks=3,
                                    **_BUILT[index])).map
    return m.breakpoints, m.values


@st.composite
def _perturbed_systems(draw):
    """A built map with up to three edits: a value nudged, a breakpoint
    repeated (with its row or a jump), or a segment's slopes doubled."""
    bps, rows = _built_rows(draw(st.integers(0, len(_BUILT) - 1)))
    bps, rows = list(bps), [list(row) for row in rows]
    nudges = st.fractions(-1, 1, max_denominator=8).filter(bool)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["nudge", "repeat", "double"]))
        i = draw(st.integers(0, len(bps) - 2))
        if kind == "nudge":
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] += draw(nudges)
        elif kind == "repeat":
            row = list(rows[i])
            if draw(st.booleans()):
                row[draw(st.integers(0, len(row) - 1))] += draw(nudges)
            bps.insert(i + 1, bps[i])
            rows.insert(i + 1, row)
        else:
            rows[i + 1] = [a + 2 * (b - a)
                           for a, b in zip(rows[i], rows[i + 1])]
    return bps, rows


@st.composite
def _random_raw(draw):
    """Small unconstrained maps, breakpoints sorted, some repeated."""
    width = draw(st.integers(2, 4))
    bps = sorted(draw(st.sets(st.fractions(0, 6, max_denominator=2),
                              min_size=2, max_size=5)))
    bps = sorted(bps + draw(st.lists(st.sampled_from(bps), max_size=2)))
    values = st.fractions(-1, 4, max_denominator=2)
    rows = [draw(st.lists(values, min_size=width, max_size=width))
            for _ in bps]
    return bps, rows


@st.composite
def _walks(draw):
    """Maps whose segments each move one contiguous block by dq/size from
    a row with ties, so that well-formed segments meet at kinks and the
    junction axiom is reached."""
    width = draw(st.integers(2, 4))
    row = sorted(draw(st.lists(st.sampled_from([F(0), F(1, 2), F(1)]),
                               min_size=width, max_size=width)))
    bps, rows = [sum(row)], [tuple(row)]
    for _ in range(draw(st.integers(1, 4))):
        r1 = draw(st.integers(0, width - 1))
        r2 = draw(st.integers(r1, width - 1))
        dq = draw(st.sampled_from([F(1, 2), F(1), F(2)]))
        row = [v + dq / (r2 - r1 + 1) if r1 <= d <= r2 else v
               for d, v in enumerate(row)]
        bps.append(bps[-1] + dq)
        rows.append(tuple(row))
    return bps, rows


@settings(max_examples=120, deadline=None)
@given(st.one_of(_perturbed_systems(), _random_raw(), _walks()))
# equal left ends, the first slope right, the second one not
@example(([F(0), F(1)], [(F(0), F(0)), (F(1, 2), F(1))]))
def test_validate_raw_matches_slow_restatement(raw):
    bps, rows = raw
    assert _listed(validate_raw(bps, rows)) == _slow_violations(bps, rows)


def test_slow_restatement_sees_every_axiom():
    cases = [
        (_built_rows(2), {AXIOM_ORDER, AXIOM_SLOPE}),
        (([F(0), F(1), F(1), F(2), F(3)],
          [(F(0), F(0)), (F(1), F(0)), (F(1), F(1)), (F(1), F(2)),
           (F(2), F(2))]),
         {AXIOM_CONTINUITY, AXIOM_ORDER, AXIOM_SUM, AXIOM_SLOPE}),
        (([F(1), F(3, 2), F(5, 2)],
          [(F(0), F(1)), (F(1, 2), F(1)), (F(1, 2), F(2))]),
         {AXIOM_JUNCTION})]
    for (bps, rows), kinds in cases:
        assert {v[0] for v in _slow_violations(bps, rows)} == kinds
        assert _listed(validate_raw(bps, rows)) == _slow_violations(bps, rows)
