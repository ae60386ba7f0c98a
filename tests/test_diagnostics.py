import dataclasses
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgn import (GapFunction, GaugeBody, GridPoint, LINEAR_FORM,
                 MinimaProfile, PgnError, PiecewiseLinearMap, analyze,
                 analyze_profile, compare_system_profile, minima_profile,
                 profile_interpolant, profile_kernel_locked)
from pgn.diagnostics import _last_local_min
from pgn.template import TemplateParams, block_functionals, build_system

GAP = GapFunction()


def twenty_block_system():
    params = TemplateParams(n=2, w=F(3), alpha=F(1), delta=F(1, 2),
                            q1=F(100), blocks=20, beta=F(1, 2))
    return params, build_system(params)


class TestAnalyzeSystems:
    def test_template_tail_margins(self):
        params, built = twenty_block_system()
        tail_from = built.blocks[4].q_k
        report = analyze(built.map, F(3), tail_start=tail_from, gap=GAP)
        assert report.di_margin_min == 1
        assert report.dw_margin_max == F(1, 2)
        last = built.blocks[-1]
        # the exponent estimator tracks the last dip of the ratio
        assert report.ratio_min_at == last.p_k
        assert report.ratio_min == (last.p_k / 4 - F(1, 2)) / last.p_k
        expected_omega = 1 / report.ratio_min - 1
        assert report.omega_estimate == expected_omega
        assert abs(expected_omega - 3) < F(1, 1000)
        # the global tail minimum sits at the first dip instead
        assert report.ratio_min_global_at == built.blocks[4].p_k

    def test_di_margin_attained_at_anchor(self):
        params, built = twenty_block_system()
        report = analyze(built.map, F(3), tail_start=F(100), gap=GAP)
        assert report.di_margin_at == F(100)
        assert report.dw_margin_at == built.blocks[0].p_k

    def test_matches_block_functionals(self):
        params, built = twenty_block_system()
        f = block_functionals(built.block_maps[-1], params, built.blocks[-1])
        report = analyze(built.map, F(3),
                         tail_start=built.blocks[-1].q_k, gap=GAP)
        assert report.di_margin_min == f.min_di_margin
        assert report.dw_margin_max == f.dw_peak
        assert report.ratio_min == f.min_ratio

    def test_verdicts(self):
        _, built = twenty_block_system()
        report = analyze(built.map, F(3), epsilon=F(1, 2), nu=F(1, 2),
                         gap=GAP)
        # threshold -log(1/2)/3 = 0.231 < 1 = margin
        assert report.di_satisfied is True
        # dw threshold -log(1/2)/4 = 0.173 < 1/2 = peak
        assert report.dw_satisfied is False
        tiny = GAP.exp(-9)  # epsilon with -log(eps)/3 = 3 > 1
        strict = analyze(built.map, F(3), epsilon=tiny, gap=GAP)
        assert strict.di_satisfied is False

    def test_verdict_monotonicity(self):
        _, built = twenty_block_system()
        held = None
        for eps in (F(1, 100), F(1, 10), F(1, 2), F(9, 10)):
            rep = analyze(built.map, F(3), epsilon=eps, gap=GAP)
            if held is True:
                assert rep.di_satisfied is True
            held = rep.di_satisfied

    def test_empty_tail_rejected(self):
        _, built = twenty_block_system()
        end = built.map.domain[1]
        with pytest.raises(PgnError):
            analyze(built.map, F(3), tail_start=end, gap=GAP)
        with pytest.raises(PgnError):
            analyze(built.map, F(3), tail_start=F(1), gap=GAP)

    def test_notes_always_flag_range_limits(self):
        _, built = twenty_block_system()
        report = analyze(built.map, F(3), gap=GAP)
        assert any("range-limited" in n for n in report.notes)


def _extrema_by_evaluate(m, n, w, tail_start):
    """The extrema analyze reports, restated over [tail_start] and the
    later breakpoints with one evaluate per point."""
    points = [tail_start] + [b for b in m.breakpoints if b > tail_start]
    p1 = [m.evaluate(q)[0] for q in points]
    di = [(q, q / (n + 1) - v) for q, v in zip(points, p1)]
    dw = [(q, q / (w + 1) - v) for q, v in zip(points, p1)]
    ratio = [(q, v / q) for q, v in zip(points, p1) if q > 0]
    glob = min((v, q) for q, v in ratio) if ratio else (None, None)
    last = _last_local_min(ratio) or (None, None)
    return (min(di, key=lambda t: (t[1], t[0])),
            max(di, key=lambda t: (t[1], -t[0])),
            max(dw, key=lambda t: (t[1], -t[0])), glob, last)


def _assert_walk_matches_evaluate(m, n, w, tail_start):
    r = analyze(m, w, tail_start=tail_start, gap=GAP)
    assert r.tested_range == (tail_start, m.domain[1])
    assert ((r.di_margin_at, r.di_margin_min),
            (r.di_margin_max_at, r.di_margin_max),
            (r.dw_margin_at, r.dw_margin_max),
            (r.ratio_min_global, r.ratio_min_global_at),
            (r.ratio_min_at, r.ratio_min)) \
        == _extrema_by_evaluate(m, n, w, tail_start)


class TestTailWalk:
    """analyze reads the breakpoints after tail_start off their rows; its
    extrema equal those of a restatement that evaluates every point."""

    def test_tail_start_on_between_and_at_the_domain_start(self):
        _, built = twenty_block_system()
        m = built.map
        bps = m.breakpoints
        for tail_start in (bps[7], (bps[7] + bps[8]) / 2, bps[0]):
            _assert_walk_matches_evaluate(m, 2, F(3), tail_start)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_maps(self, data):
        gaps = data.draw(st.lists(st.fractions(F(1, 4), 3, max_denominator=4),
                                  min_size=1, max_size=6))
        q = data.draw(st.fractions(-2, 3, max_denominator=2))
        bps = [q]
        for gap in gaps:
            bps.append(bps[-1] + gap)
        values = st.fractions(-2, 5, max_denominator=3)
        rows = [tuple(data.draw(st.lists(values, min_size=2, max_size=2)))
                for _ in bps]
        m = PiecewiseLinearMap(tuple(bps), tuple(rows))
        i = data.draw(st.integers(0, len(bps) - 2))
        tail_start = data.draw(st.sampled_from(
            [bps[i], (bps[i] + bps[i + 1]) / 2, bps[0]]))
        _assert_walk_matches_evaluate(m, 1, F(2), tail_start)


@pytest.mark.parametrize("x, grid, locked", [
    ((F(0),), range(0, 6), True),
    ((F(2, 3),), range(0, 9), True),
    ((F(1, 2), F(1, 3)), [F(k, 2) for k in range(0, 13)], True),
    ((F(414213, 1000000),), range(0, 8), False),
    ((F(5, 17), F(-4, 11)), [F(k, 2) for k in range(-2, 6)], False)],
    ids=["zero", "two-thirds", "half-third", "sqrt2-proxy", "free-pair"])
def test_kernel_lock_agrees_with_is_kernel_per_witness(x, grid, locked):
    body = GaugeBody(LINEAR_FORM, x)
    prof = minima_profile(body, grid)
    per_point = [body.is_kernel(p.witnesses[0]) for p in prof.valid]
    assert any(per_point) is locked
    assert profile_kernel_locked(prof) is locked
    for p, expected in zip(prof.valid, per_point):
        single = dataclasses.replace(prof, points=(p,))
        assert profile_kernel_locked(single) is expected


class TestAnalyzeProfiles:
    def test_zero_target_is_singular_like(self):
        prof = minima_profile(GaugeBody(LINEAR_FORM, (F(0),)), range(0, 6))
        report = analyze_profile(prof, F(1))
        assert report.omega_is_infinite
        assert report.ratio_min == 0
        assert profile_kernel_locked(prof)

    def test_two_thirds_locks_infinite(self):
        prof = minima_profile(GaugeBody(LINEAR_FORM, (F(2, 3),)),
                              range(0, 9))
        report = analyze_profile(prof, F(1))
        assert report.omega_is_infinite
        assert any("annihilates" in n for n in report.notes)

    def test_interpolant_is_the_log_map(self):
        prof = minima_profile(GaugeBody(LINEAR_FORM, (F(2, 3),)),
                              range(0, 5))
        interp = profile_interpolant(prof)
        assert interp.breakpoints == tuple(p.q for p in prof.points)
        for p in prof.valid:
            assert interp.evaluate(p.q) == p.logs

    def test_censoring_note_present(self):
        prof = minima_profile(GaugeBody(LINEAR_FORM, (F(1, 2),)),
                              range(0, 5))
        report = analyze_profile(prof, F(1))
        assert any("censored" in n for n in report.notes)


class TestCompare:
    def test_system_against_its_own_sampling_is_zero(self):
        _, built = twenty_block_system()
        grid = tuple(built.blocks[k].q_k for k in range(6))
        logs = tuple(built.map.evaluate(q) for q in grid)
        fake = MinimaProfile(
            body=GaugeBody(LINEAR_FORM, (F(0), F(0))), gap_bits=64,
            bound_mode="auto", points=tuple(
                GridPoint(q, (F(1),) * len(row), row,
                          ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
                for q, row in zip(grid, logs)))
        report = compare_system_profile(built.map, fake)
        assert report.sup_distance_on_grid == 0
        assert report.points == len(grid)

    def test_zero_target_against_trivial_system(self):
        prof = minima_profile(GaugeBody(LINEAR_FORM, (F(0),)), range(0, 9))
        trivial = PiecewiseLinearMap(
            (F(0), F(10)), ((F(0), F(0)), (F(0), F(10))))
        report = compare_system_profile(trivial, prof)
        # the only slack is the double surrogate log(exp(q)) vs q
        assert report.sup_distance_on_grid <= F(1, 2 ** 60)
        assert report.per_component_max[0] == 0

    def test_verdict_against_supplied_constant(self):
        prof = minima_profile(GaugeBody(LINEAR_FORM, (F(0),)), range(0, 5))
        trivial = PiecewiseLinearMap(
            (F(0), F(10)), ((F(0), F(0)), (F(0), F(10))))
        report = compare_system_profile(trivial, prof, rn=F(1))
        assert report.within_rn is True

    def test_template_vs_profile_plumbing(self):
        _, built = twenty_block_system()
        prof = minima_profile(GaugeBody(LINEAR_FORM, (F(1, 3), F(2, 5))),
                              [F(100), F(101), F(102)], bound=3)
        # points failed (bound tiny) -> no overlap of valid points
        with pytest.raises(PgnError):
            compare_system_profile(built.map, prof)

    def test_component_count_mismatch(self):
        _, built = twenty_block_system()
        prof = minima_profile(GaugeBody(LINEAR_FORM, (F(0),)), range(0, 3))
        with pytest.raises(PgnError):
            compare_system_profile(built.map, prof)
