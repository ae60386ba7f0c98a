import dataclasses
import math
import random
import time
import tracemalloc
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgn import (BoundTooSmallError, GapFunction, GaugeBody, LINEAR_FORM,
                 PgnError, SIMULTANEOUS, gauge, gauge_at_scale,
                 is_form_kernel, minima, minima_profile, minkowski_check,
                 profile_from_csv, profile_to_csv, successive_minima,
                 successive_minima_certified)

from oracles import (cf_lambda1, integer_rank, oracle_gauge,
                     oracle_minima_values, subsets_minima_values,
                     transference_products)

GAP = GapFunction()


class TestGauge:
    def test_box_coordinate_only(self):
        body = GaugeBody(LINEAR_FORM, (F(0),))
        assert gauge(body, 1, (0, 1)) == 1

    def test_pure_form_coordinate(self):
        body = GaugeBody(LINEAR_FORM, (F(0),))
        assert gauge(body, 2, (1, 0)) == GAP.exp(2)

    def test_kernel_vector_hand_value(self):
        body = GaugeBody(LINEAR_FORM, (F(1, 2),))
        assert gauge_at_scale(body, F(7), (-1, 2)) == 2  # form part vanishes

    def test_symmetry_and_homogeneity(self):
        body = GaugeBody(LINEAR_FORM, (F(2, 3), F(-1, 5)))
        v = (3, -2, 7)
        g = gauge_at_scale(body, F(11, 4), v)
        assert gauge_at_scale(body, F(11, 4), tuple(-c for c in v)) == g
        assert gauge_at_scale(body, F(11, 4), tuple(2 * c for c in v)) == 2 * g

    def test_zero_vector_rejected(self):
        body = GaugeBody(LINEAR_FORM, (F(0),))
        with pytest.raises(PgnError):
            gauge_at_scale(body, F(1), (0, 0))

    def test_dimension_mismatch(self):
        body = GaugeBody(LINEAR_FORM, (F(0),))
        with pytest.raises(PgnError):
            gauge_at_scale(body, F(1), (1, 0, 0))

    def test_simultaneous_gauge(self):
        body = GaugeBody(SIMULTANEOUS, (F(1, 3),))
        # v = (3, 1): stretched part 3/E, difference part E*|3/3 - 1| = 0
        assert gauge_at_scale(body, F(6), (3, 1)) == F(1, 2)


class TestSuccessiveMinima:
    def test_diagonal_body(self):
        body = GaugeBody(LINEAR_FORM, (F(0),))
        res = successive_minima(body, 1, 5)
        assert res.minima == (1, GAP.exp(1))
        assert res.witnesses == ((0, 1), (1, 0))

    def test_half_target_at_scale_two(self):
        body = GaugeBody(LINEAR_FORM, (F(1, 2),))
        res = successive_minima(body, 0, 3, scale=F(2))
        assert res.minima == (1, 1)
        assert res.witnesses == ((0, 1), (1, -1))
        # second-theorem pin: 2 <= product * volume <= 4 with volume = 2
        product = res.minima[0] * res.minima[1]
        assert 2 <= product * 2 <= 4

    def test_unit_scale_unit_first_minimum(self):
        body = GaugeBody(LINEAR_FORM, (F(0), F(0)))
        res = successive_minima(body, 0, 2)
        assert res.minima[0] == 1

    def test_bound_too_small_suggests_more(self):
        body = GaugeBody(LINEAR_FORM, (F(1, 3),))
        with pytest.raises(BoundTooSmallError) as err:
            successive_minima(body, 8, 10)
        assert err.value.suggested > 10
        res = successive_minima(body, 8, 10, require_certificate=False)
        assert not res.certified

    def test_window_equals_box_when_certified(self):
        body = GaugeBody(LINEAR_FORM, (F(2, 7), F(-3, 5)))
        for q in (F(0), F(1, 2), F(3, 2)):
            auto = successive_minima_certified(body, q)
            plain = successive_minima(body, q, max(4, auto.bound))
            assert auto.minima == plain.minima
            assert auto.witnesses == plain.witnesses

    def test_witnesses_independent(self):
        body = GaugeBody(LINEAR_FORM, (F(3, 7), F(1, 4)))
        res = successive_minima_certified(body, F(2))
        assert integer_rank(res.witnesses) == body.dim

    def test_simultaneous_diagonal(self):
        body = GaugeBody(SIMULTANEOUS, (F(0),))
        res = successive_minima(body, 0, 4, scale=F(2))
        assert res.minima == (F(1, 2), F(2))
        assert res.witnesses == ((1, 0), (0, 1))
        auto = successive_minima_certified(body, 0, scale=F(2))
        assert auto.minima == res.minima and auto.witnesses == res.witnesses


class TestOracleAgreement:
    def test_small_sweep_matches_rank_oracle(self):
        rng = random.Random(7)
        for _ in range(12):
            n = rng.choice([1, 2])
            x = tuple(F(rng.randint(-6, 6), rng.randint(1, 8))
                      for _ in range(n))
            q = F(rng.randint(0, 6), 2)
            bound = rng.randint(2, 4)
            body = GaugeBody(LINEAR_FORM, x)
            res = successive_minima(body, q, bound,
                                    require_certificate=False)
            expected = oracle_minima_values(LINEAR_FORM, x, res.scale, bound)
            assert list(res.minima) == expected

    def test_tiny_cases_match_subsets_oracle(self):
        for x, scale in [((F(1, 2),), F(2)), ((F(0),), F(3)),
                         ((F(2, 3),), F(5, 2))]:
            body = GaugeBody(LINEAR_FORM, x)
            res = successive_minima(body, 0, 2, scale=scale,
                                    require_certificate=False)
            expected = subsets_minima_values(LINEAR_FORM, x, scale, 2)
            assert list(res.minima) == expected


class TestProfiles:
    def test_single_point_profile(self):
        body = GaugeBody(LINEAR_FORM, (F(0),))
        prof = minima_profile(body, [F(0)])
        assert [(p.minima, p.logs) for p in prof.points] == [
            ((F(1), F(1)), (F(0), F(0)))]

    def test_two_thirds_profile_locks(self):
        body = GaugeBody(LINEAR_FORM, (F(2, 3),))
        prof = minima_profile(body, range(0, 9))
        log3 = GAP.log(3)
        for p in prof.valid:
            if GAP.exp(p.q) >= 9:
                assert p.minima[0] == 3
                assert p.logs[0] == log3
                assert is_form_kernel(body, p.witnesses[0])

    def test_first_minimum_nondecreasing_in_q(self):
        rng = random.Random(3)
        for _ in range(4):
            x = (F(rng.randint(-9, 9), rng.randint(2, 12)),)
            prof = minima_profile(GaugeBody(LINEAR_FORM, x),
                                  [F(i, 2) for i in range(9)])
            firsts = [p.minima[0] for p in prof.valid]
            assert all(a <= b for a, b in zip(firsts, firsts[1:]))

    def test_minima_sorted_at_each_point(self):
        body = GaugeBody(LINEAR_FORM, (F(5, 7), F(-2, 9)))
        prof = minima_profile(body, range(0, 5))
        for p in prof.valid:
            row = p.minima
            assert all(a <= b for a, b in zip(row, row[1:]))
            assert row[0] > 0

    def test_margin_grows_once_kernel_witness_governs(self):
        # the kernel vector of x=2/3 has gauge 3 and rules the first
        # minimum from scale 9 on; past that the margin climbs strictly
        body = GaugeBody(LINEAR_FORM, (F(2, 3),))
        prof = minima_profile(body, [F(i, 4) for i in range(4, 33)])
        margins = [(p.q, p.q / 2 - p.logs[0])
                   for p in prof.valid if GAP.exp(p.q) >= 9]
        assert len(margins) >= 10
        assert all(b > a for (_, a), (_, b) in zip(margins, margins[1:]))

    def test_errors_recorded_not_fatal(self):
        body = GaugeBody(LINEAR_FORM, (F(1, 3),))
        prof = minima_profile(body, [F(0), F(8)], bound=4)
        first, second = prof.points
        assert first.minima is not None and first.error is None
        assert second.minima is None
        assert "certify" in second.error

    def test_negative_q_refusal_counts_the_form_coordinate(self):
        # at q=-20 the window's v_0 range alone holds about 2e9 integers
        start = time.perf_counter()
        prof = minima_profile(GaugeBody(LINEAR_FORM, (F(1, 3),)), [-20])
        assert time.perf_counter() - start < 1
        [point] = prof.points
        assert point.minima is None
        assert point.error.startswith("desk-scale limit")

    def test_grid_must_increase(self):
        with pytest.raises(PgnError):
            minima_profile(GaugeBody(LINEAR_FORM, (F(0),)), [F(1), F(1)])


def _cold_point(body, q):
    """One grid point alone: cold doubling, or its refusal text."""
    try:
        res = successive_minima_certified(body, q)
    except PgnError as exc:
        return None, None, str(exc)
    return res.minima, res.witnesses, None


def _point_rows(prof):
    return [(p.minima, p.witnesses, p.error) for p in prof.points]


class TestWarmStart:
    """A profile starts each point from the previous point's witnesses;
    its rows must be those of every point computed alone from cold."""

    @pytest.mark.parametrize("limit", [30, 100, 300, 1000, 3000, 10_000])
    def test_profile_rows_match_cold_points(self, monkeypatch, limit):
        monkeypatch.setattr(minima, "_MAX_WINDOW_POINTS", limit)
        rng = random.Random(limit)
        refused = certified = 0
        for _ in range(12):
            mode = rng.choice([LINEAR_FORM, SIMULTANEOUS])
            x = tuple(F(rng.randint(-60, 60), rng.randint(1, 60))
                      for _ in range(rng.choice([1, 1, 2])))
            body = GaugeBody(mode, x)
            start, step = F(rng.randint(-6, 4), 2), F(1, rng.choice([1, 2, 4]))
            grid = [start + k * step for k in range(rng.randint(4, 12))]
            prof = minima_profile(body, grid)
            assert _point_rows(prof) == [_cold_point(body, q) for q in grid]
            refused += len(prof.points) - len(prof.valid)
            certified += len(prof.valid)
        assert refused and certified

    def test_refusal_after_certified_points_is_replayed(self, monkeypatch):
        # the warm window at q=5/2 fits 1000 points, but cold doubling
        # overshoots to a threshold whose scan does not
        monkeypatch.setattr(minima, "_MAX_WINDOW_POINTS", 1000)
        body = GaugeBody(LINEAR_FORM, (F(483, 500), F(-1, 1000)))
        grid = [F(3, 2) + k * F(1, 4) for k in range(8)]
        prof = minima_profile(body, grid)
        errors = [p.error for p in prof.points]
        assert [e is None for e in errors] == [True] * 4 + [False] * 4
        assert errors[4] == ("desk-scale limit: certifying minima at "
                             "this point needs a scan of 1683 points")
        assert _point_rows(prof) == [_cold_point(body, q) for q in grid]

    @pytest.mark.parametrize("mode", [LINEAR_FORM, SIMULTANEOUS])
    def test_one_window_pass_per_point_after_the_first(self, monkeypatch,
                                                       mode):
        calls = []
        scan = minima._enumerate_within

        def counted(ib, threshold):
            calls.append(threshold)
            return scan(ib, threshold)

        monkeypatch.setattr(minima, "_enumerate_within", counted)
        body = GaugeBody(mode, (F(5, 17), F(-4, 11)))
        grid = [F(k, 4) for k in range(-2, 11)]
        successive_minima_certified(body, grid[0])
        first = len(calls)
        calls.clear()
        prof = minima_profile(body, grid)
        assert prof.valid == prof.points
        assert len(calls) == first + len(grid) - 1


def _certified_result(body, scale, start=None):
    """successive_minima_certified at an exact scale, or its refusal text."""
    try:
        return successive_minima_certified(body, 0, scale=scale, start=start)
    except PgnError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([LINEAR_FORM, SIMULTANEOUS]),
       st.lists(st.fractions(-2, 2, max_denominator=7), min_size=1,
                max_size=3),
       st.fractions(F(1, 3), 3, max_denominator=4),
       st.sampled_from([30, 300, minima._MAX_WINDOW_POINTS]), st.data())
def test_certified_with_any_start_equals_the_cold_call(mode, x, scale, limit,
                                                       data):
    """Seeds that are flipped, repeated, zero, of the wrong length or
    dependent change nothing: the same minima, witnesses and scale, or the
    same refusal text."""
    body = GaugeBody(mode, tuple(x))
    dim = body.dim
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(minima, "_MAX_WINDOW_POINTS", limit)
        cold = _certified_result(body, scale)
        coord = st.integers(-3, 3)
        start = data.draw(st.lists(st.one_of(
            st.tuples(*[coord] * dim),
            st.lists(coord, min_size=dim - 1, max_size=dim + 1).map(tuple)),
            max_size=dim))
        if not isinstance(cold, str):
            w = cold.witnesses
            derived = [*w, *(tuple(-c for c in v) for v in w),
                       tuple(a + b for a, b in zip(w[0], w[-1])),
                       tuple(2 * c for c in w[-1]), w[0][:-1], w[0] + (1,)]
            start += data.draw(st.lists(st.sampled_from(derived),
                                        max_size=dim + 1))
        start.append((0,) * dim)
        assert _certified_result(body, scale, start) == cold


@settings(max_examples=50, deadline=None)
@given(st.lists(st.fractions(-2, 2, max_denominator=12), min_size=1,
                max_size=3), st.data())
def test_linear_form_and_simultaneous_minima_obey_transference(x, data):
    """Mahler: 1/d <= lambda_j(linear form, F^d) lambda_{d+1-j}(simultaneous,
    F) / F <= d! for the same target x in dimension d, at exact scales.
    In dimension 4, F stops at 2: an integer target's last linear-form
    minimum is F^4, and its window grows like F^12."""
    x = tuple(x)
    d = len(x) + 1
    scale = data.draw(st.fractions(F(1, 2), F(9, 2) if d < 4 else F(2),
                                   max_denominator=4))
    lin = successive_minima_certified(GaugeBody(LINEAR_FORM, x), 0,
                                      scale=scale ** d)
    sim = successive_minima_certified(GaugeBody(SIMULTANEOUS, x), 0,
                                      scale=scale)
    transference_products(lin.minima, sim.minima, scale)


def test_certified_start_of_one_witness_thrice_is_not_refused():
    # the window at this witness's gauge has rank 2 of 3; replaying it as
    # the final picks doubled until the desk-scale limit refused the point
    body = GaugeBody(LINEAR_FORM, (F(1, 3), F(2, 5)))
    cold = successive_minima_certified(body, 3)
    w1 = cold.witnesses[0]
    assert successive_minima_certified(body, 3, start=(w1, w1, w1)) == cold


def _box_result(body, bound, scale, require, start=None):
    """successive_minima at an exact scale, or its refusal text."""
    try:
        return successive_minima(body, 0, bound, scale=scale,
                                 require_certificate=require, start=start)
    except BoundTooSmallError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([LINEAR_FORM, SIMULTANEOUS]),
       st.lists(st.fractions(-2, 2, max_denominator=7), min_size=1,
                max_size=3),
       st.fractions(F(1, 3), 3, max_denominator=4),
       st.integers(1, 3), st.booleans(), st.data())
def test_box_seeded_with_any_start_equals_the_cold_box(mode, x, scale, bound,
                                                       require, data):
    """Seeds that are not canonical, repeat, leave the box, are zero or
    have the wrong length change nothing, even with the selector
    compacting every dim + 1 pairs."""
    body = GaugeBody(mode, tuple(x))
    dim = body.dim
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(minima, "_COMPACT", dim + 1)
        cold = _box_result(body, bound, scale, require)
        reach = st.integers(-bound - 2, bound + 2)
        start = data.draw(st.lists(st.one_of(
            st.tuples(*[reach] * dim),
            st.lists(reach, min_size=dim - 1, max_size=dim + 1).map(tuple)),
            max_size=2 * dim))
        if not isinstance(cold, str):
            # the cold witnesses in the other sign, one of them twice
            start += [tuple(-c for c in w) for w in cold.witnesses]
            start.append(cold.witnesses[-1])
        start.append((0,) * dim)
        assert _box_result(body, bound, scale, require, start) == cold


class TestWarmBox:
    BODY = GaugeBody(LINEAR_FORM, (F(5, 17), F(-4, 11)))
    GRID = [F(k, 2) for k in range(9)]

    def test_box_profile_rows_match_cold_points(self):
        prof = minima_profile(self.BODY, self.GRID, bound=6)
        cold = [successive_minima(self.BODY, q, 6) for q in self.GRID]
        assert prof.valid == prof.points
        assert ([(p.minima, p.witnesses) for p in prof.points]
                == [(r.minima, r.witnesses) for r in cold])

    def test_warm_box_profile_offers_fewer_pairs(self, monkeypatch):
        offered = []
        append = minima._Selector.append

        def counted(sink, pair):
            offered.append(pair)
            append(sink, pair)

        monkeypatch.setattr(minima._Selector, "append", counted)
        for q in self.GRID:
            successive_minima(self.BODY, q, 6)
        cold = len(offered)
        offered.clear()
        minima_profile(self.BODY, self.GRID, bound=6)
        assert len(offered) < cold


class _Collect(list):
    """A sink that keeps every pair the scan offers: with no worst, the scan
    clips nothing, so it holds the whole box or window."""
    worst = None
    covered = 0


@pytest.mark.parametrize("mode", [LINEAR_FORM, SIMULTANEOUS])
@pytest.mark.parametrize("x, scale, threshold", [
    ((F(2, 7),), F(3, 2), F(5, 2)),
    ((F(1, 3), F(-3, 5)), F(5, 4), F(2)),
    ((F(1, 2), F(2, 3), F(-1, 4)), F(1), F(3, 2))],
    ids=["dim2", "dim3", "dim4"])
def test_window_is_the_box_filtered_to_the_threshold(mode, x, scale,
                                                     threshold):
    ib = minima.IntegerBody(GaugeBody(mode, x), scale)
    bound = math.ceil(ib.reach(threshold))
    t = math.floor(threshold * ib.den)
    window = minima._scan(ib, ib.radii(t), _Collect())
    box = minima._scan(ib, [None] * len(ib.rows), _Collect(), bound)
    # the box holds one vector of each +- pair, each with its exact gauge
    assert len(box) == box.covered == ((2 * bound + 1) ** len(ib.rows)
                                       - 1) // 2
    assert all(F(g, ib.den) == ib.gauge(vec) for g, vec in box)
    limit = threshold * ib.den
    assert len(window) == window.covered > len(x)
    assert sorted(window) == sorted(c for c in box if c[0] <= limit)
    # the selectors cover the same points, however few pairs they hold
    assert len(minima._enumerate_box(ib, bound)) == len(box)
    assert len(minima._enumerate_within(ib, t)) == len(window)


def _sort_then_greedy(pairs, dim):
    """The selection restated over a full list of (gauge, vector) pairs:
    sorted on (gauge, coordinate magnitudes, vector), then picked greedily
    by exact rank."""
    picks, witnesses = [], []
    for g, _, vec in sorted((g, tuple(abs(c) for c in vec), vec)
                            for g, vec in pairs):
        if integer_rank(witnesses + [vec]) > len(witnesses):
            picks.append(g)
            witnesses.append(vec)
            if len(picks) == dim:
                break
    return picks, witnesses


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([LINEAR_FORM, SIMULTANEOUS]),
       st.lists(st.fractions(-2, 2, max_denominator=7), min_size=1,
                max_size=3),
       st.fractions(F(1, 3), 3, max_denominator=4),
       st.integers(1, 3),
       st.fractions(F(1, 2), 2, max_denominator=4))
def test_streaming_selection_matches_sort_then_greedy(mode, x, scale, bound,
                                                      threshold):
    """With the selector compacting every dim + 1 pairs, box and window
    selections equal a sort-then-greedy over everything the scan covers."""
    ib = minima.IntegerBody(GaugeBody(mode, tuple(x)), scale)
    dim = len(ib.rows)
    t = math.floor(threshold * ib.den)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(minima, "_COMPACT", dim + 1)
        box = minima._enumerate_box(ib, bound)
        window = minima._enumerate_within(ib, t)
        streamed = [minima._greedy_minima(box, dim),
                    minima._greedy_minima(window, dim)]
    every = [minima._scan(ib, [None] * dim, _Collect(), bound),
             minima._scan(ib, ib.radii(t), _Collect())]
    assert [len(box), len(window)] == [len(c) for c in every]
    assert streamed == [_sort_then_greedy(c, dim) for c in every]


def test_a_rank_deficient_pass_holds_few_pairs():
    # the pass at T = 4 of this point stays at rank 2 of 3 over 35,112
    # points; the selector holds at most _COMPACT of them at a time
    ib = minima.IntegerBody(GaugeBody(SIMULTANEOUS, (F(-1, 2), F(2, 5))),
                            GAP.exp(F(-7, 2)))
    tracemalloc.start()
    try:
        sink = minima._enumerate_within(ib, ib.den << 2)
        picks, _ = minima._greedy_minima(sink, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sink) == 35_112 and len(picks) == 2
    assert peak < 2 ** 20


class TestMinkowski:
    def test_diagonal_profile_margins(self):
        body = GaugeBody(LINEAR_FORM, (F(0),))
        prof = minima_profile(body, range(0, 5))
        report = minkowski_check(prof)
        assert report.ok
        log2 = GAP.log(2)
        for point in report.points:
            # sum of logs == log(E) which tracks q to surrogate precision
            assert abs(point["sum_logs"] - point["log_upper"]) <= F(1, 2 ** 50)
            assert point["log_upper"] - point["log_lower"] == log2

    def test_half_target_point(self):
        body = GaugeBody(LINEAR_FORM, (F(1, 2),))
        prof = minima_profile(body, [GAP.log(2)])
        report = minkowski_check(prof)
        assert report.ok
        point = report.points[0]
        assert point["log_lower"] <= point["sum_logs"] <= point["log_upper"] \
            or abs(point["sum_logs"]) <= F(1, 2 ** 50)

    def test_random_rational_targets(self):
        rng = random.Random(11)
        for _ in range(3):
            x = tuple(F(rng.randint(-20, 20), rng.randint(2, 25))
                      for _ in range(2))
            prof = minima_profile(GaugeBody(LINEAR_FORM, x),
                                  [F(i, 2) for i in range(20)])
            report = minkowski_check(prof)
            assert report.ok and not report.violations

    def test_simultaneous_profile(self):
        body = GaugeBody(SIMULTANEOUS, (F(1, 3),))
        prof = minima_profile(body, [F(0), F(1), F(2)])
        report = minkowski_check(prof)
        assert report.ok
        for point in report.points:
            assert point["log_upper"] == 0


class TestContinuedFractionAgreement:
    def test_lambda1_matches_best_approximations(self):
        x = F(89, 144)  # ratio of consecutive large-ish pair
        body = GaugeBody(LINEAR_FORM, (x,))
        for q in [F(1), F(2), F(7, 2), F(5)]:
            res = successive_minima_certified(body, q)
            assert res.minima[0] == cf_lambda1(x, res.scale)


def _assert_round_trip(prof):
    text = profile_to_csv(prof)
    assert profile_from_csv(text) == prof
    assert profile_to_csv(profile_from_csv(text)) == text


class TestProfileSerialization:
    def test_round_trip_bit_exact(self):
        _assert_round_trip(minima_profile(GaugeBody(LINEAR_FORM, (F(2, 3),)),
                                          range(0, 6)))
        _assert_round_trip(minima_profile(
            GaugeBody(SIMULTANEOUS, (F(5, 7), F(-2, 9))),
            [F(k, 2) for k in range(-2, 5)]))

    def test_round_trip_with_error_rows(self):
        body = GaugeBody(LINEAR_FORM, (F(1, 3),))
        _assert_round_trip(minima_profile(body, [F(0), F(8)], bound=4))
        _assert_round_trip(minima_profile(body, [-46, -44, 0]))

    def test_underflow_is_an_error_row(self):
        prof = minima_profile(GaugeBody(LINEAR_FORM, (F(1, 3),)),
                              [-46, -44, 0])
        assert (prof.points[0].error
                == "exp(-46) underflows the 64-bit dyadic surrogate")
        assert prof.points[1].minima is None
        assert prof.valid == prof.points[2:]

    def test_rejects_empty(self):
        with pytest.raises(PgnError):
            profile_from_csv("")

    def test_rejects_non_integer_gap_bits(self):
        with pytest.raises(PgnError, match="malformed metadata"):
            profile_from_csv("# mode=linear-form\n# x=2/3\n# gap_bits=abc\n"
                             "q,lambda_1,lambda_2,L_1,L_2,witness_1,"
                             "witness_2,error\n")


_ERROR_PROFILE = minima_profile(GaugeBody(LINEAR_FORM, (F(1, 3),)),
                                [F(0), F(8)], bound=4)
# one-line texts: no control or line-separator characters, which
# str.splitlines would break on
_LINE_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl",
                                                         "Zp")))


@settings(max_examples=60, deadline=None)
@given(_LINE_TEXT, _LINE_TEXT)
def test_error_text_with_comma_and_quote_round_trips(head, tail):
    message = f'{head}, "{tail}"'.strip()
    first, second = _ERROR_PROFILE.points
    prof = dataclasses.replace(
        _ERROR_PROFILE, points=(first, dataclasses.replace(second,
                                                           error=message)))
    _assert_round_trip(prof)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=-8, max_value=8),
       st.integers(min_value=-8, max_value=8),
       st.integers(min_value=1, max_value=6))
def test_gauge_scaling_property(a, b, k):
    if a == 0 and b == 0:
        return
    body = GaugeBody(LINEAR_FORM, (F(3, 5),))
    g1 = gauge_at_scale(body, F(7, 3), (a, b))
    gk = gauge_at_scale(body, F(7, 3), (k * a, k * b))
    assert gk == k * g1


@st.composite
def _small_bodies(draw):
    """A target with denominators <= 8 in [-1, 1] and a grid point q in
    [-2, 2]; in [-1/2, 1] for two simultaneous targets, where the oracle's
    box grows like e^{-3q} (about 3 s each at q=-1)."""
    mode = draw(st.sampled_from([LINEAR_FORM, SIMULTANEOUS]))
    dens = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))
    x = tuple(F(draw(st.integers(-d, d)), d) for d in dens)
    low, high = (-1, 2) if mode == SIMULTANEOUS and len(x) == 2 else (-4, 4)
    return GaugeBody(mode, x), F(draw(st.integers(low, high)), 2)


def _definition_reach(body, scale, lam):
    """The box max-norm holding every vector of gauge <= lam, restated in
    Fractions from the body definitions."""
    if body.mode == LINEAR_FORM:  # |v_i| <= lam, |v_0 + x.v| <= lam/E
        return max(lam, lam / scale + lam * sum(abs(x) for x in body.x))
    v0 = lam * scale ** len(body.x)  # |v_0| <= lam E^m
    # |v_0 x_i - v_i| <= lam/E
    return max(v0, lam / scale + max(abs(x) for x in body.x) * v0)


@settings(max_examples=40, deadline=None)
@given(_small_bodies())
def test_window_minima_match_rank_oracle_in_both_modes(case):
    body, q = case
    res = successive_minima_certified(body, q)
    lam, scale = res.minima[-1], res.scale
    bound = math.ceil(_definition_reach(body, scale, lam))
    assert res.bound == bound
    assert list(res.minima) == oracle_minima_values(body.mode, body.x,
                                                    scale, bound)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([LINEAR_FORM, SIMULTANEOUS]),
       st.lists(st.fractions(-3, 3, max_denominator=40), min_size=1,
                max_size=3),
       st.fractions(-6, 6, max_denominator=8),
       st.one_of(st.integers(1, 50),
                 st.fractions(F(1, 1000), 50, max_denominator=10 ** 6)))
def test_reach_is_the_ceiling_of_the_definition_box(mode, x, q, lam):
    body, scale = GaugeBody(mode, tuple(x)), GAP.exp(q)
    reach = minima.IntegerBody(body, scale).reach(lam)
    assert type(reach) is int
    assert reach == math.ceil(_definition_reach(body, scale, F(lam)))


def _full_sort_selection(mode, x, scale, bound):
    """The selection restated without the engine: every canonical vector of
    the box, fully sorted on (Fraction gauge, coordinate magnitudes, vector),
    then picked greedily by exact rank."""
    dim = len(x) + 1
    return _sort_then_greedy(
        [(oracle_gauge(mode, x, scale, vec), vec)
         for vec in product(range(-bound, bound + 1), repeat=dim)
         if any(vec) and next(c for c in vec if c) > 0], dim)


def _assert_tie_break(mode, x, scale, bound):
    body = GaugeBody(mode, x)
    box = successive_minima(body, 0, bound, scale=scale,
                            require_certificate=False)
    assert ((list(box.minima), list(box.witnesses))
            == _full_sort_selection(mode, body.x, scale, bound))
    # a box of max-norm >= the certificate holds every vector of gauge
    # <= lambda_dim, so the full sort over it selects what the window does
    window = successive_minima_certified(body, 0, scale=scale)
    assert ((list(window.minima), list(window.witnesses))
            == _full_sort_selection(mode, body.x, scale,
                                    max(bound, window.bound)))


class TestTieBreak:
    @pytest.mark.parametrize("mode", [LINEAR_FORM, SIMULTANEOUS])
    @pytest.mark.parametrize("x", [(F(1, 2),), (F(1, 3), F(2, 3))],
                             ids=["half", "thirds"])
    @pytest.mark.parametrize("scale", [F(1), F(2)], ids=["E=1", "E=2"])
    def test_matches_full_sort_on_tie_heavy_bodies(self, mode, x, scale):
        _assert_tie_break(mode, x, scale, 4)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([LINEAR_FORM, SIMULTANEOUS]),
       st.lists(st.integers(1, 4), min_size=1, max_size=2),
       st.data(),
       st.sampled_from([F(1, 2), F(1), F(3, 2), F(2), F(3)]),
       st.integers(1, 6))
def test_selection_matches_full_sort(mode, dens, data, scale, bound):
    x = tuple(F(data.draw(st.integers(-d, d)), d) for d in dens)
    _assert_tie_break(mode, x, scale, bound)


class TestSparseRows:
    def test_rows_are_built_once_in_sparse_form(self):
        lin = GaugeBody(LINEAR_FORM, (F(1, 2), F(0), F(-1, 3)))
        assert lin.rows == ((1, 1, (), 0), (2, 1, (), 0), (3, 1, (), 0),
                            (0, 6, ((1, 3), (3, -2)), 1))
        sim = GaugeBody(SIMULTANEOUS, (F(1, 2), F(0), F(-1, 3)))
        assert sim.rows == ((0, 1, (), -3), (1, 6, ((0, -3),), 1),
                            (2, 6, (), 1), (3, 6, ((0, 2),), 1))

    def test_rows_stay_out_of_repr_equality_and_hash(self):
        body = GaugeBody(LINEAR_FORM, (F(1, 3),))
        assert repr(body) == ("GaugeBody(mode='linear-form', "
                              "x=(Fraction(1, 3),))")
        same = GaugeBody(LINEAR_FORM, (1 / F(3),))
        assert body == same and hash(body) == hash(same)
        assert body != GaugeBody(SIMULTANEOUS, (F(1, 3),))

    @pytest.mark.parametrize("mode", [LINEAR_FORM, SIMULTANEOUS])
    def test_wide_body_is_refused_without_quadratic_allocation(self, mode):
        tracemalloc.start()
        try:
            body = GaugeBody(mode, (F(1, 3),) * 2000)
            prof = minima_profile(body, [0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # at E = 1 and T = den = 3 the top range is 3 wide (2 kept of each
        # +- pair) and each of the other 2000 ranges is 3 wide
        assert [p.error for p in prof.points] == [
            f"desk-scale limit: certifying minima at this point needs a "
            f"scan of {2 * 3 ** 2000} points"]
        assert peak < 5 * 2 ** 20
