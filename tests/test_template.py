from fractions import Fraction as F

import pytest

from pgn import (GapFunction, PgnError, sup_distance, validate)
from pgn.template import (BETA_LOG, TemplateOrderingError, TemplateParams,
                          block_functionals, build_block, build_system,
                          closure_step, default_rn, derive_alpha_beta,
                          derive_block_breakpoints, params_from_meta,
                          printed_step, transfer_exponents)

from oracles import dense_max_distance

GAP = GapFunction()


def reference_params(**overrides):
    base = dict(n=2, w=F(3), alpha=F(1), delta=F(1, 2), q1=F(100),
                blocks=1, beta=F(1, 2))
    base.update(overrides)
    return TemplateParams(**base)


class TestDeriveAlphaBeta:
    def test_rejects_boundary(self):
        with pytest.raises(PgnError):
            derive_alpha_beta(F(1), F(1, 2), F(0), 2, F(3), GAP)
        with pytest.raises(PgnError):
            derive_alpha_beta(F(1, 2), F(1), F(0), 2, F(3), GAP)

    def test_unit_margin_from_exponential_tolerance(self):
        # with R_n = 0 and epsilon = e^-(n+1), alpha comes back as 1
        n = 2
        eps = GAP.exp(-(n + 1))
        alpha, _ = derive_alpha_beta(eps, F(1, 2), F(0), n, F(3), GAP)
        assert abs(alpha - 1) <= F(1, 2 ** 50)

    def test_positive_outputs(self):
        alpha, beta = derive_alpha_beta(F(1, 10), F(9, 10), F(5), 3, F(4), GAP)
        assert alpha > 0 and beta > 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_default_constant_reproduces_shrink_exponent(self, n):
        # 4(n+1) R_n must equal 20 (n+1)^3 (n+10) for the default R_n
        log_cn, _ = transfer_exponents(n, F(n + 1), default_rn(n))
        assert log_cn == 20 * (n + 1) ** 3 * (n + 10)


class TestBlockBreakpoints:
    def test_reference_block_exact_values(self):
        bp = derive_block_breakpoints(reference_params(), 1, F(100))
        g = GAP.log(100)
        assert bp.r_k == 103
        assert bp.p_k == F(394, 3)
        assert bp.u_k == F(385, 3)
        assert bp.q_k1 == 147
        assert bp.s_k_m == 103 + g
        assert bp.s_k_M == 103 + 2 * g
        assert bp.s_k == 103 + F(3, 2) * g
        assert bp.t_k == 103 + 3 * g

    def test_reference_block_decimal_values(self):
        bp = derive_block_breakpoints(reference_params(), 1, F(100))
        for value, expected in [(bp.s_k_m, 107.6052), (bp.s_k, 109.9077),
                                (bp.s_k_M, 112.2103), (bp.t_k, 116.8155)]:
            assert abs(float(value) - expected) < 1e-4

    def test_delta_endpoints(self):
        bp0 = derive_block_breakpoints(reference_params(delta=F(0)), 1,
                                       F(100))
        assert bp0.s_k == bp0.s_k_M
        bp1 = derive_block_breakpoints(reference_params(delta=F(1)), 1,
                                       F(100))
        assert bp1.s_k == bp1.s_k_m
        assert bp1.t_k == bp1.s_k_M  # the schedule degenerates gracefully

    def test_small_start_fails_ordering(self):
        with pytest.raises(TemplateOrderingError) as err:
            derive_block_breakpoints(reference_params(q1=F(6)), 1, F(6))
        assert err.value.inequality == "t_k < u_k"
        assert "q_1 too small" in str(err.value)

    def test_declared_identities(self):
        bp = derive_block_breakpoints(reference_params(), 1, F(100))
        n, alpha = 2, F(1)
        assert bp.r_k - bp.q_k == (n * n - 1) * alpha
        assert bp.u_k == bp.p_k - (n + 1) * alpha
        assert bp.t_k - bp.s_k == (n - 1) * (bp.s_k - bp.r_k)

    @pytest.mark.parametrize("n,w,alpha,beta,q", [
        (2, F(3), F(1), F(1, 2), F(100)),
        (3, F(5), F(2, 3), F(7, 5), F(600)),
        (4, F(13, 2), F(1, 4), F(3), F(1200)),
    ])
    def test_step_matches_both_closure_constraints(self, n, w, alpha, beta, q):
        # constraint (a): the first component, rising with slope 1 from p_k,
        #   must hit the next anchor: q' = ((n+1) p_k - q_k) / n
        # constraint (b): the middle components, constant after u_k at
        #   V = q/(n+1) + n*alpha + (u_k - r_k)/n, must equal q'/(n+1) - alpha
        params = TemplateParams(n=n, w=w, alpha=alpha, delta=F(1, 3), q1=q,
                                blocks=1, beta=beta)
        bp = derive_block_breakpoints(params, 1, q)
        q_a = ((n + 1) * bp.p_k - q) / n
        v_mid = q / (n + 1) + n * alpha + (bp.u_k - bp.r_k) / F(n)
        q_b = (n + 1) * (v_mid + alpha)
        assert bp.q_k1 == q_a == q_b == closure_step(params, q, beta)

    def test_printed_step_differs_when_margins_differ(self):
        params = reference_params()
        assert printed_step(params, F(100), F(1, 2)) != \
            closure_step(params, F(100), F(1, 2))
        # the two steps coincide exactly when alpha = beta_k
        assert printed_step(params, F(100), F(1)) == \
            closure_step(params, F(100), F(1))


class TestBuildBlock:
    def test_first_component_plateau_then_rise(self):
        block, bp = build_block(reference_params(), 1, F(100))
        for q in (F(100), F(110), F(120), bp.p_k):
            assert block.evaluate(q)[0] == F(97, 3)
        assert block.evaluate(147)[0] == 48
        assert block.evaluate(F(140))[0] == F(97, 3) + (140 - bp.p_k)

    def test_top_gap_at_p(self):
        block, bp = build_block(reference_params(), 1, F(100))
        row = block.evaluate(bp.p_k)
        assert row[2] - row[1] == 3  # (n+1) * alpha

    def test_block_validates(self):
        block, _ = build_block(reference_params(), 1, F(100))
        assert validate(block).is_system

    def test_anchor_rows(self):
        block, bp = build_block(reference_params(), 1, F(100))
        assert block.evaluate(100) == (F(97, 3), F(97, 3), F(106, 3))
        end = block.evaluate(bp.q_k1)
        assert end == (48, 48, 51)


class TestBuildSystem:
    def test_single_block_equals_block(self):
        params = reference_params()
        built = build_system(params)
        block, _ = build_block(params, 1, F(100))
        assert built.map == block

    def test_q_sequence_recurrence(self):
        built = build_system(reference_params(blocks=5))
        seq = built.q_sequence
        assert seq == [100, 147, F(435, 2), F(1293, 4), F(3855, 8),
                       F(11517, 16)]
        for a, b in zip(seq, seq[1:]):
            assert b == F(3, 2) * a - 3

    def test_log_mode_margins_increase(self):
        built = build_system(reference_params(beta=None, beta_mode=BETA_LOG,
                                              blocks=6))
        betas = [b.beta_k for b in built.blocks]
        assert betas == sorted(betas) and len(set(betas)) == len(betas)

    def test_step_is_family_independent(self):
        seqs = []
        for delta in (F(0), F(1, 3), F(1)):
            built = build_system(reference_params(delta=delta, blocks=6))
            seqs.append(built.q_sequence)
        assert seqs[0] == seqs[1] == seqs[2]

    def test_json_meta_round_trip(self):
        params = reference_params(blocks=3)
        built = build_system(params)
        doc = built.to_json_dict()
        assert params_from_meta(doc["meta"]["template"]) == params
        from pgn import PiecewiseLinearMap
        assert PiecewiseLinearMap.from_json_dict(doc) == built.map

    def test_alternative_step_orders_fail_for_slow_log_growth(self):
        params = TemplateParams(n=3, w=F(4), alpha=F(1), delta=F(1, 2),
                                q1=F(300), blocks=2, beta=None,
                                beta_mode=BETA_LOG, paper_qk1=True)
        with pytest.raises(TemplateOrderingError) as err:
            build_system(params)
        assert err.value.block == 1
        assert err.value.inequality == "p_k < q_{k+1}"


class TestBlockFunctionals:
    def test_reference_block_functionals(self):
        params = reference_params()
        block, bp = build_block(params, 1, F(100))
        f = block_functionals(block, params, bp)
        assert f.min_di_margin == 1
        assert f.min_di_at == (F(100), F(147))
        assert f.dw_peak == F(1, 2)
        assert f.dw_peak_at == (bp.p_k,)
        assert f.max_di_at == (bp.p_k,)
        assert f.min_ratio == F(97, 394)
        assert f.min_ratio_at == (bp.p_k,)

    def test_log_mode_peak_is_log_margin(self):
        params = reference_params(beta=None, beta_mode=BETA_LOG)
        block, bp = build_block(params, 1, F(100))
        f = block_functionals(block, params, bp)
        assert f.dw_peak == GAP.log(100) == bp.beta_k

    def test_functionals_match_dense_sampling(self):
        params = reference_params()
        block, bp = build_block(params, 1, F(100))
        f = block_functionals(block, params, bp)
        lo, hi = block.domain
        samples = [lo + (hi - lo) * F(i, 500) for i in range(501)]
        samples += list(block.breakpoints)
        di, dw, ratio = [], [], []
        for q in samples:
            p1 = block.evaluate(q)[0]
            di.append(q / 3 - p1)
            dw.append(q / 4 - p1)
            ratio.append(p1 / q)
        assert min(di) == f.min_di_margin
        assert max(di) == f.max_di_margin
        assert max(dw) == f.dw_peak
        assert min(ratio) == f.min_ratio

    def test_ratio_converges_to_reciprocal_exponent(self):
        params = reference_params(blocks=20)
        built = build_system(params)
        w, beta, n = params.w, params.beta, params.n
        bound_constant = 2 * beta * (n + 1) / (w + 1)
        for block_map, bp in zip(built.block_maps, built.blocks):
            f = block_functionals(block_map, params, bp)
            gap_to_limit = abs(f.min_ratio - 1 / (1 + w))
            assert gap_to_limit == beta / bp.p_k
            assert gap_to_limit <= bound_constant / bp.q_k


class TestFamilyDivergence:
    def test_divergence_equals_log_gap_exactly(self):
        base = dict(n=2, w=F(3), alpha=F(1), q1=F(100), blocks=8,
                    beta=F(1, 2))
        s0 = build_system(TemplateParams(delta=F(0), **base))
        s1 = build_system(TemplateParams(delta=F(1), **base))
        for upto in range(2, 9):
            q_last = s0.blocks[upto - 1].q_k  # == q_K over [q_1, q_K]
            d = sup_distance(s0.map, s1.map, (F(100), q_last))
            assert d == (2 - 1) * GAP.log(s0.blocks[upto - 2].q_k)

    def test_divergence_against_dense_oracle(self):
        base = dict(n=3, w=F(5), alpha=F(1), q1=F(300), blocks=3,
                    beta=F(1, 2))
        s0 = build_system(TemplateParams(delta=F(0), **base))
        s1 = build_system(TemplateParams(delta=F(1), **base))
        lo, hi = F(300), s0.blocks[2].q_k
        assert sup_distance(s0.map, s1.map, (lo, hi)) == \
            dense_max_distance(s0.map, s1.map, lo, hi)


class TestParamValidation:
    def test_exponent_must_exceed_dimension(self):
        with pytest.raises(PgnError):
            reference_params(w=F(2))

    def test_q1_floor(self):
        with pytest.raises(PgnError):
            reference_params(q1=F(2))

    def test_delta_range(self):
        with pytest.raises(PgnError):
            reference_params(delta=F(3, 2))

    def test_bounded_mode_needs_beta(self):
        with pytest.raises(PgnError):
            reference_params(beta=None)


@pytest.mark.parametrize("call, error, message, inequality", [
    (lambda: reference_params(n=1), PgnError,
     "dimension n must be at least 2", None),
    (lambda: reference_params(alpha=0), PgnError, "alpha must be positive",
     None),
    (lambda: reference_params(blocks=0), PgnError, "need at least one block",
     None),
    (lambda: reference_params(beta_mode="cubic"), PgnError,
     "unknown beta mode 'cubic'", None),
    (lambda: reference_params(beta_mode=BETA_LOG), PgnError,
     "log beta mode takes no beta", None),
    (lambda: reference_params(alpha=F(1, 10 ** 6), q1=1), PgnError,
     "q1 must exceed 1 so the log gap is positive", None),
    (lambda: derive_alpha_beta(F(1, 2), F(1, 2), -1, 2, 3), PgnError,
     "R_n must be nonnegative, got -1", None),
    (lambda: derive_block_breakpoints(reference_params(), 1, 1),
     TemplateOrderingError, "block 1: required q_k > 1 but got 1 vs 1; "
     "q_1 too small for these parameters", "q_k > 1"),
    # the 64-bit log of 1 + 2^-70 rounds to 0
    (lambda: derive_block_breakpoints(reference_params(), 1,
                                      1 + F(1, 2 ** 70)),
     TemplateOrderingError, "block 1: required log(q_k) > 0 but got 0 vs 0; "
     "q_1 too small for these parameters", "log(q_k) > 0")],
    ids=["n-one", "alpha-zero", "blocks-zero", "beta-mode", "log-beta",
         "q1-one", "rn-negative", "q_k-one", "log-q_k-zero"])
def test_refusals(call, error, message, inequality):
    with pytest.raises(PgnError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message
    assert getattr(info.value, "inequality", None) == inequality
