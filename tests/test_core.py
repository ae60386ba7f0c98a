import copy
import dataclasses
import fractions
import pickle
import time
from decimal import Decimal
from math import ceil, prod
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pgn import (DomainError, GapFunction, PgnError, PiecewiseLinearMap,
                 StructureError, concatenate,
                 format_rational, parse_rational, sup_distance)
from pgn.core import _MAX_DECIMAL_EXPONENT, map_document_rows
from pgn.template import TemplateParams, build_block, build_system

from oracles import dense_max_distance, exp_oracle, ln_oracle, to_decimal


def simple_map():
    return PiecewiseLinearMap((F(0), F(2)), ((F(0), F(0)), (F(1), F(1))))


class TestRationals:
    def test_parse_forms(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("0.25") == F(1, 4)
        assert parse_rational("-7") == F(-7)
        assert parse_rational(" 10/4 ") == F(5, 2)

    def test_parse_rejects_junk(self):
        with pytest.raises(PgnError):
            parse_rational("1/0")
        with pytest.raises(PgnError):
            parse_rational("abc")

    def test_format_round_trip(self):
        for x in (F(0), F(-3), F(22, 7), F(1, 2 ** 64)):
            assert parse_rational(format_rational(x)) == x


_LEADING_ZEROS = st.text("0", max_size=3)
_DIGITS = st.integers(min_value=0, max_value=10 ** 120).map(str)


@st.composite
def _canonical_literals(draw):
    """The form format_rational writes, with leading zeros, -0 and /0."""
    text = draw(st.sampled_from(["", "-"])) + draw(_LEADING_ZEROS)
    text += draw(_DIGITS)
    if draw(st.booleans()):
        text += "/" + draw(_LEADING_ZEROS) + draw(_DIGITS)
    return text


_ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
# forms outside the canonical one, which must reach Fraction(str); the
# exponents stay small, since Fraction expands 10**exp in full
_FALLBACK_FORMS = [
    lambda s: f" {s}\t\n", lambda s: "+" + s, lambda s: s[:1] + "_" + s[1:],
    lambda s: s + ".25", lambda s: "." + s, lambda s: s + "e3",
    lambda s: s + "E-2", lambda s: s.replace("/", "/-"),
    lambda s: s.replace("/", " / "), lambda s: s.translate(_ARABIC_INDIC),
    lambda s: s + "\n", lambda s: s + "/",
]


def _same_as_fraction(text):
    """parse_rational(text) is Fraction(text.strip()), or both refuse; a
    decimal exponent beyond the bound, as Fraction's own pattern reads it,
    is refused before Fraction runs."""
    literal = fractions._RATIONAL_FORMAT.match(text.strip())
    if (literal and literal["exp"]
            and abs(int(literal["exp"])) > _MAX_DECIMAL_EXPONENT):
        with pytest.raises(PgnError):
            parse_rational(text)
        return
    try:
        want = F(text.strip())
    except (ValueError, ZeroDivisionError):
        with pytest.raises(PgnError):
            parse_rational(text)
        return
    got = parse_rational(text)
    assert type(got) is F and got == want


@settings(max_examples=300, deadline=None)
@given(_canonical_literals())
@example("-0")
@example("007/010")
@example("1/0")
@example("-0/0")
@example("1" * 5000)
@example("1/" + "1" * 5000)
def test_canonical_literals_parse_like_fraction(text):
    _same_as_fraction(text)


@settings(max_examples=300, deadline=None)
@given(_canonical_literals(), st.sampled_from(_FALLBACK_FORMS))
@example("5/3", lambda s: s.replace("/", "/-"))
@example("12", lambda s: s.translate(_ARABIC_INDIC))
@example("1_000", lambda s: s)
@example("1" * 5000, lambda s: f" {s} ")
def test_other_literals_fall_back_to_fraction(text, form):
    _same_as_fraction(form(text))


@settings(max_examples=300, deadline=None)
@given(st.text("0123456789-+/._ \t\n١٢", max_size=12))
def test_any_literal_parses_like_fraction(text):
    _same_as_fraction(text)


@pytest.mark.parametrize("text", [
    "1e4301", "1e-4301", "1E+10000000", "1e10000000", " 2.5e4301 ",
    "1e4_301", "1e\u0664\u0663\u0660\u0661", "-.5E-00004301"])
def test_exponent_beyond_the_bound_is_refused_at_once(text):
    start = time.perf_counter()
    with pytest.raises(PgnError, match="decimal exponent"):
        parse_rational(text)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("text", ["1e4300", "1e-4300", "1e0004300",
                                  "-2.5E+4_300", "1e\u0664\u0663\u0660\u0660"])
def test_exponent_at_the_bound_parses_like_fraction(text):
    _same_as_fraction(text)
    assert abs(parse_rational(text)) >= F(1, 10 ** 4300)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["1", "-3", "2.5", ".5", " 7/1"]),
       st.sampled_from(["e", "E"]),
       st.integers(min_value=-20_000, max_value=20_000))
def test_literals_with_exponents_parse_like_fraction(mantissa, mark,
                                                     exponent):
    _same_as_fraction(f"{mantissa}{mark}{exponent:+d}")


class TestGapFunction:
    TOL = F(1, 2 ** 64)

    @pytest.mark.parametrize("x", [
        F(2), F(3), F(100), F(147), F(1, 3), F(2, 3), F(999999, 1000),
        F(10) ** 6, F(1, 137), F(1836311903), F(435, 2),
    ])
    def test_log_accuracy(self, x):
        g = GapFunction().log(x)
        diff = abs(Decimal(g.numerator) / Decimal(g.denominator) - ln_oracle(x))
        assert diff <= Decimal(self.TOL.numerator) / Decimal(self.TOL.denominator)

    @pytest.mark.parametrize("x", [
        F(0), F(1), F(2), F(-3), F(1, 2), F(-7, 3), F(138155105579642742,
                                                     10 ** 16),
    ])
    def test_exp_accuracy(self, x):
        e = GapFunction().exp(x)
        diff = abs(Decimal(e.numerator) / Decimal(e.denominator) - exp_oracle(x))
        assert diff <= Decimal(self.TOL.numerator) / Decimal(self.TOL.denominator)

    def test_precision_is_capped(self):
        assert GapFunction(4096).bits == 4096
        with pytest.raises(PgnError, match="at most 4096 fractional bits"):
            GapFunction(4097)

    def test_exact_identities(self):
        gap = GapFunction()
        assert gap.log(1) == 0
        assert gap.exp(0) == 1

    def test_rejects_nonpositive_log(self):
        with pytest.raises(PgnError):
            GapFunction().log(0)
        with pytest.raises(PgnError):
            GapFunction().log(F(-1, 2))

    def test_deterministic_across_instances(self):
        xs = [F(100), F(2, 3), F(31, 7)]
        a, b = GapFunction(), GapFunction()
        assert [a.log(x) for x in xs] == [b.log(x) for x in xs]
        assert [a.exp(x) for x in xs] == [b.exp(x) for x in xs]

    def test_log_monotone(self):
        gap = GapFunction()
        samples = [F(3, 2), F(2), F(5, 2), F(10), F(100), F(10) ** 9]
        logs = [gap.log(x) for x in samples]
        assert logs == sorted(logs) and len(set(logs)) == len(logs)

    def test_underflow_raises(self):
        with pytest.raises(PgnError):
            GapFunction().exp(-200)

    @staticmethod
    def _units(value, true, bits, prec):
        """|value - true| in units of 2**-bits."""
        return abs(to_decimal(value, prec) - true) * 2 ** bits

    @pytest.mark.parametrize("bits", [8, 64])
    @settings(max_examples=100, deadline=None)
    @given(exponent=st.integers(-300, 299),
           mantissa=st.fractions(min_value=1, max_value=2,
                                 max_denominator=2 ** 24))
    @example(exponent=-300, mantissa=F(1))
    @example(exponent=299, mantissa=F(2))
    def test_log_within_one_unit_against_decimal(self, bits, exponent,
                                                 mantissa):
        x = mantissa * F(2) ** exponent
        # |ln x| < 210 has 3 integer digits; 2**-bits needs bits*0.302 more
        prec = 3 + ceil(bits * 0.302) + 20
        got = GapFunction(bits).log(x)
        assert self._units(got, ln_oracle(x, prec), bits, prec) <= 1

    @pytest.mark.parametrize("bits", [8, 64])
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_exp_within_one_unit_against_decimal(self, bits, data):
        # from below the underflow edge, -(bits+1) ln 2, up to x = 16
        low = F(-7 * (bits + 2), 10)
        x = data.draw(st.one_of(
            st.fractions(min_value=low, max_value=16, max_denominator=10 ** 4),
            st.sampled_from([low, F(-(bits + 1) * 693, 1000), F(0), F(16)])))
        # e**x has at most ceil(x / ln 10) integer digits
        prec = max(ceil(x / F(23, 10)), 1) + ceil(bits * 0.302) + 20
        true = exp_oracle(x, prec)
        try:
            got = GapFunction(bits).exp(x)
        except PgnError:  # refused only where the value rounds to 0
            assert true * 2 ** bits < 1
            return
        assert self._units(got, true, bits, prec) <= 1


class TestPiecewiseLinearMap:
    def test_midpoint_and_endpoints(self):
        m = simple_map()
        assert m.evaluate(1) == (F(1, 2), F(1, 2))
        assert m.evaluate(0) == (F(0), F(0))
        assert m.evaluate(2) == (F(1), F(1))

    def test_domain_error_names_interval(self):
        with pytest.raises(DomainError, match=r"\[0, 2\]"):
            simple_map().evaluate(3)

    def test_block_evaluation_matches_schedule(self):
        # reference block: the slope schedule forces the second and third
        # components to meet at r_k with value q_k/(n+1) + n*alpha
        params = TemplateParams(n=2, w=F(3), alpha=F(1), delta=F(1, 2),
                                q1=F(100), blocks=1, beta=F(1, 2))
        block, bp = build_block(params, 1, F(100))
        assert bp.r_k == 103
        assert block.evaluate(103) == (F(97, 3), F(106, 3), F(106, 3))

    def test_structural_rejections(self):
        with pytest.raises(StructureError):
            PiecewiseLinearMap((F(0), F(0)), ((F(0), F(0)), (F(1), F(1))))
        with pytest.raises(StructureError):
            PiecewiseLinearMap((F(0), F(1)), ((F(0),), (F(1),)))
        with pytest.raises(StructureError):
            PiecewiseLinearMap((F(0),), ((F(0), F(0)),))
        with pytest.raises(StructureError):
            PiecewiseLinearMap((F(0), F(1)),
                               ((F(0), F(0)), (F(1), F(1), F(1))))

    def test_stores_exact_fractions(self):
        class Sub(F):
            pass
        kept = F(2)
        m = PiecewiseLinearMap(
            (0, "1/2", Sub(3, 2), kept),
            ((Sub(1, 3), 1), ("-2/3", kept), (F(5), Sub(7)), (2, "0")))
        stored = (*m.breakpoints, *(v for row in m.values for v in row))
        assert all(type(v) is F for v in stored)
        assert m.breakpoints == (0, F(1, 2), F(3, 2), 2)
        assert m.values == ((F(1, 3), 1), (F(-2, 3), 2), (5, 7), (2, 0))

    def test_holds_only_its_integers(self):
        assert [f.name for f in dataclasses.fields(PiecewiseLinearMap)] \
            == ["den", "bps", "rows"]
        m = PiecewiseLinearMap((F(-1, 3), 2), ((F(1, 7), 9), (2, "1/2")))
        assert m.breakpoints == (F(-1, 3), 2)
        assert m.values == ((F(1, 7), 9), (2, F(1, 2)))
        assert set(vars(m)) == {"den", "bps", "rows"}

    @pytest.mark.parametrize("n", [1.9, 1.0, True, "1", None],
                             ids=["float", "integral-float", "bool", "string",
                                  "null"])
    def test_document_n_must_be_a_json_integer(self, n):
        doc = {"n": n, "breakpoints": ["0", "1"],
               "values": [["0", "0"], ["1", "1"]]}
        with pytest.raises(StructureError, match="malformed map document"):
            PiecewiseLinearMap.from_json_dict(doc)

    def test_document_arrays_may_be_python_tuples(self):
        doc = {"n": 1, "breakpoints": ("0", "1/2"),
               "values": (("0", "0"), ["1", "1/2"])}
        assert map_document_rows(doc) == (2, [0, 1], [[0, 0], [2, 1]])

    def test_copy_and_pickle_keep_the_map(self):
        m = PiecewiseLinearMap((F(-1, 3), F(7, 5)), ((F(1, 7), 9), (2, 0)))
        for twin in (copy.copy(m), copy.deepcopy(m),
                     pickle.loads(pickle.dumps(m))):
            assert twin == m and hash(twin) == hash(m)
            assert twin.values == m.values

    def test_json_round_trip_exact(self):
        m = PiecewiseLinearMap(
            (F(-1, 3), F(7, 5), F(2)),
            ((F(1, 7), F(9)), (F(-2, 11), F(4, 3)), (F(0), F(1))))
        doc = m.to_json_dict(meta={"tag": 1})
        back = PiecewiseLinearMap.from_json_dict(doc)
        assert back == m
        assert doc["meta"] == {"tag": 1}


# -- the document reader's integer form ---------------------------------------


_ANY_LITERALS = st.one_of(
    _canonical_literals(),
    st.builds(lambda text, form: form(text), _canonical_literals(),
              st.sampled_from(_FALLBACK_FORMS)),
    st.text("0123456789-+/._ \t\n\u0661\u0662", max_size=12),
    st.integers(-10 ** 40, 10 ** 40))


class _Text(str):
    """A str subclass, which parse_rational reads as its text."""


# entries equal across types (1 == True == 1.0), which a table keyed on
# the entries alone would merge, their texts, and unhashable entries
_HASH_TWINS = st.sampled_from([1, True, 1.0, "1", 0, False, -0.0, "0"])
_UNHASHABLE = st.lists(st.integers(-2, 2) | st.just("1"), max_size=2) \
    .map(lambda items: [items]) | st.dictionaries(st.just("1"), st.just(1))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ANY_LITERALS | _HASH_TWINS | _UNHASHABLE, min_size=1,
                max_size=5).flatmap(lambda pool: st.lists(
                    st.sampled_from(pool), min_size=1, max_size=8)))
@example(["2/4", "-0", " 10/4 ", "+3", "0.25", "1e-3"])
@example([7, "-2/6", "1/3"])
@example(["1/3", "1/00"])
@example(["1/" + "1" * 5000])
@example(["1/3", 1, "1/3", 1])
@example([1, True])
@example(["1", 1, 1.0])
@example(["x", [[1]], "x"])
@example([[[1]], "x"])
@example([_Text("1/2"), "1/2", _Text(" 2/4 ")])
def test_document_reader_reads_literals_like_parse_rational(texts):
    """Split with int or read through Fraction, every literal the reader
    accepts has parse_rational's value, over one common denominator, and
    a refused document gets the error of its first refused literal, however
    often and in whatever types its entries repeat."""
    try:
        want = [parse_rational(t) for t in texts]
    except PgnError as exc:
        with pytest.raises(PgnError) as refused:
            map_document_rows({"n": len(texts) - 1, "breakpoints": [0],
                               "values": [texts]})
        assert str(refused.value) == str(exc)
        return
    # two equal breakpoints: the reader refuses fewer, and leaves repeats
    den, bps, rows = map_document_rows(
        {"n": len(texts) - 1, "breakpoints": texts[:1] * 2,
         "values": [texts] * 2})
    assert F(bps[0], den) == want[0]
    assert [F(v, den) for v in rows[0]] == want


# eight pairwise coprime denominators 2^p - 1 of about 270 bits each (p prime)
_COPRIME_DENS = [2 ** p - 1 for p in (251, 257, 263, 269, 271, 277, 281, 283)]


def _padded_document(k):
    """Four rows, each with two of the denominators and k zeros."""
    return {"n": k + 1, "breakpoints": ["0", "1", "2", "3"],
            "values": [[f"1/{_COPRIME_DENS[2 * i]}",
                        f"1/{_COPRIME_DENS[2 * i + 1]}", *["0"] * k]
                       for i in range(4)]}


@pytest.mark.parametrize("k, reach, bits", [
    (0, None, None), (5, None, None), (6, 2123, 2193), (11, 1366, 2213)])
def test_widening_budget_counts_every_occurrence(k, reach, bits):
    """The distinct literals are the same for every k, but each added zero
    takes one more bit and one more literal into the budget, so the
    verdicts (those of a reader that reads every occurrence) turn at k=6."""
    doc = _padded_document(k)
    if reach is None:
        den, _, rows = map_document_rows(doc)
        assert den == prod(_COPRIME_DENS)
        assert [F(v, den) for v in rows[0]] == \
            [F(1, _COPRIME_DENS[0]), F(1, _COPRIME_DENS[1]), *[0] * k]
        return
    with pytest.raises(StructureError) as refused:
        map_document_rows(doc)
    assert str(refused.value) == (
        f"map document refused: its values need a common denominator of "
        f"over {reach} bits, which would widen its {bits} bits of literals "
        f"more than 4 times")


def _written(draw, x):
    """x as one of the literals parse_rational accepts: canonical,
    unreduced, padded, signed, decimal, with an exponent, or a JSON int."""
    a, b = x.numerator, x.denominator
    k = draw(st.integers(1, 12))
    forms = [f"{a}/{b}", f"{a * k}/{b * k}", f" {a}/{b} "]
    if a >= 0:
        forms.append(f"+{a}/{b}")
    if b == 1:
        forms += [a, f"{a}.0", f"{a * 1000}e-3"]
    if 10 ** 6 % b == 0:
        forms.append(f"{a * (10 ** 6 // b)}e-6")
    return draw(st.sampled_from(forms))


@st.composite
def _maps_with_mixed_denominators(draw):
    width = draw(st.integers(2, 4))
    values = st.fractions(-50, 50, max_denominator=1000) \
        | st.integers(-9, 9).map(F) | st.sampled_from([F(1, 8), F(-3, 10)])
    steps = draw(st.lists(st.fractions(F(1, 60), 5, max_denominator=60),
                          min_size=1, max_size=5))
    bps = [draw(values)]
    for step in steps:
        bps.append(bps[-1] + step)
    rows = [tuple(draw(values) for _ in range(width)) for _ in bps]
    return PiecewiseLinearMap(tuple(bps), tuple(rows))


@settings(max_examples=200, deadline=None)
@given(_maps_with_mixed_denominators(), st.data())
def test_document_round_trip_is_value_equality(m, data):
    doc = m.to_json_dict()
    back = PiecewiseLinearMap.from_json_dict(doc)
    assert back == m and hash(back) == hash(m)
    assert back.den == m.den and back.bps == m.bps and back.rows == m.rows
    for built in (m, back):  # by __init__, and by over
        assert built.breakpoints == tuple(F(b, built.den) for b in built.bps)
    assert back.to_json_dict() == doc
    rewritten = {"n": doc["n"],
                 "breakpoints": [_written(data.draw, b) for b in m.breakpoints],
                 "values": [[_written(data.draw, v) for v in row]
                            for row in m.values]}
    again = PiecewiseLinearMap.from_json_dict(rewritten)
    assert again == m and hash(again) == hash(m)
    assert again.to_json_dict() == doc


class TestSupDistance:
    def test_identity_and_offset(self):
        m = simple_map()
        assert sup_distance(m, m) == 0
        shifted = PiecewiseLinearMap(
            m.breakpoints,
            tuple((r[0] + F(3, 7), r[1]) for r in m.values))
        assert sup_distance(m, shifted) == F(3, 7)

    def test_component_mismatch(self):
        three = PiecewiseLinearMap((F(0), F(1)),
                                   ((F(0),) * 3, (F(1),) * 3))
        with pytest.raises(DomainError):
            sup_distance(simple_map(), three)

    def test_disjoint_domains(self):
        a = simple_map()
        b = PiecewiseLinearMap((F(5), F(6)), ((F(0), F(0)), (F(1), F(1))))
        with pytest.raises(DomainError):
            sup_distance(a, b)

    def test_reversed_interval_is_named(self):
        # once reported as disjoint domains, though both are [0, 2]
        m = simple_map()
        with pytest.raises(DomainError,
                           match=r"^interval \[3/2, 1/2\] is reversed$"):
            sup_distance(m, m, (F(3, 2), F(1, 2)))
        assert sup_distance(m, m, (F(1, 2), F(1, 2))) == 0

    def test_matches_dense_oracle_on_crossing_maps(self):
        a = PiecewiseLinearMap((F(0), F(1), F(3)),
                               ((F(0), F(2)), (F(2), F(0)), (F(0), F(5))))
        b = PiecewiseLinearMap((F(0), F(2), F(3)),
                               ((F(1), F(0)), (F(0), F(3)), (F(2), F(2))))
        assert sup_distance(a, b) == dense_max_distance(a, b, 0, 3)

    def test_delta_family_divergence_vs_dense_oracle(self):
        base = dict(n=2, w=F(3), alpha=F(1), q1=F(100), blocks=3,
                    beta=F(1, 2))
        s0 = build_system(TemplateParams(delta=F(0), **base))
        s1 = build_system(TemplateParams(delta=F(1), **base))
        q1, q3 = s0.blocks[0].q_k, s0.blocks[2].q_k
        exact = sup_distance(s0.map, s1.map, (q1, q3))
        assert exact == dense_max_distance(s0.map, s1.map, q1, q3)
        g_q2 = GapFunction().log(s0.blocks[1].q_k)
        assert exact >= (2 - 1) * g_q2

    def test_symmetry(self):
        a = PiecewiseLinearMap((F(0), F(1)), ((F(0), F(0)), (F(1), F(2))))
        b = PiecewiseLinearMap((F(0), F(1)), ((F(1), F(0)), (F(0), F(3))))
        assert sup_distance(a, b) == sup_distance(b, a) > 0


def _zero_map(lo, hi, width=2):
    return PiecewiseLinearMap((F(lo), F(hi)), ((F(0),) * width,) * 2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: GapFunction(7), PgnError,
     "GapFunction needs at least 8 fractional bits"),
    (lambda: sup_distance(_zero_map(0, 1), _zero_map(0, 2), (0, 3)),
     DomainError,
     "interval [0, 3] not contained in both domains (common part [0, 1])"),
    (lambda: concatenate([]), PgnError, "nothing to concatenate"),
    (lambda: concatenate([_zero_map(0, 1)], junction="left"), PgnError,
     "unknown junction policy 'left'"),
    (lambda: concatenate([_zero_map(0, 1, 2), _zero_map(1, 2, 3)]),
     DomainError, "component counts differ across pieces"),
    (lambda: concatenate([_zero_map(0, 1), _zero_map(2, 3)]), DomainError,
     "pieces do not abut: 1 then 2")],
    ids=["gap-bits", "interval-outside", "concatenate-none",
         "junction-policy", "component-counts", "not-abutting"])
def test_refusals(call, error, message):
    with pytest.raises(PgnError) as info:
        call()
    assert type(info.value) is error
    assert str(info.value) == message


class TestBreakpointsOf:
    def test_single_segment(self):
        m = PiecewiseLinearMap((F(0), F(1)), ((F(0), F(0)), (F(1), F(1))))
        assert list(m.breakpoints) == [0, 1]

    def test_block_has_seven_breakpoints(self):
        params = TemplateParams(n=2, w=F(3), alpha=F(1), delta=F(1, 2),
                                q1=F(100), blocks=1, beta=F(1, 2))
        block, bp = build_block(params, 1, F(100))
        assert list(block.breakpoints) == [
            bp.q_k, bp.r_k, bp.s_k, bp.t_k, bp.u_k, bp.p_k, bp.q_k1]

    def test_concatenation_lists_shared_point_once(self):
        params = TemplateParams(n=2, w=F(3), alpha=F(1), delta=F(1, 2),
                                q1=F(100), blocks=2, beta=F(1, 2))
        built = build_system(params)
        bps = list(built.map.breakpoints)
        assert len(bps) == len(set(bps)) == 13
        assert built.blocks[0].q_k1 in bps

    def test_concatenate_rejects_mismatch(self):
        a = simple_map()
        b = PiecewiseLinearMap((F(2), F(3)), ((F(5), F(5)), (F(6), F(6))))
        with pytest.raises(PgnError):
            concatenate([a, b])


small_fracs = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@st.composite
def pl_maps(draw):
    k = draw(st.integers(min_value=2, max_value=5))
    bps = sorted(draw(st.sets(small_fracs, min_size=k, max_size=k)))
    width = draw(st.integers(min_value=2, max_value=4))
    rows = tuple(
        tuple(draw(small_fracs) for _ in range(width)) for _ in bps)
    return PiecewiseLinearMap(tuple(F(b) for b in bps), rows)


@settings(max_examples=60, deadline=None)
@given(pl_maps(), st.fractions(min_value=0, max_value=1, max_denominator=64))
def test_evaluate_between_surrounding_rows(m, t):
    lo, hi = m.domain
    q = lo + (hi - lo) * t
    row = m.evaluate(q)
    import bisect
    i = max(0, bisect.bisect_right(m.breakpoints, q) - 1)
    i = min(i, len(m.breakpoints) - 2)
    for d, v in enumerate(row):
        a, b = m.values[i][d], m.values[i + 1][d]
        assert min(a, b) <= v <= max(a, b)


@settings(max_examples=40, deadline=None)
@given(pl_maps())
def test_sup_distance_zero_iff_identical(m):
    assert sup_distance(m, m) == 0
    bumped = PiecewiseLinearMap(
        m.breakpoints,
        tuple(tuple(v + F(1, 97) for v in row) for row in m.values))
    assert sup_distance(m, bumped) == F(1, 97)
