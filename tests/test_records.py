"""Exact output of every record writer: the diagnose and compare reports,
axiom violations, block rows, template meta and the breakpoint table.

Each record is compared whole, as the JSON text pgn writes (sorted keys),
so a changed key, a lost or added field, or a value of another JSON type
(a number for a string, null for false) fails."""

import json
from fractions import Fraction as F

from pgn import (GapFunction, GaugeBody, LINEAR_FORM, PiecewiseLinearMap,
                 analyze, compare_system_profile, minima_profile, validate)
from pgn.cli import run
from pgn.template import TemplateParams, build_system, template_to_meta

GAP = GapFunction(8)
RANGE_NOTE = ("verdicts are range-limited: they certify the tested tail, "
              "not asymptotic membership")
LOCK_NOTE = ("a first-minimum witness annihilates the form exactly; the "
             "exponent is infinite for this rational target")
CENSORED_NOTE = ("profile endpoints are censored: the tail beyond the last "
                 "grid point is unobserved")

# n = 1, tail from the third breakpoint, q = 3
SUBJECT = PiecewiseLinearMap(
    (1, 2, 3, 4, 5),
    ((0, 1), (F(1, 2), F(3, 2)), (F(1, 2), F(5, 2)), (F(3, 2), F(5, 2)),
     (2, 3)))
MARGINS = {
    "tested_range": ["3", "5"],
    "di_margin_min": "1/2", "di_margin_at": "4",
    "di_margin_max": "1", "di_margin_max_at": "3",
    "dw_margin_max": "1/4", "dw_margin_at": "3",
    "ratio_min": "1/6", "ratio_min_at": "3",
    "ratio_min_global": "1/6", "ratio_min_global_at": "3",
}
NO_VERDICTS = {"di_threshold": None, "di_satisfied": None,
               "dw_threshold": None, "dw_satisfied": None}


def assert_record(record: dict, expected: dict):
    assert json.dumps(record, sort_keys=True) == json.dumps(expected,
                                                            sort_keys=True)


class TestDiagnosticsReport:
    def test_with_thresholds(self):
        report = analyze(SUBJECT, F(3), epsilon=F(1, 2), nu=F(1, 3),
                         gap=GAP)
        assert_record(report.to_json_dict(), {
            **MARGINS, "omega_estimate": "5", "omega_is_infinite": False,
            "di_threshold": "177/512", "di_satisfied": True,
            "dw_threshold": "281/1024", "dw_satisfied": True,
            "notes": [RANGE_NOTE]})

    def test_without_thresholds(self):
        report = analyze(SUBJECT, F(3), gap=GAP)
        assert_record(report.to_json_dict(), {
            **MARGINS, "omega_estimate": "5", "omega_is_infinite": False,
            **NO_VERDICTS, "notes": [RANGE_NOTE]})

    def test_kernel_locked_profile_writes_inf(self):
        report = analyze(SUBJECT, F(3), kernel_locked=True,
                         censored=True, gap=GAP)
        assert_record(report.to_json_dict(), {
            **MARGINS, "omega_estimate": "inf", "omega_is_infinite": True,
            **NO_VERDICTS,
            "notes": [RANGE_NOTE, LOCK_NOTE, CENSORED_NOTE]})

    def test_no_positive_q_writes_null_ratios(self):
        subject = PiecewiseLinearMap((-3, -2, -1),
                                     ((-1, -2), (-1, -1), (-1, 0)))
        report = analyze(subject, F(2), tail_start=-2, gap=GAP)
        assert_record(report.to_json_dict(), {
            "tested_range": ["-2", "-1"],
            "di_margin_min": "0", "di_margin_at": "-2",
            "di_margin_max": "1/2", "di_margin_max_at": "-1",
            "dw_margin_max": "2/3", "dw_margin_at": "-1",
            "ratio_min": None, "ratio_min_at": None,
            "ratio_min_global": None, "ratio_min_global_at": None,
            "omega_estimate": None, "omega_is_infinite": False,
            **NO_VERDICTS,
            "notes": [RANGE_NOTE,
                      "ratio undefined on the tail (no positive q)"]})


BOUNDED = TemplateParams(n=2, w=F(6), alpha=F(1, 10), delta=F(1, 2),
                         q1=F(4), blocks=1, beta=F(1, 20), gap_bits=8)
LOG = TemplateParams(n=2, w=F(3), alpha=F(1), delta=F(1), q1=F(100),
                     blocks=2, beta_mode="log", gap_bits=8)


class TestComparisonReport:
    DISTANCES = {"sup_distance_on_grid": "10319/7680",
                 "per_component_max": ["1061/3840", "9277/7680",
                                       "10319/7680"],
                 "points": 5, "overlap": ["4", "8"]}

    def _compare(self, rn):
        profile = minima_profile(GaugeBody(LINEAR_FORM, (F(1, 3), F(1, 7))),
                                 [F(q) for q in range(4, 9)], bound="auto",
                                 gap=GAP)
        return compare_system_profile(build_system(BOUNDED).map, profile,
                                      rn=rn).to_json_dict()

    def test_with_rn(self):
        assert_record(self._compare(540), {**self.DISTANCES, "rn": "540",
                                           "within_rn": True})

    def test_without_rn(self):
        assert_record(self._compare(None), {**self.DISTANCES, "rn": None,
                                            "within_rn": None})


def test_axiom_violations():
    built = build_system(TemplateParams(
        n=2, w=F(3), alpha=F(1), delta=F(1, 2), q1=F(100), blocks=2,
        beta=F(1, 2), paper_qk1=True))
    records = [v.to_json_dict() for v in validate(built.map).violations]
    assert_record(records, [
        {"axiom": "ii-slope", "q": "394/3",
         "detail": "segment (394/3, 303/2): moving components [1, 2, 3] "
                   "with slopes ['103/121', '9/121', '9/121']; slope sum 1"},
        {"axiom": "i-order", "q": "915/4",
         "detail": "P_1 > P_2 at q=915/4 (313/4 > 295/4)"}])


def test_block_rows_in_column_order():
    rows = [bp.as_row() for bp in build_system(LOG).blocks]
    assert [list(row) for row in rows] == [
        ["k", "q_k", "r_k", "s_k^m", "s_k", "s_k^M", "t_k", "u_k", "p_k",
         "q_k1", "beta_k"]] * 2
    assert_record(rows, [
        {"k": 1, "q_k": "100", "r_k": "103", "s_k^m": "27547/256",
         "s_k": "27547/256", "s_k^M": "14363/128", "t_k": "14363/128",
         "u_k": "27793/192", "p_k": "28369/192", "q_k1": "21969/128",
         "beta_k": "1179/256"},
        {"k": 2, "q_k": "21969/128", "r_k": "22353/128",
         "s_k^m": "46023/256", "s_k": "46023/256", "s_k^M": "11835/64",
         "t_k": "11835/64", "u_k": "15515/64", "p_k": "15707/64",
         "q_k1": "72273/256", "beta_k": "1317/256"}])


def test_template_meta_bounded_beta():
    assert_record(template_to_meta(BOUNDED), {
        "n": 2, "w": "6", "alpha": "1/10", "beta_mode": "bounded",
        "delta": "1/2", "q1": "4", "blocks": 1, "gap_bits": 8,
        "paper_qk1": False, "beta": "1/20"})


def test_template_meta_log_beta_has_no_beta_key():
    assert_record(template_to_meta(LOG), {
        "n": 2, "w": "3", "alpha": "1", "beta_mode": "log", "delta": "1",
        "q1": "100", "blocks": 2, "gap_bits": 8, "paper_qk1": False})


def test_breakpoints_csv(tmp_path, monkeypatch):
    monkeypatch.setenv("PGN_GAP_BITS", "8")
    table = tmp_path / "blocks.csv"
    assert run(["build", "--n", "2", "--w", "3", "--alpha", "1", "--beta",
                "1/2", "--delta", "1", "--q1", "100", "--blocks", "2",
                "--out", str(tmp_path / "system.json"),
                "--breakpoints-csv", str(table)]) == 0
    assert table.read_text() == (
        "k,q_k,r_k,s_k^m,s_k,s_k^M,t_k,u_k,p_k,beta_k\n"
        "1,100,103,27547/256,27547/256,14363/128,14363/128,385/3,394/3,1/2\n"
        "2,147,150,19839/128,19839/128,10239/64,10239/64,191,194,1/2\n")
