import argparse
import contextlib
import csv
import io
import json
import os
import pathlib
import re
import shlex
import stat
import subprocess
import sys
import time
import tracemalloc
import xml.dom.minidom
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgn import PgnError, PiecewiseLinearMap, validate
from pgn import cli as pgn_cli
from pgn.cli import _build_parser, run
from pgn.template import TemplateParams, build_system


def cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


BUILD = ["build", "--n", "2", "--w", "3", "--alpha", "1", "--beta", "1/2",
         "--delta", "1/2", "--q1", "100", "--blocks", "4"]


class TestBuildValidate:
    def test_build_then_validate_ok(self, capsys, tmp_path):
        out = tmp_path / "system.json"
        code, _, _ = cli(capsys, *BUILD, "--out", str(out))
        assert code == 0
        code, stdout, _ = cli(capsys, "validate", str(out))
        assert code == 0
        summary = json.loads(stdout.strip().splitlines()[-1])
        assert summary == {"is_system": True, "violations": 0}

    def test_alternative_step_fails_validation(self, capsys, tmp_path):
        out = tmp_path / "bad.json"
        code, _, _ = cli(capsys, *BUILD, "--paper-qk1", "--out", str(out))
        assert code == 0
        code, stdout, _ = cli(capsys, "validate", str(out))
        assert code == 2
        lines = [json.loads(line) for line in stdout.strip().splitlines()]
        assert lines[-1]["is_system"] is False
        assert lines[-1]["violations"] >= 1

    def test_validate_reads_stdin(self, capsys, monkeypatch):
        code, stdout, _ = cli(capsys, *BUILD)
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO(stdout))
        code, stdout2, _ = cli(capsys, "validate", "-")
        assert code == 0

    def test_build_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        cli(capsys, *BUILD, "--out", str(a))
        cli(capsys, *BUILD, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_reproduces_system(self, capsys, tmp_path):
        out = tmp_path / "system.json"
        cli(capsys, *BUILD, "--out", str(out))
        doc = json.loads(out.read_text())
        rebuilt = PiecewiseLinearMap.from_json_dict(doc)
        assert validate(rebuilt).is_system
        assert doc["meta"]["template"]["n"] == 2

    def test_breakpoint_table_columns(self, capsys, tmp_path):
        out = tmp_path / "system.json"
        table = tmp_path / "blocks.csv"
        cli(capsys, *BUILD, "--out", str(out),
            "--breakpoints-csv", str(table))
        lines = table.read_text().splitlines()
        assert lines[0] == "k,q_k,r_k,s_k^m,s_k,s_k^M,t_k,u_k,p_k,beta_k"
        assert len(lines) == 5
        assert lines[1].startswith("1,100,103,")

    def test_derived_margins_via_tolerances(self, capsys, tmp_path):
        out = tmp_path / "system.json"
        code, _, _ = cli(capsys, "build", "--n", "2", "--w", "3",
                         "--epsilon", "1/2", "--nu", "1/2", "--rn", "0",
                         "--q1", "100", "--blocks", "2", "--out", str(out))
        assert code == 0
        code, _, _ = cli(capsys, "validate", str(out))
        assert code == 0

    def test_build_errors_exit_3(self, capsys):
        code, _, err = cli(capsys, "build", "--n", "2", "--w", "3",
                           "--alpha", "1", "--beta", "1/2", "--q1", "6")
        assert code == 3
        assert "q_1 too small" in err


class TestMinima:
    def test_zero_target_profile(self, capsys, tmp_path):
        out = tmp_path / "profile.csv"
        code, _, err = cli(capsys, "minima", "--mode", "linear-form",
                           "--x", "0", "--grid", "0:4:1",
                           "--out", str(out))
        assert code == 0
        assert "proxy horizon" in err
        lines = [l for l in out.read_text().splitlines()
                 if l and not l.startswith("#")]
        header = lines[0].split(",")
        i = header.index("L_1")
        assert all(line.split(",")[i] == "0" for line in lines[1:])

    def test_profile_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["minima", "--x", "2/3", "--grid", "0:3:1/2"]
        cli(capsys, *args, "--out", str(a))
        cli(capsys, *args, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_fixed_bound_and_grid_step(self, capsys, tmp_path):
        out = tmp_path / "profile.csv"
        code, _, _ = cli(capsys, "minima", "--x", "1/2", "--grid",
                         "0:2:1/2", "--bound", "8", "--out", str(out))
        assert code == 0
        rows = [l for l in out.read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 6  # header + 5 points

    def test_simultaneous_mode(self, capsys, tmp_path):
        out = tmp_path / "profile.csv"
        code, _, _ = cli(capsys, "minima", "--mode", "simultaneous",
                         "--x", "1/3,1/5", "--grid", "0:1:1/2",
                         "--out", str(out))
        assert code == 0

    @pytest.mark.parametrize("x", ["-1/3", "-1/3,2/5"])
    def test_negative_values_as_separate_arguments(self, capsys, x):
        joined = cli(capsys, "minima", f"--x={x}", "--grid=-1:1:1/2")
        assert joined[0] == 0
        assert cli(capsys, "minima", "--x", x, "--grid", "-1:1:1/2") == joined

    def test_underflowing_point_is_an_error_row(self, capsys):
        code, out, _ = cli(capsys, "minima", "--x", "1/3", "--grid",
                           "-46:-42:2")
        assert code == 0
        rows = list(csv.reader(l for l in out.splitlines()
                               if not l.startswith("#")))[1:]
        assert [row[0] for row in rows] == ["-46", "-44", "-42"]
        assert all(not any(row[1:-1]) and row[-1] for row in rows)
        assert rows[0][-1] == "exp(-46) underflows the 64-bit dyadic surrogate"

    def test_gap_bits_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PGN_GAP_BITS", "96")
        out = tmp_path / "system.json"
        code, _, _ = cli(capsys, *BUILD, "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["meta"]["template"]["gap_bits"] == 96


class TestDigitLimit:
    """Integers past the interpreter's limit for int-to-text conversion."""

    @staticmethod
    def _error_cell(out):
        rows = list(csv.reader(l for l in out.splitlines()
                               if not l.startswith("#")))
        assert len(rows) == 2 and not any(rows[1][1:-1])
        return rows[1][-1]

    @pytest.mark.parametrize("argv", [
        ["--mode", "simultaneous", "--x", "1/2", "--grid", "10000:10000:1"],
        ["--x", "1/3", "--grid", "10000:10000:1"],
        ["--mode", "simultaneous", "--x", "1/2,1/3", "--grid",
         "5000:5000:1"],
    ], ids=["simultaneous", "linear-form", "simultaneous-m2"])
    def test_desk_scale_count_is_an_error_row(self, capsys, argv):
        code, out, err = cli(capsys, "minima", *argv)
        assert code == 0 and "Traceback" not in err
        limit = sys.get_int_max_str_digits()
        assert self._error_cell(out) == (
            f"desk-scale limit: certifying minima at this point needs a "
            f"scan of 10^{limit} or more points")

    def test_box_certificate_is_an_error_row(self, capsys):
        code, out, err = cli(capsys, "minima", "--x", "1/3", "--grid",
                             "10000:10000:1", "--bound", "5")
        assert code == 0 and "Traceback" not in err
        limit = sys.get_int_max_str_digits()
        assert self._error_cell(out) == (
            f"bound 5 cannot certify lambda_2 = a rational of over {limit} "
            f"digits; need 10^{limit} or more")

    def test_build_refuses_an_unwritable_value(self, capsys, tmp_path):
        # every literal is formatted before the document's first byte goes
        # out, so even a streamed stdout gets nothing
        out = tmp_path / "s.json"
        limit = sys.get_int_max_str_digits()
        for target in (str(out), "-"):
            code, stdout, err = cli(capsys, "build", "--n", "2", "--w", "3",
                                    "--alpha", "1", "--beta", "1/2", "--q1",
                                    "1e4299", "--blocks", "12", "--out",
                                    target)
            assert code == 3 and not stdout and not out.exists()
            assert err == (f"error: a value with over {limit} digits cannot "
                           f"be written as text\n")


class TestDiagnoseCompare:
    def test_diagnose_system_uses_metadata(self, capsys, tmp_path):
        out = tmp_path / "system.json"
        cli(capsys, *BUILD, "--out", str(out))
        code, stdout, _ = cli(capsys, "diagnose", "--input", str(out),
                              "--epsilon", "1/2")
        assert code == 0
        report = json.loads(stdout)
        assert report["di_margin_min"] == "1"
        assert report["di_satisfied"] is True
        assert report["dw_margin_max"] == "1/2"

    def test_diagnose_profile(self, capsys, tmp_path):
        prof = tmp_path / "profile.csv"
        cli(capsys, "minima", "--x", "2/3", "--grid", "0:8:1",
            "--out", str(prof))
        code, stdout, _ = cli(capsys, "diagnose", "--input", str(prof),
                              "--w", "1")
        assert code == 0
        report = json.loads(stdout)
        assert report["omega_is_infinite"] is True
        assert report["omega_estimate"] == "inf"

    def test_three_point_profile_tests_its_last_segment(self, capsys,
                                                       tmp_path):
        prof = tmp_path / "profile.csv"
        assert cli(capsys, "minima", "--mode", "simultaneous", "--x",
                   "1/3,2/5", "--grid", "0:2:1", "--out", str(prof))[0] == 0
        code, stdout, err = cli(capsys, "diagnose", "--input", str(prof),
                                "--w", "3")
        assert code == 0, err
        assert json.loads(stdout)["tested_range"] == ["1", "2"]

    def test_three_breakpoint_system_tests_its_last_segment(self, capsys,
                                                            tmp_path):
        system = tmp_path / "system.json"
        system.write_text(json.dumps(
            {"n": 1, "breakpoints": ["0", "1", "2"],
             "values": [["0", "0"], ["0", "1"], ["0", "2"]]}))
        assert cli(capsys, "validate", str(system))[0] == 0
        code, stdout, err = cli(capsys, "diagnose", "--input", str(system),
                                "--w", "3")
        assert code == 0, err
        report = json.loads(stdout)
        assert report["tested_range"] == ["1", "2"]
        assert report["di_margin_min"] == "1/2"

    @pytest.mark.parametrize("make", [
        BUILD + ["--out"],
        ["minima", "--x", "2/3", "--grid", "0:4:1", "--out"]],
        ids=["system", "profile"])
    def test_precision_comes_from_the_document(self, capsys, tmp_path,
                                               monkeypatch, make):
        doc = tmp_path / "doc"
        diagnose = ["diagnose", "--input", str(doc), "--w", "3",
                    "--epsilon", "1/2", "--nu", "1/2"]
        monkeypatch.setenv("PGN_GAP_BITS", "96")
        assert cli(capsys, *make, str(doc))[0] == 0
        code, stdout, _ = cli(capsys, *diagnose)
        assert code == 0
        with_env = json.loads(stdout)
        monkeypatch.delenv("PGN_GAP_BITS")
        code, stdout, _ = cli(capsys, *diagnose)
        assert code == 0
        report = json.loads(stdout)
        for key in ("di_threshold", "dw_threshold"):
            assert report[key] == with_env[key]
            assert F(report[key]).denominator.bit_length() > 90

    def test_compare(self, capsys, tmp_path):
        system = tmp_path / "system.json"
        prof = tmp_path / "profile.csv"
        trivial = {
            "n": 2,
            "breakpoints": ["0", "8"],
            "values": [["0", "0", "0"], ["0", "0", "8"]],
        }
        system.write_text(json.dumps(trivial))
        cli(capsys, "minima", "--x", "1/3,1/7", "--grid", "0:4:1",
            "--out", str(prof))
        code, stdout, _ = cli(capsys, "compare", "--system", str(system),
                              "--profile", str(prof), "--rn", "1000")
        assert code == 0
        report = json.loads(stdout)
        assert report["points"] == 5
        assert report["within_rn"] is True


    def test_compare_counts_only_the_points_inside_the_domain(self, capsys,
                                                              tmp_path):
        system = tmp_path / "system.json"
        prof = tmp_path / "profile.csv"
        system.write_text(json.dumps({
            "n": 2, "breakpoints": ["0", "2"],
            "values": [["0", "0", "0"], ["0", "0", "2"]]}))
        cli(capsys, "minima", "--x", "1/3,1/7", "--grid", "0:4:1",
            "--out", str(prof))
        code, stdout, _ = cli(capsys, "compare", "--system", str(system),
                              "--profile", str(prof))
        assert code == 0
        report = json.loads(stdout)
        assert report["points"] == 3 and report["overlap"] == ["0", "2"]

    @pytest.mark.parametrize("w", ["-1", "-3/2", "-7"])
    @pytest.mark.parametrize("make", [
        BUILD + ["--out"],
        ["minima", "--x", "2/3", "--grid", "0:4:1", "--out"]],
        ids=["system", "profile"])
    def test_w_at_or_below_minus_one_exits_3(self, capsys, tmp_path, make,
                                             w):
        doc = tmp_path / "doc"
        assert cli(capsys, *make, str(doc))[0] == 0
        code, out, err = cli(capsys, "diagnose", "--input", str(doc),
                             "--w", w)
        assert code == 3 and not out
        assert err == f"error: w must exceed -1, got {w}\n"


class TestPlot:
    def test_whole_system_plot(self, capsys, tmp_path):
        system = tmp_path / "system.json"
        fig = tmp_path / "fig.svg"
        cli(capsys, *BUILD, "--out", str(system))
        code, _, _ = cli(capsys, "plot", "--input", str(system),
                         "--out", str(fig))
        assert code == 0
        xml.dom.minidom.parseString(fig.read_text())

    def test_single_block_plot_with_overlays(self, capsys, tmp_path):
        system = tmp_path / "system.json"
        fig = tmp_path / "fig.svg"
        cli(capsys, *BUILD, "--out", str(system))
        code, _, _ = cli(capsys, "plot", "--input", str(system),
                         "--block", "1", "--out", str(fig))
        assert code == 0
        doc = fig.read_text()
        assert 'class="overlay"' in doc
        assert "s_1^m" in doc and "q_2" in doc

    def test_block_plot_honours_the_size(self, capsys, tmp_path):
        system, fig = tmp_path / "system.json", tmp_path / "fig.svg"
        cli(capsys, *BUILD, "--out", str(system))
        code, _, _ = cli(capsys, "plot", "--input", str(system), "--block",
                         "1", "--width", "300", "--height", "200",
                         "--out", str(fig))
        assert code == 0
        root = xml.dom.minidom.parseString(fig.read_text()).documentElement
        assert (root.getAttribute("width"), root.getAttribute("height"),
                root.getAttribute("viewBox")) == ("300", "200", "0 0 300 200")

    def test_build_svg_flag(self, capsys, tmp_path):
        system = tmp_path / "system.json"
        fig = tmp_path / "fig.svg"
        code, _, _ = cli(capsys, *BUILD, "--out", str(system),
                         "--svg", str(fig))
        assert code == 0
        xml.dom.minidom.parseString(fig.read_text())

    def test_block_plot_reads_precision_from_the_document(
            self, capsys, tmp_path, monkeypatch):
        system, built, plotted = (tmp_path / name for name in
                                  ("system.json", "built.svg", "plot.svg"))
        monkeypatch.setenv("PGN_GAP_BITS", "96")
        assert cli(capsys, *BUILD, "--out", str(system),
                   "--svg", str(built))[0] == 0
        monkeypatch.delenv("PGN_GAP_BITS")
        assert cli(capsys, "plot", "--input", str(system), "--block", "1",
                   "--out", str(plotted))[0] == 0
        assert plotted.read_bytes() == built.read_bytes()


    def test_block_plot_leaves_out_an_unbuildable_sibling(self, capsys,
                                                          tmp_path):
        # at q_1 = 4 the delta=1/2 block orders, its delta=0 sibling not
        system, built, plotted = (tmp_path / name for name in
                                  ("small.json", "built.svg", "plot.svg"))
        assert cli(capsys, "build", "--n", "2", "--w", "6", "--alpha",
                   "1/10", "--beta", "1/20", "--q1", "4", "--blocks", "1",
                   "--out", str(system), "--svg", str(built))[0] == 0
        assert cli(capsys, "plot", "--input", str(system), "--block", "1",
                   "--out", str(plotted))[0] == 0
        assert plotted.read_bytes() == built.read_bytes()
        doc = plotted.read_text()
        assert "; delta=0 left out (t_k &lt; u_k fails)</text>" in doc
        # one dotted sibling of n+1 components
        assert doc.count('class="overlay"') == 3


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4]), st.booleans(),
       st.sampled_from(["bounded", "log"]), st.booleans(),
       st.sampled_from(["0", "1/2", "1"]), st.sampled_from(["1", "3/2", "2"]),
       st.integers(1, 6))
def test_build_writes_the_json_dumps_layout(n, wide, mode, paper, delta,
                                            alpha, blocks):
    """The system text equals json.dumps(doc, indent=2, sort_keys=True) of
    the built document, byte for byte; the printed step needs w = 2n."""
    w = 2 * n if wide else n + 1
    beta = "1/2" if mode == "bounded" else None
    argv = ["build", "--n", str(n), "--w", str(w), "--alpha", alpha,
            "--beta-mode", mode, "--delta", delta, "--q1", "1000",
            "--blocks", str(blocks)]
    argv += ["--beta", beta] if beta else []
    argv += ["--paper-qk1"] if paper and wide else []
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert run(argv) == 0
    doc = build_system(TemplateParams(
        n=n, w=F(w), alpha=F(alpha), delta=F(delta), q1=F(1000),
        blocks=blocks, beta=None if beta is None else F(beta),
        beta_mode=mode, paper_qk1=paper and wide)).to_json_dict()
    assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_layout_pieces_join_to_json_dumps(value):
    assert "".join(pgn_cli._indented_json(value)) == json.dumps(
        value, indent=2, sort_keys=True)


class TestOutputFiles:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600),
                                             (0o002, 0o664)],
                             ids=["umask022", "umask077", "umask002"])
    def test_written_files_honour_the_umask(self, capsys, tmp_path, umask,
                                            mode):
        paths = [tmp_path / name for name in ("s.json", "f.svg", "b.csv")]
        previous = os.umask(umask)
        try:
            code, _, _ = cli(capsys, *BUILD, "--out", str(paths[0]),
                             "--svg", str(paths[1]),
                             "--breakpoints-csv", str(paths[2]))
        finally:
            os.umask(previous)
        assert code == 0
        assert [stat.S_IMODE(p.stat().st_mode) for p in paths] == [mode] * 3

    @pytest.mark.parametrize("error", [OSError("disk gone"),
                                       KeyboardInterrupt()])
    def test_failed_replace_leaves_the_target_and_no_temporary(
            self, capsys, tmp_path, monkeypatch, error):
        target = tmp_path / "system.json"
        target.write_text("old\n")

        def failing(src, dst):
            raise error

        monkeypatch.setattr(os, "replace", failing)
        if isinstance(error, OSError):
            code, _, err = cli(capsys, *BUILD, "--out", str(target))
            assert code == 3 and err == "error: disk gone\n"
        else:
            with pytest.raises(KeyboardInterrupt):
                run([*BUILD, "--out", str(target)])
        assert target.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["system.json"]

    def test_failing_pieces_leave_no_target_and_no_temporary(self, tmp_path):
        target = tmp_path / "system.json"

        def pieces():  # past the write buffer, so the temporary has bytes
            for _ in range(8):
                yield "[" * 4096
            raise PgnError("layout failed")

        with pytest.raises(PgnError, match="layout failed"):
            pgn_cli._write_output(str(target), pieces())
        assert list(tmp_path.iterdir()) == []


# a 600-block system: a document of about 2.4 MB
BIG = ["build", "--n", "2", "--w", "4", "--alpha", "3/2", "--beta", "1/2",
       "--delta", "3/8", "--q1", "1000", "--blocks", "600"]


@pytest.fixture(scope="module")
def big_system(tmp_path_factory):
    path = tmp_path_factory.mktemp("big") / "system.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run([*BIG, "--out", str(path)]) == 0
    return path


class TestDocumentMemory:
    def test_build_streams_its_document(self, tmp_path, monkeypatch,
                                        big_system):
        """Laying out and writing the document adds under a quarter of its
        size to what the built document already holds: tracing starts at
        the layout, so only what comes after is counted."""
        layout = pgn_cli._indented_json

        def traced(*args):
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            return layout(*args)

        monkeypatch.setattr(pgn_cli, "_indented_json", traced)
        out = tmp_path / "system.json"
        try:
            assert run([*BIG, "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.read_bytes() == big_system.read_bytes()
        assert peak < out.stat().st_size / 4

    @pytest.mark.parametrize("reader", ["_load_system", "_load_subject"])
    def test_readers_drop_the_text_before_the_rows(self, monkeypatch,
                                                   big_system, reader):
        """While map_document_rows runs, no live allocation is half the
        size of the text: the parsed document is many small objects, and
        the text, one block, is gone."""
        rows, largest = pgn_cli.map_document_rows, []

        def traced(doc):
            traces = tracemalloc.take_snapshot().traces
            largest.append(max(trace.size for trace in traces))
            return rows(doc)

        monkeypatch.setattr(pgn_cli, "map_document_rows", traced)
        tracemalloc.start()
        try:
            getattr(pgn_cli, reader)(str(big_system))
        finally:
            tracemalloc.stop()
        assert len(largest) == 1
        assert largest[0] < big_system.stat().st_size / 2


# stdlib chains no pgn command runs; a fresh interpreter importing pgn.cli
# must load none of them
_UNUSED_MODULES = ("xml", "http", "email", "ssl", "socket", "urllib.request",
                   "hashlib", "tempfile", "shutil", "bz2", "lzma", "random",
                   "typing")


def test_cli_import_loads_no_unused_stdlib_chain():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import pgn.cli; "
             "print(*[m for m in sys.argv[2:] if m in sys.modules])")
    done = subprocess.run([sys.executable, "-S", "-E", "-c", probe, str(src),
                           *_UNUSED_MODULES], capture_output=True, text=True,
                          check=True)
    assert done.stdout.split() == []


class TestParser:
    @staticmethod
    def _commands(parser):
        [action] = [a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_one_subparser_per_named_command(self):
        full = self._commands(_build_parser())
        assert list(full) == ["build", "validate", "minima", "diagnose",
                              "compare", "plot"]
        for name, sub in full.items():
            only = self._commands(_build_parser(name))
            assert list(only) == [name]
            assert only[name].format_help() == sub.format_help()
        for first in (None, "bogus", "--help"):
            assert list(self._commands(_build_parser(first))) == list(full)

    @pytest.mark.parametrize("argv", [["--help"], ["bogus"]],
                             ids=["help", "unknown"])
    def test_top_level_text_names_every_command(self, capsys, argv):
        try:
            run(argv)
        except SystemExit:
            pass
        captured = capsys.readouterr()
        text = captured.out + captured.err
        for name in self._commands(_build_parser()):
            assert name in text

    def test_each_parser_is_built_once(self, capsys):
        assert _build_parser("minima") is _build_parser("minima")
        assert _build_parser("bogus") is _build_parser()
        unknown = ["bogus", "other", "--help", *(f"x{i}" for i in range(8))]
        for token in unknown:
            try:
                run([token])
            except SystemExit:
                pass
        for name in self._commands(_build_parser()):
            _build_parser(name)
        capsys.readouterr()
        assert pgn_cli._parser.cache_info().currsize <= 7

    def test_reused_parsers_give_the_runs_of_fresh_processes(
            self, capsys, monkeypatch, tmp_path):
        """Runs of one command with other options, in one process, write
        what each writes alone in a new process."""
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        minima = ["minima", "--x", "1/3,-2/7", "--grid", "0:2:1/2"]
        runs = [[*minima, "--bound", "5", "--out", "a.csv"], minima,
                [*minima, "--mode", "simultaneous", "--out", "b.csv"],
                [*BUILD, "--out", "s.json"], [*BUILD, "--blocks", "2"],
                ["plot", "--input", "s.json", "--no-guides", "--out", "a.svg"],
                ["plot", "--input", "s.json", "--out", "b.svg"]]
        here, fresh = tmp_path / "in-process", tmp_path / "fresh"
        here.mkdir()
        fresh.mkdir()
        monkeypatch.chdir(here)
        env = {**os.environ, "PYTHONPATH": str(src)}
        for argv in runs:
            code = run(list(argv))
            out, err = capsys.readouterr()
            done = subprocess.run([sys.executable, "-m", "pgn.cli", *argv],
                                  cwd=fresh, env=env, capture_output=True,
                                  text=True)
            assert (code, out, err) == (done.returncode, done.stdout,
                                        done.stderr), argv
        files = sorted(path.name for path in here.iterdir())
        assert files == sorted(path.name for path in fresh.iterdir())
        assert len(files) == 5
        for name in files:
            assert (here / name).read_bytes() == (fresh / name).read_bytes()


class TestExitCodes:
    def test_usage_error(self, capsys):
        code, _, err = cli(capsys, "build", "--n", "2")
        assert code == 1 and "usage error" in err

    def test_unknown_command(self, capsys):
        code, _, _ = cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_file(self, capsys):
        code, _, err = cli(capsys, "validate", "/nonexistent/x.json")
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["diagnose", "--input", "x.json", "--n", "2"],
        BUILD + ["--gap-bits", "64"],
        ["minima", "--x", "1/3", "--grid", "0:1:1", "--gap-bits", "64"],
        ["diagnose", "--input", "x.json", "--w", "3", "--gap-bits", "64"],
        ["plot", "--input", "x.json", "--gap-bits", "64"],
        ["minima", "--mode", "simultaneous", "--x", "1/3", "--m", "2",
         "--grid", "0:1:1"]],
        ids=["diagnose-n", "build", "minima", "diagnose", "plot", "minima-m"])
    def test_removed_options_are_usage_errors(self, capsys, argv):
        code, out, err = cli(capsys, *argv)
        assert code == 1 and not out
        assert err.startswith("usage error: ")

    @pytest.mark.parametrize("row, message", [
        ("0", "data row 1 has 1 cells"),
        ("0,1,1,0,0,1;0,0;1;1,", "witness '0;1;1' has 3 coordinates")],
        ids=["short-row", "long-witness"])
    def test_malformed_profile_row_exits_3(self, capsys, tmp_path, row,
                                           message):
        path = tmp_path / "profile.csv"
        path.write_text("# pgn-profile v1\n# mode=linear-form\n# x=2/3\n"
                        "q,lambda_1,lambda_2,L_1,L_2,witness_1,witness_2,"
                        f"error\n{row}\n")
        code, out, err = cli(capsys, "diagnose", "--input", str(path),
                             "--w", "1")
        assert code == 3 and not out
        assert err.startswith("error: profile ") and message in err
        assert len(err.strip().splitlines()) == 1

    def test_compare_with_a_header_only_profile_exits_3(self, capsys,
                                                         tmp_path):
        system, prof = tmp_path / "system.json", tmp_path / "profile.csv"
        system.write_text(json.dumps({"n": 1, "breakpoints": ["0", "8"],
                                      "values": [["0", "0"], ["0", "8"]]}))
        prof.write_text("# pgn-profile v1\n# mode=linear-form\n# x=2/3\n"
                        "q,lambda_1,lambda_2,L_1,L_2,witness_1,witness_2,"
                        "error\n")
        code, out, err = cli(capsys, "compare", "--system", str(system),
                             "--profile", str(prof))
        assert code == 3 and not out
        assert err == "error: profile has no grid points\n"

    @pytest.mark.parametrize("bound", ["abc", "1e3", "0", "-3"])
    def test_bad_bound_is_a_usage_error(self, capsys, bound):
        code, out, err = cli(capsys, "minima", "--x", "1/3", "--grid",
                             "0:1:1", f"--bound={bound}")
        assert code == 1 and not out
        assert err.startswith("usage error: --bound ")
        assert len(err.strip().splitlines()) == 1

    def test_bad_grid(self, capsys):
        code, _, err = cli(capsys, "minima", "--x", "0", "--grid", "0:4")
        assert code == 1

    @pytest.mark.parametrize("grid", ["0:1:1/10000000000",
                                      "0:100000000:100000000"],
                             ids=["count", "magnitude"])
    def test_huge_grid_refused_before_allocating(self, capsys, grid):
        start = time.perf_counter()
        code, out, err = cli(capsys, "minima", "--x", "1/3", "--grid", grid)
        assert time.perf_counter() - start < 1
        assert code == 1 and not out
        assert err.startswith("usage error: grid ")
        assert len(err.strip().splitlines()) == 1


    @pytest.mark.parametrize("blocks", ["2001", "100000000"])
    def test_huge_block_count_refused_before_building(self, capsys,
                                                      tmp_path, blocks):
        out = tmp_path / "system.json"
        start = time.perf_counter()
        code, stdout, err = cli(capsys, *BUILD[:-1], blocks,
                                "--out", str(out))
        assert time.perf_counter() - start < 1
        assert code == 1 and not stdout and not out.exists()
        assert err == (f"usage error: --blocks {blocks} is over the limit "
                       f"of 2000\n")

    @pytest.mark.parametrize("n, blocks", [("5", "1667"), ("10000", "1"),
                                           ("100000000", "1")])
    def test_huge_build_size_refused_before_building(self, capsys, tmp_path,
                                                     n, blocks):
        out = tmp_path / "system.json"
        argv = [*BUILD[:-1], blocks, "--out", str(out)]
        argv[argv.index("--n") + 1] = n
        start = time.perf_counter()
        code, stdout, err = cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 1 and not stdout and not out.exists()
        assert err == (f"usage error: --n {n} with --blocks {blocks} builds "
                       f"{(int(n) + 1) * int(blocks)} block components, "
                       f"over the limit of 10000\n")

    def test_build_size_at_the_limit_passes_the_check(self, capsys):
        # n=9999 with one block is 10,000 components: the template then
        # refuses w=3 <= n
        argv = list(BUILD)
        argv[argv.index("--n") + 1], argv[-1] = "9999", "1"
        code, _, err = cli(capsys, *argv)
        assert code == 3 and err.startswith("error: target exponent w ")

    @pytest.mark.parametrize("argv", [
        BUILD, ["minima", "--x", "1/3", "--grid", "0:1:1"]],
        ids=["build", "minima"])
    def test_gap_bits_env_over_the_cap_is_a_usage_error(self, capsys,
                                                        monkeypatch, argv):
        monkeypatch.setenv("PGN_GAP_BITS", "5000000")
        start = time.perf_counter()
        code, out, err = cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 1 and not out
        assert err == ("usage error: PGN_GAP_BITS 5000000 is over the limit "
                       "of 4096\n")

    @pytest.mark.parametrize("bits", ["7", "4", "0", "-3"])
    @pytest.mark.parametrize("argv", [
        BUILD, ["minima", "--x", "1/3", "--grid", "0:1:1"]],
        ids=["build", "minima"])
    def test_gap_bits_env_under_eight_is_a_usage_error(self, capsys,
                                                       monkeypatch, argv,
                                                       bits):
        # once reached GapFunction and exited 3
        monkeypatch.setenv("PGN_GAP_BITS", bits)
        code, out, err = cli(capsys, *argv)
        assert code == 1 and not out
        assert err == (f"usage error: PGN_GAP_BITS {bits} is under the "
                       f"minimum of 8\n")

    # id: (environment, argv with {file} placeholders, exit code, stderr)
    REFUSALS = {
        "compare-csv-system": (
            {}, ["compare", "--system", "{profile}", "--profile",
                 "{profile}"],
            1, "usage error: --system must point to a system JSON document"),
        "compare-json-profile": (
            {}, ["compare", "--system", "{system}", "--profile", "{system}"],
            1, "usage error: --profile must point to a profile CSV"),
        "plot-block-0": (
            {}, ["plot", "--input", "{system}", "--block", "0"],
            1, "usage error: --block out of range 1..4"),
        "plot-block-past-k": (
            {}, ["plot", "--input", "{system}", "--block", "5"],
            1, "usage error: --block out of range 1..4"),
        "plot-block-without-meta": (
            {}, ["plot", "--input", "{bare}", "--block", "1"],
            1, "usage error: --block needs template metadata in the file"),
        "grid-reversed": (
            {}, ["minima", "--x", "1/3", "--grid", "1:0:1"],
            1, "usage error: grid needs step > 0 and stop >= start"),
        "grid-zero-step": (
            {}, ["minima", "--x", "1/3", "--grid", "0:1:0"],
            1, "usage error: grid needs step > 0 and stop >= start"),
        "build-no-alpha": (
            {}, ["build", "--n", "2", "--w", "3", "--beta", "1/2",
                 "--q1", "100"],
            1, "usage error: provide --alpha or --epsilon"),
        "build-no-beta": (
            {}, ["build", "--n", "2", "--w", "3", "--alpha", "1",
                 "--q1", "100"],
            1, "usage error: bounded beta mode needs --beta or --nu"),
        "diagnose-profile-no-w": (
            {}, ["diagnose", "--input", "{profile}"],
            1, "usage error: --w is required for a profile or a system "
               "without template metadata"),
        "gap-bits-env-not-integer": (
            {"PGN_GAP_BITS": "abc"}, BUILD,
            1, "usage error: PGN_GAP_BITS must be an integer, got 'abc'"),
        "diagnose-epsilon": (
            {}, ["diagnose", "--input", "{system}", "--epsilon", "2"],
            3, "error: epsilon must lie in (0,1)"),
        "diagnose-nu": (
            {}, ["diagnose", "--input", "{system}", "--nu", "0"],
            3, "error: nu must lie in (0,1)"),
        "diagnose-one-valid-point": (
            {}, ["diagnose", "--input", "{one_point}", "--w", "3"],
            3, "error: profile has fewer than two valid grid points"),
        "compare-disjoint": (
            {}, ["compare", "--system", "{system}", "--profile",
                 "{profile}"],
            3, "error: system and profile ranges are disjoint"),
        "validate-template-n": (
            {}, ["validate", "{n3}"],
            3, "error: template n=2 disagrees with n=3"),
    }

    @pytest.mark.parametrize("case", REFUSALS)
    def test_refusal_exit_code_and_line(self, capsys, tmp_path, monkeypatch,
                                        case):
        env, argv, expected_code, line = self.REFUSALS[case]
        files = {name: str(tmp_path / name) for name in
                 ("system", "bare", "profile", "one_point", "n3")}
        cli(capsys, *BUILD, "--out", files["system"])
        doc = json.loads(pathlib.Path(files["system"]).read_text())
        pathlib.Path(files["bare"]).write_text(json.dumps(
            {key: doc[key] for key in ("n", "breakpoints", "values")}))
        pathlib.Path(files["n3"]).write_text(json.dumps(
            {**doc, "n": 3, "values": [row + ["0"] for row in doc["values"]]}))
        cli(capsys, "minima", "--x", "1/3,1/5", "--grid", "0:1:1", "--out",
            files["profile"])
        cli(capsys, "minima", "--x", "1/3", "--grid", "-46:-40:2", "--out",
            files["one_point"])
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        code, out, err = cli(capsys, *(a.format(**files) for a in argv))
        assert (code, out, err) == (expected_code, "", line + "\n")

    @pytest.mark.parametrize("option, size", [
        ("--width", "-7"), ("--width", "0"), ("--height", "-1"),
        ("--height", "0")])
    def test_plot_size_below_one_is_a_usage_error(self, capsys, tmp_path,
                                                  option, size):
        system, fig = tmp_path / "system.json", tmp_path / "fig.svg"
        cli(capsys, *BUILD, "--out", str(system))
        code, out, err = cli(capsys, "plot", "--input", str(system),
                             option, size, "--out", str(fig))
        assert code == 1 and not out and not fig.exists()
        assert err.startswith(f"usage error: {option} must be a positive ")
        assert len(err.strip().splitlines()) == 1


class TestSystemDocuments:
    """validate, diagnose and plot read system JSON through one loader."""

    THREE_COMPONENTS = {"breakpoints": ["0", "1"],
                        "values": [["0", "0", "0"], ["0", "0", "1"]]}

    def _write(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_validate_checks_declared_n(self, capsys, tmp_path):
        path = self._write(tmp_path, {"n": 5, **self.THREE_COMPONENTS})
        code, out, err = cli(capsys, "validate", path)
        assert code == 3 and not out
        assert "n=5" in err and len(err.strip().splitlines()) == 1
        code, _, _ = cli(capsys, "diagnose", "--input", path, "--w", "6")
        assert code == 3

    @pytest.mark.parametrize("argv", [["validate"], ["plot", "--input"]],
                             ids=["validate", "plot"])
    def test_non_object_document_exits_3(self, capsys, tmp_path, argv):
        code, _, err = cli(capsys, *argv, self._write(tmp_path, [1, 2]))
        assert code == 3
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [["plot", "--input"],
                                      ["diagnose", "--w", "6", "--input"]],
                             ids=["plot", "diagnose"])
    def test_non_object_meta_exits_3(self, capsys, tmp_path, argv):
        doc = {"n": 2, **self.THREE_COMPONENTS, "meta": 5}
        code, out, err = cli(capsys, *argv, self._write(tmp_path, doc))
        assert code == 3 and not out
        assert err.startswith("error: ") and "meta" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("n", [1.9, True, "1"],
                             ids=["float", "bool", "string"])
    @pytest.mark.parametrize("argv", [["validate"],
                                      ["diagnose", "--w", "3", "--input"],
                                      ["plot", "--input"]],
                             ids=["validate", "diagnose", "plot"])
    def test_non_integer_n_exits_3(self, capsys, tmp_path, argv, n):
        doc = {"n": n, "breakpoints": ["0", "1"],
               "values": [["0", "0"], ["1", "1"]]}
        code, out, err = cli(capsys, *argv, self._write(tmp_path, doc))
        assert code == 3 and not out
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [["validate"],
                                      ["diagnose", "--w", "3", "--input"],
                                      ["plot", "--input"]],
                             ids=["validate", "diagnose", "plot"])
    def test_rows_of_no_component_exit_3(self, capsys, tmp_path, argv):
        # n = -1 declares rows of length 0, which the rows here have
        doc = {"n": -1, "breakpoints": [0, 1], "values": [[], []]}
        code, out, err = cli(capsys, *argv, self._write(tmp_path, doc))
        assert code == 3 and not out
        assert err == "error: component count must be at least 2\n"

    @pytest.mark.parametrize("doc, message", [
        ({"breakpoints": ["0", "1", "2"], "values": [["0", "0"], ["0", "1"]]},
         "3 breakpoints but 2 value rows"),
        ({"breakpoints": ["0"], "values": [["0", "0"]]},
         "a map needs at least two breakpoints")],
        ids=["row-count", "one-breakpoint"])
    @pytest.mark.parametrize("argv", [["validate"],
                                      ["diagnose", "--w", "3", "--input"],
                                      ["plot", "--input"]],
                             ids=["validate", "diagnose", "plot"])
    def test_breakpoint_count_defect_has_one_message(self, capsys, tmp_path,
                                                      argv, doc, message):
        path = self._write(tmp_path, {"n": 1, **doc})
        assert cli(capsys, *argv, path) == (3, "", f"error: {message}\n")

    def test_validate_refuses_one_distinct_breakpoint(self, capsys,
                                                      tmp_path):
        doc = {"n": 1, "breakpoints": ["0", "0"],
               "values": [["0", "0"], ["0", "0"]]}
        assert cli(capsys, "validate", self._write(tmp_path, doc)) == (
            3, "", "error: fewer than two distinct breakpoints\n")

    def test_json_integers_validate_like_strings(self, capsys, tmp_path):
        doc = {"n": 1, "breakpoints": [0, 1], "values": [[0, 0], [1, 1]]}
        as_ints = cli(capsys, "validate", self._write(tmp_path, doc))
        strings = {"n": 1, "breakpoints": ["0", "1"],
                   "values": [["0", "0"], ["1", "1"]]}
        assert cli(capsys, "validate", self._write(tmp_path, strings)) \
            == as_ints
        assert as_ints[0] == 2 and not as_ints[2]

    @pytest.mark.parametrize("argv", [["validate"],
                                      ["diagnose", "--w", "3", "--input"],
                                      ["plot", "--input"]],
                             ids=["validate", "diagnose", "plot"])
    def test_integer_past_the_digit_limit_exits_3(self, capsys, tmp_path,
                                                  argv):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        path = tmp_path / "doc.json"
        path.write_text('{"n": 1, "breakpoints": [0, ' + "9" * 5000
                        + '], "values": [[0, 0], [1, 1]]}')
        code, out, err = cli(capsys, *argv, str(path))
        assert code == 3 and not out
        assert err.startswith("error: system document: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("value", [0.5, None, True, [1]],
                             ids=["float", "null", "bool", "list"])
    def test_non_rational_json_value_exits_3(self, capsys, tmp_path, value):
        doc = {"n": 1, "breakpoints": [0, value], "values": [[0, 0], [1, 1]]}
        code, out, err = cli(capsys, "validate", self._write(tmp_path, doc))
        assert code == 3 and not out
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    # strings and objects that list() would have taken for arrays
    NOT_ARRAYS = {
        "breakpoints-string": ({"breakpoints": "01", "values": ["00", "11"]},
                               "breakpoints must be an array, not str"),
        "breakpoints-object": ({"breakpoints": {"0": 0, "1": 1},
                                "values": [["0", "0"], ["1", "1"]]},
                               "breakpoints must be an array, not dict"),
        "values-string": ({"breakpoints": ["0", "1"], "values": "0011"},
                          "values must be an array, not str"),
        "values-object": ({"breakpoints": ["0", "1"],
                           "values": {"00": 0, "11": 1}},
                          "values must be an array, not dict"),
        "row-string": ({"breakpoints": ["0", "1"],
                        "values": [["0", "0"], "11"]},
                       "a value row must be an array, not str"),
        "row-object": ({"breakpoints": ["0", "1"],
                        "values": [{"0": 0, "1": 1}, ["1", "1"]]},
                       "a value row must be an array, not dict"),
    }

    @pytest.mark.parametrize("case", list(NOT_ARRAYS), ids=list(NOT_ARRAYS))
    @pytest.mark.parametrize("argv", [["validate"],
                                      ["diagnose", "--w", "3", "--input"],
                                      ["plot", "--input"]],
                             ids=["validate", "diagnose", "plot"])
    def test_non_array_rows_exit_3(self, capsys, tmp_path, argv, case):
        fields, message = self.NOT_ARRAYS[case]
        path = self._write(tmp_path, {"n": 1, **fields})
        code, out, err = cli(capsys, *argv, path)
        assert code == 3 and not out
        assert err == f"error: malformed map document: {message}\n"

    BUILT = build_system(TemplateParams(
        n=2, w=3, alpha=1, beta=F(1, 2), delta=F(1, 2), q1=100,
        blocks=2)).to_json_dict()
    TEMPLATE = BUILT["meta"]["template"]
    BAD_META = {
        "template-5": {"template": 5},
        "blocks-5": {"blocks": 5},
        "blocks-empty": {"blocks": []},
        "no-alpha": {"template": {k: v for k, v in TEMPLATE.items()
                                  if k != "alpha"}},
        "w-list": {"template": {**TEMPLATE, "w": []}},
    }
    # JSON values of the wrong type that int() or bool() would take
    LOOSE_TEMPLATE = {
        "paper-qk1-string": {"paper_qk1": "false"},
        "paper-qk1-int": {"paper_qk1": 0},
        "n-float": {"n": 2.0},
        "n-bool": {"n": True},
        "blocks-float": {"blocks": 1.5},
        "blocks-string": {"blocks": "2"},
        "gap-bits-float": {"gap_bits": 64.0},
        "gap-bits-bool": {"gap_bits": True},
    }

    @pytest.mark.parametrize("meta", list(BAD_META), ids=list(BAD_META))
    @pytest.mark.parametrize("argv", [["diagnose", "--input"],
                                      ["plot", "--input"],
                                      ["plot", "--block", "1", "--input"]],
                             ids=["diagnose", "plot", "plot-block"])
    def test_malformed_meta_exits_3(self, capsys, tmp_path, argv, meta):
        doc = {**self.BUILT, "meta": self.BAD_META[meta]}
        code, out, err = cli(capsys, *argv, self._write(tmp_path, doc))
        assert code == 3 and not out
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("field", list(LOOSE_TEMPLATE),
                             ids=list(LOOSE_TEMPLATE))
    @pytest.mark.parametrize("argv", [["validate"],
                                      ["diagnose", "--input"],
                                      ["plot", "--input"],
                                      ["plot", "--block", "1", "--input"]],
                             ids=["validate", "diagnose", "plot", "plot-block"])
    def test_loose_template_types_exit_3(self, capsys, tmp_path, argv, field):
        template = {**self.TEMPLATE, **self.LOOSE_TEMPLATE[field]}
        doc = {**self.BUILT, "meta": {**self.BUILT["meta"],
                                      "template": template}}
        code, out, err = cli(capsys, *argv, self._write(tmp_path, doc))
        assert code == 3 and not out
        assert err.startswith("error: malformed template meta: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("argv", [
        ["diagnose", "--w", "2", "--epsilon", "1/2", "--nu", "1/3",
         "--input"],
        ["plot", "--block", "1", "--input"]], ids=["diagnose", "plot-block"])
    def test_system_gap_bits_over_the_cap_exits_3(self, capsys, tmp_path,
                                                  argv):
        template = {**self.TEMPLATE, "gap_bits": 5_000_000}
        doc = {**self.BUILT, "meta": {**self.BUILT["meta"],
                                      "template": template}}
        start = time.perf_counter()
        code, out, err = cli(capsys, *argv, self._write(tmp_path, doc))
        assert time.perf_counter() - start < 1
        assert code == 3 and not out
        assert err == ("error: GapFunction allows at most 4096 fractional "
                       "bits, got 5000000\n")

    def test_profile_gap_bits_over_the_cap_exits_3(self, capsys, tmp_path):
        path = tmp_path / "p.csv"
        cli(capsys, "minima", "--x", "1/3,2/5", "--grid", "0:2:1",
            "--out", str(path))
        path.write_text(path.read_text().replace("# gap_bits=64",
                                                 "# gap_bits=5000000"))
        start = time.perf_counter()
        code, out, err = cli(capsys, "diagnose", "--input", str(path),
                             "--w", "2", "--epsilon", "1/2", "--nu", "1/3")
        assert time.perf_counter() - start < 1
        assert code == 3 and not out
        assert err == ("error: GapFunction allows at most 4096 fractional "
                       "bits, got 5000000\n")

    def test_widening_document_is_refused_under_a_small_peak(self, capsys,
                                                             tmp_path):
        # 2,000 values over the first 2,000 primes: one common denominator
        # of about 27,000 bits, so the integer form would hold about 10 MB
        primes, k = [], 2
        while len(primes) < 2000:
            if all(k % p for p in primes if p * p <= k):
                primes.append(k)
            k += 1
        doc = {"n": 1, "breakpoints": list(range(1000)),
               "values": [[f"1/{primes[2 * i]}", f"1/{primes[2 * i + 1]}"]
                          for i in range(1000)]}
        path = self._write(tmp_path, doc)
        for argv in (["validate", path], ["plot", "--input", path],
                     ["diagnose", "--w", "3", "--input", path]):
            tracemalloc.start()
            try:
                code, out, err = cli(capsys, *argv)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 3 and not out
            assert err.startswith("error: map document refused: its values "
                                  "need a common denominator of over ")
            assert len(err.strip().splitlines()) == 1
            assert peak < 2 * 2 ** 20

    @pytest.mark.parametrize("argv", [["validate"], ["plot", "--input"]],
                             ids=["validate", "plot"])
    def test_log_mode_template_with_beta_exits_3(self, capsys, tmp_path,
                                                 argv):
        out = tmp_path / "system.json"
        cli(capsys, "build", "--n", "2", "--w", "3", "--alpha", "1",
            "--beta-mode", "log", "--q1", "100", "--blocks", "2",
            "--out", str(out))
        doc = json.loads(out.read_text())
        doc["meta"]["template"]["beta"] = "1/2"
        code, stdout, err = cli(capsys, *argv, self._write(tmp_path, doc))
        assert code == 3 and not stdout
        assert err == "error: log beta mode takes no beta\n"

    def test_log_mode_build_ignores_beta(self, capsys):
        code, stdout, _ = cli(capsys, "build", "--n", "2", "--w", "3",
                              "--alpha", "1", "--beta-mode", "log",
                              "--beta", "1/2", "--q1", "100", "--blocks", "2")
        assert code == 0
        template = json.loads(stdout)["meta"]["template"]
        assert template["beta_mode"] == "log" and "beta" not in template

    def test_built_systems_pass_the_widening_check(self, capsys, tmp_path):
        out = tmp_path / "system.json"
        cli(capsys, "build", "--n", "4", "--w", "11/2", "--alpha", "1",
            "--beta-mode", "log", "--q1", "1000", "--blocks", "80",
            "--out", str(out))
        code, stdout, _ = cli(capsys, "validate", str(out))
        assert code == 0 and json.loads(stdout)["is_system"] is True

    def test_repeated_breakpoint_is_a_continuity_violation(self, capsys,
                                                           tmp_path):
        doc = {"n": 1, "breakpoints": ["0", "1", "1", "2"],
               "values": [["0", "0"], ["1/2", "1/2"], ["0", "1"],
                          ["1/2", "3/2"]]}
        code, out, _ = cli(capsys, "validate", self._write(tmp_path, doc))
        assert code == 2
        axioms = [json.loads(line).get("axiom")
                  for line in out.strip().splitlines()[:-1]]
        assert "continuity" in axioms


README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _readme_commands() -> list[list[str]]:
    """Every 'pgn ...' line of README's sh blocks, continuations joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("pgn "):
                commands.append(shlex.split(line)[1:])
    return commands


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert len(commands) >= 5
    for argv in commands:
        code, _, err = cli(capsys, *argv)
        assert code == 0, (argv, err)
