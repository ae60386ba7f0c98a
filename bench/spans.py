"""Layer spans and exact counters, installed from outside the program.

Every layer function is wrapped by module attribute at the place where it is
looked up: ``cli.build_system`` for the call the CLI makes,
``template.build_block`` for the calls made inside ``build_system``, and so
on.  Nothing under ``src/`` is edited.  A layer that a later refactor removes
is recorded as absent instead of failing the run.

Spans are nested on one stack (the benchmark is single-threaded).  For every
span name the tracer keeps its busy time (outermost spans only, so recursion
is not counted twice) and its self time (duration minus the time covered by
its child spans); ``counts`` holds its call count beside the layer counters.
Raw span records ``(op, id, parent, name, start, end)`` are kept only while
``keep_spans`` is set.
"""

from __future__ import annotations

import functools
import json
import time
import types
from collections import Counter

from pgn import cli, core, diagnostics, minima, template, validator


def _len_result(key):
    def count(counts, args, result):
        counts[key] += len(result)
    return count


def _len_encoded(key):
    def count(counts, args, result):
        counts[key] += len(result.encode())
    return count


def _count_certified(counts, args, result):
    counts["minima.certified.ok"] += 1


def _count_greedy(counts, args, result):
    counts["minima.greedy_minima.candidates_in"] += len(args[0])


def _count_build(counts, args, result):
    bits = result.q_sequence[-1].numerator.bit_length()
    counts["template.q_end_bits"] = max(counts["template.q_end_bits"], bits)


def _count_segments(counts, args, result):
    counts["validator.segments"] += len(args[0].breakpoints) - 1


def _count_violations(counts, args, result):
    counts["validator.violations"] += len(result.violations)


def _count_json_in(counts, args, result):
    counts["cli.json_bytes"] += len(args[0].encode())


def _count_json_out(counts, args, result):
    counts["cli.json_bytes"] += len(result.encode())


class Tracer:
    def __init__(self):
        self.busy: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._wrapped: set[str] = set()
        self._missing: set[str] = set()
        self.spans: list[tuple] = []
        self.keep_spans = False
        self.op = 0
        self._stack: list[list] = []
        self._open: Counter = Counter()
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self, name: str):
        self._next_id += 1
        parent = self._stack[-1][3] if self._stack else 0
        self._stack.append([name, time.perf_counter(), 0.0, self._next_id,
                            parent])
        self._open[name] += 1

    def _exit(self):
        end = time.perf_counter()
        name, start, children, span_id, parent = self._stack.pop()
        self._open[name] -= 1
        duration = end - start
        if not self._open[name]:
            self.busy[name] += duration
        self.self_time[name] += duration - children
        self.counts[f"{name}.calls"] += 1
        if self._stack:
            self._stack[-1][2] += duration
        if self.keep_spans:
            self.spans.append((self.op, span_id, parent, name, start, end))

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, count=None):
        original = getattr(owner, attr, None)
        if original is None:
            self._missing.add(name)
            return
        self._wrapped.add(name)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit()
            if count is not None:
                count(tracer.counts, args, result)
            return result

        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, traced)

    def install(self):
        """Wrap every layer boundary.  ``uninstall`` restores the program."""
        json_proxy = types.ModuleType("json")
        json_proxy.__dict__.update(vars(json))
        self._patches.append((cli, "json", json, True))
        cli.json = json_proxy

        w = self.wrap
        w(core.GapFunction, "exp", "core.gap_exp")
        w(core.GapFunction, "log", "core.gap_log")
        w(cli, "minima_profile", "minima.profile")
        w(minima, "successive_minima_certified", "minima.certified",
          _count_certified)
        w(minima, "successive_minima", "minima.box")
        w(minima, "_enumerate_within", "minima.enumerate_within",
          _len_result("minima.enumerate_within.candidates"))
        w(minima, "_enumerate_box", "minima.enumerate_box",
          _len_result("minima.enumerate_box.candidates"))
        w(minima, "_greedy_minima", "minima.greedy_minima", _count_greedy)
        w(cli, "profile_to_csv", "minima.profile_to_csv",
          _len_encoded("minima.csv_bytes"))
        w(cli, "profile_from_csv", "minima.profile_from_csv")
        w(cli, "build_system", "template.build_system", _count_build)
        w(cli, "build_block", "template.build_block")
        w(template, "build_block", "template.build_block")
        w(cli, "validate_raw", "validator.validate_raw", _count_violations)
        w(validator, "validate", "validator.validate", _count_segments)
        w(cli, "analyze", "diagnostics.analyze")
        w(diagnostics, "analyze", "diagnostics.analyze")
        w(cli, "analyze_profile", "diagnostics.analyze_profile")
        w(cli, "render_svg", "svg.render_svg", _len_encoded("svg.bytes"))
        w(cli, "run", "cli.run")
        w(cli, "_build_parser", "cli.argparse")
        w(cli._Parser, "parse_args", "cli.argparse")
        w(json_proxy, "dumps", "cli.json", _count_json_out)
        w(json_proxy, "loads", "cli.json", _count_json_in)
        w(cli, "parse_rational", "cli.parse_rational")
        w(cli, "_read_input", "cli.read_input")
        w(cli, "_write_output", "cli.write_output")

    @property
    def absent(self) -> set[str]:
        """Span names none of whose functions exist in the program."""
        return self._missing - self._wrapped

    def uninstall(self):
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def dump_spans(self, path):
        with open(path, "w") as handle:
            for op, span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({
                    "op": op, "id": span_id, "parent": parent, "name": name,
                    "start": start, "end": end}) + "\n")
