"""Command line entry point: build, validate, minima, diagnose, compare, plot.

Exit codes: 0 success, 1 usage error, 2 validation failure, 3 computation
error.  All file outputs are deterministic (byte-identical for identical
inputs) and written atomically.  PGN_GAP_BITS sets the log/exp precision of
build and minima, which record it; diagnose and plot read the precision and
n from the document.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from fractions import Fraction
from itertools import chain, islice

from .core import (DEFAULT_GAP_BITS, MAX_GAP_BITS, GapFunction, PgnError,
                   PiecewiseLinearMap, format_rational, map_document_rows,
                   parse_rational)
from .diagnostics import analyze, analyze_profile, compare_system_profile
from .minima import (GaugeBody, LINEAR_FORM, SIMULTANEOUS, minima_profile,
                     profile_from_csv, profile_to_csv, proxy_horizon)
from .svg import PlotSpec, render_svg
from .template import (BETA_BOUNDED, BETA_LOG, TemplateOrderingError,
                       TemplateParams, build_block, build_system, default_rn,
                       derive_alpha_beta, system_meta)
from .validator import validate_raw

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_ERROR = 3

# grids past these are refused before any point or scale is computed, and
# block counts past _MAX_BLOCKS, or more than _MAX_COMPONENTS block
# components (n+1 per block), before any block is built (q_k gains bits
# every block, so build work grows about quadratically with the count, and
# memory linearly in n)
_MAX_GRID_POINTS = 100_000
_MAX_GRID_Q = 10_000
_MAX_BLOCKS = 2_000
_MAX_COMPONENTS = 10_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _gap_bits_default() -> int:
    env = os.environ.get("PGN_GAP_BITS")
    if env is None:
        return DEFAULT_GAP_BITS
    try:
        bits = int(env)
    except ValueError as exc:
        raise UsageError(f"PGN_GAP_BITS must be an integer, got {env!r}") from exc
    if bits < 8:  # GapFunction's least precision
        raise UsageError(f"PGN_GAP_BITS {bits} is under the minimum of 8")
    if bits > MAX_GAP_BITS:
        raise UsageError(f"PGN_GAP_BITS {bits} is over the limit of "
                         f"{MAX_GAP_BITS}")
    return bits


def _chunks(pieces, size: int = 256):
    """The pieces joined ``size`` at a time: one write per group, not per
    piece, while no more than a group is held joined."""
    pieces = iter(pieces)
    while group := list(islice(pieces, size)):
        yield "".join(group)


def _write_output(path: str, text):  # a str or str pieces
    chunks = [text] if isinstance(text, str) else _chunks(text)
    if path == "-":
        sys.stdout.writelines(chunks)
        return
    directory = os.path.dirname(os.path.abspath(path))
    tmp = f"{directory}{os.sep}.pgn-tmp-{os.getpid()}-{os.urandom(6).hex()}"
    handle = open(tmp, "x")  # O_CREAT | O_EXCL, mode 0o666 less the umask
    try:
        with handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_quote = json.encoder.encode_basestring_ascii


def _indented_json(value, pad: str = "", head: str = ""):
    """The pieces, one per array item and dict entry, of json.dumps(value,
    indent=2, sort_keys=True) for string-keyed dicts, lists and scalars,
    laid out directly, not by CPython's pure-Python indenting encoder; the
    first piece starts with ``head``."""
    keyed = isinstance(value, dict)
    if not (value and (keyed or isinstance(value, (list, tuple)))):
        yield head + (_quote(value) if type(value) is str
                      else json.dumps(value))
        return
    inner, comma = pad + "  ", f",\n{pad}  "
    sep = head + ("{" if keyed else "[") + "\n" + inner
    for key in sorted(value) if keyed else value:
        item = value[key] if keyed else key
        if keyed:
            sep += f"{_quote(key)}: "
        if type(item) is str:
            yield sep + _quote(item)
        else:
            yield from _indented_json(item, inner, sep)
        sep = comma
    yield f"\n{pad}{'}' if keyed else ']'}"


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r") as handle:
        return handle.read()


def _parse_grid(text: str) -> list[Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:step, got {text!r}")
    start, stop, step = (parse_rational(p) for p in parts)
    if step <= 0 or stop < start:
        raise UsageError("grid needs step > 0 and stop >= start")
    count = (stop - start) // step + 1
    if count > _MAX_GRID_POINTS:
        raise UsageError(f"grid has {count} points; the limit is "
                         f"{_MAX_GRID_POINTS}")
    if max(abs(start), abs(start + (count - 1) * step)) > _MAX_GRID_Q:
        raise UsageError(f"grid reaches beyond |q| = {_MAX_GRID_Q}")
    return [start + i * step for i in range(count)]


def _block_labels(k: int, bp) -> list[tuple[Fraction, str]]:
    return [
        (bp.q_k, f"q_{k}"), (bp.r_k, f"r_{k}"), (bp.s_k_m, f"s_{k}^m"),
        (bp.s_k, f"s_{k}"), (bp.s_k_M, f"s_{k}^M"), (bp.t_k, f"t_{k}"),
        (bp.u_k, f"u_{k}"), (bp.p_k, f"p_{k}"), (bp.q_k1, f"q_{k + 1}"),
    ]


def _block_figure(params: TemplateParams, k: int, q_k, **size) -> str:
    """One block with its delta=0 and delta=1 siblings dotted, as in the
    generic-block figure; ``size`` may set the PlotSpec width and height.
    A sibling whose ordering fails at this q_k is left out, and the title
    says so."""
    block, bp = build_block(params, k, q_k)
    overlays, left_out = [], ""
    for endpoint in (Fraction(0), Fraction(1)):
        if endpoint == params.delta:
            continue
        variant = dataclasses.replace(params, delta=endpoint)
        try:
            overlays.append(build_block(variant, k, q_k)[0])
        except TemplateOrderingError as exc:
            left_out += f"; delta={endpoint} left out ({exc.inequality} fails)"
    labels = [(q, lab) for q, lab in _block_labels(k, bp)
              if bp.q_k <= q <= bp.q_k1]
    # collapse labels at coinciding points (e.g. s_k = s_k^m at delta = 1)
    merged: dict[Fraction, str] = {}
    for q, lab in labels:
        merged[q] = f"{merged[q]}={lab}" if q in merged else lab
    spec = PlotSpec(
        subject=block, overlays=tuple(overlays),
        annotations=tuple(sorted(merged.items())),
        guide_n=params.n, guide_w=params.w,
        title=f"block {k}, delta={format_rational(params.delta)} "
              f"(dotted: delta=0 and delta=1){left_out}", **size)
    return render_svg(spec)


def _breakpoints_csv(blocks) -> str:
    rows = [bp.as_row() for bp in blocks]
    for row in rows:
        del row["q_k1"]  # the next row's q_k
    return "\n".join([",".join(rows[0])] + [",".join(map(str, row.values()))
                                            for row in rows]) + "\n"


def _cmd_build(args) -> int:
    if args.blocks > _MAX_BLOCKS:
        raise UsageError(f"--blocks {args.blocks} is over the limit of "
                         f"{_MAX_BLOCKS}")
    components = (args.n + 1) * args.blocks
    if components > _MAX_COMPONENTS:
        raise UsageError(f"--n {args.n} with --blocks {args.blocks} builds "
                         f"{components} block components, over the limit "
                         f"of {_MAX_COMPONENTS}")
    gap_bits = _gap_bits_default()
    gap = GapFunction(gap_bits)
    n = args.n
    w = parse_rational(args.w)
    rn = parse_rational(args.rn) if args.rn else default_rn(n)
    alpha = parse_rational(args.alpha) if args.alpha else None
    beta = parse_rational(args.beta) if args.beta else None
    if args.epsilon or args.nu:
        eps = parse_rational(args.epsilon) if args.epsilon else Fraction(1, 2)
        nu = parse_rational(args.nu) if args.nu else Fraction(1, 2)
        d_alpha, d_beta = derive_alpha_beta(eps, nu, rn, n, w, gap)
        alpha = alpha if alpha is not None else d_alpha
        beta = beta if beta is not None else d_beta
    if alpha is None:
        raise UsageError("provide --alpha or --epsilon")
    beta_mode = args.beta_mode
    if beta_mode == BETA_BOUNDED and beta is None:
        raise UsageError("bounded beta mode needs --beta or --nu")
    params = TemplateParams(
        n=n, w=w, alpha=alpha, delta=parse_rational(args.delta),
        q1=parse_rational(args.q1), blocks=args.blocks,
        beta=beta if beta_mode == BETA_BOUNDED else None,
        beta_mode=beta_mode, gap_bits=gap_bits, paper_qk1=args.paper_qk1)
    built = build_system(params)
    blocks, doc = built.blocks, built.to_json_dict()
    del built  # the maps need not live on while their document is written
    _write_output(args.out, chain(_indented_json(doc), ("\n",)))
    if args.svg:
        _write_output(args.svg, _block_figure(params, 1, params.q1))
    if args.breakpoints_csv:
        _write_output(args.breakpoints_csv, _breakpoints_csv(blocks))
    return EXIT_OK


def _load_system(path: str, profiles: bool = False):
    """The system JSON document at path as integer rows (den, breakpoint
    and value-row numerators), template parameters (None without) and block
    starts q_1..q_{K+1}; with ``profiles``, a profile CSV's MinimaProfile."""
    text = _read_input(path)
    if profiles and not text.lstrip().startswith("{"):
        return profile_from_csv(text)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:  # e.g. an integer past the digit limit
        raise PgnError(f"system document: {exc}") from exc
    del text  # not held beside the parsed document while rows are read
    rows = map_document_rows(doc)
    params, starts = system_meta(doc.get("meta", {}))
    if params is not None and params.n != int(doc["n"]):
        raise PgnError(f"template n={params.n} disagrees with n={doc['n']}")
    return rows, params, starts


def _cmd_validate(args) -> int:
    rows, _, _ = _load_system(args.system)
    report = validate_raw(*rows)
    for violation in report.violations:
        print(json.dumps(violation.to_json_dict(), sort_keys=True))
    print(json.dumps({"is_system": report.is_system,
                      "violations": len(report.violations)}, sort_keys=True))
    return EXIT_OK if report.is_system else EXIT_INVALID


def _parse_bound(text: str) -> int:
    try:
        bound = int(text)
    except ValueError:
        bound = 0
    if bound < 1:
        raise UsageError(f"--bound must be auto or a positive integer, "
                         f"not {text!r}")
    return bound


def _cmd_minima(args) -> int:
    gap = GapFunction(_gap_bits_default())
    x = tuple(parse_rational(part) for part in args.x.split(","))
    body = GaugeBody(args.mode, x)
    grid = _parse_grid(args.grid)
    bound = "auto" if args.bound == "auto" else _parse_bound(args.bound)
    profile = minima_profile(body, grid, bound=bound, gap=gap)
    text = profile_to_csv(profile)
    _write_output(args.out, text)
    print(f"proxy horizon: results reflect the rational target exactly; "
          f"they track an irrational target only while e^q stays well below "
          f"{proxy_horizon(body)}", file=sys.stderr)
    return EXIT_OK


def _load_subject(path: str):
    loaded = _load_system(path, profiles=True)
    if isinstance(loaded, tuple):  # rows, params, starts
        return PiecewiseLinearMap.over(*loaded[0]), loaded[1], None
    return None, None, loaded


def _cmd_diagnose(args) -> int:
    system, params, profile = _load_subject(args.input)
    tail = parse_rational(args.tail_from) if args.tail_from else None
    epsilon = parse_rational(args.epsilon) if args.epsilon else None
    nu = parse_rational(args.nu) if args.nu else None
    w = parse_rational(args.w) if args.w else None
    if w is None and params is None:
        raise UsageError("--w is required for a profile or a system "
                         "without template metadata")
    if profile is not None:
        report = analyze_profile(profile, w, tail_start=tail,
                                 epsilon=epsilon, nu=nu)
    else:
        gap = params.gap() if params else GapFunction(_gap_bits_default())
        report = analyze(system, params.w if w is None else w,
                         tail_start=tail, epsilon=epsilon, nu=nu, gap=gap)
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_compare(args) -> int:
    system, _, _ = _load_subject(args.system)
    if system is None:
        raise UsageError("--system must point to a system JSON document")
    _, _, profile = _load_subject(args.profile)
    if profile is None:
        raise UsageError("--profile must point to a profile CSV")
    rn = parse_rational(args.rn) if args.rn else None
    report = compare_system_profile(system, profile, rn=rn)
    print(json.dumps(report.to_json_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_plot(args) -> int:
    for name, size in (("--width", args.width), ("--height", args.height)):
        if size < 1:
            raise UsageError(f"{name} must be a positive integer, not {size}")
    rows, params, starts = _load_system(args.input)
    if args.block is not None:
        if params is None:
            raise UsageError("--block needs template metadata in the file")
        if not (1 <= args.block < len(starts)):
            raise UsageError(f"--block out of range 1..{len(starts[1:])}")
        _write_output(args.out, _block_figure(
            params, args.block, starts[args.block - 1],
            width=args.width, height=args.height))
        return EXIT_OK
    guides = args.guides and params is not None
    spec = PlotSpec(subject=PiecewiseLinearMap.over(*rows),
                    annotations=tuple((q, f"q_{k}")
                                      for k, q in enumerate(starts, 1)),
                    guide_n=params.n if guides else None,
                    guide_w=params.w if guides else None,
                    width=args.width, height=args.height)
    _write_output(args.out, render_svg(spec))
    return EXIT_OK


def _build_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--w", required=True)
    p.add_argument("--alpha")
    p.add_argument("--beta")
    p.add_argument("--beta-mode", choices=[BETA_BOUNDED, BETA_LOG],
                   default=BETA_BOUNDED)
    p.add_argument("--epsilon")
    p.add_argument("--nu")
    p.add_argument("--rn")
    p.add_argument("--delta", default="1/2")
    p.add_argument("--q1", required=True)
    p.add_argument("--blocks", type=int, default=10)
    p.add_argument("--paper-qk1", action="store_true",
                   help="use the alternative printed step for q_{k+1} "
                        "(produces a map the validator rejects)")
    p.add_argument("--out", default="-")
    p.add_argument("--svg")
    p.add_argument("--breakpoints-csv")


def _validate_args(p):
    p.add_argument("system", help="system JSON path or - for stdin")


def _minima_args(p):
    p.add_argument("--mode", choices=[LINEAR_FORM, SIMULTANEOUS],
                   default=LINEAR_FORM)
    p.add_argument("--x", required=True,
                   help="comma-separated rational target coordinates")
    p.add_argument("--grid", required=True, help="start:stop:step")
    p.add_argument("--bound", default="auto")
    p.add_argument("--out", default="-")


def _diagnose_args(p):
    p.add_argument("--input", required=True)
    p.add_argument("--w")
    p.add_argument("--epsilon")
    p.add_argument("--nu")
    p.add_argument("--tail-from")


def _compare_args(p):
    p.add_argument("--system", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--rn")


def _plot_args(p):
    p.add_argument("--input", required=True)
    p.add_argument("--out", default="-")
    p.add_argument("--block", type=int)
    p.add_argument("--guides", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("--width", type=int, default=900)
    p.add_argument("--height", type=int, default=540)


# name: (help, arguments, handler), in the order of the usage text
_COMMANDS = {
    "build": ("construct a template system", _build_args, _cmd_build),
    "validate": ("check the system axioms", _validate_args, _cmd_validate),
    "minima": ("successive-minima profile", _minima_args, _cmd_minima),
    "diagnose": ("tail margins and exponent estimate", _diagnose_args,
                 _cmd_diagnose),
    "compare": ("bounded-distance comparison", _compare_args, _cmd_compare),
    "plot": ("render a system as SVG", _plot_args, _cmd_plot),
}


def _build_parser(command: str | None = None) -> _Parser:
    """The parser, with only ``command``'s subparser when it names one
    (argparse dispatches on the first token alone), else with all.  Each is
    built once per process: parse_args leaves a parser as it was, and a
    token naming no command keys the full one, so at most seven are kept."""
    return _parser(command if command in _COMMANDS else None)


@functools.cache
def _parser(command: str | None) -> _Parser:
    # allow_abbrev=False on each parser: '--n' is not '--nu'
    parser = _Parser(prog="pgn", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, func) in _COMMANDS.items():
        if command is not None and name != command:
            continue
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        add_args(p)
        p.set_defaults(func=func)
    return parser


def _attach_negative_values(argv) -> list[str]:
    """'--x -1/3' as '--x=-1/3'.  No pgn option starts with '-' and a digit,
    so such a token is always a value, but argparse takes every one that is
    not a plain number (-1/3, -1:0:1/2) for an option."""
    out: list[str] = []
    for token in argv:
        if (token[:1] == "-" and token[1:2].isdigit() and out
                and out[-1].startswith("--") and out[-1] != "--"
                and "=" not in out[-1]):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def run(argv) -> int:
    argv = _attach_negative_values(argv)
    parser = _build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (PgnError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
