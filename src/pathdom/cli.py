"""Command-line front end.

Subcommands: gamma, classify, pa, profile, regions, verify, gen.
Graph input is graph6 or an edge list ("-" reads standard input; the
format is auto-detected unless --format says otherwise).  Exit status:
0 success, 1 counterexample or assertion failure, 2 usage/input error.

Each single-graph command is one row of GRAPH_COMMANDS: its answer for a
graph is exactly what --json prints, and its text view is rendered from
that same answer.
"""

import argparse
import functools
import json
import sys
from typing import Callable, NamedTuple

from .domination import classify_vertices, domination_number, minimum_dominating_set
from .families import generate_family, parse_family_spec
from .formats import GraphFormatError, emit_edge_list, emit_graph6, jsonable, load_graphs
from .graphs import DEFAULT_ENUMERATION_CAP
from .oracle import classify_regions, predict_pair
from .path_addition import path_addition_number, path_addition_profile
from .verify import CorpusSpec, DEFAULT_SUITES, SUITES, run_verification

__all__ = ["main"]


def _read_graphs(path: str, fmt: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    return load_graphs(text, fmt)


def _fmt_set(s) -> str:
    return "{" + ", ".join(map(str, sorted(s))) + "}"


def _yes(flag) -> str:
    return "yes" if flag else "no"


# -- single-graph commands: an answer per graph, and its text view -------------


def _gamma(g, args):
    return {"gamma": domination_number(g), "witness": minimum_dominating_set(g)}


def _gamma_text(g, a) -> str:
    return f"gamma = {a['gamma']}  witness = {_fmt_set(a['witness'])}"


def _classify(g, args):
    return {"schema": "pathdom-report/1", "graph6": emit_graph6(g), "n": g.n,
            **classify_vertices(g)._asdict()}


def _classify_text(g, a) -> str:
    return "\n".join([
        _gamma_text(g, a),
        f"independent domination number = {a['independent_domination_number']}"
        f"  strong equality = {_yes(a['strong_equality'])}",
        "vertex  good  critical",
        *(f"{v:>6}  {_yes(a['good'][v]):<4}  {_yes(a['critical'][v])}" for v in range(g.n)),
        f"critical set = {_fmt_set(a['critical_vertices'])}",
    ])


def _pa(g, args):
    pred = predict_pair(g, args.u, args.v)  # rejects a pair that is not two vertices of g
    direct = path_addition_number(g, args.u, args.v)
    return {"graph6": emit_graph6(g), "pair": [args.u, args.v], "adjacent": pred.adjacent,
            "direct": direct, "predicted": pred.pa, "clause": pred.clause,
            "predicted_gamma_by_k": pred.gamma_values}


def _pa_text(g, a) -> str:
    ks = " ".join(f"{k}:{'?' if val is None else val}"
                  for k, val in sorted(a["predicted_gamma_by_k"].items()))
    return "\n".join([
        f"pair ({a['pair'][0]}, {a['pair'][1]}): "
        f"{'adjacent' if a['adjacent'] else 'nonadjacent'}",
        f"  direct:    {a['direct']}",
        f"  predicted: {a['predicted']}   [{a['clause']}]",
        f"  predicted gamma by k: {ks}",
    ])


def _pa_mismatch(a):
    return "  MISMATCH between prediction and search" if a["direct"] != a["predicted"] else None


def _profile(g, args):
    return {**path_addition_profile(g)._asdict(), "graph6": emit_graph6(g)}


def _profile_text(g, a) -> str:
    cells = [f"{pair}:{pa}" for pair, pa in a["pairs"].items()]
    return "\n".join([
        f"n = {g.n}, m = {g.edge_count}",
        *("  " + "  ".join(cells[i:i + 8]) for i in range(0, len(cells), 8)),
        f"adjacent min/max = {a['min_adjacent']}/{a['max_adjacent']}",
        f"nonadjacent min/max = {a['min_nonadjacent']}/{a['max_nonadjacent']}",
    ])


def _regions(g, args):
    rc = classify_regions(g)
    return {"graph6": emit_graph6(g), **rc._asdict()}


def _regions_text(g, a) -> str:
    # in_a, in_a1, ... print as A, A1, ...
    flags = " ".join(f"{k[3:].upper()}={_yes(v)}" for k, v in a.items() if k.startswith("in_"))
    return f"region = {a['region']}   [{flags}]"


class _GraphCommand(NamedTuple):
    """A single-graph subcommand.  ``answer(g, args)``, through
    formats.jsonable, is what --json prints; ``text(g, answer)`` renders the
    same answer; ``problem(answer)`` names a failed cross-check, or None."""

    help: str
    answer: Callable
    text: Callable
    options: tuple = ()  # (flags, add_argument keywords) after --format
    json: bool = True
    problem: Callable | None = None


_PAIR = tuple(((flag,), {"type": int, "required": True}) for flag in ("-u", "-v"))

GRAPH_COMMANDS = {
    "gamma": _GraphCommand("domination number and a witness set", _gamma, _gamma_text,
                           json=False),
    "classify": _GraphCommand("per-vertex domination classification", _classify,
                              _classify_text),
    "pa": _GraphCommand("path addition number of one vertex pair", _pa, _pa_text,
                        options=_PAIR, problem=_pa_mismatch),
    "profile": _GraphCommand("path addition numbers of all pairs", _profile, _profile_text),
    "regions": _GraphCommand("taxonomy flags and region tag", _regions, _regions_text),
}


def _run_graph_command(cmd: _GraphCommand, args) -> int:
    """Print every input graph's answer; exit 1 when a cross-check failed on
    any of them (each one is named on stderr after its graph's output)."""
    status = 0
    for g in _read_graphs(args.file, args.format):
        answer = jsonable(cmd.answer(g, args))
        print(json.dumps(answer, indent=2) if cmd.json and args.json else cmd.text(g, answer))
        if cmd.problem and (problem := cmd.problem(answer)):
            print(problem, file=sys.stderr)
            status = 1
    return status


# -- the parser and the corpus commands ----------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pathdom",
        description="Exact domination numbers under path addition.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    for name, cmd in GRAPH_COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("file", nargs="?", default="-",
                       help="graph file, '-' for standard input (default)")
        p.add_argument("--format", choices=("auto", "graph6", "edgelist"),
                       default="auto", help="input format (default: auto-detect)")
        for flags, kwargs in cmd.options:
            p.add_argument(*flags, **kwargs)
        if cmd.json:
            p.add_argument("--json", action="store_true",
                           help="print the answer as JSON instead of text")
        p.set_defaults(run=functools.partial(_run_graph_command, cmd))

    p = sub.add_parser("gen", help="emit a named family graph")
    p.add_argument("--family", required=True,
                   help="family spec, e.g. rook(3) or corona(path(2)); "
                        "a bare name combines with --params")
    p.add_argument("--params", default="",
                   help="comma-separated integers when --family is a bare name "
                        "(circulant: n followed by the distance generators)")
    p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")
    p.set_defaults(run=_cmd_gen)

    p = sub.add_parser("verify", help="run verification suites over a corpus")
    p.add_argument("--mode", choices=("exhaustive", "random", "file", "family"),
                   default="exhaustive")
    p.add_argument("--n", default="4",
                   help="exhaustive: max n or 'lo-hi' range; random: exact n")
    p.add_argument("--connected", action="store_true",
                   help="keep only connected graphs")
    p.add_argument("--count", type=int, default=100, help="random: number of graphs")
    p.add_argument("--p", type=float, default=0.5, help="random: edge probability")
    p.add_argument("--seed", type=int, default=0, help="random: PRNG seed")
    p.add_argument("--file", default="", help="file mode: corpus path")
    p.add_argument("--file-format", choices=("auto", "graph6", "edgelist"),
                   default="auto")
    p.add_argument("--family", action="append", default=[],
                   help="family mode: family spec (repeatable)")
    p.add_argument("--suite", action="append", default=[],
                   help=f"suite name (repeatable); 'all' = {', '.join(DEFAULT_SUITES)};"
                        f" also available: "
                        f"{', '.join(s for s in SUITES if s not in DEFAULT_SUITES)}")
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP,
                   help="guard cap for exhaustive enumeration")
    p.add_argument("--max-counterexamples", type=int, default=25)
    p.add_argument("--json", default="",
                   help="write the JSON report to this path ('-' prints JSON only)")
    p.set_defaults(run=_cmd_verify)
    return ap


def _cmd_gen(args) -> int:
    text = args.family.strip()
    if "(" not in text:
        text = f"{text}({args.params})"
    g = generate_family(parse_family_spec(text))
    if args.format == "graph6":
        print(emit_graph6(g))
    else:
        sys.stdout.write(emit_edge_list(g))
    return 0


def _parse_n_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.strip().partition("-")
    if not lo.isdecimal() or (sep and not hi.isdecimal()):
        raise ValueError(f"--n takes N or LO-HI with nonnegative integers, got {text!r}")
    return (int(lo), int(hi)) if sep else (0, int(lo))


def _cmd_verify(args) -> int:
    if args.mode == "exhaustive":
        n_min, n_max = _parse_n_range(args.n)
        spec = CorpusSpec.exhaustive(n_max, n_min, connected_only=args.connected,
                                     cap=args.cap)
    elif args.mode == "random":
        if not args.n.strip().isdecimal():
            raise ValueError(f"--n takes one nonnegative integer in random mode, "
                             f"got {args.n!r}")
        spec = CorpusSpec.random(int(args.n), args.p, args.count, args.seed,
                                 connected_only=args.connected)
    elif args.mode == "file":
        if not args.file:
            raise ValueError("--mode file needs --file")
        spec = CorpusSpec.from_file(args.file, args.file_format)
    else:
        if not args.family:
            raise ValueError("--mode family needs at least one --family")
        spec = CorpusSpec.from_families(args.family)
    suites = args.suite or ["all"]
    report = run_verification(spec, suites,
                              max_counterexamples=args.max_counterexamples)
    if not any(st["graphs"] for st in report.suite_stats.values()):
        reason = "the corpus holds no graph, so nothing was verified"
        if report.input_errors:
            reason += f"; first input error: {report.input_errors[0]['error']}"
        raise ValueError(reason)
    if args.json == "-":
        print(report.to_json())
    else:
        print(report.table())
        if args.json:
            with open(args.json, "w", encoding="ascii") as fh:
                fh.write(report.to_json())
            print(f"json report written to {args.json}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
