"""Command-line front end.

Subcommands: gamma, classify, pa, profile, regions, verify, gen.
Graph input is graph6 or an edge list ("-" reads standard input; the
format is auto-detected unless --format says otherwise).  Exit status:
0 success, 1 counterexample or assertion failure, 2 usage/input error.
"""

import argparse
import json
import sys

from .domination import classify_vertices, domination_number, minimum_dominating_set
from .families import generate_family, parse_family_spec
from .formats import GraphFormatError, emit_edge_list, emit_graph6, load_graphs
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


def _add_input_args(p):
    p.add_argument("file", nargs="?", default="-",
                   help="graph file, '-' for standard input (default)")
    p.add_argument("--format", choices=("auto", "graph6", "edgelist"),
                   default="auto", help="input format (default: auto-detect)")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pathdom",
        description="Exact domination numbers under path addition.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gamma", help="domination number and a witness set")
    _add_input_args(p)

    p = sub.add_parser("classify", help="per-vertex domination classification")
    _add_input_args(p)
    p.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    p = sub.add_parser("pa", help="path addition number of one vertex pair")
    _add_input_args(p)
    p.add_argument("-u", type=int, required=True)
    p.add_argument("-v", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("profile", help="path addition numbers of all pairs")
    _add_input_args(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("regions", help="taxonomy flags and region tag")
    _add_input_args(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("gen", help="emit a named family graph")
    p.add_argument("--family", required=True,
                   help="family spec, e.g. rook(3) or corona(path(2)); "
                        "a bare name combines with --params")
    p.add_argument("--params", default="",
                   help="comma-separated integers when --family is a bare name "
                        "(circulant: n followed by the distance generators)")
    p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6")

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
    p.add_argument("--cap", type=int, default=6,
                   help="guard cap for exhaustive enumeration")
    p.add_argument("--max-counterexamples", type=int, default=25)
    p.add_argument("--json", default="",
                   help="write the JSON report to this path ('-' prints JSON only)")
    return ap


def _fmt_set(s) -> str:
    return "{" + ", ".join(map(str, sorted(s))) + "}"


def _cmd_gamma(args) -> int:
    for g in _read_graphs(args.file, args.format):
        print(f"gamma = {domination_number(g)}  "
              f"witness = {_fmt_set(minimum_dominating_set(g))}")
    return 0


def _report_dict(g, rep) -> dict:
    return {
        "schema": "pathdom-report/1",
        "graph6": emit_graph6(g),
        "n": g.n,
        "gamma": rep.gamma,
        "witness": sorted(rep.witness),
        "good": list(rep.good),
        "bad": list(rep.bad),
        "critical": list(rep.critical),
        "critical_vertices": sorted(rep.critical_vertices),
        "independent_domination_number": rep.independent_domination_number,
        "strong_equality": rep.strong_equality,
    }


def _cmd_classify(args) -> int:
    for g in _read_graphs(args.file, args.format):
        rep = classify_vertices(g)
        if args.json:
            print(json.dumps(_report_dict(g, rep), indent=2))
            continue
        print(f"gamma = {rep.gamma}  witness = {_fmt_set(rep.witness)}")
        print(f"independent domination number = {rep.independent_domination_number}"
              f"  strong equality = {'yes' if rep.strong_equality else 'no'}")
        print("vertex  good  critical")
        for v in range(g.n):
            print(f"{v:>6}  {'yes' if rep.good[v] else 'no':<4}"
                  f"  {'yes' if rep.critical[v] else 'no'}")
        print(f"critical set = {_fmt_set(rep.critical_vertices)}")
    return 0


def _cmd_pa(args) -> int:
    mismatched = False
    for g in _read_graphs(args.file, args.format):
        u, v = args.u, args.v
        pred = predict_pair(g, u, v)  # rejects a pair that is not two vertices of g
        direct = path_addition_number(g, u, v)
        if args.json:
            print(json.dumps({
                "graph6": emit_graph6(g),
                "pair": [u, v],
                "adjacent": pred.adjacent,
                "direct": direct,
                "predicted": pred.pa,
                "clause": pred.clause,
                "predicted_gamma_by_k": {
                    str(k): val for k, val in pred.gamma_values.items()
                },
            }, indent=2))
        else:
            kind = "adjacent" if pred.adjacent else "nonadjacent"
            print(f"pair ({u}, {v}): {kind}")
            print(f"  direct:    {direct}")
            print(f"  predicted: {pred.pa}   [{pred.clause}]")
            ks = " ".join(
                f"{k}:{'?' if val is None else val}"
                for k, val in sorted(pred.gamma_values.items())
            )
            print(f"  predicted gamma by k: {ks}")
        if direct != pred.pa:
            print("  MISMATCH between prediction and search", file=sys.stderr)
            mismatched = True
    return 1 if mismatched else 0


def _cmd_profile(args) -> int:
    for g in _read_graphs(args.file, args.format):
        prof = path_addition_profile(g)
        if args.json:
            d = prof.to_json_dict()
            d["graph6"] = emit_graph6(g)
            print(json.dumps(d, indent=2))
            continue
        print(f"n = {g.n}, m = {g.edge_count}")
        cells = [f"{u}-{v}:{pa}" for (u, v), pa in prof.pairs.items()]
        for i in range(0, len(cells), 8):
            print("  " + "  ".join(cells[i:i + 8]))
        agg = prof.to_json_dict()
        print(f"adjacent min/max = {agg['min_adjacent']}/{agg['max_adjacent']}")
        print(f"nonadjacent min/max = {agg['min_nonadjacent']}/{agg['max_nonadjacent']}")
    return 0


def _cmd_regions(args) -> int:
    for g in _read_graphs(args.file, args.format):
        rc = classify_regions(g)
        if args.json:
            print(json.dumps({
                "graph6": emit_graph6(g),
                "in_a": rc.in_a, "in_a1": rc.in_a1,
                "in_a2": rc.in_a2, "in_a3": rc.in_a3,
                "region": rc.region,
            }, indent=2))
            continue
        flags = " ".join(
            f"{name}={'yes' if val else 'no'}"
            for name, val in (("A", rc.in_a), ("A1", rc.in_a1),
                              ("A2", rc.in_a2), ("A3", rc.in_a3))
        )
        print(f"region = {rc.region}   [{flags}]")
    return 0


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
        spec = CorpusSpec(mode="exhaustive", n_min=n_min, n_max=n_max,
                          connected_only=args.connected, cap=args.cap)
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


_COMMANDS = {
    "gamma": _cmd_gamma,
    "classify": _cmd_classify,
    "pa": _cmd_pa,
    "profile": _cmd_profile,
    "regions": _cmd_regions,
    "gen": _cmd_gen,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (GraphFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
