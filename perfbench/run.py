"""pathdom benchmark: time to a verdict and CLI query latency, with an
optional traced pass that splits the time over pathdom's layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads: random-n16-oracle, families-cli.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name with its unit.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer metrics.  See
perfbench/README.md.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
TRACED_PASSES = 2

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "checks_per_s": "1/s",
    "graphs_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def _median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a nonempty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def _outcome(passes):
    """(operations attempted, one message per failed operation)."""
    return sum(p.attempted for p in passes), [msg for p in passes for msg in p.problems]


def _peak_rss_mb():
    """ru_maxrss (KiB on Linux) of this process and of its largest child."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024


def measure_setup(workload, seed, workdir):
    """Median of SETUP_PROBES fresh processes that import pathdom and build inputs."""
    times = []
    for i in range(SETUP_PROBES):
        probe_dir = Path(workdir) / f"probe-{i}"
        probe_dir.mkdir()
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(probe_dir)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return _median(times)


def run_passes(w, inputs, seconds):
    passes = []
    start = time.perf_counter()
    while len(passes) < w.min_passes or time.perf_counter() - start < seconds:
        passes.append(w.run_pass(inputs))
    return passes


def best_units(passes, attr):
    """Each unit's least time over the rounds that measured it.

    The same units recur in every round; a round cut short by a failure
    measures fewer and is left out.  On a shared host, neighbours slow
    whole stretches of a run, so the least time of a unit is far steadier
    between runs than its median.
    """
    full = max(len(getattr(p, attr)) for p in passes)
    rounds = [getattr(p, attr) for p in passes if len(getattr(p, attr)) == full]
    return [min(times) for times in zip(*rounds)]


def e2e_metrics(w, args, workdir):
    setup_s = measure_setup(w.name, args.seed, workdir)
    inputs = w.build_inputs(args.seed, workdir)
    passes = run_passes(w, inputs, args.seconds)
    rss = _peak_rss_mb()
    w.finish(inputs, passes)
    wall = best_units(passes, "unit_wall_s")
    latencies = wall[passes[0].query_units]
    wall_s = sum(wall)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": sum(best_units(passes, "unit_cpu_s")),
        "checks_per_s": _median([p.checks for p in passes]) / wall_s,
        "graphs_per_s": _median([p.graphs for p in passes]) / wall_s,
        "query_p50_ms": 1000 * _median(latencies),
        "query_p90_ms": 1000 * percentile(latencies, 90),
        "peak_rss_mb": rss,
    }
    notes = [
        f"rounds: {len(passes)}, wall_s each: " + " ".join(f"{p.wall_s:.3f}" for p in passes),
        f"units per round: {len(wall)}, query samples: {len(latencies)} "
        f"({'corpus graphs' if w.kind == 'verify' else 'CLI commands'}), "
        "each the least over the rounds",
    ]
    return {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, _outcome(passes), notes


def layer_metrics(w, args, workdir):
    """Untraced and traced passes on the same inputs; per-layer metrics."""
    from spans import LAYERS, Tracer
    import pathdom.verify

    inputs = w.build_inputs(args.seed, workdir)
    untraced, traced = [], []
    start = time.perf_counter()
    while len(traced) < TRACED_PASSES or time.perf_counter() - start < args.seconds:
        untraced.append(w.run_pass(inputs, latencies=False))
        tracer = Tracer()
        with tracer:
            if w.kind == "cli":
                rebuild = Path(workdir) / f"traced-{len(traced)}"
                rebuild.mkdir()
                w.build_inputs(args.seed, str(rebuild))
            res = w.run_pass(inputs, latencies=False)
        traced.append((res, tracer))
    w.finish(inputs, untraced + [res for res, _ in traced])
    attempted, problems = _outcome(untraced + [res for res, _ in traced])

    # each later traced pass is one more operation: its counts must repeat exactly
    first_res, first = traced[0]
    baseline = {**first.counts(), **first_res.work()}
    for res, tracer in traced[1:]:
        attempted += 1
        counts = {**tracer.counts(), **res.work()}
        if counts != baseline:
            diff = sorted(k for k in set(counts) | set(baseline) if counts.get(k) != baseline.get(k))
            problems.append(f"deterministic counts differ between traced passes: {diff[:8]}")

    def med(fn):
        return _median([fn(res, tr) for res, tr in traced])

    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (first.layer_calls[layer], "count")
        m[f"{layer}.self_s"] = (med(lambda r, t, layer=layer: t.layer_self[layer]), "s")
    solve_calls = (first.fn_calls[("domination", "domination_number")]
                   + first.fn_calls[("domination", "constrained_domination_number")])
    solves = first.solves["domination"]
    oracle_solves = first.solves["oracle"]
    search_solves = first.solves["path_addition"]
    m.update({
        "graphs.delete_vertices_calls": (first.fn_calls[("graphs", "delete_vertices")], "count"),
        "path_addition.add_path_calls": (first.fn_calls[("path_addition", "add_path")], "count"),
        "path_addition.search_solves": (search_solves, "count"),
        "domination.solves": (solves, "count"),
        "domination.cache_hit_ratio": (1 - solves / solve_calls if solve_calls else 0.0, "ratio"),
        "domination.classify_calls": (first.fn_calls[("domination", "classify_vertices")], "count"),
        "domination.classify_s": (
            med(lambda r, t: t.fn_incl[("domination", "classify_vertices")]), "s"),
        "oracle.solves": (oracle_solves, "count"),
        "oracle.solve_ratio": (oracle_solves / search_solves if search_solves else 0.0, "ratio"),
    })
    suites = pathdom.verify.DEFAULT_SUITES
    for suite in suites:
        m[f"verify.suite.{suite}_s"] = (
            med(lambda r, t, s=suite: t.fn_incl[("verify", f"suite.{s}")]), "s")
        m[f"verify.report.{suite}_s"] = (
            med(lambda r, t, s=suite: r.report_suite_s.get(s, 0.0)), "s")
    # the share of solves charged to whichever suite runs first on each graph
    suite_solves = sum(first.solves[f"suite.{s}"] for s in suites)
    first_suite = w.suites[0] if w.kind == "verify" else None
    m["verify.first_suite_solve_share"] = (
        first.solves[f"suite.{first_suite}"] / suite_solves if suite_solves else 0.0, "ratio")
    traced_wall = _median([res.wall_s for res, _ in traced])
    m["trace_overhead_ratio"] = (traced_wall / _median([p.wall_s for p in untraced]) - 1, "ratio")

    notes = [f"untraced passes: {len(untraced)}, traced passes: {len(traced)}"]
    if w.kind == "verify":
        notes.append("suite time, benchmark span vs the report's per_suite_seconds, "
                     "and solves first made in the suite:")
        for suite in suites:
            if m[f"verify.suite.{suite}_s"][0]:
                notes.append(f"  {suite:<28} span {m[f'verify.suite.{suite}_s'][0]:8.3f} s"
                             f"   report {m[f'verify.report.{suite}_s'][0]:8.3f} s"
                             f"   solves {first.solves[f'suite.{suite}']:>8}")
    notes.append("deterministic counts: " + json.dumps(baseline, sort_keys=True))
    return m, (attempted, problems), notes


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed (default: the one recorded in perfbench/reference.json)")
    ap.add_argument("--seconds", type=float, default=50.0,
                    help="keep starting rounds until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "pathdom" / "__init__.py").is_file():
        print(f"error: pathdom sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    table = workloads.workloads()
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(table)}",
              file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = workloads.REFERENCE["default_seed"]
    w = table[args.workload]

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        collect = layer_metrics if args.trace else e2e_metrics
        metrics, (attempted, problems), notes = collect(w, args, workdir)
    failed = len(problems)

    print(f"workload: {w.name}  seed: {args.seed}  trace: {args.trace}")
    print(f"machine: nproc={os.cpu_count()} python={platform.python_version()}")
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<40} {value:>14.6g} {unit}")
    print(f"{'failed_ratio':<40} {failed / attempted:>14.6g} ({failed}/{attempted} operations)")
    for msg in problems[:10]:
        print(f"  failed: {msg}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
