"""Corpus verification runner: re-derives every documented identity on a
corpus of graphs and reports counterexamples as replayable graph6 strings.

A suite is a function Graph -> (checks, failures); failures are dicts
that, together with the graph6 string the runner attaches, fully
reproduce the discrepancy through the single-graph CLI commands.
"""

import functools
import json
import os
import random
import time
from itertools import combinations, islice
from typing import NamedTuple

from . import oracle
from .domination import (
    all_minimum_sets_cliques,
    classify_vertices,
    clear_caches,
    constrained_domination_number,
    domination_number,
    domination_number_at_most,
    independent_domination_number,
    is_dominating,
    minimum_dominating_set,
)
from .families import generate_family, parse_family_spec
from .formats import GraphFormatError, emit_graph6, iter_entries, jsonable
from .graphs import Graph, enumerate_labeled_graphs, from_edge_mask, subdivide_edge
from .path_addition import (
    INFINITE,
    add_path,
    check_sum_bounds,
    domination_after_path,
    path_addition_number,
    path_addition_profile,
)

__all__ = [
    "CorpusSpec",
    "VerificationReport",
    "SUITES",
    "DEFAULT_SUITES",
    "iter_corpus",
    "run_verification",
    "WORKERS_ENV",
]

WORKERS_ENV = "PATHDOM_WORKERS"
SCHEMA = "pathdom-verify/1"
PRNG_NAME = "python-random-mt19937"
NAIVE_CROSS_CHECK_MAX_N = 6
# the largest n of an exhaustive corpus: n = 7 alone has 2,097,152 labeled graphs
_EXHAUSTIVE_MAX_N = 6
# consecutive disconnected draws after which a --connected corpus gives up
MAX_CONSECUTIVE_REJECTIONS = 10_000
# corpus graphs handed to the worker pool at a time
POOL_WINDOW = 512


# -- corpora -------------------------------------------------------------------


class CorpusSpec(NamedTuple):
    """A reproducible corpus of graphs.

    mode "exhaustive": all labeled graphs with n_min <= n <= n_max, where
        n_max is at most 6; larger n go through file corpora.
    mode "random": ``count`` graphs on ``n`` vertices, each pair an edge
        with probability ``edge_probability``, fully determined by ``seed``.
    mode "file": graphs read from ``path`` (graph6 lines or one edge list).
    mode "family": the listed family spec strings, e.g. ("crown(3)",).
    """

    mode: str
    n_min: int = 0
    n_max: int = 0
    n: int = 0
    connected_only: bool = False
    count: int = 0
    edge_probability: float = 0.0
    seed: int = 0
    path: str = ""
    fmt: str = "auto"
    families: tuple[str, ...] = ()

    @classmethod
    def exhaustive(cls, n_max, n_min=0, connected_only=False):
        return cls(
            mode="exhaustive",
            n_min=n_min,
            n_max=n_max,
            connected_only=connected_only,
        )

    @classmethod
    def random(cls, n, edge_probability, count, seed, connected_only=False):
        return cls(
            mode="random",
            n=n,
            edge_probability=edge_probability,
            count=count,
            seed=seed,
            connected_only=connected_only,
        )

    @classmethod
    def from_file(cls, path, fmt="auto"):
        return cls(mode="file", path=path, fmt=fmt)

    @classmethod
    def from_families(cls, families):
        return cls(mode="family", families=tuple(str(f) for f in families))

    def config_dict(self) -> dict:
        cfg = {"mode": self.mode}
        if self.mode == "exhaustive":
            cfg.update(
                n_min=self.n_min,
                n_max=self.n_max,
                connected_only=self.connected_only,
                cap=_EXHAUSTIVE_MAX_N,
            )
        elif self.mode == "random":
            cfg.update(
                n=self.n,
                edge_probability=self.edge_probability,
                count=self.count,
                seed=self.seed,
                connected_only=self.connected_only,
                prng=PRNG_NAME,
            )
        elif self.mode == "file":
            cfg.update(path=self.path, format=self.fmt)
        elif self.mode == "family":
            cfg.update(families=list(self.families))
        return cfg


def random_graph(n: int, edge_probability: float, rng: random.Random) -> Graph:
    mask = 0
    for i in range(n * (n - 1) // 2):
        if rng.random() < edge_probability:
            mask |= 1 << i
    return from_edge_mask(n, mask)


def _entries(spec: CorpusSpec):
    """Yield (index, line, entry) one at a time: ``entry`` is a Graph or a
    malformed file entry's GraphFormatError, ``line`` a graph6 file entry's
    line number (else None); indices count malformed entries too."""
    if spec.mode == "exhaustive":
        # fail before the first graph, not after grinding through smaller n
        if not 0 <= spec.n_min <= spec.n_max:
            raise ValueError(
                f"exhaustive corpora need 0 <= n_min <= n_max, "
                f"got n_min={spec.n_min}, n_max={spec.n_max}"
            )
        if spec.n_max > _EXHAUSTIVE_MAX_N:
            raise ValueError(
                f"exhaustive corpora stop at n={_EXHAUSTIVE_MAX_N}, got n={spec.n_max}; "
                f"verify larger n through a file corpus (--mode file), such as "
                f"the networkx graph atlas"
            )
        idx = 0
        for n in range(spec.n_min, spec.n_max + 1):
            for g in enumerate_labeled_graphs(n, spec.connected_only):
                yield idx, None, g
                idx += 1
    elif spec.mode == "random":
        if spec.n < 0 or spec.count < 1 or not 0 <= spec.edge_probability <= 1:
            raise ValueError(
                "random corpora need n >= 0, count >= 1 and 0 <= p <= 1; got "
                f"n={spec.n}, count={spec.count}, p={spec.edge_probability}"
            )
        # rejection sampling would never end
        if spec.connected_only and spec.n >= 2 and spec.edge_probability == 0:
            raise ValueError("p=0 yields no connected graph on 2 or more vertices")
        rng = random.Random(spec.seed)
        produced = rejected = 0
        while produced < spec.count:
            g = random_graph(spec.n, spec.edge_probability, rng)
            if spec.connected_only and not g.is_connected():
                rejected += 1
                if rejected >= MAX_CONSECUTIVE_REJECTIONS:
                    raise ValueError(
                        f"{rejected} draws in a row at n={spec.n}, "
                        f"p={spec.edge_probability} were disconnected; "
                        f"raise p for a connected corpus"
                    )
                continue
            rejected = 0
            yield produced, None, g
            produced += 1
    elif spec.mode == "file":
        with open(spec.path, "r", encoding="ascii", errors="replace") as fh:
            for idx, (line, entry) in enumerate(iter_entries(fh, spec.fmt)):
                yield idx, line, entry
    elif spec.mode == "family":
        for idx, text in enumerate(spec.families):
            yield idx, None, generate_family(parse_family_spec(text))
    else:
        raise ValueError(f"unknown corpus mode {spec.mode!r}")


def iter_corpus(spec: CorpusSpec):
    """Yield (index, graph) pairs; deterministic for a fixed spec.  A
    malformed entry of a file corpus raises its GraphFormatError."""
    for idx, _, entry in _entries(spec):
        if isinstance(entry, GraphFormatError):
            raise entry
        yield idx, entry


def _graphs(spec: CorpusSpec, input_errors: list):
    """The corpus graphs; each malformed entry goes to ``input_errors``."""
    for idx, line, entry in _entries(spec):
        if isinstance(entry, GraphFormatError):
            at = {"entry": idx} if line is None else {"entry": idx, "line": line}
            input_errors.append({**at, "error": str(entry)})
        else:
            yield entry


# -- suites --------------------------------------------------------------------


class _Recorder:
    """Counts a suite's checks and keeps its failure records."""

    def __init__(self):
        self.checks = 0
        self.fails = []

    def __call__(self, ok, check, expected, actual, *, pair=None, k=None, clause=None):
        """Count one check; when it fails, record it with the keys in report
        order: check, pair, k, expected, actual, clause (absent ones left out)."""
        self.checks += 1
        if ok:
            return
        rec = {"check": check}
        if pair is not None:
            rec["pair"] = list(pair)
        if k is not None:
            rec["k"] = k
        rec["expected"] = expected
        rec["actual"] = actual
        if clause is not None:
            rec["clause"] = clause
        self.fails.append(rec)


def _suite(skip=None):
    """Turn ``body(g, expect)`` into a suite Graph -> (checks, failures) that
    makes no check on the graphs ``skip`` selects."""

    def wrap(body):
        @functools.wraps(body)
        def suite(g: Graph):
            if skip is not None and skip(g):
                return 0, []
            expect = _Recorder()
            body(g, expect)
            return expect.checks, expect.fails

        return suite

    return wrap


def _tiny(g: Graph) -> bool:
    """Fewer than two vertices: no pair to glue a path between."""
    return g.n < 2


@_suite(skip=_tiny)
def suite_oracle_equivalence(g: Graph, expect):
    """Predicted gamma-after-path equals the solver for every pair and every
    covered k, and the predicted pair value equals the scanned one."""
    gamma = domination_number(g)
    for u, v in combinations(range(g.n), 2):
        pred = oracle.predict_pair(g, u, v)
        for k, value in pred.gamma_values.items():
            if value is None:  # the one k the rules leave open
                continue
            actual = domination_after_path(g, u, v, k)
            expect(value == actual, "gamma-after-path", actual, value, pair=(u, v), k=k)
        if not pred.adjacent and pred.gamma_values[1] == gamma + 1:
            # the first inserted vertex must be critical in the k=1 graph
            h = add_path(g, u, v, 1)
            critical = domination_number_at_most(h, domination_number(h) - 1, delete=(g.n,))
            expect(critical, "inserted-vertex-critical", "critical", "not critical",
                   pair=(u, v), k=1)
        pa = path_addition_number(g, u, v)
        expect(pred.pa == pa, "path-addition-number", pa, pred.pa,
               pair=(u, v), clause=pred.clause)


@_suite(skip=_tiny)
def suite_adjacent_k3(g: Graph, expect):
    """Three inserted vertices between adjacent endpoints always raise gamma by one."""
    gamma = domination_number(g)
    for u, v in g.edges():
        got = domination_after_path(g, u, v, 3)
        expect(got == gamma + 1, "adjacent-k3", gamma + 1, got, pair=(u, v), k=3)


@_suite(skip=_tiny)
def suite_long_paths(g: Graph, expect):
    """Five or more inserted vertices always raise gamma (nonadjacent pairs)."""
    gamma = domination_number(g)
    for u, v in g.non_edges():
        for k in (5, 6):
            got = domination_after_path(g, u, v, k)
            expect(got > gamma, "long-path-rise", f"> {gamma}", got, pair=(u, v), k=k)


@_suite(skip=_tiny)
def suite_chains(g: Graph, expect):
    """The gamma-after-path sequence is nondecreasing in k; k=0 keeps gamma
    for adjacent pairs and loses at most one for nonadjacent ones."""
    gamma = domination_number(g)
    for u, v in combinations(range(g.n), 2):
        values = [domination_after_path(g, u, v, k) for k in range(6)]
        if g.has_edge(u, v):
            start_ok = values[0] == gamma
        else:
            start_ok = gamma - 1 <= values[0] <= gamma
        expect(start_ok and all(a <= b for a, b in zip(values, values[1:])), "chain",
               "nondecreasing with anchored start", values, pair=(u, v))


@_suite(skip=_tiny)
def suite_aggregate_bounds(g: Graph, expect):
    """Profile aggregates sit inside their documented windows."""
    prof = path_addition_profile(g)
    within = "within bounds"
    adjacent = [prof.min_adjacent, prof.max_adjacent]
    nonadjacent = [prof.min_nonadjacent, prof.max_nonadjacent]
    expect(prof.min_adjacent <= prof.max_adjacent, "min<=max-adjacent", within, adjacent)
    expect(prof.min_nonadjacent <= prof.max_nonadjacent, "min<=max-nonadjacent", within,
           nonadjacent)
    if g.is_edgeless():
        expect(adjacent == [INFINITE, INFINITE], "edgeless-adjacent-infinite", within,
               adjacent)
    else:
        expect(1 <= prof.min_adjacent <= 3, "min-adjacent-window", within, prof.min_adjacent)
        expect(2 <= prof.max_adjacent <= 3, "max-adjacent-window", within, prof.max_adjacent)
    if g.is_complete():
        expect(nonadjacent == [INFINITE, INFINITE], "complete-nonadjacent-infinite", within,
               nonadjacent)
    else:
        expect(1 <= prof.min_nonadjacent <= prof.max_nonadjacent <= 5,
               "nonadjacent-window", within, nonadjacent)


@_suite(skip=_tiny)
def suite_aggregate_characterizations(g: Graph, expect):
    """Closed-form aggregates agree with the solver profile, and the
    individual equivalences behind them hold."""
    prof = path_addition_profile(g)
    agg = oracle.characterize_aggregates(g)
    for name in ("min_adjacent", "max_adjacent", "min_nonadjacent", "max_nonadjacent"):
        pred, act = getattr(agg, name), getattr(prof, name)
        expect(pred == act, f"aggregate:{name}", act, pred, clause=list(agg.fired))
    rep = classify_vertices(g)
    equivalences = []
    if not g.is_edgeless():
        equivalences += [
            ("max-adjacent=2<->strong-equality",
             prof.max_adjacent == 2, rep.strong_equality),
            ("max-adjacent=3<->dependent-minimum-set",
             prof.max_adjacent == 3, not rep.strong_equality),
        ]
    if not g.is_complete():
        # gamma(g - {u, v}) >= gamma - 2, so a set of gamma - 2 vertices
        # decides it; every pair is searched, independent of the oracle's lemma
        drop2 = any(
            domination_number_at_most(g, rep.gamma - 2, delete=(u, v))
            for u, v in g.non_edges()
        )
        equivalences += [
            ("max-nonadjacent=1<->gamma-1", prof.max_nonadjacent == 1, rep.gamma == 1),
            ("max-nonadjacent=2<->clique-sets",
             prof.max_nonadjacent == 2,
             rep.gamma >= 2 and all_minimum_sets_cliques(g)),
            ("max-nonadjacent=5<->pair-deletion-drops-two",
             prof.max_nonadjacent == 5, drop2),
            ("min-nonadjacent=5<->edgeless",
             prof.min_nonadjacent == 5, g.is_edgeless()),
        ]
    equivalences.append(
        ("uniform-nonadjacent-three",
         prof.min_nonadjacent == 3 and prof.max_nonadjacent == 3,
         oracle.all_nonadjacent_pa_three(g))
    )
    for name, lhs, rhs in equivalences:
        expect(lhs == rhs, name, lhs, rhs)


@_suite(skip=Graph.is_edgeless)
def suite_regions(g: Graph, expect):
    """Taxonomy flags are internally consistent and match the solver profile."""
    rc = oracle.classify_regions(g)
    prof = path_addition_profile(g)
    expect(rc.in_a == (prof.min_adjacent == 3), "in-a-matches-profile", True,
           f"in_a={rc.in_a}, min_adjacent={prof.min_adjacent}")
    expect((not rc.in_a3) or rc.in_a1, "a3-implies-a1", True, False)
    expect((not (rc.in_a1 or rc.in_a2)) or rc.in_a, "a1-or-a2-implies-a", True, False)
    expect((not rc.in_a1) or prof.min_adjacent == 3, "a1-implies-min-adjacent-3", True, False)
    expect((not rc.in_a3) or prof.min_adjacent == 3, "vc-implies-min-adjacent-3", True, False)
    expect(rc.region in oracle.REGION_TAGS, "region-tag-valid", True, rc.region or False)
    expect(rc.in_a == (rc.region != "NotInA"), "region-membership-consistent", True, False)


@_suite()
def suite_subdivision(g: Graph, expect):
    """Subdividing any edge never lowers the domination number."""
    gamma = domination_number(g)
    for u, v in g.edges():
        got = domination_number(subdivide_edge(g, u, v))
        expect(got >= gamma, "subdivision-monotone", f">= {gamma}", got, pair=(u, v))


@_suite()
def suite_edge_addition(g: Graph, expect):
    """Adding one edge moves the domination number by at most one, downward."""
    gamma = domination_number(g)
    for u, v in g.non_edges():
        got = domination_number(add_path(g, u, v, 0))
        expect(gamma - 1 <= got <= gamma, "edge-addition-window",
               f"in [{gamma - 1}, {gamma}]", got, pair=(u, v))


@_suite()
def suite_vertex_deletion(g: Graph, expect):
    """Deleting a vertex outside every minimum set keeps gamma; deleting a
    critical vertex makes all its neighbors bad in the smaller graph."""
    rep = classify_vertices(g)
    for v in range(g.n):
        gamma_v = constrained_domination_number(g, delete=(v,))
        if rep.bad[v]:
            expect(gamma_v == rep.gamma, "bad-deletion-neutral", rep.gamma, gamma_v,
                   pair=(v,))
        if rep.critical[v]:
            for w in g.neighbors(v):
                good = constrained_domination_number(g, include=(w,), delete=(v,)) == gamma_v
                expect(not good, "critical-neighbors-bad", "bad after deletion", "good",
                       pair=(v, w))


def _brute_minimum_sets(g: Graph) -> list[frozenset[int]]:
    """Independent reference: every dominating subset of the least size that
    has one, scanning sizes in ascending order; lexicographically ordered."""
    full = (1 << g.n) - 1
    for size in range(g.n + 1):
        sets = []
        for comb in combinations(range(g.n), size):
            dom = 0
            for v in comb:
                dom |= g.closed[v]
            if dom == full:
                sets.append(frozenset(comb))
        if sets:
            return sets
    raise AssertionError("unreachable: the full vertex set dominates")


@_suite(skip=lambda g: g.n > NAIVE_CROSS_CHECK_MAX_N)
def suite_solver_cross_check(g: Graph, expect):
    """Branch-and-bound agrees with the ascending-subsets reference (small
    n), and the derived domination machinery is self-consistent."""
    gamma = domination_number(g)
    sets = _brute_minimum_sets(g)
    naive = len(sets[0])
    expect(gamma == naive, "gamma-vs-naive", naive, gamma)
    wit = minimum_dominating_set(g)
    expect(is_dominating(g, wit) and len(wit) == gamma, "witness-valid",
           f"dominating set of size {gamma}", sorted(wit))
    expect(constrained_domination_number(g) == gamma, "unconstrained-equals-gamma",
           gamma, constrained_domination_number(g))
    expect(all(is_dominating(g, s) and len(s) == gamma for s in sets),
           "enumerated-sets-valid", "all dominating at size gamma", len(sets))
    rep = classify_vertices(g)
    in_some = set().union(*sets)
    expect(all(rep.good[v] == (v in in_some) for v in range(g.n)),
           "good-matches-enumeration", "agreement", rep.good)
    brute = all(g.is_independent_set(s) for s in sets)
    expect(rep.strong_equality == brute, "strong-equality-two-routes",
           brute, rep.strong_equality)
    expect(independent_domination_number(g) >= gamma, "independent-at-least-gamma",
           f">= {gamma}", independent_domination_number(g))
    if rep.strong_equality:
        expect(rep.independent_domination_number == gamma,
               "strong-equality-pins-independent", gamma,
               rep.independent_domination_number)


@_suite(skip=lambda g: g.is_edgeless() or g.is_complete() or not g.is_connected())
def suite_sum_bounds(g: Graph, expect):
    """Aggregate sums stay in their windows (connected noncomplete graphs)."""
    for name, ok in check_sum_bounds(g)._asdict().items():
        expect(ok, f"sum-bound:{name}", True, False)


@_suite(skip=Graph.is_edgeless)
def suite_max_adjacent_2(g: Graph, expect):
    """Fixture suite: the adjacent-pair maximum is exactly 2."""
    max_adjacent = path_addition_profile(g).max_adjacent
    expect(max_adjacent == 2, "max-adjacent-2", 2, max_adjacent)


SUITES = {
    "oracle-equivalence": suite_oracle_equivalence,
    "adjacent-k3": suite_adjacent_k3,
    "long-paths": suite_long_paths,
    "chains": suite_chains,
    "aggregate-bounds": suite_aggregate_bounds,
    "aggregate-characterizations": suite_aggregate_characterizations,
    "regions": suite_regions,
    "subdivision": suite_subdivision,
    "edge-addition": suite_edge_addition,
    "vertex-deletion": suite_vertex_deletion,
    "solver-cross-check": suite_solver_cross_check,
    "sum-bounds": suite_sum_bounds,
    "max-adjacent-2": suite_max_adjacent_2,
}

# "all" runs everything that is meaningful on arbitrary corpora; the fixture
# suite max-adjacent-2 only makes sense on hand-picked families.
DEFAULT_SUITES = tuple(name for name in SUITES if name != "max-adjacent-2")


# -- runner --------------------------------------------------------------------


class VerificationReport(NamedTuple):
    config: dict
    suite_stats: dict
    counterexamples: list
    input_errors: list
    passed: bool
    timing: dict
    timestamp: str

    def to_json_dict(self) -> dict:
        return {
            "schema": SCHEMA,
            "config": self.config,
            "suites": self.suite_stats,
            "counterexamples": self.counterexamples,
            "input_errors": self.input_errors,
            "pass": self.passed,
            "timing": self.timing,
            "timestamp": self.timestamp,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def table(self) -> str:
        lines = []
        corpus = ", ".join(f"{k}={_compact(v)}" for k, v in self.config["corpus"].items())
        lines.append(f"corpus: {corpus}")
        lines.append(f"{'suite':<30} {'graphs':>8} {'checks':>10} {'failures':>9}")
        for name, st in self.suite_stats.items():
            lines.append(
                f"{name:<30} {st['graphs']:>8} {st['checks']:>10} {st['failures']:>9}"
            )
        for ce in self.counterexamples[:10]:
            g6 = ce.get("graph6", "")
            if len(g6) > 80:  # the JSON report keeps it whole
                ce = {**ce, "graph6": f"{g6[:40]}... ({len(g6)} characters)"}
            lines.append(f"  counterexample: {_compact(ce)}")
        if len(self.counterexamples) > 10:
            lines.append(f"  ... and {len(self.counterexamples) - 10} more")
        for err in self.input_errors:
            lines.append(f"  input error: {_compact(err)}")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _compact(value) -> str:
    """One-line JSON of a report value, as the JSON report writes it."""
    return json.dumps(jsonable(value), separators=(",", ":"))


def _resolve_suites(names) -> list[str]:
    if isinstance(names, str):
        names = [names]
    available = f"available: {', '.join(SUITES)} and 'all'"
    out: list[str] = []
    for name in names:
        if name == "all":
            out.extend(s for s in DEFAULT_SUITES if s not in out)
        elif name in SUITES:
            if name not in out:
                out.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}; {available}")
    if not out:
        # no suite means no check: fail before drawing a single graph
        raise ValueError(f"no suite selected; {available}")
    return out


def _eval_graph(args):
    g, names = args
    clear_caches()
    g6 = None  # only failure records name the graph, so encode on demand
    out = []
    for name in names:
        t0 = time.perf_counter()
        try:
            checks, fails = SUITES[name](g)
        except Exception as exc:  # one broken suite must not end the run
            checks = 0
            fails = [{"check": "suite-error", "error": f"{type(exc).__name__}: {exc}"}]
        dt = time.perf_counter() - t0
        fails = [jsonable(f) for f in fails]
        if fails and g6 is None:
            g6 = emit_graph6(g)
        for f in fails:
            f["suite"] = name
            f["graph6"] = g6
        out.append((name, checks, fails, dt))
    return out


def run_verification(
    spec: CorpusSpec, suites=("all",), max_counterexamples: int = 25
) -> VerificationReport:
    names = _resolve_suites(suites)
    if max_counterexamples < 0:
        raise ValueError(
            f"--max-counterexamples must be >= 0, got {max_counterexamples}"
        )
    raw_workers = os.environ.get(WORKERS_ENV, "1") or "1"
    try:
        workers = int(raw_workers)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"{WORKERS_ENV} must be a positive integer, got {raw_workers!r}")
    # Executor forks all its workers at once: never ask for more than the cores
    workers = min(workers, os.cpu_count() or 1)
    stats = {
        name: {"graphs": 0, "checks": 0, "failures": 0} for name in names
    }
    timing = {name: 0.0 for name in names}
    counterexamples: list[dict] = []
    input_errors: list[dict] = []

    t_start = time.perf_counter()
    tasks = ((g, names) for g in _graphs(spec, input_errors))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled run pays its import

        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Executor.map submits its whole input before yielding a result,
            # so the corpus goes in window by window to keep memory bounded
            while window := list(islice(tasks, POOL_WINDOW)):
                for per_graph in pool.map(_eval_graph, window, chunksize=16):
                    _fold(per_graph, stats, timing, counterexamples, max_counterexamples)
    else:
        for task in tasks:
            _fold(_eval_graph(task), stats, timing, counterexamples, max_counterexamples)

    total_failures = sum(st["failures"] for st in stats.values())
    from datetime import datetime, timezone  # kept off the import path of every CLI call

    return VerificationReport(
        config={"corpus": spec.config_dict(), "suites": names,
                "max_counterexamples": max_counterexamples},
        suite_stats=stats,
        counterexamples=counterexamples,
        input_errors=input_errors,
        # a run over zero graphs proves nothing, so it never passes
        passed=total_failures == 0 and any(st["graphs"] for st in stats.values()),
        timing={"total_seconds": round(time.perf_counter() - t_start, 3),
                "per_suite_seconds": {k: round(v, 3) for k, v in timing.items()}},
        timestamp=datetime.now(timezone.utc).isoformat(),
    )


def _fold(per_graph, stats, timing, counterexamples, cap):
    for name, checks, fails, dt in per_graph:
        st = stats[name]
        st["graphs"] += 1
        st["checks"] += checks
        st["failures"] += len(fails)
        timing[name] += dt
        room = cap - len(counterexamples)
        if room > 0:
            counterexamples.extend(fails[:room])
