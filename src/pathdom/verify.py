"""Corpus verification runner: re-derives every documented identity on a
corpus of graphs and reports counterexamples as replayable graph6 strings.

A suite is a function Graph -> (checks, failures); failures are dicts
that, together with the graph6 string the runner attaches, fully
reproduce the discrepancy through the single-graph CLI commands.
"""

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import combinations

from . import oracle
from .domination import (
    all_minimum_sets_cliques,
    classify_vertices,
    clear_caches,
    constrained_domination_number,
    domination_number,
    independent_domination_number,
    is_dominating,
    minimum_dominating_set,
    minimum_dominating_sets,
)
from .families import generate_family, parse_family_spec
from .formats import GraphFormatError, detect_format, emit_graph6, load_graphs
from .graphs import Graph, delete_vertices, enumerate_labeled_graphs, from_edge_mask, subdivide_edge
from .path_addition import (
    INFINITE,
    add_path,
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
# consecutive disconnected draws after which a --connected corpus gives up
MAX_CONSECUTIVE_REJECTIONS = 10_000


# -- corpora -------------------------------------------------------------------


@dataclass(frozen=True)
class CorpusSpec:
    """A reproducible corpus of graphs.

    mode "exhaustive": all labeled graphs with n_min <= n <= n_max.
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
    cap: int = 6

    @classmethod
    def exhaustive(cls, n_max, n_min=0, connected_only=False, cap=6):
        # the default cap guard stays; pass cap= explicitly for bigger runs
        return cls(
            mode="exhaustive",
            n_min=n_min,
            n_max=n_max,
            connected_only=connected_only,
            cap=cap,
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
                cap=self.cap,
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


def iter_corpus(spec: CorpusSpec):
    """Yield (index, graph) pairs; deterministic for a fixed spec."""
    if spec.mode == "exhaustive":
        if spec.n_max > spec.cap:
            # fail before iterating, not after grinding through smaller n
            raise ValueError(
                f"n={spec.n_max} exceeds the enumeration cap {spec.cap}; "
                f"raise cap= explicitly"
            )
        idx = 0
        for n in range(spec.n_min, spec.n_max + 1):
            for g in enumerate_labeled_graphs(n, spec.connected_only, cap=spec.cap):
                yield idx, g
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
            yield produced, g
            produced += 1
    elif spec.mode == "file":
        with open(spec.path, "r", encoding="ascii") as fh:
            text = fh.read()
        for idx, g in enumerate(load_graphs(text, spec.fmt)):
            yield idx, g
    elif spec.mode == "family":
        for idx, text in enumerate(spec.families):
            yield idx, generate_family(parse_family_spec(text))
    else:
        raise ValueError(f"unknown corpus mode {spec.mode!r}")


def _load_file_corpus_tolerant(spec: CorpusSpec):
    """File corpora keep going past malformed entries, recording them."""
    graphs, errors = [], []
    with open(spec.path, "r", encoding="ascii", errors="replace") as fh:
        text = fh.read()
    fmt = spec.fmt
    if fmt == "auto":
        try:
            fmt = detect_format(text)
        except GraphFormatError:  # no graph data: an empty corpus, never PASS
            fmt = "graph6"
    if fmt == "edgelist":
        try:
            graphs.append((0, load_graphs(text, "edgelist")[0]))
        except GraphFormatError as exc:
            errors.append({"entry": 0, "error": str(exc)})
        return graphs, errors
    idx = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            graphs.append((idx, load_graphs(line, "graph6")[0]))
        except GraphFormatError as exc:
            errors.append({"entry": idx, "line": lineno, "error": str(exc)})
        idx += 1
    return graphs, errors


# -- suites --------------------------------------------------------------------


def _pairs(n):
    return combinations(range(n), 2)


def suite_oracle_equivalence(g: Graph):
    """Predicted gamma-after-path equals the solver for every pair and every
    covered k, and the predicted pair value equals the scanned one."""
    if g.n < 2:
        return 0, []
    checks, fails = 0, []
    gamma = domination_number(g)
    for u, v in _pairs(g.n):
        adjacent = g.has_edge(u, v)
        ks = (1, 2, 3) if adjacent else (1, 2, 3, 4)
        predicted = {}
        for k in ks:
            predicted[k] = (
                oracle.predict_adjacent(g, u, v, k)
                if adjacent
                else oracle.predict_nonadjacent(g, u, v, k)
            )
        if not adjacent and predicted[4] == gamma:
            predicted[5] = oracle.predict_nonadjacent(g, u, v, 5)
        for k, pred in predicted.items():
            actual = domination_after_path(g, u, v, k)
            checks += 1
            if pred != actual:
                fails.append(
                    {
                        "check": "gamma-after-path",
                        "pair": [u, v],
                        "k": k,
                        "expected": actual,
                        "actual": pred,
                    }
                )
        if not adjacent and predicted[1] == gamma + 1:
            # the first inserted vertex must be critical in the k=1 graph
            h = add_path(g, u, v, 1)
            checks += 1
            hh, _ = delete_vertices(h, (g.n,))
            if not domination_number(hh) < domination_number(h):
                fails.append(
                    {
                        "check": "inserted-vertex-critical",
                        "pair": [u, v],
                        "k": 1,
                        "expected": "critical",
                        "actual": "not critical",
                    }
                )
        pa_pred = oracle.predict_pair(g, u, v)
        pa_act = path_addition_number(g, u, v)
        checks += 1
        if pa_pred.pa != pa_act:
            fails.append(
                {
                    "check": "path-addition-number",
                    "pair": [u, v],
                    "expected": pa_act,
                    "actual": pa_pred.pa,
                    "clause": pa_pred.clause,
                }
            )
    return checks, fails


def suite_adjacent_k3(g: Graph):
    """Three inserted vertices between adjacent endpoints always raise gamma by one."""
    if g.n < 2:
        return 0, []
    checks, fails = 0, []
    gamma = domination_number(g)
    for u, v in g.edges():
        checks += 1
        got = domination_after_path(g, u, v, 3)
        if got != gamma + 1:
            fails.append(
                {"check": "adjacent-k3", "pair": [u, v], "k": 3,
                 "expected": gamma + 1, "actual": got}
            )
    return checks, fails


def suite_long_paths(g: Graph):
    """Five or more inserted vertices always raise gamma (nonadjacent pairs)."""
    if g.n < 2:
        return 0, []
    checks, fails = 0, []
    gamma = domination_number(g)
    for u, v in g.non_edges():
        for k in (5, 6):
            checks += 1
            got = domination_after_path(g, u, v, k)
            if not got > gamma:
                fails.append(
                    {"check": "long-path-rise", "pair": [u, v], "k": k,
                     "expected": f"> {gamma}", "actual": got}
                )
    return checks, fails


def suite_chains(g: Graph):
    """The gamma-after-path sequence is nondecreasing in k; k=0 keeps gamma
    for adjacent pairs and loses at most one for nonadjacent ones."""
    if g.n < 2:
        return 0, []
    checks, fails = 0, []
    gamma = domination_number(g)
    for u, v in _pairs(g.n):
        values = [domination_after_path(g, u, v, k) for k in range(6)]
        checks += 1
        if g.has_edge(u, v):
            start_ok = values[0] == gamma
        else:
            start_ok = gamma - 1 <= values[0] <= gamma
        if not start_ok or any(a > b for a, b in zip(values, values[1:])):
            fails.append(
                {"check": "chain", "pair": [u, v],
                 "expected": "nondecreasing with anchored start",
                 "actual": values}
            )
    return checks, fails


def suite_aggregate_bounds(g: Graph):
    """Profile aggregates sit inside their documented windows."""
    if g.n < 2:
        return 0, []
    prof = path_addition_profile(g)
    checks, fails = 0, []

    def expect(cond, name, actual):
        nonlocal checks
        checks += 1
        if not cond:
            fails.append({"check": name, "expected": "within bounds", "actual": actual})

    expect(prof.min_adjacent <= prof.max_adjacent, "min<=max-adjacent",
           [prof.min_adjacent, prof.max_adjacent])
    expect(prof.min_nonadjacent <= prof.max_nonadjacent, "min<=max-nonadjacent",
           [prof.min_nonadjacent, prof.max_nonadjacent])
    if g.is_edgeless():
        expect(prof.min_adjacent == INFINITE and prof.max_adjacent == INFINITE,
               "edgeless-adjacent-infinite", [prof.min_adjacent, prof.max_adjacent])
    else:
        expect(1 <= prof.min_adjacent <= 3, "min-adjacent-window", prof.min_adjacent)
        expect(2 <= prof.max_adjacent <= 3, "max-adjacent-window", prof.max_adjacent)
    if g.is_complete():
        expect(prof.min_nonadjacent == INFINITE and prof.max_nonadjacent == INFINITE,
               "complete-nonadjacent-infinite",
               [prof.min_nonadjacent, prof.max_nonadjacent])
    else:
        expect(1 <= prof.min_nonadjacent <= prof.max_nonadjacent <= 5,
               "nonadjacent-window", [prof.min_nonadjacent, prof.max_nonadjacent])
    return checks, fails


def suite_aggregate_characterizations(g: Graph):
    """Closed-form aggregates agree with the solver profile, and the
    individual equivalences behind them hold."""
    if g.n < 2:
        return 0, []
    checks, fails = 0, []
    prof = path_addition_profile(g)
    agg = oracle.characterize_aggregates(g)
    for name, pred, act in (
        ("min_adjacent", agg.min_adjacent, prof.min_adjacent),
        ("max_adjacent", agg.max_adjacent, prof.max_adjacent),
        ("min_nonadjacent", agg.min_nonadjacent, prof.min_nonadjacent),
        ("max_nonadjacent", agg.max_nonadjacent, prof.max_nonadjacent),
    ):
        checks += 1
        if pred != act:
            fails.append(
                {"check": f"aggregate:{name}", "expected": act, "actual": pred,
                 "clause": list(agg.fired)}
            )
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
        drop2 = any(
            domination_number(delete_vertices(g, (u, v))[0]) == rep.gamma - 2
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
        checks += 1
        if lhs != rhs:
            fails.append({"check": name, "expected": lhs, "actual": rhs})
    return checks, fails


def suite_regions(g: Graph):
    """Taxonomy flags are internally consistent and match the solver profile."""
    if g.is_edgeless():
        return 0, []
    checks, fails = 0, []
    rc = oracle.classify_regions(g)
    prof = path_addition_profile(g)

    def expect(cond, name, detail=""):
        nonlocal checks
        checks += 1
        if not cond:
            fails.append({"check": name, "expected": True, "actual": detail or False})

    expect(rc.in_a == (prof.min_adjacent == 3), "in-a-matches-profile",
           f"in_a={rc.in_a}, min_adjacent={prof.min_adjacent}")
    expect((not rc.in_a3) or rc.in_a1, "a3-implies-a1")
    expect((not (rc.in_a1 or rc.in_a2)) or rc.in_a, "a1-or-a2-implies-a")
    expect((not rc.in_a1) or prof.min_adjacent == 3, "a1-implies-min-adjacent-3")
    expect((not rc.in_a3) or prof.min_adjacent == 3, "vc-implies-min-adjacent-3")
    expect(rc.region in oracle.REGION_TAGS, "region-tag-valid", rc.region)
    expect(rc.in_a == (rc.region != "NotInA"), "region-membership-consistent")
    return checks, fails


def suite_subdivision(g: Graph):
    """Subdividing any edge never lowers the domination number."""
    checks, fails = 0, []
    gamma = domination_number(g)
    for u, v in g.edges():
        checks += 1
        got = domination_number(subdivide_edge(g, u, v))
        if got < gamma:
            fails.append(
                {"check": "subdivision-monotone", "pair": [u, v],
                 "expected": f">= {gamma}", "actual": got}
            )
    return checks, fails


def suite_edge_addition(g: Graph):
    """Adding one edge moves the domination number by at most one, downward."""
    checks, fails = 0, []
    gamma = domination_number(g)
    for u, v in g.non_edges():
        checks += 1
        got = domination_number(add_path(g, u, v, 0))
        if not gamma - 1 <= got <= gamma:
            fails.append(
                {"check": "edge-addition-window", "pair": [u, v],
                 "expected": f"in [{gamma - 1}, {gamma}]", "actual": got}
            )
    return checks, fails


def suite_vertex_deletion(g: Graph):
    """Deleting a vertex outside every minimum set keeps gamma; deleting a
    critical vertex makes all its neighbors bad in the smaller graph."""
    checks, fails = 0, []
    rep = classify_vertices(g)
    for v in range(g.n):
        h, relabel = delete_vertices(g, (v,))
        if rep.bad[v]:
            checks += 1
            got = domination_number(h)
            if got != rep.gamma:
                fails.append(
                    {"check": "bad-deletion-neutral", "pair": [v],
                     "expected": rep.gamma, "actual": got}
                )
        if rep.critical[v]:
            hrep = classify_vertices(h)
            for w in g.neighbors(v):
                checks += 1
                if not hrep.bad[relabel[w]]:
                    fails.append(
                        {"check": "critical-neighbors-bad", "pair": [v, w],
                         "expected": "bad after deletion", "actual": "good"}
                    )
    return checks, fails


def _naive_gamma(g: Graph) -> int:
    """Independent oracle: test all subsets in ascending size order."""
    full = (1 << g.n) - 1
    for size in range(g.n + 1):
        for comb in combinations(range(g.n), size):
            dom = 0
            for v in comb:
                dom |= g.closed[v]
            if dom == full:
                return size
    raise AssertionError("unreachable: the full vertex set dominates")


def suite_solver_cross_check(g: Graph):
    """Branch-and-bound agrees with the ascending-subsets oracle (small n),
    and the derived domination machinery is self-consistent."""
    if g.n > NAIVE_CROSS_CHECK_MAX_N:
        return 0, []
    checks, fails = 0, []
    gamma = domination_number(g)

    def expect(cond, name, expected, actual):
        nonlocal checks
        checks += 1
        if not cond:
            fails.append({"check": name, "expected": expected, "actual": actual})

    naive = _naive_gamma(g)
    expect(gamma == naive, "gamma-vs-naive", naive, gamma)
    wit = minimum_dominating_set(g)
    expect(is_dominating(g, wit) and len(wit) == gamma, "witness-valid",
           f"dominating set of size {gamma}", sorted(wit))
    expect(constrained_domination_number(g) == gamma, "unconstrained-equals-gamma",
           gamma, constrained_domination_number(g))
    sets = minimum_dominating_sets(g)
    expect(all(is_dominating(g, s) and len(s) == gamma for s in sets),
           "enumerated-sets-valid", "all dominating at size gamma", len(sets))
    rep = classify_vertices(g)
    in_some = set().union(*sets) if sets else set()
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
    return checks, fails


def suite_sum_bounds(g: Graph):
    """Aggregate sums stay in their windows (connected noncomplete graphs)."""
    if g.n < 2 or g.is_edgeless() or g.is_complete() or not g.is_connected():
        return 0, []
    result = oracle.check_sum_bounds(g)
    fails = []
    for name, ok in result._asdict().items():
        if not ok:
            fails.append({"check": f"sum-bound:{name}", "expected": True, "actual": False})
    return 4, fails


def suite_max_adjacent_2(g: Graph):
    """Fixture suite: the adjacent-pair maximum is exactly 2."""
    if g.n < 2 or g.is_edgeless():
        return 0, []
    prof = path_addition_profile(g)
    if prof.max_adjacent != 2:
        return 1, [{"check": "max-adjacent-2", "expected": 2,
                    "actual": prof.max_adjacent}]
    return 1, []


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


@dataclass
class VerificationReport:
    config: dict
    suite_stats: dict
    counterexamples: list
    input_errors: list = field(default_factory=list)
    passed: bool = True
    timing: dict = field(default_factory=dict)
    timestamp: str = ""

    VOLATILE_FIELDS = ("timing", "timestamp")

    def to_json_dict(self, include_volatile: bool = True) -> dict:
        d = {
            "schema": SCHEMA,
            "config": self.config,
            "suites": self.suite_stats,
            "counterexamples": self.counterexamples,
            "input_errors": self.input_errors,
            "pass": self.passed,
        }
        if include_volatile:
            d["timing"] = self.timing
            d["timestamp"] = self.timestamp
        return d

    def to_json(self, include_volatile: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_volatile), indent=2)

    def table(self) -> str:
        lines = []
        cfg = ", ".join(f"{k}={v}" for k, v in self.config.items() if k != "suites")
        lines.append(f"corpus: {cfg}")
        lines.append(f"{'suite':<30} {'graphs':>8} {'checks':>10} {'failures':>9}")
        for name, st in self.suite_stats.items():
            lines.append(
                f"{name:<30} {st['graphs']:>8} {st['checks']:>10} {st['failures']:>9}"
            )
        for ce in self.counterexamples[:10]:
            lines.append(f"  counterexample: {ce}")
        if len(self.counterexamples) > 10:
            lines.append(f"  ... and {len(self.counterexamples) - 10} more")
        for err in self.input_errors:
            lines.append(f"  input error: {err}")
        lines.append("result: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def _resolve_suites(names) -> list[str]:
    if isinstance(names, str):
        names = [names]
    out: list[str] = []
    for name in names:
        if name == "all":
            out.extend(s for s in DEFAULT_SUITES if s not in out)
        elif name in SUITES:
            if name not in out:
                out.append(name)
        else:
            raise ValueError(
                f"unknown suite {name!r}; available: {', '.join(SUITES)} and 'all'"
            )
    return out


def _jsonable(value):
    """Strict-JSON form of a failure payload (infinities become 'inf')."""
    if isinstance(value, float) and value == INFINITE:
        return "inf"
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    return value


def _eval_graph(args):
    g, names = args
    clear_caches()
    g6 = emit_graph6(g)
    out = []
    for name in names:
        t0 = time.perf_counter()
        try:
            checks, fails = SUITES[name](g)
        except Exception as exc:  # one broken suite must not end the run
            checks = 0
            fails = [{"check": "suite-error", "error": f"{type(exc).__name__}: {exc}"}]
        dt = time.perf_counter() - t0
        fails = [_jsonable(f) for f in fails]
        for f in fails:
            f["suite"] = name
            f["graph6"] = g6
        out.append((name, checks, fails, dt))
    return out


def run_verification(
    spec: CorpusSpec, suites=("all",), max_counterexamples: int = 25
) -> VerificationReport:
    names = _resolve_suites(suites)
    stats = {
        name: {"graphs": 0, "checks": 0, "failures": 0} for name in names
    }
    timing = {name: 0.0 for name in names}
    counterexamples: list[dict] = []
    input_errors: list[dict] = []

    if spec.mode == "file":
        graphs, input_errors = _load_file_corpus_tolerant(spec)
        corpus = iter(graphs)
    else:
        corpus = iter_corpus(spec)

    t_start = time.perf_counter()
    workers = int(os.environ.get(WORKERS_ENV, "1") or "1")
    tasks = ((g, names) for _, g in corpus)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(_eval_graph, tasks, chunksize=16)
            for per_graph in results:
                _fold(per_graph, stats, timing, counterexamples, max_counterexamples)
    else:
        for task in tasks:
            _fold(_eval_graph(task), stats, timing, counterexamples, max_counterexamples)

    total_failures = sum(st["failures"] for st in stats.values())
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
