"""The benchmark's workloads: inputs built from a seed, one timed round,
and the reference checks applied to the answers of every round.

The program is reached only through public entry points, looked up on
the package at call time (``pathdom.verify.run_verification``,
``pathdom.cli.main``, ``pathdom.generate_family``, ...), so that a tracer
installed by ``spans.Tracer`` sees every call.
"""

import contextlib
import io
import json
import os
import re
import resource
import time
from itertools import combinations
from pathlib import Path

import pathdom
import pathdom.cli
import pathdom.domination
import pathdom.verify

HERE = Path(__file__).resolve().parent
REFERENCE = json.loads((HERE / "reference.json").read_text(encoding="ascii"))


def cpu_seconds() -> float:
    """User+sys CPU of this process plus its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


class PassResult:
    """What one timed round produced: the wall and CPU time of each of its
    units (the same units recur in every round), which of them are
    queries, the deterministic work counts, and each operation's problems."""

    def __init__(self):
        self.unit_wall_s = []
        self.unit_cpu_s = []
        self.query_units = slice(None)  # the units that are queries
        self.graphs = 0
        self.checks = 0
        self.attempted = 0
        self.problems = []  # one string per failed operation
        self.report_suite_s = {}

    @property
    def wall_s(self) -> float:
        return sum(self.unit_wall_s)

    def work(self) -> dict:
        return {"graphs": self.graphs, "checks": self.checks, "operations": self.attempted}


# -- verify workloads -----------------------------------------------------------


class VerifyWorkload:
    """One ``run_verification`` call per round, with one worker, on the
    same corpus in every round.

    An operation is one call; it fails if it raises, does not PASS, or
    reports per-suite counts that differ from the recorded ones.  The
    units of a round are the corpus set-up before the first graph and
    then each corpus graph: the gaps between successive per-graph cache
    resets, the only hook installed in an untraced round.  The graphs are
    the queries.
    """

    kind = "verify"

    def __init__(self, name, make_spec, suites, min_passes):
        self.name = name
        self.make_spec = make_spec
        self.suites = suites
        self.min_passes = min_passes
        self.ref = REFERENCE["workloads"][name]

    def build_inputs(self, seed, workdir=None):
        return {"seed": seed}

    def run_pass(self, inputs, latencies=True):
        spec = self.make_spec(inputs["seed"])
        os.environ[pathdom.verify.WORKERS_ENV] = "1"
        res = PassResult()
        res.attempted = 1
        res.query_units = slice(1, None)
        stamps = []
        original = pathdom.verify.clear_caches
        if latencies:
            def stamped():
                stamps.append((time.perf_counter(), cpu_seconds()))
                original()
            pathdom.verify.clear_caches = stamped
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            report = pathdom.verify.run_verification(spec, self.suites)
        except Exception as exc:  # one failed operation, never a crashed run
            res.problems.append(f"run_verification raised {type(exc).__name__}: {exc}")
            return res
        finally:
            stamps.append((time.perf_counter(), cpu_seconds()))
            pathdom.verify.clear_caches = original
            marks = [(t0, c0)] + stamps
            res.unit_wall_s = [b[0] - a[0] for a, b in zip(marks, marks[1:])]
            res.unit_cpu_s = [b[1] - a[1] for a, b in zip(marks, marks[1:])]
        stats = report.suite_stats
        res.graphs = max((st["graphs"] for st in stats.values()), default=0)
        res.checks = sum(st["checks"] for st in stats.values())
        res.report_suite_s = dict(report.timing.get("per_suite_seconds", {}))
        if latencies and len(stamps) != res.graphs + 1:
            raise RuntimeError(
                f"saw {len(stamps) - 1} per-graph cache resets for {res.graphs} graphs; "
                "per-graph latency cannot be measured"
            )
        problem = self.check(report, spec)
        if problem:
            res.problems.append(problem)
        return res

    def check(self, report, spec):
        problems = []
        if not report.passed:
            problems.append("verify did not PASS")
        if report.input_errors:
            problems.append(f"input errors: {report.input_errors}")
        expected_checks = self.ref["suite_checks"].get(str(spec.seed))
        for name in self.suites:
            st = report.suite_stats.get(name)
            if st is None:
                problems.append(f"suite {name} missing from the report")
                continue
            if st["graphs"] != self.ref["graphs"]:
                problems.append(f"suite {name}: {st['graphs']} graphs, expected {self.ref['graphs']}")
            if expected_checks is not None and st["checks"] != expected_checks[name]:
                problems.append(
                    f"suite {name}: {st['checks']} checks, recorded {expected_checks[name]}"
                )
        return "; ".join(problems)

    def finish(self, inputs, passes):
        """Verify passes are checked as they complete."""


# -- the CLI workload -----------------------------------------------------------


FAMILIES = (
    "cycle(12)", "cycle(18)", "cycle(21)", "path(15)", "path(21)",
    "rook(3)", "rook(4)",
    "generalized_petersen(5,2)", "generalized_petersen(8,3)", "generalized_petersen(10,3)",
    "crown(5)", "crown(6)",
    "corona(cycle(8))", "corona(path(8))",
    "circulant(20,1,4)", "complete_bipartite(6,8)",
    "cartesian_product(cycle(5),path(4))", "cartesian_product(cycle(4),cycle(5))",
    "star(12)", "join(cycle(6),path(5))",
)

COMMANDS = ("gamma", "classify", "pa", "profile", "regions")

_GAMMA_LINE = re.compile(r"gamma = (\d+)\s+witness = \{([\d, ]*)\}")


def closed_form_gamma(spec: str):
    """Domination numbers known in closed form, independent of the solver."""
    m = re.fullmatch(r"(cycle|path|rook|star)\((\d+)\)", spec)
    if m:
        family, n = m.group(1), int(m.group(2))
        return {"cycle": -(-n // 3), "path": -(-n // 3), "rook": n, "star": 1}[family]
    if spec == "complete_bipartite(6,8)":
        return 2
    return None


def _argv(command, path, n):
    if command == "gamma":
        return ["gamma", path]
    if command == "pa":
        return ["pa", path, "-u", "0", "-v", str(n // 2), "--json"]
    return [command, path, "--json"]


def _dominates(g, vertices):
    covered = 0
    for v in vertices:
        covered |= g.closed[v]
    return covered == (1 << g.n) - 1


class FamiliesCliWorkload:
    """20 named family graphs x 5 commands through ``pathdom.cli.main``.

    Caches are cleared before each command because a real CLI call starts
    cold.  An operation is one command; it fails if it raises, exits
    nonzero, or disagrees with the reference answers, which are checked
    after the timed passes: closed-form domination numbers, the recorded
    answers, and every profile pair against the oracle's ``predict_pair``.
    """

    kind = "cli"
    name = "families-cli"
    min_passes = 3

    def __init__(self):
        self.ref = REFERENCE["workloads"][self.name]["answers"]

    def build_inputs(self, seed, workdir):
        graphs = []
        for idx, spec in enumerate(FAMILIES):
            g = pathdom.generate_family(pathdom.parse_family_spec(spec))
            path = os.path.join(workdir, f"{idx:02d}.g6")
            with open(path, "w", encoding="ascii") as fh:
                fh.write(pathdom.emit_graph6(g) + "\n")
            graphs.append((spec, path, g))
        return {"graphs": graphs}

    def run_pass(self, inputs, latencies=True):
        res = PassResult()
        res.answers = []
        for spec, path, g in inputs["graphs"]:
            for command in COMMANDS:
                argv = _argv(command, path, g.n)
                pathdom.domination.clear_caches()
                out, err = io.StringIO(), io.StringIO()
                c0 = cpu_seconds()
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        rc = pathdom.cli.main(argv)
                except Exception as exc:  # one failed query, never a crashed run
                    rc = f"raised {type(exc).__name__}: {exc}"
                res.unit_wall_s.append(time.perf_counter() - t0)
                res.unit_cpu_s.append(cpu_seconds() - c0)
                res.answers.append((spec, g, command, rc, out.getvalue(), err.getvalue()))
            res.graphs += 1
        res.attempted = len(res.answers)
        return res

    def finish(self, inputs, passes):
        """Check every recorded answer; the oracle route is computed once."""
        oracle = {}
        for spec, _, g in inputs["graphs"]:
            pathdom.domination.clear_caches()
            oracle[spec] = {
                (u, v): pathdom.predict_pair(g, u, v).pa for u, v in combinations(range(g.n), 2)
            }
        pathdom.domination.clear_caches()
        for res in passes:
            res.checks = 0
            for spec, g, command, rc, out, err in res.answers:
                try:
                    problem, checks = self.check(spec, g, command, rc, out, oracle[spec])
                except (ValueError, KeyError, TypeError) as exc:
                    problem, checks = f"unreadable answer ({exc})", 1
                res.checks += checks
                if problem:
                    res.problems.append(f"{command} {spec}: {problem}" + (f" [{err.strip()}]" if err else ""))
            del res.answers

    def check(self, spec, g, command, rc, out, oracle):
        """(problem or '', number of answer values compared)."""
        if rc != 0:
            return f"exit status {rc}", 1
        ref = self.ref[spec]
        bad = []
        if command == "gamma":
            m = _GAMMA_LINE.search(out)
            if not m:
                return "no gamma line", 1
            gamma = int(m.group(1))
            witness = [int(x) for x in m.group(2).split(",") if x.strip()]
            known = closed_form_gamma(spec)
            if known is not None and gamma != known:
                bad.append(f"gamma {gamma}, closed form {known}")
            if gamma != ref["gamma"]:
                bad.append(f"gamma {gamma}, recorded {ref['gamma']}")
            if len(witness) != gamma or not _dominates(g, witness):
                bad.append(f"witness {witness} is not a dominating set of size {gamma}")
            return "; ".join(bad), 3
        d = json.loads(out)
        if command == "classify":
            if d["gamma"] != ref["gamma"]:
                bad.append(f"gamma {d['gamma']}, recorded {ref['gamma']}")
            if len(d["witness"]) != d["gamma"] or not _dominates(g, d["witness"]):
                bad.append("witness is not a minimum dominating set")
            if sorted(v for v in range(g.n) if d["critical"][v]) != d["critical_vertices"]:
                bad.append("critical flags disagree with critical_vertices")
            if d["critical_vertices"] != ref["critical_vertices"]:
                bad.append(f"critical vertices {d['critical_vertices']}, recorded {ref['critical_vertices']}")
            return "; ".join(bad), 4
        if command == "pa":
            u, v = d["pair"]
            if d["direct"] != d["predicted"]:
                bad.append(f"search {d['direct']} != oracle {d['predicted']}")
            if d["direct"] != oracle[(u, v)]:
                bad.append(f"pa {d['direct']}, predict_pair {oracle[(u, v)]}")
            return "; ".join(bad), 2
        if command == "profile":
            pairs = d["pairs"]
            if len(pairs) != len(oracle):
                bad.append(f"{len(pairs)} pairs, expected {len(oracle)}")
            for (u, v), pa in oracle.items():
                if pairs.get(f"{u}-{v}") != pa:
                    bad.append(f"pair {u}-{v}: search {pairs.get(f'{u}-{v}')}, predict_pair {pa}")
            for key in ("min_adjacent", "max_adjacent", "min_nonadjacent", "max_nonadjacent"):
                if d[key] != ref[key]:
                    bad.append(f"{key} {d[key]}, recorded {ref[key]}")
            return "; ".join(bad[:3]), len(oracle) + 4
        if command == "regions":
            if d["region"] != ref["region"]:
                bad.append(f"region {d['region']}, recorded {ref['region']}")
            return "; ".join(bad), 1
        raise ValueError(f"unknown command {command}")


# -- the workload table ---------------------------------------------------------


def _random_n16(seed):
    return pathdom.CorpusSpec.random(16, 0.25, 40, seed)


def workloads():
    return {
        "random-n16-oracle": VerifyWorkload(
            "random-n16-oracle", _random_n16,
            ("oracle-equivalence", "aggregate-characterizations"), 3,
        ),
        "families-cli": FamiliesCliWorkload(),
    }
