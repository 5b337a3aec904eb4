import concurrent.futures
import json
from pathlib import Path

import pytest

from pathdom import formats, verify
from pathdom.families import crown, path, star
from pathdom.formats import GraphFormatError, emit_graph6, parse_graph6
from pathdom.graphs import Graph
from pathdom.verify import (
    SUITES,
    CorpusSpec,
    iter_corpus,
    run_verification,
    suite_max_adjacent_2,
    suite_oracle_equivalence,
)


class TestCorpus:
    def test_exhaustive_count(self):
        spec = CorpusSpec.exhaustive(4)
        assert sum(1 for _ in iter_corpus(spec)) == 1 + 1 + 2 + 8 + 64

    def test_exhaustive_connected_filter(self):
        spec = CorpusSpec.exhaustive(3, n_min=3, connected_only=True)
        assert sum(1 for _ in iter_corpus(spec)) == 4

    def test_random_determinism(self):
        spec = CorpusSpec.random(6, 0.5, 20, seed=7)
        a = [emit_graph6(g) for _, g in iter_corpus(spec)]
        b = [emit_graph6(g) for _, g in iter_corpus(spec)]
        assert a == b and len(a) == 20
        other = CorpusSpec.random(6, 0.5, 20, seed=8)
        assert a != [emit_graph6(g) for _, g in iter_corpus(other)]

    def test_random_connected_filter(self):
        spec = CorpusSpec.random(5, 0.4, 10, seed=1, connected_only=True)
        assert all(g.is_connected() for _, g in iter_corpus(spec))

    @pytest.mark.parametrize(
        "n, p, count, connected",
        [(5, 1.5, 3, False), (5, -0.1, 3, False), (5, 0.5, 0, False),
         (5, 0.5, -3, False), (5, 0.0, 3, True), (-1, 0.5, 3, False)],
    )
    def test_random_out_of_range_fails_before_sampling(
        self, monkeypatch, n, p, count, connected
    ):
        def no_sampling(*args):
            raise AssertionError("sampled before the parameters were checked")

        monkeypatch.setattr(verify, "random_graph", no_sampling)
        spec = CorpusSpec.random(n, p, count, seed=1, connected_only=connected)
        with pytest.raises(ValueError):
            next(iter_corpus(spec))

    def test_random_connected_p0_single_vertex(self):
        spec = CorpusSpec.random(1, 0.0, 2, seed=1, connected_only=True)
        assert [g.n for _, g in iter_corpus(spec)] == [1, 1]

    def test_connected_with_tiny_p_gives_up(self):
        spec = CorpusSpec.random(12, 0.001, 1, seed=1, connected_only=True)
        with pytest.raises(ValueError, match="disconnected"):
            next(iter_corpus(spec))

    def test_family_mode(self):
        spec = CorpusSpec.from_families(["crown(3)", "rook(3)"])
        gs = [g for _, g in iter_corpus(spec)]
        assert gs[0] == crown(3) and gs[1].n == 9

    def test_file_mode(self, tmp_path):
        p = tmp_path / "corpus.g6"
        p.write_text("C~\nCh\n")
        spec = CorpusSpec.from_file(str(p))
        assert [g.n for _, g in iter_corpus(spec)] == [4, 4]

    def test_file_mode_edge_list(self, tmp_path):
        p = tmp_path / "one.edges"
        p.write_text("# square\n4 4\n0 1\n1 2\n2 3\n3 0\n")
        gs = [g for _, g in iter_corpus(CorpusSpec.from_file(str(p)))]
        assert len(gs) == 1 and gs[0].edge_count == 4

    def test_file_mode_raises_at_a_malformed_line(self, tmp_path):
        p = tmp_path / "corpus.g6"
        p.write_text("C~\nnot!a!graph\nCh\n")
        corpus = iter_corpus(CorpusSpec.from_file(str(p)))
        assert next(corpus)[1].n == 4  # entries stream: the good line comes first
        with pytest.raises(GraphFormatError, match="outside graph6 range"):
            next(corpus)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            list(iter_corpus(CorpusSpec(mode="bogus")))

    def test_exhaustive_cap_guard_holds_unless_raised(self):
        with pytest.raises(ValueError):
            list(iter_corpus(CorpusSpec.exhaustive(7)))
        spec = CorpusSpec.exhaustive(7, n_min=7, cap=7)
        assert next(iter_corpus(spec))[1].n == 7


class TestRunner:
    def test_small_run_passes(self):
        report = run_verification(CorpusSpec.exhaustive(3), ["all"])
        assert report.passed
        assert not report.counterexamples
        assert set(report.suite_stats) == set(SUITES) - {"max-adjacent-2"}
        assert all(st["failures"] == 0 for st in report.suite_stats.values())

    def test_selected_suites_only(self):
        report = run_verification(CorpusSpec.exhaustive(3), ["chains", "subdivision"])
        assert list(report.suite_stats) == ["chains", "subdivision"]

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_verification(CorpusSpec.exhaustive(2), ["nope"])

    def test_json_deterministic_modulo_volatile(self):
        spec = CorpusSpec.random(5, 0.5, 5, seed=3)
        a = run_verification(spec, ["chains"]).to_json(include_volatile=False)
        b = run_verification(spec, ["chains"]).to_json(include_volatile=False)
        assert a == b
        full = json.loads(run_verification(spec, ["chains"]).to_json())
        assert "timestamp" in full and "timing" in full
        assert json.loads(a).keys() == (full.keys() - {"timestamp", "timing"})

    def test_report_schema_fields(self):
        report = run_verification(CorpusSpec.exhaustive(2), ["chains"])
        d = report.to_json_dict()
        assert d["schema"] == "pathdom-verify/1"
        assert d["pass"] is True
        assert d["config"]["corpus"]["mode"] == "exhaustive"

    def test_fixture_suite_on_matching_family(self):
        report = run_verification(
            CorpusSpec.from_families(["crown(3)", "crown(4)"]), ["max-adjacent-2"]
        )
        assert report.passed

    def test_fixture_suite_flags_mismatch(self):
        report = run_verification(
            CorpusSpec.from_families(["path(4)"]), ["max-adjacent-2"]
        )
        assert not report.passed
        assert report.counterexamples[0]["suite"] == "max-adjacent-2"

    def test_counterexamples_replayable(self):
        # run a suite guaranteed to fail and replay its counterexample
        # (P4 has the non-independent minimum set {1, 2})
        report = run_verification(
            CorpusSpec.from_families(["path(4)"]), ["max-adjacent-2"]
        )
        assert not report.passed
        ce = report.counterexamples[0]
        g = parse_graph6(ce["graph6"])
        checks, fails = suite_max_adjacent_2(g)
        assert fails and fails[0]["check"] == ce["check"]

    def test_counterexample_cap(self):
        spec = CorpusSpec.exhaustive(4, n_min=4, connected_only=True)
        report = run_verification(spec, ["max-adjacent-2"], max_counterexamples=3)
        assert len(report.counterexamples) == 3
        assert report.suite_stats["max-adjacent-2"]["failures"] > 3

    def test_file_corpus_tolerates_bad_entries(self, tmp_path):
        p = tmp_path / "corpus.g6"
        p.write_text("C~\nnot!a!graph\nCh\n")
        report = run_verification(CorpusSpec.from_file(str(p)), ["chains"])
        assert report.suite_stats["chains"]["graphs"] == 2
        assert len(report.input_errors) == 1
        assert report.passed

    @pytest.mark.parametrize(
        "name, text, errors",
        [("corpus.g6", "C~\n\n# note\nnot!a!graph\n  Ch\n\xe9\n",
          [{"entry": 1, "line": 4, "error": "character '!' outside graph6 range 63..126 (byte 3)"},
           {"entry": 3, "line": 6,
            "error": "character '\ufffd' outside graph6 range 63..126 (byte 0)"}]),
         ("short.edges", "4 4\n0 1\n1 2\n",
          [{"entry": 0, "error": "header declares 4 edges but 2 pairs follow"}])],
        ids=["graph6", "edge-list"],
    )
    def test_input_error_records(self, tmp_path, name, text, errors):
        p = tmp_path / name
        p.write_text(text, encoding="latin-1")
        report = run_verification(CorpusSpec.from_file(str(p)), ["chains"])
        assert report.input_errors == errors

    @pytest.mark.parametrize("text", ["", "# no graphs here\n"])
    def test_zero_graphs_never_pass(self, tmp_path, text):
        p = tmp_path / "empty.g6"
        p.write_text(text)
        report = run_verification(CorpusSpec.from_file(str(p)), ["chains"])
        assert report.suite_stats["chains"]["graphs"] == 0
        assert not report.passed

    def test_table_renders(self):
        report = run_verification(CorpusSpec.exhaustive(2), ["chains"])
        text = report.table()
        assert "chains" in text and "PASS" in text
        assert text.splitlines()[0] == (
            "corpus: mode=exhaustive, n_min=0, n_max=2, connected_only=False, cap=6")

    def test_suite_error_is_recorded_and_run_goes_on(self, monkeypatch):
        seen = []

        def flaky(g):
            seen.append(g)
            if len(seen) == 3:
                raise RuntimeError("boom")
            return 1, []

        monkeypatch.setitem(SUITES, "chains", flaky)
        report = run_verification(CorpusSpec.exhaustive(2), ["chains", "subdivision"])
        assert len(seen) == 4  # the graphs after the error still ran
        assert report.suite_stats["chains"] == {"graphs": 4, "checks": 3, "failures": 1}
        assert report.suite_stats["subdivision"]["graphs"] == 4
        assert not report.passed
        (ce,) = report.counterexamples
        assert ce["check"] == "suite-error" and ce["error"] == "RuntimeError: boom"
        assert ce["suite"] == "chains" and ce["graph6"] == emit_graph6(seen[2])

    def test_parallel_matches_sequential(self, monkeypatch):
        spec = CorpusSpec.exhaustive(3)
        seq = run_verification(spec, ["oracle-equivalence", "chains"])
        monkeypatch.setenv("PATHDOM_WORKERS", "2")
        par = run_verification(spec, ["oracle-equivalence", "chains"])
        assert seq.suite_stats == par.suite_stats
        assert seq.to_json(include_volatile=False) == par.to_json(include_volatile=False)

    def test_pool_is_fed_one_window_at_a_time(self, monkeypatch):
        window = 8
        spec = CorpusSpec.exhaustive(4)  # 76 graphs: ten windows
        suites = ["chains", "vertex-deletion"]
        seq = run_verification(spec, suites).to_json(include_volatile=False)
        drawn = []
        entries = verify._entries

        def counting_corpus(spec):
            for item in entries(spec):
                drawn.append(item)
                yield item

        folded_after = []
        fold = verify._fold

        def watched_fold(*args):
            folded_after.append(len(drawn))
            fold(*args)

        monkeypatch.setattr(verify, "POOL_WINDOW", window)
        monkeypatch.setattr(verify, "_entries", counting_corpus)
        monkeypatch.setattr(verify, "_fold", watched_fold)
        monkeypatch.setenv("PATHDOM_WORKERS", "2")
        par = run_verification(spec, suites).to_json(include_volatile=False)
        assert folded_after[0] <= window
        assert len(drawn) == len(folded_after) == 76
        assert par == seq

    @pytest.mark.parametrize("workers, bound", [("1", 1), ("2", 8)])
    def test_file_corpus_streams(self, tmp_path, monkeypatch, workers, bound):
        window = 8
        p = tmp_path / "corpus.g6"
        p.write_text("".join(emit_graph6(g) + "\n" for _, g in iter_corpus(CorpusSpec.exhaustive(4))))
        spec = CorpusSpec.from_file(str(p))
        suites = ["chains", "vertex-deletion"]
        seq = run_verification(spec, suites).to_json(include_volatile=False)
        parsed, folded_after = [], []
        parse, fold = formats.parse_graph6, verify._fold

        def counting_parse(text):
            parsed.append(text)
            return parse(text)

        def watched_fold(*args):
            folded_after.append(len(parsed))
            fold(*args)

        monkeypatch.setattr(formats, "parse_graph6", counting_parse)
        monkeypatch.setattr(verify, "POOL_WINDOW", window)
        monkeypatch.setattr(verify, "_fold", watched_fold)
        monkeypatch.setenv("PATHDOM_WORKERS", workers)
        report = run_verification(spec, suites).to_json(include_volatile=False)
        assert folded_after[0] <= bound
        assert len(parsed) == len(folded_after) == 76
        assert report == seq

    def test_non_integer_workers_is_a_clear_error(self, monkeypatch):
        monkeypatch.setenv("PATHDOM_WORKERS", "abc")
        with pytest.raises(ValueError, match="PATHDOM_WORKERS"):
            run_verification(CorpusSpec.exhaustive(2), ["chains"])

    @pytest.mark.parametrize("raw", ["0", "-3"])
    def test_workers_below_one_is_a_clear_error(self, monkeypatch, raw):
        monkeypatch.setenv("PATHDOM_WORKERS", raw)
        with pytest.raises(ValueError, match="PATHDOM_WORKERS"):
            run_verification(CorpusSpec.exhaustive(2), ["chains"])

    @pytest.mark.parametrize("cores, pools", [(4, [4]), (None, [])])
    def test_workers_are_capped_at_the_core_count(self, monkeypatch, cores, pools):
        spec = CorpusSpec.exhaustive(3)
        suites = ["chains", "vertex-deletion"]
        seq = run_verification(spec, suites).to_json(include_volatile=False)
        asked = []

        class InProcessPool:  # records the request and starts no process
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(verify.os, "cpu_count", lambda: cores)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setenv("PATHDOM_WORKERS", "100000")
        par = run_verification(spec, suites).to_json(include_volatile=False)
        assert asked == pools and par == seq

    def test_negative_counterexample_cap_is_rejected(self):
        with pytest.raises(ValueError, match="--max-counterexamples"):
            run_verification(CorpusSpec.exhaustive(2), ["chains"], max_counterexamples=-1)

    def test_graph6_is_emitted_only_for_failing_graphs(self, monkeypatch):
        emitted = []

        def counting_emit(g):
            emitted.append(g)
            return emit_graph6(g)

        monkeypatch.setattr(verify, "emit_graph6", counting_emit)
        passing = run_verification(CorpusSpec.exhaustive(4), ["chains", "vertex-deletion"])
        assert passing.passed and emitted == []
        for name in ("chains", "subdivision"):
            monkeypatch.setitem(SUITES, name, lambda g: (1, [{"check": "x"}]))
        failing = run_verification(CorpusSpec.from_families(["path(4)"]),
                                   ["chains", "subdivision"])
        assert emitted == [path(4)]
        assert [ce["graph6"] for ce in failing.counterexamples] == [emit_graph6(path(4))] * 2


def test_oracle_equivalence_skips_tiny_graphs():
    from pathdom.graphs import Graph

    assert suite_oracle_equivalence(Graph(1)) == (0, [])


def test_failure_payloads_are_strict_json():
    from pathdom.formats import jsonable

    payload = {"actual": [float("inf"), 3], "nested": {"x": float("inf")}}
    assert jsonable(payload) == {"actual": ["inf", 3], "nested": {"x": "inf"}}
    assert json.dumps(jsonable(payload))  # strict-serializable


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "spec, suites, golden",
    [(CorpusSpec.exhaustive(4), ["all"], "exhaustive4_all.json"),
     (CorpusSpec.exhaustive(4, n_min=4, connected_only=True), ["max-adjacent-2"],
      "exhaustive4_connected_max_adjacent_2.json")],
)
def test_report_matches_golden_file(spec, suites, golden):
    report = run_verification(spec, suites).to_json(include_volatile=False)
    assert report.encode("ascii") == (DATA / golden).read_bytes()


# -- failure records, one planted fault per case ------------------------------


def _gamma_after_path_off_by_one(mp, g):
    orig = verify.domination_after_path
    mp.setattr(verify, "domination_after_path",
               lambda g, u, v, k: orig(g, u, v, k) + ((u, v) == (0, 1)))


def _pa_plus_one(mp, g):
    orig = verify.path_addition_number
    mp.setattr(verify, "path_addition_number", lambda g, u, v: orig(g, u, v) + 1)


def _min_adjacent_shifted(mp, g):
    orig = verify.path_addition_profile
    mp.setattr(verify, "path_addition_profile",
               lambda g: orig(g)._replace(min_adjacent=orig(g).min_adjacent + 1))


def _sum_bound_false(mp, g):
    orig = verify.check_sum_bounds
    mp.setattr(verify, "check_sum_bounds",
               lambda g: orig(g)._replace(max_adj_plus_min_nonadj=False))


def _vertex_0_flipped(mp, base):
    """Vertex 0 of the suite's graph (only) swaps its critical and bad flags."""
    orig = verify.classify_vertices

    def classify(g):
        rep = orig(g)
        if g != base:
            return rep
        return rep._replace(critical=(not rep.critical[0],) + rep.critical[1:],
                            bad=(not rep.bad[0],) + rep.bad[1:])

    mp.setattr(verify, "classify_vertices", classify)


def _k1_path_is_k2(mp, g):
    orig = verify.add_path
    mp.setattr(verify, "add_path", lambda g, u, v, k: orig(g, u, v, 2 if k == 1 else k))


# C11 labelled so that vertex 0 has neighbours 9 and 2, which a frozenset
# yields in that (not ascending) order
_C11_RELABELLED = Graph(11, [(0, 2), (2, 1), (1, 3), (3, 4), (4, 5), (5, 6),
                             (6, 7), (7, 8), (8, 10), (10, 9), (9, 0)])
_FIRED_P4 = ["max-adjacent=3:some-minimum-set-dependent",
             "min-adjacent=3:every-edge-shares-set-or-touches-critical",
             "min-nonadjacent=3:pair-without-critical-good-pairing",
             "max-nonadjacent=4:some-pair-pairs-up"]
_NOT_CRITICAL = [("expected", "critical"), ("actual", "not critical")]


@pytest.mark.parametrize(
    "fault, suite, g, checks, records",
    [
        (_gamma_after_path_off_by_one, "oracle-equivalence", path(3), 14, [
            [("check", "gamma-after-path"), ("pair", [0, 1]), ("k", 1),
             ("expected", 2), ("actual", 1)],
            [("check", "gamma-after-path"), ("pair", [0, 1]), ("k", 2),
             ("expected", 3), ("actual", 2)],
            [("check", "gamma-after-path"), ("pair", [0, 1]), ("k", 3),
             ("expected", 3), ("actual", 2)],
        ]),
        (_gamma_after_path_off_by_one, "adjacent-k3", path(3), 2, [
            [("check", "adjacent-k3"), ("pair", [0, 1]), ("k", 3),
             ("expected", 2), ("actual", 3)],
        ]),
        (_gamma_after_path_off_by_one, "chains", path(3), 3, [
            [("check", "chain"), ("pair", [0, 1]),
             ("expected", "nondecreasing with anchored start"),
             ("actual", [2, 2, 3, 3, 3, 4])],
        ]),
        (_pa_plus_one, "oracle-equivalence", path(3), 14, [
            [("check", "path-addition-number"), ("pair", [0, 1]), ("expected", 3),
             ("actual", 2), ("clause", "adjacent:k2:no-shared-set-no-critical")],
            [("check", "path-addition-number"), ("pair", [0, 2]), ("expected", 2),
             ("actual", 1), ("clause", "nonadjacent:k1:bad-pair-no-deleted-critical")],
            [("check", "path-addition-number"), ("pair", [1, 2]), ("expected", 3),
             ("actual", 2), ("clause", "adjacent:k2:no-shared-set-no-critical")],
        ]),
        (_min_adjacent_shifted, "aggregate-characterizations", path(4), 11, [
            [("check", "aggregate:min_adjacent"), ("expected", 4), ("actual", 3),
             ("clause", _FIRED_P4)],
        ]),
        (_min_adjacent_shifted, "aggregate-bounds", path(4), 5, [
            [("check", "min<=max-adjacent"), ("expected", "within bounds"),
             ("actual", [4, 3])],
            [("check", "min-adjacent-window"), ("expected", "within bounds"),
             ("actual", 4)],
        ]),
        (_min_adjacent_shifted, "regions", path(4), 7, [
            [("check", "in-a-matches-profile"), ("expected", True),
             ("actual", "in_a=True, min_adjacent=4")],
        ]),
        (_sum_bound_false, "sum-bounds", path(4), 4, [
            [("check", "sum-bound:max_adj_plus_min_nonadj"), ("expected", True),
             ("actual", False)],
        ]),
        (_vertex_0_flipped, "vertex-deletion", path(4), 2, [
            [("check", "bad-deletion-neutral"), ("pair", [0]), ("expected", 2),
             ("actual", 1)],
        ]),
        (_vertex_0_flipped, "vertex-deletion", _C11_RELABELLED, 3, [
            [("check", "critical-neighbors-bad"), ("pair", [0, 9]),
             ("expected", "bad after deletion"), ("actual", "good")],
            [("check", "critical-neighbors-bad"), ("pair", [0, 2]),
             ("expected", "bad after deletion"), ("actual", "good")],
        ]),
        (_k1_path_is_k2, "oracle-equivalence", star(4), 52, [
            [("check", "inserted-vertex-critical"), ("pair", pair), ("k", 1),
             *_NOT_CRITICAL]
            for pair in ([1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4])
        ]),
    ],
)
def test_failure_records(monkeypatch, fault, suite, g, checks, records):
    fault(monkeypatch, g)
    got_checks, fails = SUITES[suite](g)
    assert [list(rec.items()) for rec in fails] == records
    assert got_checks == checks
