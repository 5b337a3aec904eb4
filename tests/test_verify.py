import json

import pytest

from pathdom import verify
from pathdom.families import crown
from pathdom.formats import emit_graph6, parse_graph6
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


def test_oracle_equivalence_skips_tiny_graphs():
    from pathdom.graphs import Graph

    assert suite_oracle_equivalence(Graph(1)) == (0, [])


def test_failure_payloads_are_strict_json():
    from pathdom.verify import _jsonable

    payload = {"actual": [float("inf"), 3], "nested": {"x": float("inf")}}
    assert _jsonable(payload) == {"actual": ["inf", 3], "nested": {"x": "inf"}}
    assert json.dumps(_jsonable(payload))  # strict-serializable
