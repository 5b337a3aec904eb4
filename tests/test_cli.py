import io
import json
import subprocess
import sys

import pytest

from pathdom import cli, verify
from pathdom.cli import main
from pathdom.families import cartesian_product, path, rook
from pathdom.formats import emit_graph6


@pytest.fixture
def p4_file(tmp_path):
    p = tmp_path / "p4.txt"
    p.write_text("4 3\n0 1\n1 2\n2 3\n")
    return str(p)


def run_cli(argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return main(argv)


class TestSingleGraphCommands:
    def test_gamma(self, p4_file, capsys):
        assert main(["gamma", p4_file]) == 0
        out = capsys.readouterr().out
        assert "gamma = 2" in out

    def test_gamma_from_stdin(self, capsys, monkeypatch):
        assert run_cli(["gamma"], "Ch\n", monkeypatch) == 0
        assert "gamma = 2" in capsys.readouterr().out

    def test_classify_table(self, p4_file, capsys):
        assert main(["classify", p4_file]) == 0
        out = capsys.readouterr().out
        assert "critical set = {0, 3}" in out

    def test_classify_json(self, p4_file, capsys):
        assert main(["classify", "--json", p4_file]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["gamma"] == 2 and d["critical_vertices"] == [0, 3]
        assert d["schema"] == "pathdom-report/1"

    def test_pa(self, p4_file, capsys):
        assert main(["pa", p4_file, "-u", "1", "-v", "2"]) == 0
        out = capsys.readouterr().out
        assert "direct:    3" in out and "predicted: 3" in out

    def test_pa_json(self, p4_file, capsys):
        assert main(["pa", "--json", p4_file, "-u", "0", "-v", "2"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["direct"] == d["predicted"]
        assert not d["adjacent"]

    def test_pa_bad_pair(self, p4_file, capsys):
        assert main(["pa", p4_file, "-u", "0", "-v", "9"]) == 2

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_pa_mismatch_is_exit_1_after_every_graph(self, monkeypatch, capsys, json_flag):
        predict = cli.predict_pair

        def off_by_one(g, u, v):
            pred = predict(g, u, v)
            return pred._replace(pa=pred.pa + 1)

        monkeypatch.setattr(cli, "predict_pair", off_by_one)
        assert run_cli(["pa", *json_flag, "-u", "0", "-v", "1"], "Ch\nC~\n", monkeypatch) == 1
        captured = capsys.readouterr()
        if json_flag:
            assert '"graph6": "Ch"' in captured.out and '"graph6": "C~"' in captured.out
        else:
            assert captured.out.count("pair (0, 1)") == 2
        assert captured.err.count("MISMATCH") == 2

    def test_profile_json(self, capsys, monkeypatch):
        assert run_cli(["profile", "--json"], emit_graph6(rook(3)) + "\n",
                       monkeypatch) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["min_nonadjacent"] == 4 and d["max_nonadjacent"] == 4

    def test_profile_table_prints_infinite_aggregates(self, capsys, monkeypatch):
        assert run_cli(["profile"], "B?\n", monkeypatch) == 0  # three isolated vertices
        out = capsys.readouterr().out
        assert "adjacent min/max = inf/inf\n" in out
        assert "nonadjacent min/max = 5/5\n" in out

    def test_regions(self, capsys, monkeypatch):
        assert run_cli(["regions"], "4 4\n0 1\n1 2\n2 3\n3 0\n", monkeypatch) == 0
        assert "region = R3" in capsys.readouterr().out

    def test_bad_input_is_exit_2(self, capsys, monkeypatch):
        assert run_cli(["gamma"], "this is not a graph\n", monkeypatch) == 2
        assert "error:" in capsys.readouterr().err

    def test_too_deep_a_search_is_exit_2(self, capsys, monkeypatch):
        # the 2 x 1500 ladder: a branch-and-bound search far deeper than the
        # recursion limit, which fails in about a second
        ladder = emit_graph6(cartesian_product(path(2), path(1500)))
        assert run_cli(["gamma"], ladder + "\n", monkeypatch) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the search went deeper than Python's recursion limit")
        assert "Traceback" not in err


class TestGen:
    def test_gen_graph6(self, capsys):
        assert main(["gen", "--family", "rook", "--params", "3"]) == 0
        assert capsys.readouterr().out.strip() == emit_graph6(rook(3))

    def test_gen_edgelist(self, capsys):
        assert main(["gen", "--family", "complete_bipartite", "--params", "3,3",
                     "--format", "edgelist"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("6 9\n")

    def test_gen_full_spec(self, capsys):
        assert main(["gen", "--family", "corona(path(2))"]) == 0
        capsys.readouterr()

    def test_gen_circulant_params(self, capsys):
        from pathdom.families import circulant

        assert main(["gen", "--family", "circulant", "--params", "9,1"]) == 0
        assert capsys.readouterr().out.strip() == emit_graph6(circulant(9, [1]))

    def test_gen_unknown_family(self, capsys):
        assert main(["gen", "--family", "mystery", "--params", "3"]) == 2

    def test_gen_pipe_profile(self, capsys, monkeypatch):
        assert main(["gen", "--family", "rook", "--params", "3"]) == 0
        g6 = capsys.readouterr().out
        assert run_cli(["profile"], g6, monkeypatch) == 0
        assert "nonadjacent min/max = 4/4" in capsys.readouterr().out

    def test_gen_pipe_regions(self, capsys, monkeypatch):
        assert main(["gen", "--family", "complete_bipartite", "--params", "3,3"]) == 0
        g6 = capsys.readouterr().out
        assert run_cli(["regions"], g6, monkeypatch) == 0
        assert "region = R5" in capsys.readouterr().out


class TestVerify:
    def test_exhaustive_all_green(self, capsys):
        assert main(["verify", "--mode", "exhaustive", "--n", "4",
                     "--suite", "all"]) == 0
        assert "result: PASS" in capsys.readouterr().out

    def test_failing_run_is_exit_1(self, capsys):
        assert main(["verify", "--mode", "family", "--family", "path(4)",
                     "--suite", "max-adjacent-2"]) == 1
        assert "result: FAIL" in capsys.readouterr().out

    def test_json_report_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--mode", "exhaustive", "--n", "3",
                     "--suite", "chains", "--json", str(out)]) == 0
        d = json.loads(out.read_text())
        assert d["pass"] is True and d["schema"] == "pathdom-verify/1"

    def test_json_stdout(self, capsys):
        assert main(["verify", "--mode", "exhaustive", "--n", "2",
                     "--suite", "chains", "--json", "-"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["suites"]["chains"]["failures"] == 0

    def test_random_mode(self, capsys):
        assert main(["verify", "--mode", "random", "--n", "6", "--count", "5",
                     "--p", "0.4", "--seed", "11", "--suite", "adjacent-k3"]) == 0

    def test_connected_filter(self, capsys):
        assert main(["verify", "--mode", "exhaustive", "--n", "3-3",
                     "--connected", "--suite", "chains", "--json", "-"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["suites"]["chains"]["graphs"] == 4

    def test_range_n(self, capsys):
        assert main(["verify", "--mode", "exhaustive", "--n", "3-4",
                     "--suite", "chains", "--json", "-"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["suites"]["chains"]["graphs"] == 72  # 8 + 64

    def test_file_mode(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("C~\nCh\nCl\n")
        assert main(["verify", "--mode", "file", "--file", str(corpus),
                     "--suite", "chains", "--json", "-"]) == 0
        d = json.loads(capsys.readouterr().out)
        assert d["suites"]["chains"]["graphs"] == 3

    @pytest.mark.parametrize(
        "argv",
        [["--mode", "random", "--n", "5", "--p", "1.5", "--count", "3"],
         ["--mode", "random", "--n", "5", "--count", "-3"],
         ["--mode", "random", "--n", "12", "--p", "0.001", "--connected",
          "--count", "1"],
         ["--mode", "exhaustive", "--n", "4-3"]],
    )
    def test_invalid_or_empty_corpus_is_exit_2(self, argv, capsys):
        assert main(["verify", *argv, "--suite", "chains"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_empty_file_is_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.g6"
        empty.write_text("")
        assert main(["verify", "--mode", "file", "--file", str(empty)]) == 2
        captured = capsys.readouterr()
        assert "PASS" not in captured.out and "no graph" in captured.err

    def test_all_entries_malformed_names_the_first_error(self, tmp_path, capsys):
        short = tmp_path / "short.edges"
        short.write_text("4 4\n0 1\n1 2\n")
        assert main(["verify", "--mode", "file", "--file", str(short)]) == 2
        err = capsys.readouterr().err
        assert "no graph" in err and "header declares 4 edges but 2 pairs follow" in err

    @pytest.mark.parametrize(
        "argv, env, named",
        [(["--n=-1"], "", "--n"),
         (["--n", "3-"], "", "--n"),
         (["--n", "4", "--max-counterexamples", "-1"], "", "--max-counterexamples"),
         (["--n", "2"], "abc", "PATHDOM_WORKERS"),
         (["--n", "5-3"], "", "0 <= n_min <= n_max, got n_min=5, n_max=3")],
    )
    def test_malformed_input_names_its_source(self, monkeypatch, capsys, argv, env, named):
        if env:
            monkeypatch.setenv("PATHDOM_WORKERS", env)
        assert main(["verify", *argv, "--suite", "chains"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err and "int()" not in err

    @pytest.mark.parametrize("json_flag", [[], ["--json", "-"]])
    def test_partly_malformed_corpus_is_exit_2(self, tmp_path, capsys, json_flag):
        corpus = tmp_path / "corpus.g6"
        corpus.write_text("C~\nnot!a!graph\nCh\n")
        report = tmp_path / "report.json"
        assert main(["verify", "--mode", "file", "--file", str(corpus), "--suite", "chains",
                     *(json_flag or ["--json", str(report)])]) == 2
        out, err = capsys.readouterr()
        if json_flag:
            d = json.loads(out)
        else:
            assert "result: PASS" in out
            d = json.loads(report.read_text())
        assert d["pass"] is True and d["suites"]["chains"]["graphs"] == 2
        assert err == ('error: 1 malformed corpus entries; first: {"entry":1,"line":2,'
                       '"error":"character \'!\' outside graph6 range 63..126 (byte 3)"}\n')

    def test_file_mode_needs_file(self, capsys):
        assert main(["verify", "--mode", "file"]) == 2

    def test_unknown_suite_exit_2(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2

    def test_exhaustive_beyond_the_limit_is_exit_2(self, monkeypatch, capsys):
        drawn = []
        monkeypatch.setattr(verify, "enumerate_labeled_graphs",
                            lambda *args: drawn.append(args) or iter(()))
        assert main(["verify", "--mode", "exhaustive", "--n", "7",
                     "--suite", "chains"]) == 2
        captured = capsys.readouterr()
        assert not drawn and not captured.out
        assert captured.err.startswith("error: exhaustive corpora stop at n=6, got n=7")
        assert "--mode file" in captured.err

    def test_cap_is_an_unknown_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--mode", "exhaustive", "--n", "4", "--cap", "7"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --cap 7" in capsys.readouterr().err


def test_module_entry_point(p4_file):
    proc = subprocess.run(
        [sys.executable, "-m", "pathdom", "gamma", p4_file],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0 and "gamma = 2" in proc.stdout


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "pathdom", "bogus-command"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["bogus-command"], ["gamma", "--bogus"], ["gamma", "-h"],
    ["pa", "-"], ["verify", "--mode", "nope"], ["gen"]])
def test_one_registered_subcommand_prints_the_same(argv, capsys):
    """A run registers only the subcommand that it names; its usage, help
    and error lines are those of the parser with every subcommand."""
    def run(parser):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        return exc.value.code, capsys.readouterr()

    assert run(cli._build_parser(argv[0] if argv else None)) == run(cli._build_parser())
