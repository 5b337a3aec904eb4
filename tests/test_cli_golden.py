"""The single-graph commands' exact bytes: stdout, stderr and exit status of
gamma, classify, pa, profile and regions, in text and --json, pinned
against tests/data/cli_golden.json.

Regenerate the golden file (only when an output change is intended) with
    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import functools
import io
import json
import sys
from pathlib import Path

import pytest

from pathdom import cli
from pathdom.families import generate_family, parse_family_spec
from pathdom.formats import emit_graph6

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"

# the 20 family graphs of perfbench's families-cli workload, the empty pair
# classes (edgeless, complete), the smallest profile, and one two-graph input
INPUTS = (
    ("cycle(12)",), ("cycle(18)",), ("cycle(21)",), ("path(15)",), ("path(21)",),
    ("rook(3)",), ("rook(4)",),
    ("generalized_petersen(5,2)",), ("generalized_petersen(8,3)",),
    ("generalized_petersen(10,3)",),
    ("crown(5)",), ("crown(6)",),
    ("corona(cycle(8))",), ("corona(path(8))",),
    ("circulant(20,1,4)",), ("complete_bipartite(6,8)",),
    ("cartesian_product(cycle(5),path(4))",), ("cartesian_product(cycle(4),cycle(5))",),
    ("star(12)",), ("join(cycle(6),path(5))",),
    ("edgeless(3)",), ("complete(4)",), ("path(2)",),
    ("path(4)", "star(4)"),
)
COMMANDS = ("gamma", "classify", "pa", "profile", "regions")


def _cases():
    """(input name, stdin text, argv) for every input x command x {text, --json}."""
    for specs in INPUTS:
        graphs = [generate_family(parse_family_spec(s)) for s in specs]
        stdin = "".join(emit_graph6(g) + "\n" for g in graphs)
        for command in COMMANDS:
            argv = [command]
            if command == "pa":
                argv += ["-u", "0", "-v", str(min(g.n for g in graphs) // 2)]
            for extra in ([], ["--json"]):
                yield " + ".join(specs), stdin, argv + extra


def _run(argv, stdin):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects the arguments
                status = exc.code
    finally:
        sys.stdin = saved
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "status": status}


@functools.cache
def _golden():
    return {(r["input"], " ".join(r["argv"])): r for r in json.loads(GOLDEN.read_text())}


CASES = list(_cases())


@pytest.mark.parametrize("name, stdin, argv", CASES,
                         ids=[f"{name}:{' '.join(argv)}" for name, _, argv in CASES])
def test_output_matches_golden(name, stdin, argv):
    ref = _golden()[(name, " ".join(argv))]
    got = _run(argv, stdin)
    assert (got["status"], got["stderr"], got["stdout"]) == (
        ref["status"], ref["stderr"], ref["stdout"])


def test_golden_covers_every_case():
    assert set(_golden()) == {(name, " ".join(argv)) for name, _, argv in CASES}


if __name__ == "__main__":
    records = [{"input": name, "argv": argv, **_run(argv, stdin)}
               for name, stdin, argv in CASES]
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="ascii")
