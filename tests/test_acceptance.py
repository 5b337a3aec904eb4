"""Acceptance gate: every shipped claim, exact, at desk scale.

Each test prints one PASS/FAIL line.  The exhaustive corpus is all
labeled graphs on n <= 5 (1100 graphs); the random corpus is 500 seeded
graphs on 8 vertices.  A longer n = 6 exhaustive run is available through
the CLI (see README) and is not part of this gate.
"""

import random

from pathdom.domination import domination_number
from pathdom.families import (
    circulant,
    complete_bipartite,
    corona,
    crown,
    cycle,
    generalized_petersen,
    path,
    rook,
)
from pathdom.formats import emit_graph6, parse_graph6
from pathdom.graphs import Graph, from_edge_mask
from pathdom.oracle import classify_regions, all_nonadjacent_pa_three
from pathdom.path_addition import check_sum_bounds, path_addition_profile
from pathdom.verify import CorpusSpec, iter_corpus, run_verification

EXHAUSTIVE = CorpusSpec.exhaustive(5)
RANDOM_N8 = CorpusSpec.random(8, 0.4, 500, seed=42)


def _report(number, name, passed, extra=""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{extra}]" if extra else ""
    print(f"ACCEPTANCE {number:>2} {name:<42} {status}{suffix}")
    return passed


def _suite_green(spec, suites):
    report = run_verification(spec, suites)
    failures = sum(st["failures"] for st in report.suite_stats.values())
    return failures == 0, report


def test_01_oracle_solver_equivalence():
    ok, report = _suite_green(EXHAUSTIVE, ["oracle-equivalence"])
    checks = report.suite_stats["oracle-equivalence"]["checks"]
    assert _report(1, "oracle equals solver (exhaustive n<=5)", ok,
                   f"{checks} checks"), report.counterexamples


def test_02_adjacent_k3_always_rises_by_one():
    ok1, r1 = _suite_green(EXHAUSTIVE, ["adjacent-k3"])
    ok2, r2 = _suite_green(RANDOM_N8, ["adjacent-k3"])
    assert _report(2, "three inserted vertices raise gamma by 1", ok1 and ok2), \
        r1.counterexamples + r2.counterexamples


def test_03_long_paths_always_rise():
    ok1, r1 = _suite_green(EXHAUSTIVE, ["long-paths"])
    ok2, r2 = _suite_green(RANDOM_N8, ["long-paths"])
    assert _report(3, "k=5 and k=6 always exceed gamma", ok1 and ok2), \
        r1.counterexamples + r2.counterexamples


def test_04_aggregate_bounds():
    ok, report = _suite_green(EXHAUSTIVE, ["aggregate-bounds"])
    assert _report(4, "aggregate windows (exhaustive n<=5)", ok), \
        report.counterexamples


def test_05_closed_form_characterizations():
    ok, report = _suite_green(EXHAUSTIVE, ["aggregate-characterizations"])
    assert _report(5, "closed forms match profiles (n<=5)", ok), \
        report.counterexamples


def test_06_named_family_fixtures():
    ok = True
    for n in (3, 4):
        g = rook(n)
        prof = path_addition_profile(g)
        ok &= domination_number(g) == n
        ok &= prof.min_nonadjacent == 4 and prof.max_nonadjacent == 4
    for m, n in ((3, 3), (3, 4), (4, 4)):
        prof = path_addition_profile(complete_bipartite(m, n))
        ok &= prof.max_nonadjacent == 2
    for g in (crown(3), crown(4), circulant(9, [1]), circulant(15, [1, 2]),
              generalized_petersen(8, 1), generalized_petersen(8, 3)):
        ok &= path_addition_profile(g).max_adjacent == 2
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    ok &= all_nonadjacent_pa_three(cycle(5))
    ok &= all_nonadjacent_pa_three(two_triangles)
    ok &= not all_nonadjacent_pa_three(Graph(3, [(0, 1)]))
    assert _report(6, "named family fixtures reproduce", ok)


def test_07_region_witnesses():
    expected = {
        "R0": [corona(path(2)), corona(path(3))],
        "R1": [Graph(8, [(i, (i + 1) % 7) for i in range(7)] + [(7, 0), (7, 2)])],
        "R3": [cycle(4), cycle(7)],
        "R4": [complete_bipartite(2, 3), complete_bipartite(2, 4)],
        "R5": [complete_bipartite(3, 3), complete_bipartite(4, 4)],
    }
    ok = True
    for region, witnesses in expected.items():
        for g in witnesses:
            got = classify_regions(g).region
            if got != region:
                ok = False
                print(f"  witness for {region} classified as {got}: {emit_graph6(g)}")
    # R2 needs every vertex critical yet some edge outside all minimum sets.
    # Scan the random n=8 corpus and report the outcome either way (absence
    # is reported, not failed) ...
    r2_witness = None
    for _, g in iter_corpus(RANDOM_N8):
        if g.is_edgeless():
            continue
        if classify_regions(g).region == "R2":
            r2_witness = emit_graph6(g)
            break
    note = f"R2 in n=8 sample: {r2_witness or 'none (reported)'}"
    # ... and pin the recorded 9-vertex witness a wider seeded search found.
    recorded = parse_graph6("Hd@H]Pt")
    ok &= classify_regions(recorded).region == "R2"
    assert _report(7, "region witnesses reproduce", ok,
                   note + "; recorded witness Hd@H]Pt -> R2")


def test_08_sum_bounds_and_witness_family():
    ok, report = _suite_green(EXHAUSTIVE, ["sum-bounds"])
    c4 = path_addition_profile(cycle(4))
    ok &= c4.min_adjacent + c4.min_nonadjacent == 7
    k6_minus_matching = Graph(
        6, [(u, v) for u in range(6) for v in range(u + 1, 6) if v - u != 3]
    )
    prof = path_addition_profile(k6_minus_matching)
    ok &= prof.min_adjacent + prof.min_nonadjacent == 7
    ok &= all(check_sum_bounds(k6_minus_matching))
    assert _report(8, "aggregate sums within windows; 3+4=7 family", ok), \
        report.counterexamples


def test_09_deletion_subdivision_chain_sanity():
    ok, report = _suite_green(
        EXHAUSTIVE,
        ["subdivision", "edge-addition", "vertex-deletion", "chains"],
    )
    assert _report(9, "deletion/subdivision/chain identities", ok), \
        report.counterexamples


def test_10_graph6_round_trip():
    rng = random.Random(2024)
    ok = True
    for _ in range(10_000):
        n = rng.randint(0, 8)
        mask = rng.getrandbits(n * (n - 1) // 2)
        g = from_edge_mask(n, mask)
        s = emit_graph6(g)
        ok &= parse_graph6(s) == g and emit_graph6(parse_graph6(s)) == s
        if not ok:
            print(f"  round-trip failure: {s!r}")
            break
    assert _report(10, "graph6 round trip (10^4 seeded graphs)", ok)
