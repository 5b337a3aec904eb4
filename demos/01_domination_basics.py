"""Tour of the exact domination layer.

Builds a few named graphs, computes domination numbers with witnesses,
and walks through the per-vertex classification (good / bad / critical)
that the rest of the library is built on.

Run:  python demos/01_domination_basics.py
"""

from pathdom import (
    Graph,
    classify_vertices,
    constrained_domination_number,
    cycle,
    domination_number,
    minimum_dominating_set,
    path,
    private_neighbors,
    rook,
    star,
)


def show(name, g):
    rep = classify_vertices(g)
    print(f"{name}: n={g.n}, m={g.edge_count}")
    print(f"  gamma = {rep.gamma}, witness = {sorted(rep.witness)}")
    print(f"  good vertices:     {[v for v in range(g.n) if rep.good[v]]}")
    print(f"  critical vertices: {sorted(rep.critical_vertices)}")
    print(f"  independent domination number = {rep.independent_domination_number}"
          f" (strong equality: {rep.strong_equality})")
    print()


print("=== basics on small named graphs ===\n")
show("P4 (path)", path(4))
show("C6 (cycle)", cycle(6))
show("K_{1,3} (star)", star(3))

print("=== the 3x3 rook graph: every vertex is critical ===\n")
g = rook(3)
show("rook(3)", g)

print("=== constrained queries ===\n")
g = cycle(4)
print("C4, force {0,1} into the set:",
      constrained_domination_number(g, include=[0, 1]))
print("C4, delete 0 (the path 1-2-3 is left, labels kept):",
      constrained_domination_number(g, delete=[0]))
print()

print("=== private neighbors ===\n")
g = path(4)
m = minimum_dominating_set(g)
print(f"P4 witness {sorted(m)}:")
for x in sorted(m):
    print(f"  vertices only {x} covers: {sorted(private_neighbors(g, x, m))}")
print()

print("=== a custom graph from an edge list ===\n")
g = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
print("spider:", g.edges())
print("gamma =", domination_number(g), "witness =", sorted(minimum_dominating_set(g)))
