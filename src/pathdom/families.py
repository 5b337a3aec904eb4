"""Generators for the named graph families used as fixtures and corpora.

Labelings are documented per family so that coordinates used elsewhere
(e.g. the row/column grid of the rook graph) map predictably onto the
dense 0-indexed vertex labels.
"""

import re
from typing import NamedTuple, Union

from .graphs import Graph

__all__ = [
    "FamilySpec",
    "generate_family",
    "parse_family_spec",
    "path",
    "cycle",
    "complete",
    "complete_bipartite",
    "star",
    "crown",
    "corona",
    "circulant",
    "generalized_petersen",
    "join",
    "cartesian_product",
    "rook",
    "edgeless",
]


def path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def edgeless(n: int) -> Graph:
    return Graph(n)


def complete_bipartite(m: int, n: int) -> Graph:
    """Parts are 0..m-1 and m..m+n-1."""
    if m < 0 or n < 0:
        raise ValueError("part sizes must be nonnegative")
    return Graph(m + n, [(a, m + b) for a in range(m) for b in range(n)])


def star(leaves: int) -> Graph:
    """K_{1,leaves} with the center labeled 0."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def crown(n: int) -> Graph:
    """Complete bipartite graph on parts of size n minus a perfect matching.

    Part labels 0..n-1 and n..2n-1; the removed matching is (i, n+i).
    """
    if n < 2:
        raise ValueError("crown needs n >= 2")
    edges = [(a, n + b) for a in range(n) for b in range(n) if a != b]
    return Graph(2 * n, edges)


def corona(h: Graph) -> Graph:
    """Attach one pendant vertex to every vertex of h; pendant of i is n+i."""
    n = h.n
    edges = list(h.edges()) + [(i, n + i) for i in range(n)]
    return Graph(2 * n, edges)


def circulant(n: int, distances) -> Graph:
    """C(n; S): vertex x is adjacent to y iff (x - y) mod n is in S.

    ``distances`` may list any generators; the set is closed under
    negation mod n automatically.  It must be nonempty and avoid 0 mod n.
    """
    if n < 1:
        raise ValueError("circulant needs n >= 1")
    s: set[int] = set()
    for d in distances:
        d %= n
        if d == 0:
            raise ValueError("circulant distance set must not contain 0 (mod n)")
        s.add(d)
        s.add(n - d)
    if not s:
        raise ValueError("circulant distance set must be nonempty")
    edges = [(x, (x + d) % n) for x in range(n) for d in s if x < (x + d) % n]
    return Graph(n, edges)


def generalized_petersen(n: int, k: int) -> Graph:
    """Outer vertices x_i = i, inner y_i = n+i; edges x_i x_{i+1}, x_i y_i, y_i y_{i+k}."""
    if n < 3:
        raise ValueError("generalized_petersen needs n >= 3")
    if k % n == 0:
        raise ValueError("generalized_petersen needs k nonzero mod n")
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, n + i))
        a, b = n + i, n + (i + k) % n
        if a != b:
            edges.append((a, b))
    return Graph(2 * n, edges)


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all edges between the parts; g2 labels shift by g1.n."""
    n1 = g1.n
    edges = list(g1.edges())
    edges += [(n1 + u, n1 + v) for u, v in g2.edges()]
    edges += [(a, n1 + b) for a in range(n1) for b in range(g2.n)]
    return Graph(n1 + g2.n, edges)


def cartesian_product(g1: Graph, g2: Graph) -> Graph:
    """Vertex (i, j) is labeled i * g2.n + j."""
    n2 = g2.n
    edges = []
    for j in range(n2):
        edges += [(u * n2 + j, v * n2 + j) for u, v in g1.edges()]
    for i in range(g1.n):
        edges += [(i * n2 + u, i * n2 + v) for u, v in g2.edges()]
    return Graph(g1.n * n2, edges)


def rook(n: int) -> Graph:
    """Product of two complete graphs: cell (i, j) -> i*n + j, rows and columns are cliques."""
    if n < 1:
        raise ValueError("rook needs n >= 1")
    return cartesian_product(complete(n), complete(n))


# -- declarative specs (used by the CLI and the family corpus mode) ----------

Param = Union[int, "FamilySpec"]

# name -> (generator, fewest and most integer parameters; None: no most)
_SIMPLE = {
    "path": (path, 1, 1),
    "cycle": (cycle, 1, 1),
    "complete": (complete, 1, 1),
    "edgeless": (edgeless, 1, 1),
    "star": (star, 1, 1),
    "crown": (crown, 1, 1),
    "rook": (rook, 1, 1),
    "complete_bipartite": (complete_bipartite, 2, 2),
    "generalized_petersen": (generalized_petersen, 2, 2),
    "circulant": (lambda n, *distances: circulant(n, distances), 2, None),
}
_GRAPH_ARGS = {"corona": (corona, 1), "join": (join, 2), "cartesian_product": (cartesian_product, 2)}


class FamilySpec(NamedTuple):
    """A named family plus its parameters.

    ``params`` holds ints, except for corona/join/cartesian_product whose
    arguments are nested FamilySpec values.  For circulant they are n
    followed by the distances, sorted and distinct.
    """

    family: str
    params: tuple = ()

    def __str__(self) -> str:
        inner = ",".join(str(p) for p in self.params)
        return f"{self.family}({inner})"


def generate_family(spec: FamilySpec) -> Graph:
    name = spec.family
    if name in _SIMPLE:
        fn, fewest, most = _SIMPLE[name]
        count = len(spec.params)
        if not fewest <= count <= (most or count) or not all(
            isinstance(p, int) for p in spec.params
        ):
            raise ValueError(f"{name} takes {fewest}{'' if most else ' or more'}"
                             f" integer parameter(s)")
        return fn(*spec.params)
    if name in _GRAPH_ARGS:
        fn, arity = _GRAPH_ARGS[name]
        if len(spec.params) != arity or not all(
            isinstance(p, FamilySpec) for p in spec.params
        ):
            raise ValueError(f"{name} takes {arity} nested family argument(s)")
        return fn(*(generate_family(p) for p in spec.params))
    raise ValueError(f"unknown family {name!r}")


_NAME_RE = re.compile(r"[a-z_][a-z0-9_]*")


def parse_family_spec(text: str) -> FamilySpec:
    """Parse specs like ``rook(3)``, ``circulant(9,1)``, ``corona(path(2))``."""
    spec, rest = _parse_spec(text.strip().lower())
    if rest.strip():
        raise ValueError(f"trailing text after family spec: {rest!r}")
    return spec


def _parse_spec(s: str) -> tuple[FamilySpec, str]:
    m = _NAME_RE.match(s)
    if not m:
        raise ValueError(f"expected a family name at {s!r}")
    name = m.group(0)
    if name not in _SIMPLE and name not in _GRAPH_ARGS:
        raise ValueError(f"unknown family {name!r}")
    rest = s[m.end():].lstrip()
    if not rest.startswith("("):
        raise ValueError(f"family {name!r} needs parenthesized parameters")
    rest = rest[1:]
    args: list[Param] = []
    while True:
        rest = rest.lstrip()
        if rest.startswith(")"):
            rest = rest[1:]
            break
        if rest[:1].isdigit():
            num = re.match(r"\d+", rest)
            args.append(int(num.group(0)))
            rest = rest[num.end():].lstrip()
        else:
            sub, rest = _parse_spec(rest)
            args.append(sub)
            rest = rest.lstrip()
        if rest.startswith(","):
            rest = rest[1:]
        elif not rest.startswith(")"):
            raise ValueError(f"expected ',' or ')' at {rest!r}")
    if name == "circulant":
        if len(args) < 2 or not all(isinstance(a, int) for a in args):
            raise ValueError("circulant(n, d1, d2, ...) needs integer arguments")
        return FamilySpec("circulant", (args[0], *sorted(set(args[1:])))), rest
    return FamilySpec(name, tuple(args)), rest
