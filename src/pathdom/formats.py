"""Text encodings for graphs: graph6 and a plain edge list.

graph6 packs the upper adjacency triangle column-wise, 6 bits per
printable character (offset 63), preceded by the vertex count.  The edge
list format is a "n m" header line followed by one "u v" pair per line,
0-indexed, with '#' starting a comment.  ``jsonable`` holds the one rule
set by which every result record becomes strict JSON.
"""

import math
from itertools import chain

from .graphs import Graph, edge_mask, from_edge_mask

__all__ = [
    "GraphFormatError",
    "emit_graph6",
    "parse_graph6",
    "emit_edge_list",
    "parse_edge_list",
    "iter_entries",
    "load_graphs",
]

_G6_HEADER = ">>graph6<<"
_MAX_N = 1 << 36
# each graph6 character as its six bits, most significant first
_G6_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}
_G6_CHARS = {bits: chr(c) for c, bits in _G6_BITS.items()}


class GraphFormatError(ValueError):
    """Malformed graph text; ``offset`` is the byte position when known."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte {offset})"
        super().__init__(message)
        self.offset = offset


def emit_graph6(g: Graph) -> str:
    n = g.n
    if n >= _MAX_N:
        raise GraphFormatError(f"graph6 cannot encode n={n}")
    if n <= 62:
        prefix = [n + 63]
    elif n <= 258047:
        prefix = [126, (n >> 12 & 63) + 63, (n >> 6 & 63) + 63, (n & 63) + 63]
    else:
        prefix = [126, 126] + [(n >> s & 63) + 63 for s in (30, 24, 18, 12, 6, 0)]
    npairs = n * (n - 1) // 2
    # the colex edge mask reversed is the body's bit string; the sentinel bit
    # at npairs keeps its leading zeros and is cut off with the reversal
    body = format(edge_mask(g) | 1 << npairs, "b")[:0:-1]
    body += "0" * (-npairs % 6)
    return "".join(map(chr, prefix)) + "".join(
        _G6_CHARS[body[i:i + 6]] for i in range(0, npairs, 6))


def parse_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise GraphFormatError("empty graph6 string")
    if min(s) < "?" or max(s) > "~":
        i, ch = next((i, ch) for i, ch in enumerate(s) if not "?" <= ch <= "~")
        raise GraphFormatError(f"character {ch!r} outside graph6 range 63..126", i)

    # vertex count: 1 char (n <= 62), '~' + 3 chars, or '~~' + 6 chars
    if s[0] != "~":
        n, pos = ord(s[0]) - 63, 1
    elif len(s) >= 2 and s[1] != "~":
        if len(s) < 4:
            raise GraphFormatError("truncated vertex count", len(s))
        n, pos = int(s[1:4].translate(_G6_BITS), 2), 4
    else:
        if len(s) < 8:
            raise GraphFormatError("truncated vertex count", len(s))
        n, pos = int(s[2:8].translate(_G6_BITS), 2), 8

    npairs = n * (n - 1) // 2
    nchars = (npairs + 5) // 6
    if len(s) - pos != nchars:
        raise GraphFormatError(
            f"expected {nchars} adjacency characters for n={n}, got {len(s) - pos}",
            pos,
        )
    # the body's bits run in colex pair order, so reversed they are the colex
    # edge mask, with the padding above the last pair
    colex = int(s[pos:].translate(_G6_BITS)[::-1] or "0", 2)
    return from_edge_mask(n, colex & ((1 << npairs) - 1))


def emit_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    tokens: list[str] = []
    for raw in text.splitlines():
        tokens.extend(raw.split("#", 1)[0].split())
    if len(tokens) < 2:
        raise GraphFormatError("edge list needs an 'n m' header")
    try:
        numbers = [int(t) for t in tokens]
    except ValueError as exc:
        raise GraphFormatError(f"non-integer token in edge list: {exc}") from None
    n, m = numbers[0], numbers[1]
    if n < 0 or m < 0:
        raise GraphFormatError("vertex and edge counts must be nonnegative")
    if len(numbers) != 2 + 2 * m:
        raise GraphFormatError(
            f"header declares {m} edges but {(len(numbers) - 2) / 2:g} pairs follow"
        )
    edges = [(numbers[i], numbers[i + 1]) for i in range(2, len(numbers), 2)]
    try:
        return Graph(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def _format_of(line: str) -> str | None:
    """The format a meaningful line announces; None for blank and comment lines."""
    parts = line.split("#", 1)[0].split()
    if parts:
        return "edgelist" if len(parts) == 2 and all(p.isdigit() for p in parts) else "graph6"


def _attempt(parse, data):
    try:
        return parse(data)
    except GraphFormatError as exc:
        return exc


def iter_entries(lines, fmt: str = "auto"):
    """Yield (line_number, Graph | GraphFormatError) per entry of ``lines``,
    one at a time; ``lines`` is ``text.splitlines()`` or an open text file
    (lines break as in ``str.splitlines`` either way).  "auto" takes the
    format from the first meaningful line.  An edge list is one entry, numbered
    None; each graph6 entry is a nonblank line that does not start with '#'."""
    if fmt not in ("auto", "graph6", "edgelist"):
        raise ValueError(f"unknown format {fmt!r}")
    numbered = enumerate((line for raw in lines for line in raw.splitlines() or [raw]), 1)
    if fmt == "auto":
        for number, line in numbered:
            if fmt := _format_of(line):
                numbered = chain([(number, line)], numbered)
                break
        else:
            return  # no graph data
    if fmt == "edgelist":
        yield None, _attempt(parse_edge_list, "\n".join(line for _, line in numbered))
        return
    for number, raw in numbered:
        line = raw.strip()
        if line and not line.startswith("#"):
            yield number, _attempt(parse_graph6, line)


def load_graphs(text: str, fmt: str = "auto") -> list[Graph]:
    """Read one edge-list graph or any number of graph6 lines; the first
    malformed entry raises."""
    graphs = []
    for _, entry in iter_entries(text.splitlines(), fmt):
        if isinstance(entry, GraphFormatError):
            raise entry
        graphs.append(entry)
    if not graphs:
        raise GraphFormatError("no graph data found" if fmt == "auto"
                               else "no graph6 lines found")
    return graphs


# Not in __all__: perfbench's tracer wraps every __all__ name, and this
# recursive helper would swamp the formats layer's call counts.
def jsonable(value):
    """Strict-JSON form of a result: a record becomes an object in its field
    order, a set a sorted list, a pair key (u, v) "u-v", an infinity "inf"."""
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        value = value._asdict()
    if isinstance(value, dict):
        return {(f"{k[0]}-{k[1]}" if isinstance(k, tuple) else k): jsonable(v)
                for k, v in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, float) and value == math.inf:
        return "inf"
    return value
