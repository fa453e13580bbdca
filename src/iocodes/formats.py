"""Graph serialization: plain edge-list text and the graph6 format.

Edge lists are one ``u v`` pair per line with ``#`` comments; the vertex
count is implied by the largest index unless a ``n <count>`` header line
is present.  graph6 packs the upper triangle of the adjacency matrix
column by column into 6-bit groups offset by 63.
"""

from __future__ import annotations

from base64 import b64encode

from .errors import BadParam, ParseError
from .graphs import Graph

__all__ = [
    "parse_edge_list",
    "emit_edge_list",
    "parse_graph6",
    "emit_graph6",
    "load_graph",
]


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text into a graph."""
    edges = []
    declared_n = None
    max_seen = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "n" and len(parts) == 2:
            try:
                declared_n = int(parts[1])
            except ValueError:
                raise ParseError(f"bad vertex count {parts[1]!r}", line=lineno) from None
            if declared_n < 0:
                raise ParseError(f"negative vertex count {declared_n}", line=lineno)
            continue
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {line!r}", line=lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex in {line!r}", line=lineno)
        if u == v:
            raise ParseError(f"self-loop {u} {v}", line=lineno)
        edges.append((u, v))
        max_seen = max(max_seen, u, v)
    n = declared_n if declared_n is not None else max_seen + 1
    if n < max_seen + 1:
        raise ParseError(f"declared n={n} smaller than largest index {max_seen}")
    return Graph(n, edges)


def emit_edge_list(g: Graph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def _g6_order_bytes(n: int) -> bytes:
    if n < 0:
        raise BadParam(f"negative order {n}")
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes(
            [126, ((n >> 12) & 63) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63]
        )
    raise BadParam(f"order {n} too large for this graph6 writer")


# graph6 body byte -> its 6 bits, most significant first
_G6_GROUP = {c: format(c - 63, "06b") for c in range(63, 127)}
# base64 cuts bytes into 6-bit groups, most significant first, as graph6
# does; this maps its digit for each group value to graph6's byte
_G6_OF_BASE64 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no header).

    The bits are read as one integer, padded to whole 3-byte blocks, and
    base64 packs its bytes into 6-bit groups in one pass; the groups past
    the body's are padding and dropped."""
    adj = g.adj
    # column j is rows 0..j-1 of adj[j], lowest row first: bin() of those
    # rows with bit j set has j digits after "0b1", read here backwards
    bits = "".join([bin(adj[col] & ((1 << col) - 1) | 1 << col)[:2:-1] for col in range(1, g.n)])
    groups = -(-len(bits) // 6)
    pad = -len(bits) % 24
    packed = (int(bits or "0", 2) << pad).to_bytes((len(bits) + pad) // 8, "big")
    body = b64encode(packed)[:groups].translate(_G6_OF_BASE64)
    return (_g6_order_bytes(g.n) + body).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (optional ``>>graph6<<`` header)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ParseError("empty graph6 string")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as err:
        char = s[err.start]
        raise ParseError(f"non-ASCII character {char!r} in graph6 string", position=err.start) from None
    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise ParseError("graph6 orders above 258047 unsupported", position=0)
        if len(data) < 4:
            raise ParseError("truncated graph6 order", position=0)
        n = 0
        for i in range(1, 4):
            c = data[i] - 63
            if not 0 <= c <= 63:
                raise ParseError(f"invalid graph6 byte {data[i]}", position=i)
            n = (n << 6) | c
        pos = 4
    else:
        n = data[0] - 63
        if not 0 <= n <= 62:
            raise ParseError(f"invalid graph6 order byte {data[0]}", position=0)
        pos = 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - pos != need:
        raise ParseError(
            f"graph6 body length {len(data) - pos}, expected {need}", position=pos
        )
    groups = [_G6_GROUP.get(c) for c in data[pos:]]
    if None in groups:
        i = pos + groups.index(None)
        raise ParseError(f"invalid graph6 byte {data[i]}", position=i)
    bits = "".join(groups)
    edges = []
    start = 0
    for col in range(1, n):
        end = start + col
        row = bits.find("1", start, end)
        while row >= 0:
            edges.append((row - start, col))
            row = bits.find("1", row + 1, end)
        start = end
    if "1" in bits[nbits:]:
        raise ParseError("nonzero padding bits in graph6 body", position=pos)
    return Graph(n, edges)


def load_graph(text: str) -> Graph:
    """Parse either format, deciding by the first line with content once
    ``#`` comments are removed.

    graph6 never holds whitespace, ``#`` or ``-`` and never starts with a
    digit, so such a line opens an edge list.  A graph6 input is that one
    line; a second line with content is an error.
    """
    content = (
        (lineno, line)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.split("#", 1)[0].strip())
    )
    _, first = next(content, (None, ""))
    if not first:
        raise ParseError("empty graph input")
    if first[0].isdigit() or "-" in first or len(first.split()) > 1:
        return parse_edge_list(text)
    second = next(content, None)
    if second is not None:
        raise ParseError(f"second graph6 line {second[1]!r}", line=second[0])
    return parse_graph6(first)
