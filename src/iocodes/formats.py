"""Graph serialization: plain edge-list text and the graph6 format.

Edge lists are one ``u v`` pair per line with ``#`` comments; the vertex
count is implied by the largest index unless a ``n <count>`` header line
is present.  graph6 packs the upper triangle of the adjacency matrix
column by column into 6-bit groups offset by 63; it is read and written
in time linear in its bytes plus its edges.  CLI JSON is indented by 2
with sorted keys.
"""

from __future__ import annotations

import json
import re
from base64 import b64decode, b64encode
from json.encoder import encode_basestring_ascii as _quote
from math import isqrt

from .errors import BadParam, ParseError
from .graphs import Graph

__all__ = [
    "parse_edge_list",
    "emit_edge_list",
    "parse_graph6",
    "emit_graph6",
    "emit_json",
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


# base64 cuts bytes into 6-bit groups, most significant first, as graph6
# does; these map its digit for each group value to graph6's byte and back
_BASE64_DIGITS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6_DIGITS = bytes(range(63, 127))
_G6_OF_BASE64 = bytes.maketrans(_BASE64_DIGITS, _G6_DIGITS)
_BASE64_OF_G6 = bytes.maketrans(_G6_DIGITS, _BASE64_DIGITS)


def emit_graph6(g: Graph) -> str:
    """Encode a graph as a graph6 string (no header).

    Edge ``row < col`` is bit ``col(col-1)/2 + row`` of the body.  Each
    edge sets its bit in a zeroed buffer of whole 3-byte blocks, base64
    packs the buffer into 6-bit groups in one pass, and the groups past
    the body's are dropped."""
    n = g.n
    groups = -(-(n * (n - 1) // 2) // 6)
    body = bytearray(-(-groups // 4) * 3)
    for row, mask in enumerate(g.adj):
        above = mask >> row  # bit j is vertex row + j; bit 0 is clear
        while above:
            low = above & -above
            col = row + low.bit_length() - 1
            k = (col * (col - 1) >> 1) + row
            body[k >> 3] |= 128 >> (k & 7)
            above ^= low
    return (_g6_order_bytes(n) + b64encode(body)[:groups].translate(_G6_OF_BASE64)).decode("ascii")


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (optional ``>>graph6<<`` header).

    The checked body is translated to base64's digits and decoded in one
    pass.  Only its nonzero bytes are read: set bit ``k`` is the edge
    ``row < col`` with ``col(col-1)/2 + row = k``."""
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
    body = data[pos:]
    if len(body) != need:
        raise ParseError(f"graph6 body length {len(body)}, expected {need}", position=pos)
    invalid = body.translate(None, _G6_DIGITS)
    if invalid:
        # the first invalid byte's first occurrence is the first invalid byte
        raise ParseError(f"invalid graph6 byte {invalid[0]}", position=pos + body.index(invalid[0]))
    # the last group's bits past the body's bits
    if (data[-1] - 63) & ((1 << (6 * need - nbits)) - 1):
        raise ParseError("nonzero padding bits in graph6 body", position=pos)
    raw = b64decode(body.translate(_BASE64_OF_G6) + b"A" * (-need % 4))
    adj = [0] * n
    for match in re.finditer(rb"[^\x00]", raw):
        i = match.start()
        byte = raw[i]
        while byte:
            top = byte.bit_length() - 1
            byte ^= 1 << top
            k = 8 * i + 7 - top
            col = (isqrt(8 * k + 1) + 1) >> 1
            row = k - (col * (col - 1) >> 1)
            adj[row] |= 1 << col
            adj[col] |= 1 << row
    return Graph._from_adj(tuple(adj))


def emit_json(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    json's indenting encoder is pure Python.  Here plain ``int``, ``str``,
    ``bool`` and ``None`` values are written by type, a list of plain ints
    with one join, and every other scalar and every non-``str`` key by
    json's C encoder, which also raises json's ``TypeError`` for what it
    cannot encode."""
    out: list[str] = []
    _put_json(obj, "\n", out)
    return "".join(out)


def _put_json(o, newline: str, out: list[str]) -> None:
    """Append the pieces of ``o``, whose items start on ``newline`` plus
    two spaces; containers are matched as json matches them, subclasses
    included."""
    t = type(o)
    if t is str:
        out.append(_quote(o))
    elif t is int:
        out.append(int.__repr__(o))
    elif t is bool:
        out.append("true" if o else "false")
    elif o is None:
        out.append("null")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            # a non-str key as the C encoder writes it in a one-item dict: '{"1.5": 0}'
            out.append(sep + (_quote(k) if type(k) is str else json.dumps({k: 0})[1:-4]) + ": ")
            _put_json(v, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = newline + "  "
        if set(map(type, o)) == {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, o)) + newline + "]")
            return
        sep = "[" + inner
        for v in o:
            out.append(sep)
            _put_json(v, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(o))


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
