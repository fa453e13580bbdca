import random

import networkx as nx
import pytest

from conftest import random_graph
from iocodes import Graph, ParseError
from iocodes.formats import (
    emit_edge_list,
    emit_graph6,
    load_graph,
    parse_edge_list,
    parse_graph6,
)


class TestEdgeList:
    def test_round_trip(self, rng):
        for _ in range(30):
            g = random_graph(rng.randint(0, 10), rng.random(), rng)
            assert parse_edge_list(emit_edge_list(g)) == g

    def test_comments_and_implied_order(self):
        g = parse_edge_list("# triangle\n0 1\n1 2   # closing\n0 2\n")
        assert g.n == 3 and g.edge_count == 3

    def test_header_allows_isolates(self):
        g = parse_edge_list("n 4\n0 1\n")
        assert g.n == 4 and g.edge_count == 1

    def test_error_carries_line(self):
        with pytest.raises(ParseError) as err:
            parse_edge_list("0 1\nnonsense line here\n")
        assert err.value.line == 2

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_edge_list("2 2\n")

    @pytest.mark.parametrize(
        "text, message",
        [("n four\n0 1\n", "bad vertex count 'four' (line 1)"), ("0 1\n1 x\n", "non-integer endpoint in '1 x' (line 2)")],
    )
    def test_errors_do_not_chain_the_int_error(self, text, message):
        # a library caller's traceback ends at the ParseError, as for graph6
        with pytest.raises(ParseError) as err:
            parse_edge_list(text)
        assert str(err.value) == message
        assert err.value.__suppress_context__ and err.value.__cause__ is None


class TestGraph6:
    def test_known_strings(self):
        k4 = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        assert emit_graph6(k4) == "C~"
        p2 = Graph(2, [(0, 1)])
        assert emit_graph6(p2) == "A_"
        empty5 = Graph(5)
        assert emit_graph6(empty5) == "D??"

    def test_round_trip(self, rng):
        for _ in range(60):
            g = random_graph(rng.randint(0, 20), rng.random(), rng)
            assert parse_graph6(emit_graph6(g)) == g

    def test_matches_networkx(self, rng):
        for _ in range(60):
            g = random_graph(rng.randint(1, 15), rng.random(), rng)
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(g.edges())
            theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert emit_graph6(g) == theirs
            back = nx.from_graph6_bytes(emit_graph6(g).encode())
            assert sorted(map(tuple, map(sorted, back.edges()))) == g.edges()

    @pytest.mark.parametrize("n", [0, 1, 2, 62, 63, 64])
    def test_round_trip_at_the_edges_of_the_forms(self, rng, n):
        # 62 is the largest one-byte order; each column's bits run across
        # the six-bit groups
        for p in (0.0, 0.3, 1.0):
            g = random_graph(n, p, rng)
            text = emit_graph6(g)
            assert len(text) == (1 if n <= 62 else 4) + (n * (n - 1) // 2 + 5) // 6
            assert parse_graph6(text) == g
            h = nx.empty_graph(n)
            h.add_edges_from(g.edges())
            assert text == nx.to_graph6_bytes(h, header=False).decode().strip()

    def test_header_accepted(self):
        g = parse_graph6(">>graph6<<C~")
        assert g.edge_count == 6

    def test_long_form_order(self):
        g = Graph(70, [(0, 69)])
        assert parse_graph6(emit_graph6(g)) == g

    def test_bad_length(self):
        with pytest.raises(ParseError):
            parse_graph6("C~~")

    def test_bad_padding(self):
        # D is n=5 -> 10 bits -> 2 bytes; set a padding bit
        with pytest.raises(ParseError):
            parse_graph6("D?@")

    def test_non_ascii_character_is_named(self):
        # a non-ASCII character was read as '?': the first two decoded to
        # edgeless graphs
        cases = (("B\u00e9", "\u00e9", 1), ("C\u2603", "\u2603", 1), (">>graph6<<\u00e9?", "\u00e9", 0))
        for text, char, position in cases:
            with pytest.raises(ParseError, match=f"non-ASCII character {char!r}") as caught:
                parse_graph6(text)
            assert caught.value.position == position
        with pytest.raises(ParseError, match="non-ASCII"):
            load_graph("# a snowman\nC\u2603\n")


class TestLoadGraph:
    def test_dispatch(self):
        assert load_graph("0 1\n1 2\n").n == 3
        assert load_graph("C~").n == 4
        assert load_graph(">>graph6<<C~").n == 4

    def test_empty_input(self):
        with pytest.raises(ParseError):
            load_graph("   ")

    def test_comment_only_input_is_empty(self):
        with pytest.raises(ParseError, match="empty graph input"):
            load_graph("# only a comment\n\n")

    def test_dispatch_skips_comments(self):
        assert load_graph("# a path\n\n0 1\n1 2\n").n == 3
        assert load_graph("  # indented comment\nn 4 # four vertices\n0 1\n").n == 4
        assert load_graph("\nC~\n").n == 4

    def test_graph6_with_comment_lines(self):
        k4 = parse_graph6("C~")
        assert load_graph("# K4\nC~\n") == k4
        assert load_graph("C~\n# tail\n") == k4
        assert load_graph("\n  C~  # K4\n\n") == k4

    def test_second_graph6_line_is_named(self):
        with pytest.raises(ParseError, match="second graph6 line 'C~'") as caught:
            load_graph("# two graphs\nC~\n\n# another\nC~\n")
        assert caught.value.line == 5

    def test_edge_list_errors_are_not_read_as_graph6(self):
        for text, fault in (("0 -1\n1 2\n", "negative vertex"), ("0 x\n", "non-integer endpoint")):
            with pytest.raises(ParseError, match=fault) as caught:
                load_graph(text)
            assert caught.value.line == 1


# graph6 decoding as it was before it went a whole group at a time, kept
# verbatim as the reference: every graph and every error must be the same.

def reference_parse_graph6(text: str) -> Graph:
    """Decode one graph6 string (optional ``>>graph6<<`` header)."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :]
    if not s:
        raise ParseError("empty graph6 string")
    data = s.encode("ascii", errors="replace")
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
    bits = []
    for i in range(pos, len(data)):
        c = data[i] - 63
        if not 0 <= c <= 63:
            raise ParseError(f"invalid graph6 byte {data[i]}", position=i)
        for shift in range(5, -1, -1):
            bits.append((c >> shift) & 1)
    edges = []
    idx = 0
    for col in range(1, n):
        for row in range(col):
            if bits[idx]:
                edges.append((row, col))
            idx += 1
    if any(bits[nbits:]):
        raise ParseError("nonzero padding bits in graph6 body", position=pos)
    return Graph(n, edges)


def decoded(parse, text):
    try:
        return parse(text)
    except ParseError as err:
        return str(err), err.line, err.position


class TestGraph6AgainstReference:
    def test_valid_strings(self, rng):
        for _ in range(200):
            g = random_graph(rng.choice([rng.randint(0, 20), rng.randint(60, 90)]), rng.random(), rng)
            text = emit_graph6(g)
            assert parse_graph6(text) == reference_parse_graph6(text) == g

    def test_corrupted_strings_give_the_same_error(self):
        rng = random.Random(6)
        alphabet = [chr(c) for c in range(33, 128)] + ["\x00", " ", "\u00e9", "\u2603"]
        fixed = ["", ">>graph6<<", "~", "~~", "~?", "~??", "~~??", "@", "A", "A_", "Ao", "B?", "C}", "D??", "D?@"]
        texts = []
        for _ in range(1500):
            text = emit_graph6(random_graph(rng.choice([rng.randint(0, 15), rng.randint(60, 70)]), rng.random(), rng))
            i = rng.randrange(len(text))
            edit = rng.randrange(4)
            if edit == 0:
                text = text[:i] + rng.choice(alphabet) + text[i + 1 :]
            elif edit == 1:
                text = text[:i] + text[i + 1 :]
            elif edit == 2:
                text = text[:i] + rng.choice(alphabet) + text[i:]
            else:
                text = text[:-1] + chr(ord(text[-1]) | rng.choice([1, 2, 4, 8, 16, 32]))
            texts.append(text)
        errors = non_ascii = 0
        for text in fixed + texts:
            ours = decoded(parse_graph6, text)
            # the reference read a non-ASCII character as '?'; it is an error now
            if not text.isascii():
                s = text.strip()
                i = next(i for i, c in enumerate(s) if not c.isascii())
                assert ours == (f"non-ASCII character {s[i]!r} in graph6 string (position {i})", None, i)
                non_ascii += 1
            else:
                assert ours == decoded(reference_parse_graph6, text), text
            errors += isinstance(ours, tuple)
        assert non_ascii == 12
        assert errors >= 800
