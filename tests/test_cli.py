import hashlib
import io
import json
import random

import pytest

from iocodes import cli
from iocodes.cli import _FAMILY_BUILDERS, main
from iocodes.formats import emit_graph6, load_graph


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr()
    return status, out.out, out.err


@pytest.fixture
def p5_file(tmp_path):
    f = tmp_path / "p5.edges"
    f.write_text("0 1\n1 2\n2 3\n3 4\n")
    return str(f)


@pytest.fixture
def code_file(tmp_path):
    def make(name, members):
        f = tmp_path / name
        f.write_text("\n".join(str(v) for v in members) + "\n")
        return str(f)

    return make


class TestVerify:
    def test_ok(self, capsys, p5_file, code_file):
        status, out, _ = run(capsys, "verify", p5_file, code_file("c.txt", [1, 2, 3, 4]))
        assert status == 0
        assert json.loads(out)["ok"] is True

    def test_failure_exit_code(self, capsys, p5_file, code_file):
        status, out, _ = run(capsys, "verify", p5_file, code_file("c.txt", [1, 2]))
        assert status == 1
        payload = json.loads(out)
        assert payload["ok"] is False and payload["violation"]

    def test_missing_file(self, capsys, p5_file):
        status, _, err = run(capsys, "verify", p5_file, "/nonexistent/code.txt")
        assert status == 2

    def test_negative_vertex_is_an_error_not_a_traceback(self, capsys, p5_file, code_file):
        for command in ("verify", "signature"):
            status, out, err = run(capsys, command, p5_file, code_file("c.txt", [1, -1]))
            assert status == 2
            assert out == ""
            assert err.startswith("input error: ") and "Traceback" not in err

    def test_vertex_outside_the_graph_is_an_input_error(self, capsys, p5_file, tmp_path):
        f = tmp_path / "c.txt"
        for text, bad, line in (("1 2 9\n", 9, 1), ("1\n2 -2\n", -2, 2), ("0 5\n", 5, 1)):
            f.write_text(text)
            for command in ("verify", "signature"):
                status, out, err = run(capsys, command, p5_file, str(f))
                assert status == 2 and out == ""
                assert err == f"input error: vertex {bad} outside a graph on 5 vertices (line {line})\n"

    def test_bad_token_reports_its_line(self, capsys, p5_file, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("0 1\n2 x\n")
        status, _, err = run(capsys, "verify", p5_file, str(f))
        assert status == 2
        assert "'x'" in err and "(line 2)" in err

    def test_graph_and_code_both_from_standard_input_is_an_input_error(self, capsys, monkeypatch):
        # the code was read from the spent stream as the empty set: exit 1, not_totally_dominated
        stdin = io.StringIO("0 1\n1 2\n2 3\n3 4\n")
        monkeypatch.setattr("sys.stdin", stdin)
        status, out, err = run(capsys, "verify", "-", "-")
        assert (status, out) == (2, "")
        assert err == "input error: the graph and the code cannot both be read from standard input\n"
        assert stdin.tell() == 0


class TestSolve:
    def test_p5(self, capsys, p5_file):
        status, out, _ = run(capsys, "solve", p5_file)
        assert status == 0
        payload = json.loads(out)
        assert payload["gamma"] == 4
        assert payload["method"] == "branch_and_bound"
        assert "wall_time_ms" in payload

    def test_oracle_flag(self, capsys, p5_file):
        _, out, _ = run(capsys, "solve", p5_file, "--oracle")
        assert json.loads(out)["method"] == "oracle"

    def test_negative_vertex_on_the_first_line_is_named(self, capsys, tmp_path):
        f = tmp_path / "neg.edges"
        f.write_text("0 -1\n1 2\n")
        status, out, err = run(capsys, "solve", str(f))
        assert status == 2
        assert out == ""
        assert "negative vertex" in err and "line 1" in err

    def test_negative_declared_count_is_named(self, capsys, tmp_path):
        f = tmp_path / "neg.edges"
        f.write_text("# header below\nn -5\n0 1\n")
        status, out, err = run(capsys, "solve", str(f))
        assert status == 2
        assert out == ""
        assert err == "input error: negative vertex count -5 (line 2)\n"

    def test_edge_list_may_open_with_a_comment(self, capsys, tmp_path):
        f = tmp_path / "p5.edges"
        f.write_text("# the path on 5 vertices\n0 1\n1 2\n2 3\n3 4\n")
        status, out, _ = run(capsys, "solve", str(f))
        assert status == 0
        assert json.loads(out)["gamma"] == 4

    @pytest.mark.parametrize("text", ["# K4\nC~\n", "C~\n# tail\n"])
    def test_graph6_with_a_comment_line(self, capsys, tmp_path, text):
        f = tmp_path / "k4.g6"
        f.write_text(text)
        status, out, _ = run(capsys, "solve", str(f))
        assert status == 0
        assert json.loads(out)["gamma"] == 3  # K4

    def test_edge_list_with_a_byte_order_mark(self, capsys, tmp_path):
        f = tmp_path / "p5.edges"
        f.write_bytes(b"\xef\xbb\xbf0 1\n1 2\n2 3\n3 4\n")
        status, out, err = run(capsys, "solve", str(f))
        assert (status, err) == (0, "")
        assert json.loads(out)["gamma"] == 4

    def test_graph6_with_a_byte_order_mark(self, capsys, tmp_path):
        f = tmp_path / "k4.g6"
        f.write_bytes(b"\xef\xbb\xbfC~\n")
        status, out, err = run(capsys, "solve", str(f))
        assert (status, err) == (0, "")
        assert json.loads(out)["gamma"] == 3  # K4

    def test_standard_input_with_a_byte_order_mark(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("\ufeff0 1\n1 2\n2 3\n3 4\n"))
        status, out, err = run(capsys, "solve", "-")
        assert (status, err) == (0, "")
        assert json.loads(out)["gamma"] == 4

    def test_code_file_with_a_byte_order_mark(self, capsys, p5_file, tmp_path):
        f = tmp_path / "p5.code"
        f.write_bytes(b"\xef\xbb\xbf0 1 2 3\n")
        status, out, _ = run(capsys, "verify", p5_file, str(f))
        assert status == 0
        assert json.loads(out)["ok"] is True

    def test_budget(self, capsys, p5_file):
        _, out, _ = run(capsys, "solve", p5_file, "--budget", "3")
        assert json.loads(out)["found"] is False
        _, out, _ = run(capsys, "solve", p5_file, "--budget", "4")
        assert json.loads(out)["found"] is True

    def test_budget_and_oracle_exclude_each_other(self, capsys, p5_file):
        with pytest.raises(SystemExit) as caught:
            main(["solve", p5_file, "--budget", "4", "--oracle"])
        assert caught.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "not allowed with argument" in out.err

    def test_non_ascii_graph6_is_an_input_error(self, capsys, tmp_path):
        f = tmp_path / "snowman.g6"
        f.write_text("C\u2603\n", encoding="utf-8")
        status, out, err = run(capsys, "solve", str(f))
        assert status == 2
        assert out == ""
        assert err == "input error: non-ASCII character '\u2603' in graph6 string (position 1)\n"


class TestConstruct:
    def test_tree(self, capsys, p5_file):
        status, out, _ = run(capsys, "construct", p5_file, "--delta", "3")
        assert status == 0
        payload = json.loads(out)
        assert payload["bound_status"] == "within_bound"
        assert payload["size"] == len(payload["code"])
        assert payload["trace"]["steps"]

    def test_graph_default_delta(self, capsys, tmp_path):
        f = tmp_path / "c5.edges"
        f.write_text("0 1\n1 2\n2 3\n3 4\n4 0\n")
        status, out, _ = run(capsys, "construct", str(f))
        assert status == 0
        assert json.loads(out)["delta"] == 3

    @pytest.mark.parametrize("text, n", [("n 0\n", 0), ("?\n", 0), ("n 1\n", 1)])
    def test_too_small_input_reports_its_order(self, capsys, tmp_path, text, n):
        # the empty graph has no maximum degree, so the default delta must
        # not be read from it before the order is checked
        f = tmp_path / "small.txt"
        f.write_text(text)
        assert run(capsys, "construct", str(f)) == (1, "", f"error: need order >= 5, got {n}\n")

    def test_path_beyond_the_recursion_limit_prints_a_code_within_the_bound(self, capsys, tmp_path):
        f = tmp_path / "p2000.edges"
        f.write_text("".join(f"{i} {i + 1}\n" for i in range(1999)))
        status, out, err = run(capsys, "construct", str(f), "--delta", "3")
        assert (status, err) == (0, "")
        payload = json.loads(out)
        assert payload["bound_status"] == "within_bound"
        assert payload["size"] == len(payload["code"]) == 1600
        assert len(payload["trace"]["steps"]) == 400


class TestOutputBytes:
    """Each JSON document is written in one piece, byte for byte as
    ``json.dump`` streams it."""

    # construct's stdout on the tree below, as written by json.dump
    CONSTRUCT_SHA256 = "0f6256ea6d6f8781ed67d86e7a775764604fef649cc96182f291d376e5706d73"

    @pytest.fixture
    def tree_file(self, tmp_path):
        # vertex i of 1..15 joined to (i - 1) // 2, every edge subdivided: 31 vertices
        f = tmp_path / "t31.edges"
        f.write_text("".join(f"{(i - 1) // 2} {15 + i}\n{15 + i} {i}\n" for i in range(1, 16)))
        return str(f)

    @pytest.mark.parametrize("command", ["solve", "construct"])
    def test_one_write_is_the_streamed_document(self, capsys, tree_file, command):
        status, out, _ = run(capsys, command, tree_file)
        assert status == 0
        streamed = io.StringIO()
        json.dump(json.loads(out), streamed, indent=2, sort_keys=True)
        assert out == streamed.getvalue() + "\n"

    def test_construct_output_is_unchanged(self, capsys, tree_file):
        _, out, _ = run(capsys, "construct", tree_file)
        assert hashlib.sha256(out.encode()).hexdigest() == self.CONSTRUCT_SHA256

    def test_graph6_input_prints_the_edge_list_bytes(self, capsys, tmp_path):
        # vertex i of 1..1000 joined to a random earlier one, every edge subdivided: 2,001 vertices
        rng = random.Random(3)
        edges = tmp_path / "t2001.edges"
        edges.write_text("".join(f"{rng.randrange(i)} {1000 + i}\n{1000 + i} {i}\n" for i in range(1, 1001)))
        g6 = tmp_path / "t2001.g6"
        g6.write_text(emit_graph6(load_graph(edges.read_text())) + "\n")
        status, from_edges, _ = run(capsys, "construct", str(edges))
        assert status == 0 and json.loads(from_edges)["bound_status"] == "within_bound"
        assert run(capsys, "construct", str(g6)) == (0, from_edges, "")


class TestGenerate:
    def test_edge_list_output(self, capsys):
        status, out, _ = run(capsys, "generate", "subdivided-star", "4")
        assert status == 0
        lines = [l for l in out.splitlines() if l and not l.startswith("n ")]
        assert len(lines) == 8  # 9-vertex tree

    def test_g6_and_sidecar(self, capsys, tmp_path):
        sidecar = tmp_path / "meta.json"
        status, out, _ = run(
            capsys, "generate", "gadget-cycle", "3", "--format", "g6", "--sidecar", str(sidecar)
        )
        assert status == 0
        from iocodes.formats import parse_graph6

        assert parse_graph6(out.strip()).n == 18
        meta = json.loads(sidecar.read_text())
        assert meta["kind"] == "subcubic_gadget_cycle"
        assert len(meta["reference_code"]) == 15

    def test_attachment_tree(self, capsys):
        status, out, _ = run(capsys, "generate", "attachment-tree", "1", "3", "2", "3", "2", "2")
        assert status == 0

    # one call per builder, each star-plus-edge variant
    FAMILIES = [
        "subdivided-star 4",
        "reduced-subdivided-star 4",
        "attachment-tree 1 3 2 3 2 2",
        "tight-tree-pair 4",
        "gadget-cycle 5",
        "star-plus-edge g1 4",
        "star-plus-edge g2 4",
        "star-plus-edge g3 4",
    ]

    def test_families_cover_every_builder(self):
        assert {family.split()[0] for family in self.FAMILIES} == set(_FAMILY_BUILDERS)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sidecar_code_verifies(self, capsys, tmp_path, code_file, family):
        graph, sidecar = tmp_path / "fam.edges", tmp_path / "fam.json"
        status, out, _ = run(capsys, "generate", *family.split(), "--sidecar", str(sidecar))
        assert status == 0
        graph.write_text(out)
        code = json.loads(sidecar.read_text())["reference_code"]
        status, out, _ = run(capsys, "verify", str(graph), code_file("fam.code", code))
        assert status == 0 and json.loads(out)["ok"] is True

    def test_twin_tree_sidecar_has_no_code(self, capsys, tmp_path):
        # the single type-5 tree: its root is an open twin of the near leaf
        graph, sidecar = tmp_path / "fam.edges", tmp_path / "fam.json"
        status, out, _ = run(capsys, "generate", "attachment-tree", *"0 0 0 0 1 0".split(), "--sidecar", str(sidecar))
        assert status == 0
        assert json.loads(sidecar.read_text())["reference_code"] is None
        graph.write_text(out)
        status, out, err = run(capsys, "solve", str(graph))
        assert status == 1 and out == ""
        assert "open twins (0, 2)" in err

    @pytest.mark.parametrize("family", FAMILIES)
    def test_file_and_stdout_sidecars_are_equal(self, capsys, tmp_path, family):
        sidecar = tmp_path / "fam.json"
        _, graph_text, _ = run(capsys, "generate", *family.split(), "--sidecar", str(sidecar))
        status, out, _ = run(capsys, "generate", *family.split(), "--sidecar", "-")
        assert status == 0
        assert out == graph_text + sidecar.read_text()

    def test_unknown_family(self, capsys):
        status, _, err = run(capsys, "generate", "klein-bottle", "3")
        assert status == 2

    def test_missing_parameter_is_an_input_error(self, capsys):
        status, out, err = run(capsys, "generate", "star-plus-edge", "g1")
        assert status == 2
        assert out == ""
        assert err == "input error: family star-plus-edge takes g1|g2|g3 K, got g1\n"

    def test_non_integer_parameter_is_an_input_error(self, capsys):
        status, out, err = run(capsys, "generate", "subdivided-star", "x")
        assert status == 2
        assert out == ""
        assert err == "input error: family subdivided-star takes D, got x\n"

    @pytest.mark.parametrize("counts", ["2 0 0 0 0 0", "0 0 0 0 0 0", "0 2 -1 0 0 0", "1 1 0 0 0 0"])
    def test_non_admissible_vector_is_an_input_error(self, capsys, counts):
        status, out, err = run(capsys, "generate", "attachment-tree", *counts.split())
        assert status == 2
        assert out == ""
        assert err == f"input error: attachment vector ({', '.join(counts.split())}) is not admissible\n"

    def test_bad_params(self, capsys, p5_file):
        # a parameter value out of range is malformed input, in every command
        for argv in (
            ("generate", "gadget-cycle", "4"),
            ("generate", "subdivided-star", "1"),
            ("generate", "star-plus-edge", "g9", "3"),
            ("audit", "trees", "--n-max", "4"),
            ("construct", p5_file, "--delta", "2"),
        ):
            status, _, err = run(capsys, *argv)
            assert status == 2 and err.startswith("input error:"), argv


class TestSignature:
    def test_table(self, capsys, p5_file, code_file):
        status, out, _ = run(capsys, "signature", p5_file, code_file("c.txt", [1, 2]))
        assert status == 0
        payload = json.loads(out)
        assert payload["signatures"][0] == [1]
        assert payload["signatures"][2] == [1]

    def test_graph_and_code_both_from_standard_input_is_an_input_error(self, capsys, monkeypatch):
        # an empty code was printed with exit 0
        stdin = io.StringIO("0 1\n1 2\n2 3\n3 4\n")
        monkeypatch.setattr("sys.stdin", stdin)
        status, out, err = run(capsys, "signature", "-", "-")
        assert (status, out) == (2, "")
        assert err == "input error: the graph and the code cannot both be read from standard input\n"
        assert stdin.tell() == 0


class TestAudit:
    def test_trees(self, capsys, tmp_path):
        csv_path = tmp_path / "trees.csv"
        status, out, _ = run(
            capsys, "audit", "trees", "--n-max", "8", "--delta", "3", "--csv", str(csv_path)
        )
        assert status == 0
        summary = json.loads(out)
        assert summary["violations"] == 0
        assert csv_path.read_text().startswith("graph6,")

    def test_graphs_default_to_the_enumeration_cap(self, capsys):
        status, out, _ = run(capsys, "audit", "graphs")
        assert status == 0
        summary = json.loads(out)
        assert summary["n_max"] == 7 and summary["instances"] == 53

    def test_families(self, capsys):
        status, out, _ = run(capsys, "audit", "families", "--delta-max", "3", "--p-max", "3")
        assert status == 0
        assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize(
        "space, option, value",
        [
            ("families", "--csv", "out.csv"),
            ("families", "--n-max", "8"),
            ("families", "--delta", "3"),
            ("trees", "--delta-max", "3"),
            ("trees", "--p-max", "3"),
            ("graphs", "--delta-max", "3"),
            ("graphs", "--p-max", "3"),
        ],
    )
    def test_an_option_the_space_does_not_read_is_an_input_error(
        self, capsys, tmp_path, monkeypatch, space, option, value
    ):
        monkeypatch.chdir(tmp_path)
        status, out, err = run(capsys, "audit", space, option, value)
        assert status == 2
        assert out == ""
        assert err == f"input error: {option} does not apply to audit {space}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("space", ["trees", "graphs"])
    def test_a_csv_path_in_a_missing_directory_fails_before_the_audit(self, capsys, tmp_path, monkeypatch, space):
        def never(*args):
            raise AssertionError("the audit ran")

        monkeypatch.setattr(cli, "audit_trees", never)
        monkeypatch.setattr(cli, "audit_graphs", never)
        csv_path = tmp_path / "missing" / "x.csv"
        status, out, err = run(capsys, "audit", space, "--n-max", "6", "--csv", str(csv_path))
        assert (status, out) == (2, "")
        assert err == f"input error: [Errno 2] No such file or directory: {str(csv_path)!r}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("space", ["trees", "graphs"])
    def test_a_csv_path_that_is_a_directory_fails_before_the_audit(self, capsys, tmp_path, monkeypatch, space):
        calls = []
        monkeypatch.setattr(cli, "audit_trees", lambda *args: calls.append(args))
        monkeypatch.setattr(cli, "audit_graphs", lambda *args: calls.append(args))
        status, out, err = run(capsys, "audit", space, "--n-max", "14", "--csv", str(tmp_path))
        assert (status, out, calls) == (2, "", [])
        assert err == f"input error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
        assert list(tmp_path.iterdir()) == []

    def test_a_csv_path_without_a_directory_is_written_in_the_working_directory(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        status, _, _ = run(capsys, "audit", "trees", "--n-max", "6", "--csv", "t6.csv")
        assert status == 0
        assert (tmp_path / "t6.csv").read_text().startswith("graph6,")
