import json

import pytest

from iocodes.cli import main


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
            assert status == 1
            assert out == ""
            assert err.startswith("error: ") and "Traceback" not in err

    def test_bad_token_reports_its_line(self, capsys, p5_file, tmp_path):
        f = tmp_path / "c.txt"
        f.write_text("0 1\n2 x\n")
        status, _, err = run(capsys, "verify", p5_file, str(f))
        assert status == 2
        assert "'x'" in err and "(line 2)" in err


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

    def test_budget(self, capsys, p5_file):
        _, out, _ = run(capsys, "solve", p5_file, "--budget", "3")
        assert json.loads(out)["found"] is False
        _, out, _ = run(capsys, "solve", p5_file, "--budget", "4")
        assert json.loads(out)["found"] is True


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

    def test_path_beyond_the_recursion_limit_exits_with_an_error(self, capsys, tmp_path):
        f = tmp_path / "p2000.edges"
        f.write_text("".join(f"{i} {i + 1}\n" for i in range(1999)))
        status, out, err = run(capsys, "construct", str(f), "--delta", "3")
        assert status == 1
        assert out == ""
        assert err.startswith("error: ") and "recursion limit" in err


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
