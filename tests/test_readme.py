"""The README's library tour runs, and each result its comments state holds."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_tour_runs_and_its_comments_hold():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    source = blocks[0]
    lines = source.splitlines()
    namespace = {}
    checked = []
    for statement in ast.parse(source).body:
        code = ast.get_source_segment(source, statement)
        if not isinstance(statement, ast.Expr):
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        # a bare expression's comment opens with its value: "# True", "# None: ..."
        comment = lines[statement.lineno - 1].split("#", 1)[1]
        expected = ast.literal_eval(comment.split(":", 1)[0].strip())
        assert eval(compile(code, "README.md", "eval"), namespace) == expected, code
        checked.append((code, expected))
    assert checked == [
        ("is_io_code(g, result.code).ok", True),
        ("solve_with_budget(ring, 24)", None),
        ("is_io_code(g, code).ok", True),
        ('summary["violations"]', 0),
    ]
    # the assignment's comment: SolveResult(gamma=4, code={0,1,2,3}, ...)
    result = namespace["result"]
    assert "# SolveResult(gamma=4, code={0,1,2,3}, ...)" in source
    assert (result.gamma, sorted(result.code)) == (4, [0, 1, 2, 3])
