"""Source-level guards on the package itself."""

import ast
from pathlib import Path

import quasigalois


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements; invariants must raise
    # InvariantViolation instead so they still fire.
    sources = sorted(Path(quasigalois.__file__).parent.glob("*.py"))
    assert any(p.name == "census.py" for p in sources)
    offenders = [
        "%s:%d" % (path.name, node.lineno)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []
