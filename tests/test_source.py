"""Source-level guards on the package itself."""

import ast
import importlib.util
from pathlib import Path

import quasigalois

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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


def test_benchmark_trace_hooks_resolve_in_the_package():
    # The benchmark's tracer wraps these names from outside the package; a
    # rename or a method moved out of its class body would silently zero the
    # per-layer counters instead of failing.
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    def submodule(name):
        return importlib.import_module("quasigalois." + name)

    for mod, attr, _, _ in tracing.SPANNED:
        assert callable(getattr(submodule(mod), attr)), (mod, attr)
    for mod, cls_name, attr, _ in tracing.SPANNED_METHODS:
        assert attr in vars(getattr(submodule(mod), cls_name)), (cls_name, attr)
    for mod, cls_name, attrs, _, _, _ in tracing.COUNTED:
        cls = getattr(submodule(mod), cls_name)
        for attr in attrs:
            assert attr in vars(cls), (cls_name, attr)
