"""Source-level guards on the package itself."""

import ast
import importlib.util
from pathlib import Path

import quasigalois

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
FLOAT_MODULES = {"numpy", "scipy", "cmath", "math"}
ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def _sources():
    sources = sorted(Path(quasigalois.__file__).parent.glob("*.py"))
    assert any(p.name == "census.py" for p in sources)
    return sources


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements; invariants must raise
    # InvariantViolation instead so they still fire.
    sources = _sources()
    offenders = [
        "%s:%d" % (path.name, node.lineno)
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert offenders == []


def test_package_reads_no_environment():
    # Input bounds are serialize constants and options are flags; a knob read
    # from the environment would bound the command line but not a library
    # call.
    offenders = [
        "%s:%d" % (path.name, getattr(node, "lineno", 0))
        for path in _sources()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS)
        or (isinstance(node, ast.alias) and node.name in ENVIRONMENT_READERS)
    ]
    assert offenders == []


def _float_imports(path):
    """The imports of numpy, scipy, cmath or math (other than math.gcd)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
            found += [n for n in names if n.split(".")[0] in FLOAT_MODULES]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            root = node.module.split(".")[0]
            if root in FLOAT_MODULES - {"math"} or (
                root == "math" and any(a.name != "gcd" for a in node.names)
            ):
                found.append(node.module)
    return found


def test_exact_modules_import_no_floating_point_code():
    # Only the heuristic oracle computes with floats; every certified
    # statement comes from the other modules.
    float_users = {p.name for p in _sources() if _float_imports(p)}
    assert float_users == {"oracle.py"}


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


def test_every_exported_name_resolves():
    missing = [name for name in quasigalois.__all__ if not hasattr(quasigalois, name)]
    assert missing == []


def _raised_names(path):
    """The names of the exceptions raised in a module, called or bare."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                names.add(exc.id)
            elif isinstance(exc, ast.Attribute):
                names.add(exc.attr)
    return names


def test_every_package_error_has_a_raise_site():
    # an error class nothing raises is an orphan: callers would catch a
    # condition the package never reports
    errors = importlib.import_module("quasigalois.errors")
    declared = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type)
        and issubclass(obj, errors.QuasiGaloisError)
        and obj is not errors.QuasiGaloisError
    }
    raised = set().union(*(_raised_names(path) for path in _sources()))
    assert sorted(declared - raised) == []


def test_only_cyclotomic_knows_how_a_field_is_stored():
    # a context's signature and the unit test of K[l] have one owner, so a
    # reduction or a proportionality test cannot drift from the arithmetic
    readers, definers = [], []
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == "signature":
                readers.append(path.name)
            elif isinstance(node, ast.FunctionDef) and node.name == "_require_unit":
                definers.append(path.name)
    assert set(readers) == {"cyclotomic.py"}
    assert definers == []
