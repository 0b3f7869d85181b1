"""The source keeps no dead code: each public name in src/ has a caller, and each import a use.

A caller is a reference by name, as a bare name or an attribute, in a module
of src/johnson_eigen other than __init__.py or in a perfbench/ module other
than its tests. A re-export from __init__.py or a call from tests/ alone
keeps nothing alive; a definition's references to itself do not count.

No src/ module computes in floating point: it has no true division, no float
or round call and no float literal, save the one allowed below.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted(p for p in (ROOT / "src" / "johnson_eigen").glob("*.py") if p.name != "__init__.py")
PERFBENCH = sorted(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_"))

# Library constructors that no command, search or workload calls.
ALLOWED = {"EigenspaceBasis.member", "SparseFunction.constant"}
# The seconds a search took, a measurement rather than a value it computes.
ALLOWED_FLOATS = ["minsupport.py SearchStats.__init__: 0.0"]


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _references(node) -> Counter:
    """Each name read under node, as a bare name or an attribute, with its count."""
    return Counter(
        sub.id if isinstance(sub, ast.Name) else sub.attr
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute))
    )


def _public_definitions(tree):
    """(qualified name, node) of each public top-level function and class, and of
    each public method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _uncalled(src_trees, caller_trees) -> set[str]:
    """The public definitions of src_trees that nothing in src_trees + caller_trees references."""
    refs = sum((_references(tree) for tree in src_trees + caller_trees), Counter())
    return {
        qualified
        for tree in src_trees
        for qualified, node in _public_definitions(tree)
        if refs[node.name] <= _references(node)[node.name]
    }


def _unused_imports(tree) -> list[str]:
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
    return [name for name in bound if name not in used]


def _float_arithmetic(node, scope=""):
    """Each true division, float or round call and float literal under node, as
    'scope: what', where scope names the definitions that enclose it."""
    for sub in ast.iter_child_nodes(node):
        if isinstance(sub, (ast.BinOp, ast.AugAssign)) and isinstance(sub.op, ast.Div):
            yield f"{scope}: /"
        elif isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id in ("float", "round"):
            yield f"{scope}: {sub.func.id}()"
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, float):
            yield f"{scope}: {sub.value!r}"
        named = isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        yield from _float_arithmetic(sub, f"{scope}.{sub.name}".lstrip(".") if named else scope)


def test_every_public_name_in_src_has_a_caller_outside_the_tests():
    uncalled = _uncalled([_parse(p) for p in SRC], [_parse(p) for p in PERFBENCH])
    # an allowed name that gains a caller leaves the allow-list
    assert uncalled == ALLOWED


def test_every_import_in_src_is_used():
    assert [f"{p.name}: {name}" for p in SRC for name in _unused_imports(_parse(p))] == []


def test_the_scan_flags_a_name_only_its_own_body_references_and_an_unused_import():
    lib = ast.parse(
        "import math\n"
        "from .errors import brief, is_int\n"
        "def used(x):\n    return is_int(x)\n"
        "def recursive(k):\n    return recursive(k - 1) if k else used(k)\n"
        "class Box:\n    def get(self):\n        return self.get\n    def put(self):\n        pass\n"
    )
    caller = ast.parse("from johnson_eigen import lib\nlib.used(1)\nlib.Box().put()\n")
    assert _uncalled([lib], [caller]) == {"recursive", "Box.get"}
    assert _uncalled([lib], []) == {"recursive", "Box", "Box.get", "Box.put"}
    assert _unused_imports(lib) == ["math", "brief"]


def test_src_has_no_float_arithmetic():
    found = [f"{p.name} {what}" for p in SRC for what in _float_arithmetic(_parse(p))]
    assert found == ALLOWED_FLOATS


def test_the_float_scan_flags_division_float_and_round_calls_and_float_literals():
    lib = ast.parse(
        "def f(x):\n    x /= 2\n    return x // 3, float(x), round(x)\n"
        "class C:\n    def g(self, t=0.5):\n        return t / 1\n"
    )
    assert list(_float_arithmetic(lib)) == ["f: /", "f: float()", "f: round()", "C.g: 0.5", "C.g: /"]
