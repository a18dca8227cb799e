"""The package runs on the standard library alone (``dependencies = []``),
every protocol wait is declarative data, and a protocol suspends only in a
wait."""

import ast
import pathlib
import sys

import discsp

PACKAGE_DIR = pathlib.Path(discsp.__file__).parent


def foreign_imports(source: str) -> list[str]:
    """Top-level names of absolute imports that are not stdlib modules."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names
            if name.split(".")[0] not in sys.stdlib_module_names]


def test_the_guard_sees_absolute_imports_only():
    source = ("import numpy as np\nfrom hypothesis import given\n"
              "import os.path\nfrom . import crypto\nfrom .model import Problem\n"
              "def f():\n    import scipy.sparse\n")
    assert foreign_imports(source) == ["numpy", "hypothesis", "scipy.sparse"]


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(sources) > 10
    found = {path.name: foreign_imports(path.read_text(encoding="utf-8"))
             for path in sources}
    assert {name: bad for name, bad in found.items() if bad} == {}


def opaque_waits(source: str) -> list[int]:
    """Lines of ``self.get(...)`` waits that pass a lambda, an ``until=`` hook
    or a positional argument other than a message-type string literal.
    (``get`` on any other object is a dict or table lookup, not a wait.)"""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "self"):
            continue
        values = node.args + [k.value for k in node.keywords]
        if (any(k.arg == "until" for k in node.keywords)
                or any(isinstance(v, ast.Lambda) for v in values)
                or not all(isinstance(a, ast.Constant) and type(a.value) is str
                           for a in node.args)):
            lines.append(node.lineno)
    return lines


def test_the_wait_guard_flags_lambdas_hooks_and_computed_types():
    source = ("def main(self):\n"
              "    yield from self.get('A', 'B', sender=u, epoch=e)\n"
              "    yield from self.get(lambda m: m.type == 'A')\n"
              "    yield from self.get(until=lambda: self.home)\n"
              "    yield from self.get('A', key=lambda m: m)\n"
              "    yield from self.get(msg_type)\n"
              "    yield from self.get(*types)\n"
              "    payload.get(kind, 0)\n")
    assert opaque_waits(source) == [3, 4, 5, 6, 7]


def test_package_waits_are_declarative():
    found = {path.name: opaque_waits(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


# The two waits of the runtime, the only places a protocol suspends.
WAITS = frozenset({("Process", "get"), ("Process", "run")})


def stray_yields(source: str, waits=frozenset()) -> list[int]:
    """Lines of ``yield`` expressions other than a bare ``yield`` in one of
    the ``(class, method)`` pairs of `waits`.  (``yield from`` delegates to
    a wait and is not itself one.)"""
    lines = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, (child.name, None))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, (owner[0], child.name))
            else:
                if isinstance(child, ast.Yield) and not (
                        child.value is None and owner in waits):
                    lines.append(child.lineno)
                visit(child, owner)

    visit(ast.parse(source), (None, None))
    return sorted(lines)


def test_the_suspension_guard_flags_effects_and_stray_yields():
    source = ("class Process:\n"
              "    def get(self):\n"
              "        m = yield\n"
              "    def run(self):\n"
              "        yield ('recv',)\n"
              "class Kernel(Process):\n"
              "    def send(self, dst, msg):\n"
              "        yield ('send', dst, msg)\n"
              "    def intercept(self, msg):\n"
              "        if False:\n"
              "            yield\n"
              "        return msg\n"
              "    def main(self):\n"
              "        m = yield from self.get('A')\n"
              "        return (yield m)\n")
    assert stray_yields(source, WAITS) == [5, 8, 11, 15]
    assert stray_yields(source) == [3, 5, 8, 11, 15]


def test_protocols_suspend_only_in_the_runtime_waits():
    found = {name: stray_yields(
                 (PACKAGE_DIR / f"{name}.py").read_text(encoding="utf-8"),
                 WAITS if name == "runtime" else frozenset())
             for name in ("runtime", "kernel", "dpop", "pdpop", "p32", "p2")}
    assert {name: lines for name, lines in found.items() if lines} == {}
