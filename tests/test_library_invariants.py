"""Library invariants must survive ``python -O``: no ``assert`` guards them."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import enritch

PACKAGE = Path(enritch.__file__).parent


class AssertionSites(ast.NodeVisitor):
    """Collect (file, enclosing function, kind) for asserts and raised AssertionErrors."""

    def __init__(self, filename: str):
        self.filename, self.scope, self.found = filename, [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Assert(self, node):
        self.found.append((self.filename, ".".join(self.scope), "assert"))
        self.generic_visit(node)

    def visit_Raise(self, node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id == "AssertionError":
            self.found.append((self.filename, ".".join(self.scope), "raise AssertionError"))
        self.generic_visit(node)


def test_no_library_asserts():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        visitor = AssertionSites(path.name)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        found.extend(visitor.found)
    # argparse rejects every other group and command before these branches run
    assert found == [
        ("cli.py", "_run", "raise AssertionError"),
        ("cli.py", "_run_hull", "raise AssertionError"),
    ]


REPO = Path(__file__).resolve().parents[1]


def _definitions(tree: ast.Module):
    """(name, is_method, first line, last line) of every top-level function
    and method, dunders excepted."""
    for node in tree.body:
        methods = node.body if isinstance(node, ast.ClassDef) else ()
        for item, is_method in [(node, False)] + [(m, True) for m in methods]:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                item.name.startswith("__") and item.name.endswith("__")
            ):
                yield item.name, is_method, item.lineno, item.end_lineno


def _attributes(tree: ast.Module):
    """(name, line) of every attribute a module mentions."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def _function_references(tree: ast.Module, module: str | None):
    """((module, name), line) of every mention of a module-level function
    that names its module: a load inside ``module`` itself (None outside the
    package), an import from a module, an attribute of a module (``hull.f``,
    ``mods.hull.f``) and a tracer name (``"hull.f"`` or ``("hull", "f")``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and module:
            yield (module, node.id), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                yield (node.module.rpartition(".")[2], alias.name), node.lineno
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if isinstance(owner, (ast.Name, ast.Attribute)):
                yield (getattr(owner, "id", None) or owner.attr, node.attr), node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.count(".") == 1:
                yield tuple(node.value.split(".")), node.lineno
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2 and all(
            isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts
        ):
            yield tuple(e.value for e in node.elts), node.lineno


def _uncalled(trees: dict[Path, ast.Module]) -> list[str]:
    """Functions and methods of ``src/enritch`` that nothing calls.

    ``trees`` maps paths relative to the repository to parsed modules.  Only
    ``src/`` and ``perfbench/`` call: the tests do not count.  A module-level
    function needs a reference there that resolves to it
    (``_function_references``); a same-named local variable or a bare string
    does not count.  A method counts as called through any attribute of its
    name there, so that a local variable or a point named like it does not
    keep it alive.
    """
    package = Path("src", "enritch")
    attributes, functions = {}, {}
    for path, tree in trees.items():
        if path.parts[0] not in ("src", "perfbench"):
            continue
        for name, line in _attributes(tree):
            attributes.setdefault(name, []).append((path, line))
        module = path.stem if path.parent == package else None
        for key, line in _function_references(tree, module):
            functions.setdefault(key, []).append((path, line))
    uncalled = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for name, is_method, first, last in _definitions(tree):
            found = attributes.get(name, ()) if is_method else functions.get((path.stem, name), ())
            if not any(where != path or not first <= line <= last for where, line in found):
                uncalled.append(f"{path.name}:{first} {name}")
    return uncalled


def test_every_function_and_method_has_a_caller():
    trees = {
        path.relative_to(REPO): ast.parse(path.read_text(), filename=str(path))
        for folder in ("src", "tests", "perfbench")
        for path in sorted((REPO / folder).rglob("*.py"))
    }
    assert _uncalled(trees) == []


def test_a_same_named_variable_or_string_is_not_a_caller():
    sources = {
        "src/enritch/hull.py": "".join(
            f"def {name}(c):\n    return c\n\n\n"
            for name in ("tighten", "tight_span", "extend_along", "is_dense", "is_codense")
        ),
        "src/enritch/cli.py": (
            "from .hull import extend_along\n\n\n"
            "def main(args):\n    tighten = args.tighten\n"
            "    return tighten, 'tighten', extend_along\n"
        ),
        "perfbench/bench.py": (
            'SPAN = {("cli", "main"), ("hull", "is_dense")}\n'
            'REACH = ["hull.is_codense"]\n'
            "mods.hull.tight_span(None)\n"
        ),
        "tests/test_hull.py": "from enritch.hull import tighten\n\ntighten(None)\n",
    }
    trees = {Path(path): ast.parse(text) for path, text in sources.items()}
    assert _uncalled(trees) == ["hull.py:1 tighten"]


def test_a_method_only_the_tests_call_is_reported():
    sources = {
        "src/enritch/quantale.py": (
            "class Q:\n"
            "    def parse_value(self, text):\n        return text\n\n"
            "    def format_value(self, payload):\n        return payload\n"
        ),
        "src/enritch/cli.py": "from .quantale import Q\n\nQ().format_value(0)\n",
        "tests/conftest.py": "def make(q):\n    return q.parse_value('1')\n",
        "tests/oracles.py": "class R:\n    def parse_value(self, text):\n        return text\n",
    }
    trees = {Path(path): ast.parse(text) for path, text in sources.items()}
    assert _uncalled(trees) == ["quantale.py:2 parse_value"]


def test_all_lists_every_public_function():
    # The benchmark's tracer wraps the functions named in ``__all__``.
    gaps = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"enritch.{path.stem}")
        listed = getattr(module, "__all__", None)
        if listed is None:
            continue
        public = {
            name
            for name, value in vars(module).items()
            if inspect.isfunction(value)
            and value.__module__ == module.__name__
            and not name.startswith("_")
        }
        missing = sorted(public - set(listed))
        unknown = [name for name in listed if not hasattr(module, name)]
        if missing or unknown:
            gaps[path.name] = (missing, unknown)
    assert gaps == {}


def test_only_the_kernel_reads_the_quantale_tables():
    # The other layers reach a quantale through its diagonal kernel, which
    # decides finiteness and hands out the tables a search needs.
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and (
                node.attr.endswith("_table") or node.attr == "is_finite"
            ):
                readers.add(path.name)
    assert readers == {"diagonals.py", "quantale.py"}


def test_no_module_defines_or_mentions_presheaf_objects():
    # The library holds a presheaf as the (q, values) pair the kernel takes;
    # the validating ``Presheaf`` is a test-side reference only.
    mentions = {
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if re.search(r"\bPresheaf\b", path.read_text())
    }
    assert mentions == set()
