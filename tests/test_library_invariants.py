"""Library invariants must survive ``python -O``: no ``assert`` guards them."""

import ast
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


def _references(tree: ast.Module):
    """(name, line, is attribute?) of every name a module mentions: variable
    names, imports, identifier-like strings such as the (module, function)
    pairs of a tracer, and attributes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno, False
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def test_every_function_and_method_has_a_caller():
    # A method counts as called only through an attribute, so a local
    # variable or a point named like it does not keep it alive.
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for folder in ("src", "tests", "perfbench")
        for path in sorted((REPO / folder).rglob("*.py"))
    }
    references: dict[str, list] = {}
    for path, tree in trees.items():
        for name, line, is_attribute in _references(tree):
            references.setdefault(name, []).append((path, line, is_attribute))
    uncalled = []
    for path in sorted((REPO / "src" / "enritch").glob("*.py")):
        for name, is_method, first, last in _definitions(trees[path]):
            if not any(
                where != path or not first <= line <= last
                for where, line, is_attribute in references.get(name, ())
                if is_attribute or not is_method
            ):
                uncalled.append(f"{path.name}:{first} {name}")
    assert uncalled == []


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
