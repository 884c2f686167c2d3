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
