"""Every name ``src/`` defines has a caller, and every field it stores
a reader, outside the tests.

The first scan walks the AST of each ``def`` and ``class`` in ``src/``
(at any depth: functions, classes, methods, properties and nested
functions; dunders are skipped) and asks whether ``src/``,
``benchmarks/``, ``examples/`` or ``e2ebench/`` use the name anywhere
but in its own definition.  A use is an attribute (``obj.name``), an
import alias, a string constant equal to the name (``getattr``
dispatch, the e2ebench patch table), or a bare name.  A bare name keeps
a method alive only inside a class body (a step table, an alias),
because outside one it cannot refer to a method: a local variable
called ``step`` does not count as a caller of ``Environment.step``.

A package re-export is not a use: in ``src/**/__init__.py`` the
module-level ``import`` and ``from ... import`` statements and the
``__all__`` assignment are skipped, so a name that only its package
re-exports is reported like any other.  The rest of an ``__init__.py``
counts.

The scan is by name, so a name two definitions share is used as soon
as either is; what it reports is a floor.

The second scan lists every attribute ``src/`` stores (``x.a = ...``,
``x.a += ...`` or an annotated field in a class body) and asks whether
any file in the same four directories reads it: an attribute load
``.a``, a keyword argument ``a=`` or a string constant ``'a'``.  A
field that is written and never read costs a store per write and says
nothing.

When a ``..._has_a_...`` test fails, the name it lists has users only
in ``tests/`` (or none).  Delete it, or give it the user that justifies
it, or add it to :data:`ALLOWED` or :data:`ALLOWED_STORES` with a
one-line reason.  When an ``..._only_shrinks`` test fails, an allowed
name gained a user or was deleted: take it off the list.  So the lists
only shrink.

Run it alone with ``python -m pytest tests/test_api_callers.py``.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
USE_DIRS = ("src", "benchmarks", "examples", "e2ebench")

#: Names defined in ``src/`` with no caller outside the tests, each
#: with the reason it stays.
ALLOWED: Dict[str, str] = {
    "do_GET": "http.server dispatches each request to 'do_' + method",
    "do_POST": "http.server dispatches each request to 'do_' + method",
    "do_PUT": "http.server dispatches each request to 'do_' + method",
    "do_DELETE": "http.server dispatches each request to 'do_' + method",
    "do_PATCH": "http.server dispatches each request to 'do_' + method",
    "do_HEAD": "http.server dispatches each request to 'do_' + method",
    "handle_expect_100": "http.server calls it on 'Expect: 100-continue'",
    "log_message": "http.server calls it to log each request",
    "step": (
        "Environment.step is the one-entry reference path that the "
        "step-order oracles compare Environment._drain against"
    ),
    "tracked_clients": (
        "the only way a test can see that the rate limiter's client "
        "table stays bounded"
    ),
}

#: Attributes ``src/`` stores that no non-test code reads, each with
#: the reason it stays.
ALLOWED_STORES: Dict[str, str] = {
    "propagate": "the logging module reads Logger.propagate",
}


def _py_files(top: str) -> List[Path]:
    return sorted((ROOT / top).rglob("*.py"))


def _definitions() -> Dict[str, List[Tuple[str, bool]]]:
    """name -> [(``path:line``, defined directly in a class body)]."""
    found: Dict[str, List[Tuple[str, bool]]] = {}

    def walk(node: ast.AST, path: str, in_class: bool) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    found.setdefault(name, []).append(
                        (f"{path}:{child.lineno}", in_class)
                    )
                walk(child, path, isinstance(child, ast.ClassDef))
            else:
                walk(child, path, in_class)

    for path in _py_files("src"):
        rel = path.relative_to(ROOT).as_posix()
        walk(ast.parse(path.read_text(), rel), rel, False)
    return found


class _Uses(ast.NodeVisitor):
    """Collects used names, skipping uses inside a definition of the
    same name (a recursive call is not a caller)."""

    def __init__(self) -> None:
        #: names any definition may be reached by
        self.anywhere: Set[str] = set()
        #: bare names outside class bodies: reach functions and classes only
        self.bare: Set[str] = set()
        self._enclosing: List[str] = []
        self._in_class: List[bool] = []

    def _definition(self, node) -> None:
        self._enclosing.append(node.name)
        self._in_class.append(isinstance(node, ast.ClassDef))
        self.generic_visit(node)
        self._in_class.pop()
        self._enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _definition

    def _use(self, name: str, into: Set[str]) -> None:
        if name not in self._enclosing:
            into.add(name)

    def visit_Name(self, node: ast.Name) -> None:
        in_class_body = bool(self._in_class) and self._in_class[-1]
        self._use(node.id, self.anywhere if in_class_body else self.bare)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr, self.anywhere)
        self.generic_visit(node)

    def visit_alias(self, node: ast.alias) -> None:
        for part in node.name.split("."):
            self._use(part, self.anywhere)
        if node.asname:
            self._use(node.asname, self.anywhere)

    def visit_Constant(self, node: ast.Constant) -> None:
        if isinstance(node.value, str):
            self._use(node.value, self.anywhere)


def _is_reexport(stmt: ast.stmt) -> bool:
    """A package's module-level import or ``__all__`` assignment."""
    if isinstance(stmt, (ast.Import, ast.ImportFrom)):
        return True
    targets = (
        stmt.targets if isinstance(stmt, ast.Assign)
        else [stmt.target] if isinstance(stmt, (ast.AugAssign, ast.AnnAssign))
        else []
    )
    return any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets)


def _parse_uses(top: str, path: Path) -> ast.Module:
    """``path``'s AST, without its re-exports if it is a ``src/`` package."""
    tree = ast.parse(path.read_text(), str(path))
    if top == "src" and path.name == "__init__.py":
        tree.body = [stmt for stmt in tree.body if not _is_reexport(stmt)]
    return tree


@lru_cache(maxsize=None)
def unused_names() -> Dict[str, Tuple[str, ...]]:
    """Names defined in ``src/`` that no non-test code uses -> where."""
    uses = _Uses()
    for top in USE_DIRS:
        for path in _py_files(top):
            uses.visit(_parse_uses(top, path))
    unused = {}
    for name, defs in _definitions().items():
        methods_only = all(in_class for _, in_class in defs)
        if name in uses.anywhere or (not methods_only and name in uses.bare):
            continue
        unused[name] = tuple(where for where, _ in defs)
    return unused


@lru_cache(maxsize=None)
def unread_stores() -> Dict[str, Tuple[str, ...]]:
    """Attributes ``src/`` stores that no non-test code reads -> where."""
    stored: Dict[str, List[str]] = {}
    read: Set[str] = set()
    for top in USE_DIRS:
        for path in _py_files(top):
            rel = path.relative_to(ROOT).as_posix()
            in_src = top == "src"
            for node in ast.walk(ast.parse(path.read_text(), rel)):
                if isinstance(node, ast.Attribute):
                    if isinstance(node.ctx, ast.Load):
                        read.add(node.attr)
                    elif isinstance(node.ctx, ast.Store) and in_src:
                        stored.setdefault(node.attr, []).append(
                            f"{rel}:{node.lineno}"
                        )
                elif isinstance(node, ast.keyword) and node.arg:
                    read.add(node.arg)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    read.add(node.value)
                elif isinstance(node, ast.ClassDef) and in_src:
                    for stmt in node.body:
                        if isinstance(stmt, ast.AnnAssign) and isinstance(
                            stmt.target, ast.Name
                        ):
                            stored.setdefault(stmt.target.id, []).append(
                                f"{rel}:{stmt.lineno}"
                            )
    return {
        name: tuple(where)
        for name, where in stored.items()
        if name not in read
    }


def test_every_src_name_has_a_non_test_caller():
    new = {
        name: where
        for name, where in unused_names().items()
        if name not in ALLOWED
    }
    assert not new, (
        "defined in src/ but used only by tests (delete it, or add it to "
        f"ALLOWED in {Path(__file__).name} with a reason): {new}"
    )


def test_allowlist_only_shrinks():
    stale = sorted(set(ALLOWED) - set(unused_names()))
    assert not stale, (
        f"now used or deleted; take off ALLOWED in {Path(__file__).name}: "
        f"{stale}"
    )


def test_every_src_store_has_a_non_test_reader():
    new = {
        name: where
        for name, where in unread_stores().items()
        if name not in ALLOWED_STORES
    }
    assert not new, (
        "stored in src/ but read only by tests (delete it, or add it to "
        f"ALLOWED_STORES in {Path(__file__).name} with a reason): {new}"
    )


def test_store_allowlist_only_shrinks():
    stale = sorted(set(ALLOWED_STORES) - set(unread_stores()))
    assert not stale, (
        "now read or no longer stored; take off ALLOWED_STORES in "
        f"{Path(__file__).name}: {stale}"
    )


def test_scan_sees_a_test_only_method_and_a_class_body_use():
    """The scan's two rules for methods, on a small module."""
    tree = ast.parse(
        "class A:\n"
        "    def used(self): ...\n"
        "    def only_named(self): ...\n"
        "    def in_table(self): ...\n"
        "    TABLE = (in_table,)\n"
        "def f(a):\n"
        "    only_named = 1\n"
        "    return a.used()\n"
    )
    uses = _Uses()
    uses.visit(tree)
    assert "used" in uses.anywhere and "in_table" in uses.anywhere
    assert "only_named" not in uses.anywhere
    assert "only_named" in uses.bare  # reaches a function, not a method
