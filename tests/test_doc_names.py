"""Every dotted ``repro.…`` name the docs mention resolves.

The scan takes each ``repro.a.b.c`` in README.md, DESIGN.md,
EXPERIMENTS.md and ``docs/*.md``, imports its longest importable module
prefix and resolves the rest with ``getattr``.  A name that fails is a
stale reference: a module, class or function the docs still point at
after it was renamed or deleted.  Fix the doc, not the test.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path
from typing import List

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md"]
    + list((ROOT / "docs").glob("*.md"))
)

NAME = re.compile(r"\brepro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")


def resolves(dotted: str) -> bool:
    """Whether ``dotted`` names an importable module or an attribute
    reached from one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def stale_names(path: Path) -> List[str]:
    """``line: name`` for each name in ``path`` that does not resolve."""
    stale = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        for name in NAME.findall(line):
            if not resolves(name):
                stale.append(f"{lineno}: {name}")
    return stale


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_doc_names_resolve(path):
    stale = stale_names(path)
    assert not stale, f"{path.relative_to(ROOT)} names what does not exist: {stale}"


def test_a_deleted_name_is_stale():
    assert resolves("repro.sim.simulate") and resolves("repro.des")
    assert not resolves("repro.sim.no_such_name")
    assert not resolves("repro.no_such_module.x")
