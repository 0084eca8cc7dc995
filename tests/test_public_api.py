"""The public API names only what exists.

Deleting a function leaves stale references behind in places no other
test imports: an ``__all__`` entry fails only on ``from module import *``,
and a documented example fails only when a reader runs it.  Both are
checked here by name, without running any simulation.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import repro

REPO_ROOT = Path(__file__).resolve().parent.parent


def _repro_modules() -> list[str]:
    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


def _readme_examples() -> list[Path]:
    readme = (REPO_ROOT / "README.md").read_text()
    return [REPO_ROOT / rel for rel in re.findall(r"python (examples/\S+\.py)", readme)]


def test_every_all_entry_resolves():
    stale = []
    for name in _repro_modules():
        module = importlib.import_module(name)
        stale += [
            f"{name}.{attr}"
            for attr in getattr(module, "__all__", ())
            if not hasattr(module, attr)
        ]
    assert stale == []


def test_readme_examples_import_only_existing_names():
    examples = _readme_examples()
    assert len(examples) == 4
    missing = []
    for path in examples:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
                module = importlib.import_module(node.module)
                missing += [
                    f"{path.name}: {node.module}.{alias.name}"
                    for alias in node.names
                    if not hasattr(module, alias.name)
                ]
    assert missing == []
