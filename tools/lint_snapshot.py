#!/usr/bin/env python3
"""Snapshot-coverage lint: every ``__init__``-assigned attribute of a
class with ``snapshot()``/``restore()`` must be captured or exempted.

The checkpoint/migration protocol round-trips worker state through
``snapshot()`` dicts; an attribute added to ``__init__`` but forgotten
in ``snapshot()`` silently drifts after a restore.  This lint walks the
AST of every module under ``src/repro/stream/`` plus
``src/repro/hdc/online.py``, finds classes defining both methods, and
asserts each ``self.X = ...`` in ``__init__`` is either referenced in
``snapshot()``/``restore()`` (as ``self.X`` or the string literal
``"X"``) or listed in :data:`EXEMPT` with a reason.

Exemptions must stay *live*: an entry for a class/attribute that no
longer exists (or is no longer uncovered) fails the lint too, so the
table cannot rot.

Usage::

    python tools/lint_snapshot.py   # exit 0 = clean
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

REPO = Path(__file__).resolve().parent.parent
SCOPE = sorted(
    list((REPO / "src/repro/stream").glob("*.py"))
    + [REPO / "src/repro/hdc/online.py"]
)

#: (class name, attribute) -> why it is intentionally not snapshotted.
EXEMPT: Dict[Tuple[str, str], str] = {
    ("StreamWindower", "_config"): (
        "construction-time shape config; restore() asserts it matches"
    ),
    ("StreamingService", "_config"): (
        "construction-time policy; restore() runs on a service built "
        "with the snapshot's config"
    ),
    ("StreamingService", "_entries"): (
        "session registry is rebuilt entry-by-entry by restore()"
    ),
}


def _self_attrs(func: ast.FunctionDef) -> Set[str]:
    """Attributes assigned as ``self.X = ...`` anywhere in ``func``."""
    out: Set[str] = set()
    for node in ast.walk(func):
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for tgt in targets:
            if (
                isinstance(tgt, ast.Attribute)
                and isinstance(tgt.value, ast.Name)
                and tgt.value.id == "self"
            ):
                out.add(tgt.attr)
    return out


def _referenced(func: ast.FunctionDef) -> Set[str]:
    """Attribute names ``func`` mentions: ``self.X`` or ``"X"``."""
    out: Set[str] = set()
    for node in ast.walk(func):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
            out.add("_" + node.value)  # "base" covers self._base
    return out


def _snapshot_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            names = {
                n.name for n in node.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "snapshot" in names and "restore" in names:
                yield node


def run() -> List[str]:
    problems: List[str] = []
    used_exemptions: Set[Tuple[str, str]] = set()
    seen_classes: Set[str] = set()
    for path in SCOPE:
        tree = ast.parse(path.read_text(), filename=str(path))
        for cls in _snapshot_classes(tree):
            seen_classes.add(cls.name)
            funcs = {
                n.name: n for n in cls.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            init = funcs.get("__init__")
            if init is None:
                continue
            covered: Set[str] = set()
            for name in ("snapshot", "restore"):
                covered |= _referenced(funcs[name])
            for attr in sorted(_self_attrs(init)):
                if attr in covered:
                    continue
                key = (cls.name, attr)
                if key in EXEMPT:
                    used_exemptions.add(key)
                    continue
                problems.append(
                    f"{path.relative_to(REPO)}: {cls.name}.{attr} is "
                    "assigned in __init__ but never captured by "
                    "snapshot()/restore() (add it or exempt it with a "
                    "reason in tools/lint_snapshot.py)"
                )
    for key in sorted(EXEMPT):
        if key in used_exemptions:
            continue
        cls, attr = key
        why = (
            "class not found in scope" if cls not in seen_classes
            else "attribute is covered (or gone) — exemption is stale"
        )
        problems.append(
            f"stale exemption ({cls}, {attr}): {why}; remove it from "
            "tools/lint_snapshot.py"
        )
    return problems


def main() -> int:
    problems = run()
    for msg in problems:
        print(f"lint_snapshot: {msg}", file=sys.stderr)
    if problems:
        return 1
    print(f"lint_snapshot: {len(SCOPE)} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
