"""Committed ``BENCH_*.json`` artifacts hold no orphaned rows.

``benchmarks/conftest.py`` merges each run into the existing file, so a
row written by a bench that was later deleted or renamed would stay in
the artifact forever. Every row key must name a ``bench_*`` function
that still exists under ``benchmarks/`` (a parametrized row carries its
``[...]`` id after the function name).
"""

import ast
import json
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
ARTIFACTS = sorted(REPO.glob("BENCH_*.json"))


def bench_functions() -> set[str]:
    names = set()
    for path in (REPO / "benchmarks").glob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        names.update(
            node.name
            for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("bench_")
        )
    return names


def test_artifacts_exist():
    assert ARTIFACTS


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda p: p.name)
def test_every_row_names_an_existing_bench(path):
    rows = json.loads(path.read_text())["results"]
    known = bench_functions()
    orphans = sorted(key for key in rows if key.split("[", 1)[0] not in known)
    assert orphans == [], f"{path.name} holds rows of deleted benches"
