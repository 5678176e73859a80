"""The docs suite stays real: files exist, are linked, and their code
runs; the public service/storage surface stays documented.

This mirrors the CI docs job locally so a PR cannot silently rot the
documentation (ISSUE 4 satellites).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO / "tools"))

from check_docs import check_markdown, extract_blocks  # noqa: E402
from check_docstrings import check_file  # noqa: E402

DOCS = (
    "architecture.md",
    "equivalence.md",
    "benchmarks.md",
    "workloads.md",
    "tiering.md",
)


class TestDocsExist:
    @pytest.mark.parametrize("name", DOCS)
    def test_doc_exists_and_nontrivial(self, name):
        path = REPO / "docs" / name
        assert path.is_file()
        assert len(path.read_text()) > 1_000

    @pytest.mark.parametrize("name", DOCS)
    def test_readme_links_doc(self, name):
        readme = (REPO / "README.md").read_text()
        assert f"docs/{name}" in readme


class TestDocBlocksCompile:
    """Compile always; execution is exercised by the CI docs job (and
    by TestDocBlocksRun below on one cheap file)."""

    @pytest.mark.parametrize("name", DOCS)
    def test_blocks_compile(self, name):
        assert check_markdown(REPO / "docs" / name, run=False) == []

    def test_readme_blocks_compile(self):
        assert check_markdown(REPO / "README.md", run=False) == []

    def test_blocks_exist(self):
        """The architecture and equivalence docs each carry at least
        one runnable example."""
        for name in ("architecture.md", "equivalence.md"):
            blocks = extract_blocks((REPO / "docs" / name).read_text())
            assert any(runnable for _, runnable in blocks)


class TestDocBlocksRun:
    def test_architecture_example_runs(self):
        """Execute the cheapest doc's blocks end-to-end (the full sweep
        is the CI docs job)."""
        env = os.environ.copy()
        env["PYTHONPATH"] = str(REPO / "src")
        for index, (code, runnable) in enumerate(
            extract_blocks((REPO / "docs" / "architecture.md").read_text())
        ):
            if not runnable:
                continue
            proc = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                timeout=300,
            )
            assert proc.returncode == 0, (
                f"architecture.md block {index + 1} failed:\n{proc.stderr}"
            )


class TestDocstringSurface:
    @pytest.mark.parametrize("package", ["service", "storage", "workloads"])
    def test_public_surface_documented(self, package):
        """Satellite: every public module/class/function/method in the
        service, storage and workloads packages carries a docstring."""
        problems = []
        for file in sorted((REPO / "src" / "repro" / package).rglob("*.py")):
            problems.extend(check_file(file))
        assert problems == []
