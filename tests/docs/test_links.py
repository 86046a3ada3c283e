"""Docs stay navigable: the link checker passes, and key files exist."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent.parent
CHECKER = REPO / "tools" / "check_docs_links.py"


def test_docs_link_check_passes():
    proc = subprocess.run(
        [sys.executable, str(CHECKER), str(REPO)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_checker_flags_broken_links(tmp_path):
    (tmp_path / "a.md").write_text("see [other](missing.md) and [anchor](b.md#nope)\n")
    (tmp_path / "b.md").write_text("# Real Heading\n")
    proc = subprocess.run(
        [sys.executable, str(CHECKER), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    assert "missing.md" in proc.stderr
    assert "b.md#nope" in proc.stderr


def test_checker_flags_deleted_package_symbols(tmp_path):
    """A backticked ``repro.…`` path must import or resolve to an attribute."""
    (tmp_path / "a.md").write_text(
        "kept: `repro.henn.backend.HeBackend`, `repro.serving`, "
        "`repro.obs.metrics.get_registry()`, schema `repro.obs/1`\n"
        "gone: `repro.serving.packing.MemberwiseBackend` and `repro.nosuch.module`\n"
        "```\n`repro.fenced.blocks.are.skipped`\n```\n"
    )
    (tmp_path / "CHANGES.md").write_text("history may name `repro.gone.forever`\n")
    proc = subprocess.run(
        [sys.executable, str(CHECKER), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    flagged = [line.split("-> ")[1] for line in proc.stderr.splitlines() if "->" in line]
    assert flagged == ["repro.nosuch.module", "repro.serving.packing.MemberwiseBackend"]


def test_checker_flags_missing_repo_paths(tmp_path):
    """A backticked path under ``src/``, ``tests/``, ``tools/``, ``benchmarks/``,
    ``examples/`` or ``docs/`` must exist once a ``::name`` / ``:line``
    suffix is stripped; a glob must match something."""
    (tmp_path / "tests" / "henn").mkdir(parents=True)
    (tmp_path / "tests" / "henn" / "test_plan.py").write_text("")
    (tmp_path / "a.md").write_text(
        "kept: `tests/henn/test_plan.py::test_x`, `tests/henn/test_plan.py:12`, "
        "`tests/henn/`, `tests/*/test_*.py`, `other/missing.py`\n"
        "gone: `tests/henn/test_backend_agreement.py`, `src/nowhere.py:3–5`, `docs/*.md`\n"
        "```\n`docs/fenced/blocks/are/skipped.md`\n```\n"
    )
    (tmp_path / "ROADMAP.md").write_text("history may name `tools/gone.py`\n")
    proc = subprocess.run(
        [sys.executable, str(CHECKER), str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1
    flagged = [line.split("-> ")[1] for line in proc.stderr.splitlines() if "->" in line]
    assert flagged == ["docs/*.md", "src/nowhere.py", "tests/henn/test_backend_agreement.py"]


def test_architecture_and_observability_docs_linked_from_readme():
    readme = (REPO / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/OBSERVABILITY.md" in readme
    assert (REPO / "docs" / "ARCHITECTURE.md").exists()
    assert (REPO / "docs" / "OBSERVABILITY.md").exists()


def test_kernels_doc_linked_from_key_pages():
    """docs/KERNELS.md exists and is reachable from the entry points."""
    assert (REPO / "docs" / "KERNELS.md").exists()
    assert "docs/KERNELS.md" in (REPO / "README.md").read_text()
    assert "KERNELS.md" in (REPO / "docs" / "ARCHITECTURE.md").read_text()
    assert "KERNELS.md" in (REPO / "docs" / "PERFORMANCE.md").read_text()
