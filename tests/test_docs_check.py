"""The docs check's class-reference contract (``tools/docs_check.py``)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _docs_check():
    path = REPO_ROOT / "tools" / "docs_check.py"
    spec = importlib.util.spec_from_file_location("docs_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stale_class_references_are_reported(tmp_path):
    docs_check = _docs_check()
    page = tmp_path / "page.md"
    page.write_text(
        "`Segment._drain_backlog` and `Simulator.run()` resolve, "
        "`Segment._drain_cut` and `ShardedSimulator.no_such_hook(x)` do not; "
        "`SimulatorLike.anything` is not a documented class.\n"
    )
    assert docs_check.unresolved_class_refs([page]) == [
        (page, "Segment._drain_cut"),
        (page, "ShardedSimulator.no_such_hook"),
    ]


def test_committed_docs_resolve():
    docs_check = _docs_check()
    pages = sorted((REPO_ROOT / "docs").glob("*.md"))
    assert pages
    assert docs_check.unresolved_class_refs(pages) == []
