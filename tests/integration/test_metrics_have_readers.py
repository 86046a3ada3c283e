"""No metric without a reader (structural, AST + text only — imports nothing).

Every ``counter("…")`` / ``gauge("…")`` / ``histogram("…")`` name that
``src/`` emits must be read somewhere: named in a test, a CI smoke or
a tool (``tests/``, ``tools/``), the end-to-end benchmark harness
(``benchmarks/e2e/``), or documented in backticks in ``docs/*.md``
(a metric table row is how an operator finds it).  f-string fields are
wildcards: ``f"rtrace.stage.{name}.seconds"`` is read by any mention of
``rtrace.stage.queue_wait.seconds``.

``render_report`` is not counted as a reader: it prints every metric
in the registry generically, so it would vouch for any name at all.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
READER_DIRS = ("tests", "tools", "benchmarks/e2e")
METRIC_KINDS = {"counter", "gauge", "histogram"}
#: What an f-string field may stand for: a dotted identifier.
WILDCARD = r"[\w.]+"


def _pattern(node: ast.expr) -> str | None:
    """Regex of the metric name a call's first argument spells, if literal."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return re.escape(node.value)
    if isinstance(node, ast.JoinedStr):
        parts = []
        for value in node.values:
            if isinstance(value, ast.Constant):
                parts.append(re.escape(str(value.value)))
            else:
                parts.append(WILDCARD)
        return "".join(parts)
    return None


def _emitted() -> dict[str, str]:
    """``{name pattern: first emitting file:line}`` over ``src/``."""
    found: dict[str, str] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in METRIC_KINDS
                and node.args
            ):
                pattern = _pattern(node.args[0])
                if pattern is not None:
                    found.setdefault(pattern, f"{path.relative_to(ROOT)}:{node.lineno}")
    return found


def _reader_text() -> str:
    me = Path(__file__).resolve()
    texts = [
        path.read_text()
        for d in READER_DIRS
        for path in sorted((ROOT / d).rglob("*.py"))
        if path.resolve() != me
    ]
    for doc in sorted((ROOT / "docs").glob("*.md")):
        texts.extend(re.findall(r"`([^`\n]+)`", doc.read_text()))
    return "\n".join(texts)


def test_the_census_sees_the_emitters():
    emitted = _emitted()
    assert re.escape("plan.cache.entries") in emitted
    assert f"rtrace\\.stage\\.{WILDCARD}\\.seconds" in emitted
    assert len(emitted) > 40


def test_every_emitted_metric_has_a_reader():
    text = _reader_text()
    unread = sorted(
        f"{where}: {pattern}"
        for pattern, where in _emitted().items()
        if not re.search(rf"(?<![\w.]){pattern}(?!\w)", text)
    )
    assert unread == []
