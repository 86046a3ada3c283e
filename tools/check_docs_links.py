#!/usr/bin/env python
"""Check relative links (and their anchors) in the repo's Markdown files.

Scans every ``*.md`` under the repo root (skipping build/artifact
directories), extracts inline links ``[text](target)``, and verifies:

* relative file targets exist on disk;
* ``#anchor`` fragments resolve to a heading in the target file, using
  GitHub's slug rules (lowercase, punctuation stripped, spaces to
  dashes, ``-<n>`` suffixes for duplicates).

External links (``http(s)://``, ``mailto:``) are not fetched — this is
an offline structural check. Exits non-zero listing every broken link.

It also resolves every inline code span that is a dotted ``repro.…``
path (``repro.henn.backend.HeBackend``, optionally with ``()``) to an
importable module or an attribute chain below one, so a name deleted
from the package cannot linger in the documentation, and every inline
code span that is a repo-relative path under one of :data:`PATH_ROOTS`
(``tests/henn/test_plan.py``, optionally with a ``::name`` or ``:line``
suffix; a glob must match something) to an existing file or directory.
The PR-process files that describe past or planned states
(:data:`HISTORY_FILES`) are exempt from those two checks.
"""

from __future__ import annotations

import importlib
import re
import sys
from pathlib import Path

SKIP_DIRS = {".git", ".venv", "node_modules", "bench_artifacts", "__pycache__", ".pytest_cache"}

#: Inline Markdown links; deliberately simple — no reference-style links
#: are used in this repo.
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$")
CODE_FENCE_RE = re.compile(r"^(```|~~~)")
#: A whole inline code span that is a dotted path into the package.
SYMBOL_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")
#: Top-level directories whose backticked paths must exist.
PATH_ROOTS = ("src", "tests", "tools", "benchmarks", "examples", "docs")
#: A whole inline code span that is a path under one of them, with an
#: optional ``::name`` (pytest node) or ``:line`` / ``:line–line`` suffix.
PATH_RE = re.compile(
    rf"`((?:{'|'.join(PATH_ROOTS)})/[^`\s:]*)(?:::[^`\s]+|:\d+(?:[-–]\d+)?)?`"
)
#: Change log, roadmap and the issue being worked on name symbols that
#: no longer (or do not yet) exist; their links are still checked.
HISTORY_FILES = {"CHANGES.md", "ROADMAP.md", "ISSUE.md"}


def github_slug(heading: str, seen: dict[str, int]) -> str:
    """GitHub's heading-to-anchor slug, with duplicate numbering."""
    # strip inline markup: `code`, **bold**, *em*, [text](link)
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    text = text.replace("`", "").replace("*", "").strip().lower()
    text = re.sub(r"[^\w\- ]", "", text, flags=re.UNICODE)
    slug = text.replace(" ", "-")
    n = seen.get(slug, 0)
    seen[slug] = n + 1
    return slug if n == 0 else f"{slug}-{n}"


def anchors_of(md_path: Path) -> set[str]:
    seen: dict[str, int] = {}
    out: set[str] = set()
    in_fence = False
    for line in md_path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        m = HEADING_RE.match(line)
        if m:
            out.add(github_slug(m.group(1), seen))
    return out


def _prose_matches(md_path: Path, pattern: re.Pattern) -> list[str]:
    """Matches of *pattern* outside fenced code blocks."""
    out: list[str] = []
    in_fence = False
    for line in md_path.read_text(encoding="utf-8").splitlines():
        if CODE_FENCE_RE.match(line):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        out.extend(pattern.findall(line))
    return out


def links_of(md_path: Path) -> list[str]:
    return _prose_matches(md_path, LINK_RE)


def resolves(dotted: str) -> bool:
    """Whether *dotted* names an importable module or an attribute under one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def path_exists(root: Path, rel: str) -> bool:
    """Whether *rel* names a file or directory under *root* (a glob: matches one)."""
    if any(c in rel for c in "*?["):
        return any(root.glob(rel))
    return (root / rel).exists()


def iter_markdown(root: Path):
    for path in sorted(root.rglob("*.md")):
        if not any(part in SKIP_DIRS for part in path.parts):
            yield path


def check(root: Path) -> list[str]:
    errors: list[str] = []
    anchor_cache: dict[Path, set[str]] = {}
    for md in iter_markdown(root):
        for target in links_of(md):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            dest = md if not path_part else (md.parent / path_part).resolve()
            if path_part and not dest.exists():
                errors.append(f"{md.relative_to(root)}: broken link -> {target}")
                continue
            if fragment:
                if dest.suffix != ".md" or dest.is_dir():
                    continue  # anchors only checked inside Markdown files
                if dest not in anchor_cache:
                    anchor_cache[dest] = anchors_of(dest)
                if fragment not in anchor_cache[dest]:
                    errors.append(f"{md.relative_to(root)}: missing anchor -> {target}")
        if md.name not in HISTORY_FILES:
            for dotted in sorted(set(_prose_matches(md, SYMBOL_RE))):
                if not resolves(dotted):
                    errors.append(f"{md.relative_to(root)}: unresolved symbol -> {dotted}")
            for rel in sorted(set(_prose_matches(md, PATH_RE))):
                if not path_exists(root, rel):
                    errors.append(f"{md.relative_to(root)}: missing path -> {rel}")
    return errors


def main(argv: list[str]) -> int:
    repo = Path(__file__).resolve().parent.parent
    root = Path(argv[1]).resolve() if len(argv) > 1 else repo
    sys.path.insert(0, str(repo / "src"))  # symbols resolve against this checkout
    errors = check(root)
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"{len(errors)} broken link(s) / symbol(s)", file=sys.stderr)
        return 1
    n = sum(1 for _ in iter_markdown(root))
    print(f"docs link check OK ({n} markdown files)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
