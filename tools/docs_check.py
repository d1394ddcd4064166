#!/usr/bin/env python
"""Documentation lint: module docstrings, docs/ link integrity and
execution-mode / ranking names.

Three checks, all cheap enough to run on every CI push (the
``docs-check`` job, also ``make docs-check``):

1. **Module docstrings** — every module under ``src/repro/`` must open
   with a module docstring.  The docstrings are the architecture
   documentation's ground truth (``docs/architecture.md`` points into
   them), so a silent docstring-less module is a documentation hole.
2. **Intra-repo links** — every relative markdown link in ``docs/*.md``
   and ``README.md`` must resolve to an existing file (anchors are
   checked against the target's headings).  External ``http(s)://``
   links are not touched — CI must not depend on the network.
3. **Option values** — every ``mode="X"`` / ``--mode X`` in the same
   markdown files must name a member of
   ``repro.engine.executor.MODES``, and every ``ranking="X"`` /
   ``--ranking X`` a member of ``repro.optimizer.rewriter.RANKINGS``,
   so a deleted or renamed execution mode or ranking cannot linger in
   the prose or the examples.

Exits non-zero listing every violation; prints a one-line summary when
clean.  No dependencies beyond the standard library.
"""

from __future__ import annotations

import ast
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: markdown inline links: [text](target) — images excluded via (?<!\!)
_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_FENCE = re.compile(r"^(```|~~~).*?^\1", re.MULTILINE | re.DOTALL)
_CODE_SPAN = re.compile(r"`[^`\n]*`")
#: mode="X" (also default_mode=; not index_mode=) and --mode X;
#: likewise ranking="X" and --ranking X
_OPTION_VALUE = re.compile(
    r"""(?<![\w-])(?:(?:default_)?(?P<kw>mode|ranking)=["'](?P<kwv>[^"']*)["']"""
    r"""|--(?P<flag>mode|ranking)[ =](?P<flagv>[A-Za-z][\w-]*))""")


def _strip_code(text: str) -> str:
    """Blank out fenced blocks and inline code spans — NAL algebra
    notation like ``σ[p](χ[a](E))`` would otherwise parse as links."""
    return _CODE_SPAN.sub("", _FENCE.sub("", text))


def check_docstrings(src_root: pathlib.Path) -> list[str]:
    problems = []
    for path in sorted(src_root.rglob("*.py")):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except SyntaxError as exc:  # pragma: no cover - tests gate this
            problems.append(f"{path.relative_to(REPO_ROOT)}: "
                            f"does not parse: {exc}")
            continue
        docstring = ast.get_docstring(tree)
        if not docstring or not docstring.strip():
            problems.append(f"{path.relative_to(REPO_ROOT)}: "
                            "missing module docstring")
    return problems


def _anchor_slug(heading: str) -> str:
    """GitHub-style anchor for a heading: lowercase, spaces to dashes,
    punctuation dropped."""
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\s-]", "", slug)
    return re.sub(r"[\s]+", "-", slug)


def _anchors_of(path: pathlib.Path) -> set[str]:
    return {_anchor_slug(m.group(1))
            for m in _HEADING.finditer(path.read_text(encoding="utf-8"))}


def check_links(doc_paths: list[pathlib.Path]) -> list[str]:
    problems = []
    for doc in doc_paths:
        text = _strip_code(doc.read_text(encoding="utf-8"))
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            file_part, _, anchor = target.partition("#")
            if not file_part:  # same-document anchor
                resolved = doc
            else:
                resolved = (doc.parent / file_part).resolve()
                if not resolved.exists():
                    problems.append(
                        f"{doc.relative_to(REPO_ROOT)}: dead link "
                        f"{target!r} ({file_part} does not exist)")
                    continue
            if anchor and resolved.suffix == ".md":
                if _anchor_slug(anchor) not in _anchors_of(resolved):
                    problems.append(
                        f"{doc.relative_to(REPO_ROOT)}: dead anchor "
                        f"{target!r} (no such heading in "
                        f"{resolved.name})")
    return problems


def check_option_values(doc_paths: list[pathlib.Path]) -> list[str]:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.engine.executor import MODES
    from repro.optimizer.rewriter import RANKINGS

    allowed = {"mode": MODES, "ranking": RANKINGS}
    problems = []
    for doc in doc_paths:
        for match in _OPTION_VALUE.finditer(
                doc.read_text(encoding="utf-8")):
            option = match.group("kw") or match.group("flag")
            value = match.group("kwv") or match.group("flagv")
            if value not in allowed[option]:
                problems.append(
                    f"{doc.relative_to(REPO_ROOT)}: {match.group(0)!r} "
                    f"names no {option} (one of {allowed[option]})")
    return problems


def main() -> int:
    problems = check_docstrings(REPO_ROOT / "src" / "repro")
    docs = sorted((REPO_ROOT / "docs").glob("*.md")) \
        if (REPO_ROOT / "docs").is_dir() else []
    readme = REPO_ROOT / "README.md"
    if readme.exists():
        docs.append(readme)
    problems += check_links(docs)
    problems += check_option_values(docs)
    if problems:
        print("docs-check FAILED:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    modules = len(list((REPO_ROOT / 'src' / 'repro').rglob('*.py')))
    print(f"docs-check passed ({modules} modules, "
          f"{len(docs)} markdown files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
