"""The oracle: what the worker recorded must equal what the definitional
evaluator says, outside every timed window and outside the measured
process.

Three checks, each mismatch one failed op:

- **full size** — the recorded output of each verified text equals
  ``mode="reference"`` on the same alternative over the same documents,
  byte for byte;
- **tenth size** — on a corpus a tenth the size from the same seed, the
  program under its defaults (a fresh session, or a fresh server for
  serve-http) equals ``label="nested", mode="reference"`` — the
  translated plan before any rewrite — compared as sorted top-level
  blocks, because rewrites may legitimately reorder groups;
- **checkpoints** (update-mix) — the reads recorded against the live,
  spliced document equal the same reads against a database registered
  from that version's serialized text.

``mode="reference"`` and ``label="nested"`` are the only place the
ledger names a mode or a plan: the oracle has to be the evaluator the
program is checked against, whatever the program's defaults become.
"""

from __future__ import annotations

import pathlib
import re

from repro import Database, ReproError
from repro.datagen import ITEMS_DTD

import workloads as wl
from targets import RequestFailed, make_target


def blocks(text: str) -> list[str]:
    """Constructed output as its sorted top-level element blocks."""
    match = re.search(r"<([a-zA-Z][\w-]*)[ >]", text)
    if match is None:
        return [text]
    tag = match.group(1)
    return sorted(re.findall(
        rf"<{tag}[ >].*?</{tag}>|<{tag}>.*?</{tag}>", text, re.S))


def _database(docs: dict[str, str]):
    db = Database()
    for name in sorted(docs):
        db.register_text(name, docs[name])
    return db


def _attempt(call) -> str | None:
    """``call()``'s output text, or None when the request fails (the
    caller then counts the text as a failed op instead of crashing)."""
    try:
        return call()
    except (ReproError, RequestFailed, OSError, KeyError):
        return None


def _reference(session, text: str, label) -> str | None:
    return _attempt(lambda: session.execute(
        text, label=label, mode="reference").output)


def verify(workload: wl.Workload, sizes: dict, seed: int,
           docs: dict[str, str], run: dict,
           work_dir: pathlib.Path) -> list[str]:
    """Every mismatch as one human-readable line (empty: all correct).
    ``run`` is the worker's result: ``outputs`` by text, plus
    ``checkpoints`` for update-mix."""
    failures: list[str] = []
    texts = wl.oracle_texts(workload, seed)
    recorded = run["outputs"]

    full = [(shape, text) for shape, text, at_full, _ in texts if at_full]
    if full:
        with _database(docs).session() as session:
            for shape, text in full:
                expected = _reference(session, text, shape.label)
                if expected is None or recorded.get(text) != expected:
                    failures.append(
                        f"{workload.name}/{shape.name}: full-size output "
                        f"differs from mode=reference")

    tenth = [(shape, text) for shape, text, _, at_tenth in texts
             if at_tenth]
    if tenth:
        small = wl.corpus(sizes, seed, divisor=10)
        small_dir = work_dir / "tenth"
        small_dir.mkdir(parents=True, exist_ok=True)
        for name, content in small.items():
            (small_dir / name).write_text(content)
        kind = "http" if workload.kind == "http" else "session"
        target = make_target(kind, small_dir, workload.session_kwargs)
        try:
            with _database(small).session() as session:
                for shape, text in tenth:
                    expected = _reference(session, text, "nested")
                    got = _attempt(
                        lambda: target.query(text, shape.label))
                    if expected is None or got is None \
                            or blocks(got) != blocks(expected):
                        failures.append(
                            f"{workload.name}/{shape.name}: tenth-size "
                            f"output differs from the nested reference")
        finally:
            target.close()

    for checkpoint in run.get("checkpoints", ()):
        failures.extend(_verify_checkpoint(workload, docs, checkpoint))
    return failures


def _verify_checkpoint(workload, docs, checkpoint) -> list[str]:
    fresh = dict(docs)
    fresh["items.xml"] = wl.document_text("items", ITEMS_DTD,
                                          checkpoint["items.xml"])
    failures = []
    with _database(fresh).session(**workload.session_kwargs) as session:
        for name, output in checkpoint["reads"].items():
            text = workload.shape(name).text()
            if output is None or session.execute(text).output != output:
                failures.append(
                    f"{workload.name}/{name}: version "
                    f"{checkpoint['version']} differs from a database "
                    f"registered from its serialized text")
    return failures
