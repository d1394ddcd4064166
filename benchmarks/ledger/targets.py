"""The two ways the ledger reaches the program: in-process through a
``Session``, and over loopback HTTP to a ``python -m repro serve``
subprocess.  Both take a directory of XML files and nothing else —
constructing a target is exactly the work ``setup_s`` measures (read
and parse the files, finalise arenas, build the session / start the
server and read its listening line).
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import socket
import subprocess
import sys
import threading
import time

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

_LISTENING = re.compile(r"listening on http://([^:\s]+):(\d+)")


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set of a live process in MB, from the kernel's
    ``VmHWM``.  Not ``ru_maxrss``: that survives ``exec``, so a child
    would start from its parent's peak."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


class RequestFailed(Exception):
    """A request that did not produce a correct-looking reply (non-200
    status, unparsable body); the caller counts it as a failed op."""


class SessionTarget:
    """``Database()`` + ``db.session(**session_kwargs)`` over the
    documents in ``docs_dir``, all with the program's defaults."""

    def __init__(self, docs_dir: pathlib.Path, session_kwargs: dict):
        from repro import Database
        self.db = Database()
        self.documents = {}
        for path in sorted(docs_dir.glob("*.xml")):
            self.documents[path.name] = self.db.register_text(
                path.name, path.read_text())
        self.session = self.db.session(**session_kwargs)

    def query(self, text: str, label: str | None = None) -> str:
        return self.session.execute(text, label=label).output

    def stats(self) -> dict:
        """Cache counters, shaped like the server's ``GET /stats``."""
        return self.session.cache_stats()

    def peak_rss_mb(self) -> float:
        return peak_rss_mb()

    def close(self) -> None:
        self.session.close()
        self.db.close()


class HttpTarget:
    """A ``python -m repro serve --docs DIR --port 0`` subprocess with
    its defaults; ready once its listening line has been read."""

    def __init__(self, docs_dir: pathlib.Path, session_kwargs: dict):
        if session_kwargs:
            raise ValueError("the server runs with its own defaults")
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--docs", str(docs_dir), "--port", "0"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True)
        try:
            self.host, self.port = self._read_address()
        except BaseException:
            self.close()
            raise
        # Keep the pipe drained so the server can never block on it.
        self._drain = threading.Thread(
            target=self.process.stderr.read, daemon=True)
        self._drain.start()

    def _read_address(self) -> tuple[str, int]:
        seen = []
        for line in self.process.stderr:
            seen.append(line)
            match = _LISTENING.search(line)
            if match:
                return match.group(1), int(match.group(2))
        raise RuntimeError("server exited before listening: "
                           + "".join(seen)[-2000:])

    # ------------------------------------------------------------------
    def exchange(self, method: str, path: str, payload: dict | None
                 ) -> tuple[dict, tuple[float, float, float, float, float]]:
        """One HTTP exchange on its own connection (the server closes
        each).  Returns the decoded JSON reply and the five instants
        start / connected / sent / first byte / complete."""
        body = b"" if payload is None \
            else json.dumps(payload).encode("utf-8")
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self.host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n").encode("latin-1")
        start = time.perf_counter()
        with socket.create_connection((self.host, self.port),
                                      timeout=60) as conn:
            connected = time.perf_counter()
            conn.sendall(head + body)
            sent = time.perf_counter()
            chunks = [conn.recv(65536)]
            first = time.perf_counter()
            while chunks[-1]:
                chunks.append(conn.recv(65536))
        raw = b"".join(chunks)
        header, _, content = raw.partition(b"\r\n\r\n")
        status = header.split(b" ", 2)[1:2]
        if status != [b"200"]:
            raise RequestFailed(f"{method} {path}: "
                                f"{header[:80]!r} {content[:200]!r}")
        try:
            reply = json.loads(content)
        except ValueError as exc:
            raise RequestFailed(f"{method} {path}: {exc}") from exc
        return reply, (start, connected, sent, first,
                       time.perf_counter())

    def request(self, text: str, label: str | None = None):
        """``POST /query``: ``(reply, instants)``."""
        payload = {"query": text}
        if label is not None:
            payload["plan"] = label
        return self.exchange("POST", "/query", payload)

    def query(self, text: str, label: str | None = None) -> str:
        return self.request(text, label)[0]["output"]

    def stats(self) -> dict:
        return self.exchange("GET", "/stats", None)[0]

    def peak_rss_mb(self) -> float:
        """Of the server process (call before :meth:`close`)."""
        return peak_rss_mb(self.process.pid)

    def close(self) -> None:
        """Stop the server and wait until it has ended."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        drain = getattr(self, "_drain", None)
        if drain is not None:
            drain.join(timeout=10)
        self.process.stderr.close()


def make_target(kind: str, docs_dir: pathlib.Path, session_kwargs: dict):
    cls = HttpTarget if kind == "http" else SessionTarget
    return cls(docs_dir, session_kwargs)
