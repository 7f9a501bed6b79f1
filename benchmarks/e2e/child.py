"""Run the correctness gate's heavy work in a forked child process.

The gate builds its own graphs, graph copies and fresh sessions.  Done
in the measured process, they would raise that process's peak resident
set, and ``peak_rss_mb`` would report the gate instead of the program.
A forked child shares the parent's state copy-on-write, computes, sends
back a small picklable answer, and exits; its memory never counts
toward the parent's ``ru_maxrss``.

The child is forked, not spawned: an update-stream checkpoint checks
the measured session's live graph and the op's answer, which a spawned
worker could only get by pickling them.  Forking is safe here because
the benchmark process runs no threads.

An answer that depends only on the code can be kept on disk for the
next run (``cached_in_child``), keyed by a digest of every source file
under ``src/`` and of this benchmark: a checkout computes it once.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sys
import traceback
from pathlib import Path
from typing import Any, Callable

__all__ = ["ChildFailed", "cached_in_child", "in_child"]

ROOT = Path(__file__).resolve().parents[2]


class ChildFailed(RuntimeError):
    """The child raised, or died before answering."""


def in_child(fn: Callable[..., Any], *args: Any) -> Any:
    """``fn(*args)`` computed in a forked child; waits for it to exit.

    Python's string hashes are randomized per interpreter, but a fork
    keeps the parent's, so hashes computed in the child compare with the
    parent's.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # Nothing may propagate out of the child, or it would go on to
        # run the parent's code: whatever happens, it ends in _exit.
        status = 1
        try:
            os.close(read_fd)
            try:
                payload: tuple[bool, Any] = (True, fn(*args))
            except Exception:
                payload = (False, traceback.format_exc())
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh, protocol=pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise ChildFailed(f"gate child exited with status {status}")
    ok, value = pickle.loads(data)
    if not ok:
        raise ChildFailed(f"gate child raised:\n{value}")
    return value


def source_digest() -> str:
    """Digest of the interpreter version and of every Python file under
    ``src/`` and this benchmark's directory."""
    digest = hashlib.sha256(sys.version.encode())
    here = Path(__file__).resolve().parent
    for path in sorted([*(ROOT / "src").rglob("*.py"), *here.rglob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def cached_in_child(
    directory: Path | None, key: str, fn: Callable[..., Any], *args: Any
) -> Any:
    """``in_child(fn, *args)``, kept in ``directory`` for later runs.

    ``key`` names what ``fn`` computes; together with
    :func:`source_digest` it names the file, so a change to the code
    computes the answer afresh.  ``directory=None`` keeps nothing.
    """
    if directory is None:
        return in_child(fn, *args)
    name = hashlib.sha256(f"{key}\0{source_digest()}".encode()).hexdigest()
    path = directory / f"{name[:32]}.pickle"
    if path.exists():
        # Only this function writes these files.
        with open(path, "rb") as fh:
            return pickle.load(fh)
    value = in_child(fn, *args)
    directory.mkdir(parents=True, exist_ok=True)
    partial = path.with_suffix(".partial")
    partial.write_bytes(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    partial.replace(path)
    return value
