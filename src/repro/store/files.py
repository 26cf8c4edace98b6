"""The one persistence primitive: atomic file replacement and JSON records.

Every file the project persists — store chunks and manifests, job
mirrors and their sequence files, the shard's control-directory
records — is written through :func:`write_atomic`: the bytes go to a
``.tmp-*.part`` temporary beside the target, and ``os.replace`` moves
it into place.  A reader sees the old file or the new one, never a torn
write.  A writer that dies mid-stream leaves only a temp, which
:func:`sweep_temps` removes once it is old enough to be a crash rather
than a write in flight.

No ``fsync``: the contract is atomicity against concurrent readers and
killed processes, not durability across power loss.  Stdlib only.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections.abc import Callable
from pathlib import Path
from typing import BinaryIO

#: The temp-file pattern; ``gc``, ``clear`` and the hammer tests glob it.
TEMP_GLOB = ".tmp-*.part"


def unlink_quiet(path: str | Path) -> None:
    """Unlink ``path``; a missing file (or any other ``OSError``) is fine."""
    try:
        os.unlink(path)
    except OSError:
        pass


def write_atomic(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Replace ``path`` with whatever ``write(stream)`` writes, atomically.

    The temp is unlinked on any exception, which then propagates: a
    missing parent directory raises ``FileNotFoundError`` and leaves
    nothing behind.
    """
    path = Path(path)
    handle, temp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-", suffix=".part")
    try:
        with os.fdopen(handle, "wb") as stream:
            write(stream)
        os.replace(temp, path)
    except BaseException:
        unlink_quiet(temp)
        raise


def write_json(path: str | Path, payload: dict) -> None:
    """Atomically write ``json.dumps(payload)`` — the bytes ``json.dump``
    writes to a text stream."""
    data = json.dumps(payload).encode("utf-8")
    write_atomic(path, lambda stream: stream.write(data))


def read_json(path: str | Path) -> dict | None:
    """The JSON object at ``path``, or ``None`` when the file is absent,
    unreadable, not UTF-8, not JSON, nested past the parser's recursion
    limit, or holds anything but an object."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError):  # ValueError: bad JSON or UTF-8
        return None
    return payload if isinstance(payload, dict) else None


def sweep_temps(directory: str | Path, max_age_s: float) -> int:
    """Unlink temps older than ``max_age_s``; returns how many went.

    Fresh temps (a live writer's in-flight data) always survive.
    """
    now = time.time()
    removed = 0
    for temp in Path(directory).glob(TEMP_GLOB):
        try:
            if now - temp.stat().st_mtime <= max_age_s:
                continue
            temp.unlink()
            removed += 1
        except OSError:
            continue  # racing writer finished (renamed) or another sweeper won
    return removed


def count_temps(directory: str | Path) -> int:
    """How many temps sit in ``directory`` (in flight or crash-orphaned)."""
    return sum(1 for _ in Path(directory).glob(TEMP_GLOB))
