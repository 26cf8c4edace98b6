"""Canonical hashes of outputs, and the digest two commits compare."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

#: Significant digits the service's wire format keeps for every float.
WIRE_DIGITS = 12


def canonical(value: object) -> bytes:
    """Sorted-key, compact, strict JSON bytes of ``value``."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


def digest(value: object) -> str:
    return hashlib.sha256(canonical(value)).hexdigest()


def pinned(value: object, digits: int = WIRE_DIGITS) -> object:
    """``value`` with every float rounded to ``digits`` significant digits."""
    if isinstance(value, bool) or isinstance(value, int) or value is None:
        return value
    if isinstance(value, float):
        return float(format(value, f".{digits}g"))
    if isinstance(value, dict):
        return {key: pinned(inner, digits) for key, inner in value.items()}
    if isinstance(value, (list, tuple)):
        return [pinned(inner, digits) for inner in value]
    return value


class Ledger:
    """Per-input output hashes: repeats must agree, and a digest of all.

    ``record(key, output_hash)`` returns ``False`` when ``key`` was seen
    before with a different hash (a cached answer that differs from the
    computed one).  ``output_digest()`` hashes the sorted ``key -> hash``
    map, so it depends only on which inputs were checked and what they
    produced, not on timing or order.
    """

    def __init__(self) -> None:
        self.hashes: dict[str, str] = {}

    def record(self, key: str, output_hash: str) -> bool:
        known = self.hashes.setdefault(key, output_hash)
        return known == output_hash

    def output_digest(self, keys: set[str] | None = None) -> str:
        chosen = sorted(self.hashes if keys is None else keys & set(self.hashes))
        return digest([[key, self.hashes[key]] for key in chosen])


@dataclass
class Checked:
    """Outputs checked so far: attempts, failures, and the per-input hashes."""

    ledger: Ledger = field(default_factory=Ledger)
    digest_keys: set = field(default_factory=set)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)  # the first few, for the report

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)
