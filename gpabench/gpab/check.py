"""Output check: every result must match the digest recorded for its request.

The digest covers the result's canonical bytes (sorted-key compact JSON of
``AdvisingResult.to_dict()``) with the timing fields removed, so it pins
everything the program computed and nothing about how long it took.  The
expected digests live in ``expected_digests.json`` beside the benchmark;
``run.py --record-digests`` rewrites them.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional

#: Result fields that carry wall-clock time, excluded from the digest.
TIMING_FIELDS = ("duration",)

EXPECTED_PATH = Path(__file__).resolve().parent.parent / "expected_digests.json"


def canonical_bytes(result) -> bytes:
    payload = result.to_dict()
    for name in TIMING_FIELDS:
        payload.pop(name, None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_expected(path: Path = EXPECTED_PATH) -> Dict[str, str]:
    with open(path) as stream:
        return json.load(stream)["digests"]


class OutputCheck:
    """Counts results whose canonical bytes do not match the record."""

    def __init__(self, expected: Dict[str, str]):
        self.expected = expected
        self.checked = 0
        self.mismatches: List[str] = []

    def check(self, key: str, result, data: Optional[bytes] = None) -> bool:
        """Whether ``result`` is correct; ``data`` is its canonical bytes
        when the caller already has them."""
        self.checked += 1
        if not result.ok:
            self.mismatches.append(f"{key}: failed: {(result.error or '').strip().splitlines()[-1:]}")
            return False
        if data is None:
            data = canonical_bytes(result)
        expected = self.expected.get(key)
        if expected is None:
            self.mismatches.append(f"{key}: no recorded digest")
            return False
        if digest(data) != expected:
            self.mismatches.append(f"{key}: digest mismatch")
            return False
        return True
