"""Canonical byte encoding for signed control-plane objects.

Signatures must be computed over a deterministic serialization. We use
compact JSON with sorted keys; every signed object provides a plain-dict
payload, and this module turns it into bytes. Ints, strings, floats, lists
and dicts only — no custom types leak into signed payloads.
"""

from __future__ import annotations

import json
from typing import Any


#: One encoder for every call: ``json.dumps`` with non-default arguments
#: builds a fresh ``JSONEncoder`` each time.
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), ensure_ascii=True
)


def canonical_bytes(payload: Any) -> bytes:
    """Serialize a payload deterministically for signing/verification."""
    return _ENCODER.encode(payload).encode("ascii")
