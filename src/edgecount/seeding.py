"""Deterministic derivation of independent random streams from one master seed."""

from __future__ import annotations

import hashlib
import operator

import numpy as np

_MASK64 = (1 << 64) - 1


def check_master_seed(master_seed: int) -> int:
    """``master_seed`` as a plain ``int``; ``ValueError`` naming it unless it is an integer in ``0..2**64-1``.

    Two seeds that a report prints differently therefore never share a stream.
    """
    try:
        seed = operator.index(master_seed)
    except TypeError:
        raise ValueError(f"master_seed must be an integer, got {master_seed!r}") from None
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"master_seed must lie in 0..{_MASK64}, got {seed}")
    return seed


def derive_seed(master_seed: int, label: str) -> int:
    """Return a 64-bit child seed for a named stream.

    Distinct labels yield unrelated streams, so a plan's sampling randomness,
    an oracle's answer randomness, and per-trial randomness never alias even
    when they start from the same master seed. The derivation is a hash, so it
    is stable across platforms and sessions. ``master_seed`` must pass
    :func:`check_master_seed`.
    """
    payload = f"{check_master_seed(master_seed)}:{label}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def derive_rng(master_seed: int, label: str) -> np.random.Generator:
    """Generator seeded by :func:`derive_seed` for the same arguments."""
    return np.random.default_rng(derive_seed(master_seed, label))
