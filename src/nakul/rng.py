"""Deterministic named random streams.

Every stochastic consumer in the package (data generation, parameter
init, dropout masks, augmentation) pulls from its own named stream so
that adding draws to one consumer never shifts the values seen by
another. Streams are derived from a single root seed; the derivation
hashes the stream name, so it does not depend on the order in which
streams are requested.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["stream"]


def _name_key(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def stream(seed: int, name: str) -> np.random.Generator:
    """Return the generator for `name` under the given root seed."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(_name_key(name),))
    return np.random.Generator(np.random.PCG64(ss))

