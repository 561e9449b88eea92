"""Deterministic random substream derivation.

Every stochastic step of a simulation draws from its own named substream,
keyed by (master seed, purpose, round, satellite, ...). Results are therefore
independent of evaluation order and worker count, and any single draw can be
reproduced in isolation from the keys alone.
"""

import hashlib

import numpy as np


def derive_seed(master_seed: int, *keys) -> int:
    """Map (master seed, keys) to a 63-bit integer via SHA-256.

    Keys may be ints, floats, bools, strings or tuples of them; they are
    joined into a canonical string so the mapping is stable across platforms
    and Python and numpy versions. A numpy scalar keys the same stream as the
    Python value it equals.
    """
    material = "|".join([str(int(master_seed))] + [_key_token(k) for k in keys])
    digest = hashlib.sha256(material.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def substream(master_seed: int, *keys) -> np.random.Generator:
    """Return an independent PCG64 generator for the given key tuple."""
    return np.random.default_rng(derive_seed(master_seed, *keys))


def _key_token(key) -> str:
    if isinstance(key, (bool, np.bool_)):
        return "b" + str(int(key))
    if isinstance(key, (int, np.integer)):
        return "i" + str(int(key))
    if isinstance(key, (float, np.floating)):
        return "f" + repr(float(key))
    if isinstance(key, str):
        return "s" + key
    if isinstance(key, tuple):
        return "(" + ",".join(_key_token(k) for k in key) + ")"
    raise TypeError(f"unsupported substream key type: {type(key).__name__}")


class Substreams:
    """Factory of named substreams rooted at one master seed."""

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)

    def derive(self, *keys) -> np.random.Generator:
        return substream(self.master_seed, *keys)
