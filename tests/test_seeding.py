import hashlib

import numpy as np
import pytest

from edgecount import derive_rng, derive_seed


def sha_seed(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


@pytest.mark.parametrize("master_seed", [0, 1, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7)])
def test_seeds_in_range_hash_their_decimal_text(master_seed):
    assert derive_seed(master_seed, "graph") == sha_seed(f"{int(master_seed)}:graph")
    assert derive_rng(master_seed, "graph").integers(2**32) == np.random.default_rng(
        sha_seed(f"{int(master_seed)}:graph")
    ).integers(2**32)


@pytest.mark.parametrize("master_seed", [-1, 2**64, -(2**64) - 1, 2**64 + 1])
def test_seeds_outside_64_bits_are_rejected(master_seed):
    # -1 and 2**64 - 1 used to share every stream, as did 2**64 and 0
    for derive in (derive_seed, derive_rng):
        with pytest.raises(ValueError, match=rf"master_seed must lie in 0\.\.{2**64 - 1}, got {master_seed}$"):
            derive(master_seed, "graph")


@pytest.mark.parametrize("master_seed", [1.0, "3", None, True])
def test_non_integer_seeds_are_rejected(master_seed):
    with pytest.raises(ValueError, match="master_seed must be an integer"):
        derive_seed(master_seed, "graph")
