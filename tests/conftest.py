import numpy as np
import pytest

from closest_string import Alphabet, validate_instance


@pytest.fixture(scope="session")
def deep_instance():
    """3 x 1500 binary: two copies of a random string and a third that
    differs from them in its first 40 positions. The optimum, 20, needs 20
    of those 40 positions flipped, at the top of a 1500-deep search tree."""
    rng = np.random.default_rng(1500)
    base = rng.integers(0, 2, size=1500)
    top = base.copy()
    top[:40] ^= 1
    strings = ["".join("01"[c] for c in s) for s in (top, base, base)]
    return validate_instance(strings, Alphabet.from_string("01"))
