import numpy as np
import pytest
from hypothesis import given, strategies as st

from fello_sim.seeding import Substreams, derive_seed, substream


def test_derive_seed_range_and_determinism():
    for master in (0, 1, 42, 2**31):
        for keys in ((), ("init",), ("train", 3, 1, 2), (1.5,), (("a", 1),)):
            s1 = derive_seed(master, *keys)
            s2 = derive_seed(master, *keys)
            assert s1 == s2
            assert 0 <= s1 < 2**63


def test_derive_seed_sensitivity():
    base = derive_seed(42, "train", 1, 2, 3)
    assert derive_seed(43, "train", 1, 2, 3) != base
    assert derive_seed(42, "train", 1, 2, 4) != base
    assert derive_seed(42, "ship", 1, 2, 3) != base


def test_keys_are_not_flattened_into_each_other():
    # ("ab", 1) and ("a", "b1") must key different streams.
    assert derive_seed(0, "ab", 1) != derive_seed(0, "a", "b1")
    assert derive_seed(0, 12, 3) != derive_seed(0, 1, 23)
    assert derive_seed(0, 1) != derive_seed(0, "1")
    assert derive_seed(0, 1) != derive_seed(0, 1.0)


@given(
    master=st.integers(0, 2**63),
    x=st.floats(allow_nan=False, allow_infinity=False),
    flag=st.booleans(),
)
def test_numpy_scalar_keys_equal_their_python_values(master, x, flag):
    # numpy 2's repr of np.float64(1.5) is "np.float64(1.5)", not "1.5".
    assert derive_seed(master, np.float64(x)) == derive_seed(master, x)
    narrow = np.float32(np.clip(x, -3e38, 3e38))
    assert derive_seed(master, narrow) == derive_seed(master, float(narrow))
    assert derive_seed(master, np.bool_(flag)) == derive_seed(master, flag)
    assert derive_seed(master, (np.float64(x), np.bool_(flag))) == derive_seed(master, (x, flag))


def test_unsupported_key_type():
    with pytest.raises(TypeError):
        derive_seed(0, object())


def test_substream_reproducible_and_independent():
    a1 = substream(7, "noise", 1).random(8)
    a2 = substream(7, "noise", 1).random(8)
    b = substream(7, "noise", 2).random(8)
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)


def test_substreams_class_matches_free_functions():
    streams = Substreams(99)
    assert streams.master_seed == 99
    got = streams.derive("x", 4).random(5)
    want = substream(99, "x", 4).random(5)
    assert np.array_equal(got, want)


def test_draw_order_does_not_couple_streams():
    # Consuming one stream first must not change what another yields.
    s = Substreams(5)
    early = s.derive("b").random(4)
    s.derive("a").random(1000)
    late = s.derive("b").random(4)
    assert np.array_equal(early, late)
