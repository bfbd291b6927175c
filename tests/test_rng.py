"""The RNG is a documented algorithm, so we check it bit-for-bit against an
independent pure-Python reference."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynembed.rng import Rng

from oracles import splitmix64_ref


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, 2**64 - 1])
def test_raw64_matches_reference(seed):
    got = Rng(seed).raw64(64)
    want = splitmix64_ref(seed, 64)
    assert [int(x) for x in got] == want


def test_stream_continues_across_calls():
    rng = Rng(9)
    first = rng.raw64(3)
    second = rng.raw64(5)
    want = splitmix64_ref(9, 8)
    assert [int(x) for x in first] + [int(x) for x in second] == want


def test_random_uses_top_53_bits():
    want = [(z >> 11) * 2.0**-53 for z in splitmix64_ref(5, 4)]
    rng = Rng(5)
    assert rng.random() == want[0]
    assert np.array_equal(rng.random(3), np.array(want[1:]))


def test_random_shape_and_range():
    rng = Rng(0)
    out = rng.random((4, 5))
    assert out.shape == (4, 5)
    assert np.all((out >= 0.0) & (out < 1.0))
    assert isinstance(Rng(0).random(), float)


def test_random_peaks_at_twice_its_result():
    # the stream is mixed in place on one uint64 buffer, so at most two
    # arrays of the result's size are alive: that buffer and either its
    # shift temporary or the float64 result
    tracemalloc.start()
    try:
        out = Rng(1).random((1000, 1000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * out.nbytes + (1 << 20)


def test_seeds_diverge_and_repeat():
    a = Rng(1).random(100)
    b = Rng(1).random(100)
    c = Rng(2).random(100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniform_bounds():
    out = Rng(3).uniform(-2.0, 5.0, 1000)
    assert np.all((out >= -2.0) & (out < 5.0))


def test_integers_range():
    rng = Rng(4)
    out = rng.integers(7, size=500)
    assert out.min() >= 0 and out.max() < 7
    assert set(np.unique(out)) == set(range(7))  # all values reachable
    assert isinstance(rng.integers(7), int)


def test_integers_degenerate_and_invalid():
    assert np.all(Rng(0).integers(1, size=20) == 0)
    with pytest.raises(ValueError):
        Rng(0).integers(0)


@settings(max_examples=50)
@given(n=st.integers(min_value=1, max_value=200), seed=st.integers(min_value=0, max_value=2**64 - 1))
def test_permutation_is_a_permutation(n, seed):
    p = Rng(seed).permutation(n)
    assert sorted(p.tolist()) == list(range(n))


def test_choice_no_replace_distinct_subset():
    pool = np.arange(10, 30)
    picked = Rng(6).choice_no_replace(pool, 7)
    assert len(set(picked.tolist())) == 7
    assert set(picked.tolist()) <= set(pool.tolist())


def test_choice_no_replace_exhausts_pool():
    picked = Rng(6).choice_no_replace(np.arange(5), 5)
    assert sorted(picked.tolist()) == list(range(5))


def test_choice_no_replace_overdraw_rejected():
    with pytest.raises(ValueError):
        Rng(0).choice_no_replace(np.arange(3), 4)
