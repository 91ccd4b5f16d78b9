import numpy as np
import pytest

from shadowproj.rng import derive_key, derive_seed, stream, uniform_block
from shadowproj.shadows import acquire_shadow
from shadowproj.statevector import prepare_basis_state


def test_streams_deterministic_and_branch_sensitive():
    a = stream(7, 1).random(5)
    b = stream(7, 1).random(5)
    c = stream(7, 2).random(5)
    d = stream(8, 1).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_derive_key_shape_and_stability():
    key = derive_key(123, 4, 5)
    assert key.shape == (2,) and key.dtype == np.uint64
    assert np.array_equal(key, derive_key(123, 4, 5))
    assert derive_seed(123, 4) == derive_seed(123, 4)
    assert derive_seed(123, 4) != derive_seed(123, 5)


def test_uniform_block_rows_are_fixed_offsets():
    # row n must not depend on how many rows are requested
    small = uniform_block(3, (9,), 4, 5)
    large = uniform_block(3, (9,), 64, 5)
    assert np.array_equal(large[:4], small)
    assert ((large >= 0) & (large < 1)).all()


def test_numpy_integer_seeds_give_the_python_integer_key():
    for seed in (np.int64(7), np.uint32(7), np.int8(7)):
        assert np.array_equal(derive_key(seed, 3), derive_key(7, 3))


@pytest.mark.parametrize("seed, shown", [
    (1.5, "1.5"), (1.0, "1.0"), (True, "True"), ("3", "'3'"), (None, "None"),
    (-1, "-1")])
def test_derive_key_accepts_only_non_negative_integers(seed, shown):
    with pytest.raises(ValueError) as err:
        derive_key(seed)
    assert str(err.value) == f"seed must be a non-negative integer, got {shown}"


def test_acquire_rejects_a_non_integer_seed():
    with pytest.raises(ValueError, match="got 1.5"):
        acquire_shadow(prepare_basis_state(2), 3, 1.5)
