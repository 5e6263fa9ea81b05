"""Tests for slice-vector grouping and compressibility masks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitslice.vectors import (
    activation_vector_mask,
    expand_activation_mask,
    expand_weight_mask,
    pad_to_multiple,
    vector_sparsity,
    weight_vector_mask,
)


class TestPad:
    def test_no_pad_needed(self):
        x = np.zeros((4, 3))
        assert pad_to_multiple(x, 4, axis=0) is x

    def test_pads_with_fill(self):
        x = np.ones((3, 2), dtype=int)
        out = pad_to_multiple(x, 4, axis=0, fill=7)
        assert out.shape == (4, 2)
        assert np.all(out[3] == 7)

    def test_pads_axis1(self):
        x = np.ones((2, 5), dtype=int)
        out = pad_to_multiple(x, 4, axis=1, fill=0)
        assert out.shape == (2, 8)


class TestWeightMask:
    def test_all_zero_compressible(self):
        ho = np.zeros((8, 3), dtype=int)
        mask = weight_vector_mask(ho, v=4)
        assert mask.shape == (2, 3)
        assert not mask.any()

    def test_single_nonzero_marks_vector(self):
        ho = np.zeros((8, 2), dtype=int)
        ho[5, 1] = 3
        mask = weight_vector_mask(ho, v=4)
        assert mask[1, 1]
        assert mask.sum() == 1

    def test_vectors_run_along_rows(self):
        """A 4x1 weight vector covers 4 consecutive output rows of one k."""
        ho = np.zeros((4, 4), dtype=int)
        ho[0, 2] = 1
        mask = weight_vector_mask(ho, v=4)
        assert mask.shape == (1, 4)
        assert list(mask[0]) == [False, False, True, False]

    def test_ragged_m_padded_with_compress_value(self):
        ho = np.ones((5, 1), dtype=int)
        mask = weight_vector_mask(ho, v=4)
        assert mask.shape == (2, 1)
        assert mask.all()


class TestActivationMask:
    def test_r_valued_compressible(self):
        ho = np.full((3, 8), 10, dtype=int)
        mask = activation_vector_mask(ho, v=4, compress_value=10)
        assert not mask.any()

    def test_vectors_run_along_columns(self):
        """A 1x4 activation vector covers 4 consecutive tokens of one k."""
        ho = np.full((2, 8), 5, dtype=int)
        ho[1, 6] = 0
        mask = activation_vector_mask(ho, v=4, compress_value=5)
        assert mask.shape == (2, 2)
        assert mask[1, 1] and mask.sum() == 1

    def test_zero_compress_value_for_symmetric(self):
        ho = np.zeros((2, 4), dtype=int)
        assert not activation_vector_mask(ho, v=4, compress_value=0).any()


class TestExpand:
    def test_weight_expand_round_trip(self):
        ho = np.random.default_rng(0).integers(0, 2, (12, 5))
        mask = weight_vector_mask(ho, v=4)
        expanded = expand_weight_mask(mask, 4, 12)
        assert expanded.shape == (12, 5)
        # every row of an uncompressed vector is marked
        assert np.array_equal(expanded[::4], mask)

    def test_activation_expand_truncates(self):
        mask = np.ones((3, 2), dtype=bool)
        expanded = expand_activation_mask(mask, 4, 7)
        assert expanded.shape == (3, 7)


class TestVectorSparsity:
    def test_empty(self):
        assert vector_sparsity(np.zeros((0, 0), dtype=bool)) == 0.0

    def test_all_compressed(self):
        assert vector_sparsity(np.zeros((4, 4), dtype=bool)) == 1.0

    def test_half(self):
        mask = np.array([[True, False], [False, True]])
        assert vector_sparsity(mask) == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 10), st.integers(0, 15))
def test_property_vector_sparsity_lower_bounds_slice_sparsity(m, k, r):
    """Grouping can only lose sparsity: rho_vector <= rho_slice."""
    rng = np.random.default_rng(m * 1000 + k)
    ho = rng.choice([r, r + 1], size=(k, m), p=[0.8, 0.2])
    mask = activation_vector_mask(ho, v=4, compress_value=r)
    slice_sp = float(np.mean(ho == r))
    assert vector_sparsity(mask) <= slice_sp + 1e-9


def _padded_activation_mask(ho, v, compress_value):
    """The grouping reference: pad with the compressible value, reshape."""
    padded = pad_to_multiple(ho, v, axis=1, fill=compress_value)
    grouped = padded.reshape(padded.shape[0], -1, v)
    return np.any(grouped != compress_value, axis=2)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 9), st.sampled_from([1, 2, 4, 8]),
       st.sampled_from([0, 9]), st.integers(1, 6), st.integers(0, 2**16))
def test_property_activation_mask_matches_padded_reference(n, v, r, k, seed):
    """The pad-free mask equals grouping the r-padded plane, ragged or not."""
    rng = np.random.default_rng(seed)
    ho = rng.choice([r, r + 1, 0], size=(k, n), p=[0.7, 0.2, 0.1])
    mask = activation_vector_mask(ho, v=v, compress_value=r)
    ref = _padded_activation_mask(ho, v, r)
    assert mask.dtype == bool
    assert mask.shape == ref.shape == (k, -(-n // v))
    assert np.array_equal(mask, ref)
