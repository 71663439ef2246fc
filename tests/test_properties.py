"""Property tests: invariants checked on drawn inputs, in bounded runs."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ncf import NcfParams, core, transfer  # noqa: E402
from ncf.gausskuzmin import _iterate_map  # noqa: E402


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 10**6), m=st.integers(1, 512), data=st.data())
def test_branch_terms_are_stochastic(n, m, data):
    # with or without the cut-off: weights >= 0 that sum to 1 per row, at
    # points in [0, 1] that do not rise along a row
    i_max = data.draw(st.none() | st.integers(n - 1, max(n - 1, 10**5)), label="i_max")
    x = np.linspace(0.0, 1.0, m + 1)
    for _, w, y in transfer._branch_terms(NcfParams(n), x, m, i_max):
        assert np.all(w >= 0) and np.max(np.abs(w.sum(axis=1) - 1.0)) <= 1e-14
        assert y.min() >= 0.0 and y.max() <= 1.0 and np.all(np.diff(y, axis=1) <= 0)


@settings(max_examples=50, deadline=None)
@given(n=st.integers(1, 10**6),
       ys=st.lists(st.floats(0.0, 1.0, allow_subnormal=False), max_size=50))
def test_vector_map_step_is_the_scalar_map(n, ys):
    # one step of the Monte Carlo paths is core's map to the bit, and fixes 0;
    # points below 1e-300 are left out, where N/y can overflow and core raises
    y = np.array([0.0] + [t for t in ys if t == 0.0 or t >= 1e-300])
    params = NcfParams(n)
    got = _iterate_map(y, 1, n)
    assert got.tolist() == [core.gauss_map(float(t), params) for t in y]
