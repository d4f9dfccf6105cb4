"""Deterministic numerical kernels."""
import numpy as np
import pytest

from nltariff.numerics import trapezoid


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize("nodes", [1, 2, 3, 200])
def test_trapezoid_is_np_trapezoid_bit_for_bit(nodes):
    """On C-ordered samples, on a transposed ``y`` (as a time integral of a
    type-major table receives it) and on a 2-D ``x`` (a grid per row)."""
    rng = np.random.default_rng(nodes)
    x = np.sort(rng.uniform(0.0, 1.0, nodes))
    y = rng.normal(size=(2, 3, nodes))
    cases = [(y[0, 0], x), (y, x), (y.reshape(6, nodes).T.copy().T, x),
             (rng.normal(size=(nodes, 4)).T, x),
             (y[0], np.sort(rng.uniform(0.0, 1.0, (3, nodes)), axis=-1))]
    for ys, xs in cases:
        assert _bits(trapezoid(ys, xs)) == _bits(np.trapezoid(ys, xs, axis=-1))


def test_trapezoid_of_one_node_is_zero():
    assert trapezoid(np.array([2.0]), np.array([0.5])) == 0.0
    assert trapezoid(np.ones((3, 1)), np.array([0.5])).tolist() == [0.0, 0.0, 0.0]
