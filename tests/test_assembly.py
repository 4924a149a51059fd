"""Fixed-pattern assembly of the Jacobian and the bordered matrix.

Both are checked bit for bit, in indptr, indices and data, against a
scipy.sparse composition: the Jacobian against
oracles.jacobian_reference, the bordered matrix of the SuperLU oracle
(oracles.bordered_matrix) against scipy.sparse.bmat(..., format="csc").
"""

import numpy as np
import pytest
import scipy.sparse

from oracles import bordered_matrix, jacobian_reference
from spark_branch.continuation import initial_tangent
from spark_branch.grid import RadialGrid
from spark_branch.steady import (admissibility, dresidual_dlambda,
                                 jacobian, pack, pack_weights, trivial_state,
                                 unpack)

from conftest import PARAMS

P1 = PARAMS["(2,3,1)"]


def _assert_identical(A, B):
    assert A.shape == B.shape
    assert A.format == B.format
    np.testing.assert_array_equal(A.indptr, B.indptr)
    np.testing.assert_array_equal(A.indices, B.indices)
    np.testing.assert_array_equal(A.data, B.data)


def _bmat(J, col, row, corner):
    return scipy.sparse.bmat(
        [[J, col[:, None]],
         [scipy.sparse.csr_matrix(row[None, :]), np.array([[corner]])]],
        format="csc")


@pytest.mark.parametrize("n", [33, 65])
@pytest.mark.parametrize("lam", [0.5, 3.574, 6.0])
def test_jacobian_exact_at_trivial_state(n, lam):
    g = RadialGrid(n)
    st = trivial_state(lam, g)
    _assert_identical(jacobian(st, P1, g), jacobian_reference(st, P1, g))


def test_jacobian_exact_along_short_trace(short_branch):
    g = short_branch.grid
    assert len(short_branch.points) > 40
    for point in short_branch.points:
        _assert_identical(jacobian(point.state, P1, g),
                          jacobian_reference(point.state, P1, g))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_jacobian_exact_at_perturbed_states(short_branch, seed):
    g = short_branch.grid
    rng = np.random.default_rng(seed)
    for point in short_branch.points[5::10]:
        x = pack(point.state)
        x = x * (1.0 + 0.05 * rng.standard_normal(x.size)) \
            + 1e-4 * rng.standard_normal(x.size)
        st = unpack(point.state.lam + 0.01 * rng.standard_normal(), x, g)
        assert admissibility(st, g).ok
        _assert_identical(jacobian(st, P1, g), jacobian_reference(st, P1, g))


OPERATORS = {
    "jacobian_pattern": lambda g: jacobian(trivial_state(3.5, g), P1, g),
}


@pytest.mark.parametrize("key", sorted(OPERATORS))
def test_jacobian_pattern_lives_in_the_grid_cache(key):
    g = RadialGrid(65)
    before = set(vars(g))
    J1 = OPERATORS[key](g)
    J2 = OPERATORS[key](g)
    assert set(vars(g)) == before
    assert key in g._cache
    # Each call owns its index arrays: eliminate_zeros must not leak
    # one state's sparsity into the cached pattern.
    assert J1.indices is not J2.indices
    assert not np.shares_memory(J1.indices, g._cache[key].indices)
    assert not np.shares_memory(J1.indptr, g._cache[key].indptr)


def test_bordered_exact_along_short_trace(short_branch):
    g = short_branch.grid
    pw = pack_weights(g)
    for prev, point in zip(short_branch.points[1:], short_branch.points[2:]):
        J = jacobian(point.state, P1, g)
        col = dresidual_dlambda(point.state, P1, g)
        dx = pack(point.state) - pack(prev.state)
        row = pw * dx
        corner = point.state.lam - prev.state.lam
        _assert_identical(bordered_matrix(J, col, row, corner),
                          _bmat(J, col, row, corner))


def test_bordered_exact_at_departure(cache):
    """First step: the trivial state has F_lambda = 0 and t_lambda = 0."""
    g = cache.grid(65)
    lam_dagger = cache.spark("(2,3,1)", 65).lambda_dagger
    st = trivial_state(lam_dagger, g)
    t = initial_tangent(lam_dagger, cache.triple("(2,3,1)", 65), g)
    J = jacobian(st, P1, g)
    col = dresidual_dlambda(st, P1, g)
    row = pack_weights(g) * t.x
    assert not col.any() and t.dlam == 0.0
    A = bordered_matrix(J, col, row, t.dlam)
    _assert_identical(A, _bmat(J, col, row, t.dlam))
    assert A.shape == (J.shape[0] + 1, J.shape[0] + 1)


@pytest.mark.parametrize("seed", [0, 1])
def test_bordered_exact_with_zero_border_entries(short_branch, seed):
    g = short_branch.grid
    rng = np.random.default_rng(seed)
    st = short_branch.points[len(short_branch.points) // 2].state
    J = jacobian(st, P1, g)
    col = dresidual_dlambda(st, P1, g)
    col[rng.random(col.size) < 0.3] = 0.0
    row = rng.standard_normal(J.shape[1])
    row[rng.random(row.size) < 0.5] = 0.0
    row[:3] = 0.0
    row[-3:] = 0.0
    for corner in (0.0, 0.25):
        _assert_identical(bordered_matrix(J, col, row, corner),
                          _bmat(J, col, row, corner))
    zeros = np.zeros(J.shape[1])
    _assert_identical(bordered_matrix(J, zeros, zeros, 0.0),
                      _bmat(J, zeros, zeros, 0.0))
