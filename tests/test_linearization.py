"""Linearization at the trivial state: adjoint.linearized_matrix is the
steady Jacobian there, bit for bit, it agrees with the scipy.sparse
composition of the linearized rows, and the null triple annihilates it
without a dense matrix, the transport rows to rounding."""

import tracemalloc

import numpy as np
import pytest

from conftest import PARAMS
from oracles import trivial_linearization_reference
from spark_branch.adjoint import (linearized_matrix, nullspace_residual,
                                  pack_triple)
from spark_branch.steady import (jacobian, trivial_linearization,
                                 trivial_state)


@pytest.mark.parametrize("n", [33, 65, 257])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_sparse_matrix_equals_dense_oracle(key, n, cache):
    """Against the dense form of the block-by-block scipy.sparse
    composition: same nonzeros, entries equal up to one rounding of the
    largest entry."""
    g = cache.grid(n)
    p = PARAMS[key]
    eps = np.finfo(float).eps
    for lam in (cache.spark(key, n).lambda_dagger, 1.0, 20.0):
        A = linearized_matrix(lam, p, g)
        ref = trivial_linearization_reference(lam, p, g).toarray()
        assert A.format == "csr"
        assert A.has_canonical_format
        assert A.shape == ref.shape == (3 * n - 4, 3 * n - 4)
        assert A.nnz == np.count_nonzero(ref) == 12 * n - 21
        dense = A.toarray()
        assert np.array_equal(dense != 0.0, ref != 0.0)
        assert np.abs(dense - ref).max() <= eps * np.abs(A.data).max()


@pytest.mark.parametrize("n", [33, 65, 257, 1025])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_shares_non_transport_rows_with_steady_jacobian(key, n, cache):
    """Every row, the transport rows included, is the steady Jacobian's
    at the trivial state: one transport discretization, so indptr,
    indices and data agree exactly."""
    g = cache.grid(n)
    p = PARAMS[key]
    for lam in (cache.spark(key, n).lambda_dagger, 1.0, 20.0):
        A = linearized_matrix(lam, p, g)
        for J in (jacobian(trivial_state(lam, g), p, g),
                  trivial_linearization(lam, p, g)):
            np.testing.assert_array_equal(A.indptr, J.indptr)
            np.testing.assert_array_equal(A.indices, J.indices)
            np.testing.assert_array_equal(A.data, J.data)


def _block_norms(v, g):
    n = g.n
    blocks = np.split(v, [n - 1, 2 * n - 3, 3 * n - 5])
    norms = {"transport": np.sqrt(np.dot(g.r2w[1:], blocks[0] ** 2)),
             "electron": np.sqrt(np.dot(g.r2w[1:-1], blocks[1] ** 2)),
             "potential": np.sqrt(np.dot(g.r2w[1:-1], blocks[2] ** 2)),
             "emission": abs(blocks[3][0])}
    norms["total"] = np.sqrt(sum(v ** 2 for v in norms.values()))
    return norms


@pytest.mark.parametrize("n", [257, 1025])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_nullspace_residual_matches_dense_product(key, n, cache):
    # only the summation order of the matrix-vector product differs, so the
    # two agree to the rounding bound eps * |A||x| of each block; the
    # electron block, whose profile comes from a solve, is itself at that
    # rounding floor
    g = cache.grid(n)
    p = PARAMS[key]
    lam = cache.spark(key, n).lambda_dagger
    triple = cache.triple(key, n)
    got = nullspace_residual(lam, triple, p, g)

    A = linearized_matrix(lam, p, g).toarray()
    x = pack_triple(triple)

    ref = _block_norms(A @ x, g)
    floor = {name: np.finfo(float).eps * value
             for name, value in _block_norms(np.abs(A) @ np.abs(x), g).items()}
    assert got.keys() == ref.keys()
    for name, value in ref.items():
        assert abs(got[name] - value) <= floor[name], name
    assert got["electron"] <= floor["electron"]


@pytest.mark.parametrize("n", [129, 257, 1025])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_triple_annihilates_transport_rows_to_rounding(key, n, cache):
    # the box row at the trivial state is the trapezoid recursion that
    # builds phi_i, so the transport block of L(lambda_dagger) phi sits
    # at the rounding floor eps |L| |phi| of that block
    g = cache.grid(n)
    p = PARAMS[key]
    lam = cache.spark(key, n).lambda_dagger
    triple = cache.triple(key, n)
    A = linearized_matrix(lam, p, g)
    x = pack_triple(triple)
    got = nullspace_residual(lam, triple, p, g)["transport"]
    floor = np.finfo(float).eps * _block_norms(abs(A) @ np.abs(x), g)["transport"]
    assert got <= floor
    assert got <= 1e-12


def test_nullspace_residual_within_budget_on_fine_grids(cache):
    # the pinned electron solve keeps the residual far below 5 delta^2 on the
    # grids where the old rounding floor of u(1) exceeded it
    key = "(2,3,1)"
    for n in (2049, 4097):
        g = cache.grid(n)
        res = nullspace_residual(cache.spark(key, n).lambda_dagger,
                                 cache.triple(key, n), PARAMS[key], g)
        assert res["total"] <= 5.0 * g.delta ** 2


def test_nullspace_residual_memory_at_n4097(cache):
    # the dense (3n-4)^2 matrix alone would take 1.2 GB here
    key = "(2,3,1)"
    g = cache.grid(4097)
    lam = cache.spark(key, 4097).lambda_dagger
    triple = cache.triple(key, 4097)
    tracemalloc.start()
    try:
        res = nullspace_residual(lam, triple, PARAMS[key], g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(res["total"])
    assert peak < 32 * 2 ** 20
