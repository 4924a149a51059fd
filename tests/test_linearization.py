"""Sparse second-order linearization at the trivial state: exact agreement
with the node-by-node dense assembly, the rows it shares with the steady
Jacobian there, and the residual of the null triple without a dense
matrix."""

import tracemalloc

import numpy as np
import pytest

from conftest import PARAMS
from oracles import linearized_matrix_reference
from spark_branch.adjoint import (linearized_matrix, nullspace_residual,
                                  pack_triple)
from spark_branch.steady import jacobian, trivial_state


@pytest.mark.parametrize("n", [33, 65, 257])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_sparse_matrix_equals_dense_oracle(key, n, cache):
    g = cache.grid(n)
    p = PARAMS[key]
    for lam in (cache.spark(key, n).lambda_dagger, 1.0, 20.0):
        A = linearized_matrix(lam, p, g)
        ref = linearized_matrix_reference(lam, p, g)
        assert A.format == "csr"
        assert A.has_canonical_format
        assert A.shape == ref.shape == (3 * n - 4, 3 * n - 4)
        assert A.nnz == np.count_nonzero(ref) == 13 * n - 21
        assert np.array_equal(A.toarray(), ref)


@pytest.mark.parametrize("n", [33, 65, 257, 1025])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_shares_non_transport_rows_with_steady_jacobian(key, n, cache):
    """Rows n-1 onward (electron, potential, cathode emission) of this
    matrix and of the steady Jacobian at the trivial state have the same
    pattern and entries equal up to one rounding of the largest entry;
    only the n-1 transport rows differ."""
    g = cache.grid(n)
    p = PARAMS[key]
    eps = np.finfo(float).eps
    for lam in (cache.spark(key, n).lambda_dagger, 1.0, 20.0):
        J = jacobian(trivial_state(lam, g), p, g)
        A = linearized_matrix(lam, p, g)
        Js, As = J[n - 1:], A[n - 1:]
        np.testing.assert_array_equal(Js.indptr, As.indptr)
        np.testing.assert_array_equal(Js.indices, As.indices)
        assert np.abs(Js.data - As.data).max() <= eps * np.abs(J.data).max()
        # the transport rows are two different discretizations
        assert (J[:n - 1] != A[:n - 1]).nnz > 0


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

    A = linearized_matrix_reference(lam, p, g)
    x = pack_triple(triple)

    def block_norms(v):
        blocks = np.split(v, [n - 1, 2 * n - 3, 3 * n - 5])
        norms = {"transport": np.sqrt(np.dot(g.r2w[1:], blocks[0] ** 2)),
                 "electron": np.sqrt(np.dot(g.r2w[1:-1], blocks[1] ** 2)),
                 "potential": np.sqrt(np.dot(g.r2w[1:-1], blocks[2] ** 2)),
                 "emission": abs(blocks[3][0])}
        norms["total"] = np.sqrt(sum(v ** 2 for v in norms.values()))
        return norms

    ref = block_norms(A @ x)
    floor = {name: np.finfo(float).eps * value
             for name, value in block_norms(np.abs(A) @ np.abs(x)).items()}
    assert got.keys() == ref.keys()
    for name, value in ref.items():
        assert abs(got[name] - value) <= floor[name], name
    assert got["electron"] <= floor["electron"]


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
