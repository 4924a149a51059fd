"""Sparse second-order linearization at the trivial state: exact agreement
with the node-by-node dense assembly, and the residual of the null triple
without a dense matrix."""

import tracemalloc

import numpy as np
import pytest

from conftest import PARAMS
from oracles import linearized_matrix_reference
from spark_branch.adjoint import (linearized_matrix, nullspace_residual,
                                  pack_triple)


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


@pytest.mark.parametrize("n", [257, 1025])
@pytest.mark.parametrize("key", sorted(PARAMS))
def test_nullspace_residual_matches_dense_product(key, n, cache):
    # only the summation order of the matrix-vector product differs
    g = cache.grid(n)
    p = PARAMS[key]
    lam = cache.spark(key, n).lambda_dagger
    triple = cache.triple(key, n)
    got = nullspace_residual(lam, triple, p, g)

    res = linearized_matrix_reference(lam, p, g) @ pack_triple(triple)
    blocks = np.split(res, [n - 1, 2 * n - 3, 3 * n - 5])
    ref = {"transport": np.sqrt(np.dot(g.r2w[1:], blocks[0] ** 2)),
           "electron": np.sqrt(np.dot(g.r2w[1:-1], blocks[1] ** 2)),
           "potential": np.sqrt(np.dot(g.r2w[1:-1], blocks[2] ** 2)),
           "emission": abs(blocks[3][0])}
    ref["total"] = np.sqrt(sum(v ** 2 for v in ref.values()))
    assert got.keys() == ref.keys()
    for name, value in ref.items():
        assert abs(got[name] - value) <= 1e-11, name


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
