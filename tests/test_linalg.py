"""The elimination kernel: rref, rank, solve and nullspace on seeded
matrices over QQ and small prime fields, zero-row and zero-column shapes
included, checked against a textbook dense elimination kept here.  QQ is
fed both ``Fraction`` entries and plain ``int`` entries; either way the
results stay exact and never hold a ``float``."""

import random
from fractions import Fraction

import pytest

from mckaykit.linalg import QQ, PrimeField, mat_vec, nullspace, rank, rref, solve

FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(5)]
SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (2, 5), (4, 4), (5, 2), (6, 6)]


def reference_rank(field, rows):
    """Rank by dense elimination with an explicit pivot search."""
    mat = [list(r) for r in rows]
    r = 0
    for c in range(len(mat[0]) if mat else 0):
        sel = next((i for i in range(r, len(mat)) if mat[i][c] != field.zero), None)
        if sel is None:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = field.inv(mat[r][c])
        for i in range(r + 1, len(mat)):
            coef = field.mul(mat[i][c], inv)
            mat[i] = [field.sub(x, field.mul(coef, y)) for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def random_matrix(field, rng, nrows, ncols, integral=False):
    density = rng.random()

    def entry():
        if rng.random() > density:
            return field.zero
        if field is QQ:
            if integral:
                return rng.randint(-4, 4)
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.randrange(field.p)

    return [tuple(entry() for _ in range(ncols)) for _ in range(nrows)]


def cases():
    inputs = [(field, False) for field in FIELDS] + [(QQ, True)]
    for field, integral in inputs:
        name = "QQint" if integral else str(field)
        for nrows, ncols in SHAPES:
            for seed in range(6):
                yield pytest.param(field, integral, nrows, ncols, seed,
                                   id=f"{name}-{nrows}x{ncols}-{seed}")


def assert_no_float(rows):
    assert not any(isinstance(x, float) for row in rows for x in row)


@pytest.mark.parametrize("field,integral,nrows,ncols,seed", list(cases()))
def test_elimination_kernel(field, integral, nrows, ncols, seed):
    rng = random.Random(seed * 1000 + nrows * 10 + ncols)
    a = random_matrix(field, rng, nrows, ncols, integral)
    r = reference_rank(field, a)
    assert rank(field, a) == r

    red, pivots = rref(field, a)
    assert_no_float(red)
    assert len(red) == len(pivots) == r
    assert pivots == sorted(set(pivots))
    for row, p in zip(red, pivots):
        assert len(row) == ncols
        assert all(x == field.zero for x in row[:p])
        assert row[p] == field.one
        assert all(row[q] == field.zero for q in pivots if q != p)
    # same row space: appending either matrix to the other adds no rank
    assert reference_rank(field, a + list(red)) == r

    kernel = nullspace(field, a, ncols=ncols)
    assert_no_float(kernel)
    assert len(kernel) == ncols - r
    assert reference_rank(field, kernel) == len(kernel)
    for vec in kernel:
        assert len(vec) == ncols
        assert all(x == field.zero for x in mat_vec(field, a, vec))

    if nrows:
        for b in (random_matrix(field, rng, 1, nrows, integral)[0],
                  mat_vec(field, a,
                          random_matrix(field, rng, 1, ncols, integral)[0])):
            x = solve(field, a, b)
            aug = [row + (bv,) for row, bv in zip(a, b)]
            if reference_rank(field, aug) > r:
                assert x is None
            else:
                assert x is not None
                assert_no_float([x])
                assert mat_vec(field, a, x) == tuple(b)
