"""The elimination kernel: rref, rank, solve and nullspace on seeded
matrices over QQ and small prime fields, zero-row and zero-column shapes
included, checked against a textbook dense elimination kept here.  The
rows of matrix equations are checked against evaluating the equations.  QQ is
fed small ``Fraction`` entries, plain ``int`` entries, and large numerators
with denominators up to 10^3 (which exercise the fraction-free scaling and
content division); either way the results stay exact, never hold a
``float``, and hold an ``int`` wherever a value is integral.  The closure
test and the sparse image are checked against the same dense reference,
the values an ``Echelon`` stores against its field's arithmetic
convention, and its normal forms on tuple-keyed sparse vectors against a
reference computed here in ``Fraction`` arithmetic."""

import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest

from helpers import closure_memo, count_memo_misses, memo_row
from mckaykit import linalg
from mckaykit.errors import BadPrime, ShapeMismatch
from mckaykit.linalg import (
    PRIMALITY_BOUND,
    QQ,
    ClosureTest,
    Echelon,
    PrimeField,
    _columns,
    _echelon,
    _image,
    combine,
    mat_mul,
    mat_vec,
    matrix_equation_rows,
    nullspace,
    rank,
    rref,
    seeded_candidates,
    solve,
    solve_columns,
    vec_to_sparse,
)

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


def random_entry(rng, integral=False):
    """A QQ entry: a small ``int`` when ``integral`` is True, a small
    ``Fraction`` when it is False, and when it is "big" a numerator up to
    10^6 over a denominator up to 10^3 (half of them plain ``int``s)."""
    if integral == "big":
        num = rng.randint(-10**6, 10**6)
        return num if rng.random() < 0.5 else Fraction(num, rng.randint(1, 1000))
    if integral:
        return rng.randint(-4, 4)
    return Fraction(rng.randint(-4, 4), rng.randint(1, 3))


def random_matrix(field, rng, nrows, ncols, integral=False):
    density = rng.random()

    def entry():
        if rng.random() > density:
            return field.zero
        if field is QQ:
            return random_entry(rng, integral)
        return rng.randrange(field.p)

    return [tuple(entry() for _ in range(ncols)) for _ in range(nrows)]


def cases():
    inputs = [(field, False) for field in FIELDS] + [(QQ, True), (QQ, "big")]
    for field, integral in inputs:
        name = {True: "QQint", "big": "QQbig"}.get(integral, str(field))
        for nrows, ncols in SHAPES:
            for seed in range(6):
                yield pytest.param(field, integral, nrows, ncols, seed,
                                   id=f"{name}-{nrows}x{ncols}-{seed}")


def assert_exact(values):
    """No ``float``, and every integral QQ value an ``int``."""
    for x in values:
        assert not isinstance(x, float)
        assert not (isinstance(x, Fraction) and x.denominator == 1), x


def assert_no_float(rows):
    assert_exact(x for row in rows for x in row)


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

    # several right-hand sides from one elimination give the same solutions
    if nrows:
        bs = [mat_vec(field, a, random_matrix(field, rng, 1, ncols, integral)[0])
              for _ in range(3)]
        assert solve_columns(field, a, bs) == [solve(field, a, b) for b in bs]
        bad = random_matrix(field, rng, 1, nrows, integral)[0]
        if reference_rank(field, [row + (bv,) for row, bv in zip(a, bad)]) > r:
            assert solve_columns(field, a, bs + [bad]) is None


def field_cases():
    return [pytest.param(field, integral, id="QQint" if integral else str(field))
            for field, integral in [(QQ, False), (QQ, True), (PrimeField(2), False),
                                    (PrimeField(3), False), (PrimeField(5), False)]]


def reference_image(field, mat, vec):
    """mat . vec by the field's own add and mul."""
    out = []
    for row in mat:
        acc = field.zero
        for x, y in zip(row, vec):
            acc = field.add(acc, field.mul(x, y))
        out.append(acc)
    return tuple(out)


def reference_closed(field, spaces, maps):
    """rank(B_i) == rank(B_i + M B_j) for every map (i, j, M)."""
    for i, j, mat in maps:
        tgt = [tuple(r) for r in spaces.get(i, ())]
        imgs = [reference_image(field, mat, vec) for vec in spaces.get(j, ())]
        if reference_rank(field, tgt + imgs) != reference_rank(field, tgt):
            return False
    return True


@pytest.mark.parametrize("field,integral", field_cases())
def test_spans_closed_matches_dense_reference(field, integral):
    verdicts = []
    for seed in range(60):
        rng = random.Random(seed)
        dims = {k: rng.randint(0, 4) for k in range(3)}
        spaces = {k: random_matrix(field, rng, rng.randint(0, n), n, integral)
                  for k, n in dims.items() if rng.random() < 0.9}
        maps = []
        for _ in range(rng.randint(1, 4)):
            i, j = rng.randrange(3), rng.randrange(3)
            mat = tuple(random_matrix(field, rng, dims[i], dims[j], integral))
            maps.append((i, j, mat))
            if rng.random() < 0.5 and j in spaces:
                # make this map closed by adding its images to the target
                images = [reference_image(field, mat, v) for v in spaces[j]]
                spaces[i] = spaces.get(i, []) + images
        want = reference_closed(field, spaces, maps)
        assert ClosureTest(field, maps)(spaces) == want, seed
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def fresh_closed(field, spaces, maps):
    """The closure test with each target echelon built by ``_echelon`` from
    the dense rows on every call."""
    for i, j, mat in maps:
        ech, cols = _echelon(field, spaces.get(i, ())), _columns(mat)
        for vec in spaces.get(j, ()):
            img = _image(field.p, cols, vec)
            if img and not ech.contains(img):
                return False
    return True


def assert_memo_as_computed(field, test, maps):
    """Every entry of ``test``'s memo still holds its row's encoded form
    and its nonzero images under the nonzero maps out of its vertex: over
    GF(2) packed (``memo_row`` of the row and of its ``mat_vec`` images),
    over any other field sparse."""
    for (v, row), (form, images) in closure_memo(test).items():
        if field.p == 2:
            assert form == memo_row(field, row)
            want = [(i, memo_row(field, mat_vec(field, mat, row)))
                    for i, j, mat in maps if j == v and any(map(any, mat))]
        else:
            assert form == vec_to_sparse(field, row)
            want = [(i, _image(field.p, _columns(mat), row)) for i, j, mat in maps
                    if j == v and any(map(any, mat))]
        assert list(images) == [(i, img) for i, img in want if img]


CLOSURE_FIELDS = [PrimeField(2), PrimeField(3), QQ]


@pytest.mark.parametrize("field", CLOSURE_FIELDS, ids=str)
def test_spans_closed_row_memo(field):
    """The memoised rows give the verdicts of a fresh echelon per call, on
    tuple and list rows (``Fraction`` and ``int`` rows over QQ) and on
    rows shared by several spaces, some stored as they are and
    some reduced by ``insert`` against a shared stored row; a second call
    computes no entry, and afterwards every memoised row still equals its
    dense row."""
    verdicts, hits = [], 0
    for seed in range(80):
        rng = random.Random(seed)
        n = rng.randint(1, 4)
        pool = random_matrix(field, rng, 4, n) + random_matrix(field, rng, 2, n, True)
        for row in list(pool):
            nz = [x for x in row if x]
            if nz:  # the same row scaled to lead 1, as ints where integral
                inv = field.inv(nz[0])
                pool.append(tuple(field.from_fraction(field.mul(inv, x)) for x in row))
        spaces = {k: [rng.choice(pool) for _ in range(rng.randint(0, 3))]
                  for k in range(3)}
        maps = [(rng.randrange(3), rng.randrange(3), tuple(random_matrix(field, rng, n, n)))
                for _ in range(rng.randint(1, 3))]
        i, j, mat = maps[0]
        if rng.random() < 0.5:  # make the first map closed
            spaces[i] = spaces[i] + [reference_image(field, mat, v) for v in spaces[j]]
        spaces = {k: [list(row) if rng.random() < 0.3 else row for row in rows]
                  for k, rows in spaces.items()}
        want = fresh_closed(field, spaces, maps)
        test = ClosureTest(field, maps)
        misses = count_memo_misses(test)
        assert test(spaces) == want, seed
        computed = len(misses)
        assert test(spaces) == want, seed
        assert len(misses) == computed == len(closure_memo(test)), seed
        hits += computed > 0
        assert ClosureTest(field, maps)(spaces) == want, seed
        verdicts.append(want)
        assert_memo_as_computed(field, test, maps)
    assert True in verdicts and False in verdicts
    assert hits


def random_closure_case(field, rng, nverts=3):
    """(maps, spaces families) on vertices of dimensions 0..4 drawn per
    vertex: random maps (some zero) between them, and several families of
    spaces from one pool of rows per vertex, with list rows, zero rows,
    repeated rows and bases not in echelon form; half the families are
    made closed under one map by adding its images."""
    dims = {v: rng.randint(0, 4) for v in range(nverts)}
    maps = []
    for _ in range(rng.randint(1, 5)):
        i, j = rng.randrange(nverts), rng.randrange(nverts)
        if rng.random() < 0.15:
            mat = tuple((field.zero,) * dims[j] for _ in range(dims[i]))
        else:
            mat = tuple(random_matrix(field, rng, dims[i], dims[j], rng.random() < 0.5))
        maps.append((i, j, mat))
    pools = {v: random_matrix(field, rng, 4, n, rng.random() < 0.5) + [(field.zero,) * n]
             for v, n in dims.items()}
    families = []
    for _ in range(6):
        spaces = {}
        for v, pool in pools.items():
            if rng.random() < 0.9:
                rows = [rng.choice(pool) for _ in range(rng.randint(0, 4))]
                spaces[v] = [list(r) if rng.random() < 0.3 else r for r in rows]
        if rng.random() < 0.5:
            i, j, mat = rng.choice(maps)
            spaces[i] = spaces.get(i, []) + [
                reference_image(field, mat, v) for v in spaces.get(j, ())]
        families.append(spaces)
    return maps, families


@pytest.mark.parametrize("field", CLOSURE_FIELDS, ids=str)
def test_closure_test_matches_fresh_echelons(field):
    """One prepared test per map list, called on many families of spaces
    at vertices of different dimensions, gives the verdicts of a fresh
    echelon per call, and its memo stays as computed."""
    verdicts = []
    for seed in range(60):
        rng = random.Random(seed)
        maps, families = random_closure_case(field, rng)
        test = ClosureTest(field, maps)
        for spaces in families + families:
            want = fresh_closed(field, spaces, maps)
            assert test(spaces) == want, seed
            verdicts.append(want)
        assert_memo_as_computed(field, test, maps)
    assert True in verdicts and False in verdicts


def wide_closure_case(rng):
    """(maps, spaces families) over GF(2) on three vertices of dimensions
    60 to 130: a map 0 -> 1, a map 1 -> 2, a zero map 0 -> 2 and a loop N
    at 0 that raises the index by 30 or more, so every orbit under N is
    short.  Each family is closed by construction (span at 0 closed under
    N, each target holding the images of its source), then given list
    rows, repeated rows, zero rows, sums of two rows and a shuffled order;
    every other family drops one image row, which leaves it closed only
    when that row was dependent."""
    field = PrimeField(2)
    dims = {v: rng.randint(60, 130) for v in range(3)}
    n0 = dims[0]
    lo = rng.randint(30, 40)
    loop = tuple(tuple(int(r - c in (lo, lo + 7)) for c in range(n0)) for r in range(n0))
    a = tuple(random_matrix(field, rng, dims[1], n0))
    b = tuple(random_matrix(field, rng, dims[2], dims[1]))
    maps = [(0, 0, loop), (1, 0, a), (2, 1, b),
            (2, 0, tuple((0,) * n0 for _ in range(dims[2])))]
    families = []
    for k in range(6):
        orbit = []
        for vec in random_matrix(field, rng, rng.randint(1, 3), n0):
            while any(vec):
                orbit.append(vec)
                vec = mat_vec(field, loop, vec)
        spaces = {0: orbit}
        spaces[1] = random_matrix(field, rng, rng.randint(0, 4), dims[1]) + [
            mat_vec(field, a, vec) for vec in spaces[0]]
        spaces[2] = random_matrix(field, rng, rng.randint(0, 4), dims[2]) + [
            mat_vec(field, b, vec) for vec in spaces[1]]
        for v, rows in spaces.items():
            if k % 2 and v and len(rows) > 1:
                rows.pop()
            rows += [rng.choice(rows), (0,) * dims[v]]
            rows += [tuple(x ^ y for x, y in zip(rng.choice(rows), rng.choice(rows)))]
            rng.shuffle(rows)
            spaces[v] = [list(r) if rng.random() < 0.3 else r for r in rows]
        families.append(spaces)
    return maps, families


def test_packed_closure_wide_rows():
    """Over GF(2), at vertex dimensions where a packed row spans several
    machine words, one prepared test gives the verdicts of a fresh echelon
    per call on list, repeated and zero rows and on bases not in echelon
    form, and its memo holds each row and image packed."""
    field = PrimeField(2)
    verdicts = []
    for seed in range(8):
        rng = random.Random(seed)
        maps, families = wide_closure_case(rng)
        test = ClosureTest(field, maps)
        for spaces in families + families:
            want = fresh_closed(field, spaces, maps)
            assert test(spaces) == want, seed
            verdicts.append(want)
        assert_memo_as_computed(field, test, maps)
        assert max(form for form, _ in closure_memo(test).values()) >= 2 ** 64
    assert True in verdicts and False in verdicts


@pytest.mark.parametrize("field", CLOSURE_FIELDS, ids=str)
def test_closure_test_row_at_two_vertices(field):
    """One row at two vertices of the same dimension is two memo entries:
    each is mapped only by the maps out of its own vertex."""
    one, zero = field.one, field.zero
    shift = ((zero, zero), (one, zero))  # e_0 -> e_1
    ident = ((one, zero), (zero, one))
    line0 = (one, zero)
    test = ClosureTest(field, [(2, 0, shift), (2, 1, ident)])
    assert test({0: [line0], 1: [line0], 2: [line0]}) is False
    assert test({0: [line0], 1: [line0], 2: [line0, (zero, one)]}) is True
    assert test({0: [line0], 1: [line0], 2: [(zero, one)]}) is False
    memo = closure_memo(test)
    assert set(memo) == {(0, line0), (1, line0), (2, line0), (2, (zero, one))}
    assert memo[(0, line0)][1] == ((2, memo_row(field, (zero, one))),)
    assert memo[(1, line0)][1] == ((2, memo_row(field, line0)),)
    assert memo[(2, line0)][1] == ()


@pytest.mark.parametrize("field", CLOSURE_FIELDS, ids=str)
def test_closure_test_memo_bound(field, monkeypatch):
    """With the bound at 3 the memo never holds more than 3 rows: a miss
    on a full memo empties it first, so after m misses it holds the last
    (m - 1) % 3 + 1 rows computed, and the verdicts stay those of a fresh
    echelon per call."""
    monkeypatch.setattr(linalg, "COLUMN_CACHE_SIZE", 3)
    evicted = 0
    for seed in range(30):
        rng = random.Random(seed)
        maps, families = random_closure_case(field, rng)
        test = ClosureTest(field, maps)
        misses = count_memo_misses(test)
        for spaces in families:
            assert test(spaces) == fresh_closed(field, spaces, maps), seed
            assert len(closure_memo(test)) <= 3
        kept = (len(misses) - 1) % 3 + 1 if misses else 0
        assert set(closure_memo(test)) == set(misses[len(misses) - kept:]), seed
        assert_memo_as_computed(field, test, maps)
        evicted += len(misses) > 3
    assert evicted


@pytest.mark.parametrize("field,integral", field_cases())
def test_spans_closed_edge_cases(field, integral):
    one, zero = field.one, field.zero
    shift = ((zero, zero), (one, zero))  # e_0 -> e_1
    zero_map = ((zero, zero), (zero, zero))
    line0, line1 = [(one, zero)], [(zero, one)]
    # zero maps and zero images need no target at all
    assert ClosureTest(field, [(1, 0, zero_map)])({0: line0})
    assert ClosureTest(field, [(1, 0, shift)])({0: line1})
    # a nonzero image needs a target holding it
    assert not ClosureTest(field, [(1, 0, shift)])({0: line0})
    assert not ClosureTest(field, [(1, 0, shift)])({0: line0, 1: []})
    assert not ClosureTest(field, [(1, 0, shift)])({0: line0, 1: line0})
    assert ClosureTest(field, [(1, 0, shift)])({0: line0, 1: line1})
    # a missing or empty source is closed
    assert ClosureTest(field, [(1, 0, shift)])({})
    assert ClosureTest(field, [(1, 0, shift)])({0: [], 1: []})
    assert ClosureTest(field, [])({0: line0})
    # zero-row (into F^0) and zero-column (from F^0) matrices
    assert ClosureTest(field, [(1, 0, ())])({0: line0, 1: []})
    assert ClosureTest(field, [(1, 0, ((), ()))])({0: [()], 1: []})


@pytest.mark.parametrize("field,integral", field_cases())
def test_sparse_image_equals_mat_vec(field, integral):
    for seed in range(40):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(0, 6), rng.randint(0, 6)
        mat = tuple(random_matrix(field, rng, nrows, ncols, integral))
        vec = random_matrix(field, rng, 1, ncols, integral)[0]
        dense = mat_vec(field, mat, vec)
        assert dense == reference_image(field, mat, vec)
        assert _image(field.p, _columns(mat), vec) == vec_to_sparse(field, dense)


@pytest.mark.parametrize("field,integral", field_cases())
def test_dense_products_match_reference(field, integral):
    """``combine``, the one dense product loop, and its views ``mat_mul``
    and ``mat_vec`` equal, value for value, products built from the field's
    own ``add`` and ``mul`` (``reference_image``), on every shape with 0, 1
    or 3 rows, columns and middle dimension."""
    for n, m, q in itertools.product((0, 1, 3), repeat=3):
        for seed in range(3):
            rng = random.Random(seed)
            a = tuple(random_matrix(field, rng, n, m, integral))
            b = tuple(random_matrix(field, rng, m, q, integral))
            vec = random_matrix(field, rng, 1, m, integral)[0]
            b_cols = tuple(tuple(row[c] for row in b) for c in range(q))
            want = tuple(reference_image(field, b_cols, row) for row in a)
            assert tuple(combine(field, row, b, q) for row in a) == want
            assert mat_mul(field, a, b, b_ncols=q) == want
            assert mat_vec(field, a, vec) == reference_image(field, a, vec)
    with pytest.raises(ValueError, match="b_ncols required"):
        mat_mul(field, ((), ()), ())
    assert mat_mul(field, ((), ()), (), b_ncols=2) == ((0, 0), (0, 0))


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_dense_products_refuse_mismatched_lengths(field):
    """A vector or a row that does not fit the other factor is refused,
    not truncated by the zip of ``combine``."""
    with pytest.raises(ShapeMismatch, match="length 2 times a vector of length 3"):
        mat_vec(field, ((1, 2),), (1, 1, 1))
    with pytest.raises(ShapeMismatch, match="length 1 times a vector of length 2"):
        mat_vec(field, ((1, 2), (3,)), (1, 1))
    with pytest.raises(ShapeMismatch, match="length 3 times a right factor with 2 rows"):
        mat_mul(field, ((1, 2, 3),), ((1,), (1,)))
    with pytest.raises(ShapeMismatch, match="length 1 times a right factor with 0 rows"):
        mat_mul(field, ((1,),), (), b_ncols=2)
    with pytest.raises(ShapeMismatch, match="rows of lengths 1 and 2"):
        mat_mul(field, ((1, 1),), ((1, 2), (3,)))
    assert mat_vec(field, ((1, 2),), (1, 1)) == (3,)
    assert mat_mul(field, ((1, 2, 3),), ((1,), (1,), (0,))) == ((3,),)


def test_solve_columns_refuses_a_right_hand_side_of_another_length():
    """A right-hand side must have one entry per equation, also when there
    are no equations."""
    with pytest.raises(ShapeMismatch, match="length 2 for 1 equations"):
        solve_columns(QQ, [(1,)], [(1, 5)])
    with pytest.raises(ShapeMismatch, match="length 1 for 0 equations"):
        solve_columns(QQ, [], [(7,)])
    with pytest.raises(ShapeMismatch):
        solve(PrimeField(3), [(1, 0), (0, 1)], (1,))
    assert solve_columns(QQ, [(1,)], [(5,)]) == [(5,)]
    assert solve_columns(QQ, [], [()]) == [()]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_echelon_values_in_range(p):
    field = PrimeField(p)
    for seed in range(20):
        rng = random.Random(seed)
        ncols = rng.randint(1, 7)
        ech = Echelon(field)
        vecs = random_matrix(field, rng, rng.randint(1, 9), ncols)
        seen = []
        for vec in vecs:
            ech.insert(vec_to_sparse(field, vec))
            seen.append(ech.reduce(vec_to_sparse(field, vec)))
        seen += list(ech.rows.values()) + list(ech.reduced_rows().values())
        for row in seen:
            assert all(type(v) is int and 0 < v < p for v in row.values())
        assert all(ech.rows[piv][piv] == 1 for piv in ech.rows)


def test_rational_echelon_with_unit_pivots_stays_int():
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        # a unit upper-triangular basis, pivots +-1, inserted in random order
        basis = [tuple(0 if c < r else rng.choice((1, -1)) if c == r
                       else rng.randint(-3, 3) for c in range(n)) for r in range(n)]
        rng.shuffle(basis)
        ech = Echelon(QQ)
        for vec in basis:
            assert ech.insert(vec_to_sparse(QQ, vec))
        extra = [tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(5)]
        for vec in extra:
            assert ech.contains(vec_to_sparse(QQ, vec))
            assert not ech.insert(vec_to_sparse(QQ, vec))
            assert ech.reduce(vec_to_sparse(QQ, vec)) == {}
        for row in list(ech.rows.values()) + list(ech.reduced_rows().values()):
            assert all(type(v) is int for v in row.values())


def random_keyed_vector(rng, integral):
    """A sparse QQ vector keyed like the corner extension's coordinates,
    (-degree, vertex, class, basis index)."""
    keys = [(-k, v, c, b) for k in range(3) for v in range(2)
            for c in range(2) for b in range(2)]
    return {key: random_entry(rng, integral)
            for key in rng.sample(keys, rng.randint(0, 8))}


def reference_reduce(rows, vec, leading_only=False):
    """``vec`` reduced by ``rows`` (pivot -> row with pivot value 1) in
    ``Fraction`` arithmetic: eliminate the smallest entry while it sits in
    a pivot column, keep it otherwise.  With ``leading_only``, stop at the
    first kept entry and return the rest unreduced."""
    work = {c: Fraction(v) for c, v in vec.items() if v}
    out = {}
    while work:
        piv = min(work)
        if piv not in rows:
            if leading_only:
                return work
            out[piv] = work.pop(piv)
            continue
        coef = work[piv]
        for c, v in rows[piv].items():
            work[c] = work.get(c, 0) - coef * v
        work = {c: v for c, v in work.items() if v}
    return out


@pytest.mark.parametrize("integral", [False, True, "big"],
                         ids=["QQ", "QQint", "QQbig"])
def test_rational_echelon_reduce_matches_fraction_reference(integral):
    """``Echelon(QQ)`` on tuple-keyed sparse vectors, as the corner
    extension feeds it: its pivots equal those of a reference echelon kept
    in ``Fraction`` arithmetic with pivot-1 rows, ``monic_rows`` equals the
    reference's rows, every stored row is a primitive integer row with a
    positive pivot, ``reduce`` gives the reference normal form, and every
    integral value it returns is an ``int``."""
    for seed in range(40):
        rng = random.Random(seed)
        ech, ref = Echelon(QQ), {}
        for _ in range(rng.randint(1, 8)):
            vec = random_keyed_vector(rng, integral)
            rest = reference_reduce(ref, vec, leading_only=True)
            if rest:
                piv = min(rest)
                ref[piv] = {c: v / rest[piv] for c, v in rest.items()}
            assert ech.insert(vec) == bool(rest)
        assert ech.monic_rows() == ref
        for piv, row in ech.rows.items():
            assert all(type(v) is int for v in row.values())
            assert row[piv] > 0 and math.gcd(*row.values()) == 1
        for _ in range(10):
            vec = random_keyed_vector(rng, integral)
            got = ech.reduce(vec)
            assert got == reference_reduce(ref, vec)
            assert_exact(got.values())
            assert ech.contains(vec) == (not got)
        for row in list(ech.monic_rows().values()) + list(ech.reduced_rows().values()):
            assert_exact(row.values())


@pytest.mark.parametrize("field,integral", field_cases())
def test_echelon_builder_equals_insert_one_by_one(field, integral):
    """``_echelon`` stores a row with leading 1 in a new pivot column as it
    is; its rows, their order and their value types equal those of
    inserting every row in turn.  The rows mix unit and non-unit leads,
    repeated pivots, repeated rows and zero rows."""
    for seed in range(40):
        rng = random.Random(seed)
        ncols = rng.randint(1, 6)
        rows = random_matrix(field, rng, rng.randint(0, 6), ncols, integral)
        for row in list(rows):
            nz = [x for x in row if x]
            if nz and rng.random() < 0.5:  # the same row scaled to lead 1
                inv = field.inv(nz[0])
                rows.append(tuple(field.mul(inv, x) for x in row))
        rows.append(tuple(field.zero for _ in range(ncols)))
        rows += rng.sample(rows, min(2, len(rows)))
        rng.shuffle(rows)
        ref = Echelon(field)
        for row in rows:
            ref.insert(vec_to_sparse(field, row))
        built = _echelon(field, rows).rows
        assert built == ref.rows
        assert repr(built) == repr(ref.rows)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=str)
def test_matrix_equation_rows(field):
    """Row t of an equation's entry is the coefficient of variable t, so the
    rows equal the entries of the equation evaluated at each unit vector.
    Covered: both term sides, an unknown repeated in one equation, 0 x n
    and n x 0 unknowns, equations that vanish, and over GF(5) the
    coefficient -1 and entries reduced into range(5)."""

    def mat(rows):
        return tuple(tuple(field.from_int(x) for x in row) for row in rows)

    k, m, p = mat([[1, -2], [0, 3]]), mat([[2], [0], [-1]]), mat([[4]])
    shapes = {"x": (3, 2), "y": (1, 2), "e": (0, 2), "z": (2, 0)}
    # (shape, terms): X.K - M.Y + 2 N.E, then 3 Y.K + P.Y, then Z.Q and
    # X.K - X.K, which vanish
    equations = [
        ((3, 2), [(1, "x", k), (-1, m, "y"), (2, ((),) * 3, "e")]),
        ((1, 2), [(3, "y", k), (1, p, "y")]),
        ((2, 2), [(1, "z", ())]),
        ((3, 2), [(1, "x", k), (-1, "x", k)]),
    ]
    rows, offsets, nvars = matrix_equation_rows(
        field, shapes, [terms for _, terms in equations])
    assert offsets == {"x": 0, "y": 6, "e": 8, "z": 8} and nvars == 8

    def evaluate(terms, nrows, ncols, vec):
        unknown = {u: tuple(tuple(vec[offsets[u] + r * nc + c] for c in range(nc))
                            for r in range(nr))
                   for u, (nr, nc) in shapes.items()}
        total = [[field.zero] * ncols for _ in range(nrows)]
        for coef, left, right in terms:
            left = unknown.get(left, left) if isinstance(left, str) else left
            right = unknown.get(right, right) if isinstance(right, str) else right
            prod = mat_mul(field, left, right, b_ncols=ncols)
            for r in range(nrows):
                for c in range(ncols):
                    total[r][c] = field.add(total[r][c],
                                            field.mul(field.from_int(coef), prod[r][c]))
        return total

    units = [tuple(int(t == s) for s in range(nvars)) for t in range(nvars)]
    want = []
    for (nrows, ncols), terms in equations:
        values = [evaluate(terms, nrows, ncols, unit) for unit in units]
        for r in range(nrows):
            for c in range(ncols):
                row = tuple(values[t][r][c] for t in range(nvars))
                if any(row):
                    want.append(row)
    assert rows == want
    assert len(rows) == 6 + 2
    if field is not QQ:
        assert all(0 <= x < field.p for row in rows for x in row)


def test_prime_field_primality():
    """Miller-Rabin with the first 13 prime bases agrees with trial
    division below 10^5, refuses the base-2 strong pseudoprime 2047 and
    the Carmichael number 561, certifies large primes at once, and refuses
    to certify at or above its bound."""
    divisors = [d for d in range(2, math.isqrt(10**5) + 1)
                if all(d % e for e in range(2, d))]
    for p in range(-2, 10**5):
        prime = p >= 2 and all(p % d for d in divisors if d * d <= p)
        try:
            PrimeField(p)
        except BadPrime:
            assert not prime, p
        else:
            assert prime, p
    for p in (2047, 561, 2**61 + 1, (2**31 - 1) * 1000000007):
        with pytest.raises(BadPrime, match="not prime"):
            PrimeField(p)
    for p in (10**12 + 39, 10**14 + 31, 2**61 - 1, 2**31 + 11):
        assert PrimeField(p).p == p
    for p in (PRIMALITY_BOUND, 2**89 - 1):
        with pytest.raises(BadPrime, match="too large to certify"):
            PrimeField(p)


def test_prime_field_refuses_non_int():
    """A non-int characteristic is refused before the primality test, so
    no float enters the field's values."""
    for p in (7.0, 11.0, 2.5, "7"):
        with pytest.raises(BadPrime, match="must be an int"):
            PrimeField(p)
    assert PrimeField(7).from_fraction(3) == 3


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
                         ids=["deepcopy", "pickle"])
def test_field_is_its_characteristic(field, duplicate):
    """A field is given by its characteristic alone: a deep copy or an
    unpickled copy is a second object, yet equals the field and hashes
    like it, by ``hash(p)``, which no hash seed moves."""
    twin = duplicate(field)
    assert twin is not field
    assert twin == field and not twin != field
    assert hash(twin) == hash(field) == hash(field.p)
    assert repr(twin) == repr(field) == ("QQ" if field.p == 0 else f"GF({field.p})")
    assert QQ != PrimeField(2) and PrimeField(2) != QQ
    assert PrimeField(5) == PrimeField(5) and hash(PrimeField(5)) == hash(PrimeField(5))
    assert PrimeField(5) != PrimeField(3) and QQ != 0


@pytest.mark.parametrize("field, extra", [(QQ, 0), (PrimeField(2), 4), (PrimeField(5), 25)],
                         ids=str)
def test_seeded_candidates_count(field, extra):
    """Over QQ the search tries the basis and the seeded combinations only
    (``0 ** n`` would pass the span bound); over GF(p) a 2-vector basis
    also yields the p^2 elements of its span."""
    basis = [(1, 0, 1), (0, 1, 1)]
    tries = 7
    candidates = list(seeded_candidates(field, basis, 0, tries))
    assert len(candidates) == len(basis) + tries + extra
    assert candidates[:2] == basis
    span = {(a, b, (a + b) % field.p) for a in range(field.p) for b in range(field.p)}
    assert set(candidates[len(candidates) - extra:]) == span
