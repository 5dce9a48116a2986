"""Answers computed apart from mckaykit, used to check what it outputs.

Nothing here imports mckaykit.  The graded dimensions come from the
Etingof-Eu recursion on an affine adjacency matrix written out below and
from Klein's invariant series; relation residuals and GF(2) closure use
plain ``Fraction`` and integer arithmetic on the matrices the program
returns.  ``self_test()`` shows that every checker rejects a perturbed
answer, so a checker that accepts everything is caught.

Run ``python3 bench/checks.py`` to run the self-tests alone.
"""

import itertools
from fractions import Fraction

# Edges of the affine Dynkin diagrams of type E, as a tree with a centre c
# and three arms.  E6~ has arms of length 2, 2, 2; E7~ of length 1, 3, 3;
# E8~ of length 1, 2, 5.  Vertex numbering is the benchmark's own: the
# full-algebra sums below do not depend on it.
_E_ARMS = {"E6": (2, 2, 2), "E7": (1, 3, 3), "E8": (1, 2, 5)}

# Klein's Hilbert series of C[x, y]^G for the binary polyhedral groups:
# (1 + t^a) / ((1 - t^b)(1 - t^c)) as (a, b, c).
_KLEIN = {"E6": (12, 6, 8), "E7": (18, 8, 12), "E8": (30, 12, 20)}


class CheckFailed(Exception):
    """A program output disagrees with the independent computation."""


def require(cond, message):
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# graded dimensions
# ---------------------------------------------------------------------------

def affine_adjacency(label):
    """Adjacency matrix of the affine E6, E7 or E8 diagram."""
    arms = _E_ARMS[label]
    n = 1 + sum(arms)
    adj = [[0] * n for _ in range(n)]
    nxt = 1
    for length in arms:
        prev = 0
        for _ in range(length):
            adj[prev][nxt] = adj[nxt][prev] = 1
            prev = nxt
            nxt += 1
    return adj


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def preprojective_totals(adj, kmax):
    """sum_{i,j} (M_k)_{ij} for k <= kmax, where sum_k M_k t^k = (1 - Ct + t^2)^-1.

    M_0 = I, M_1 = C and M_{k+1} = C M_k - M_{k-1} (Etingof and Eu, for a
    quiver that is not Dynkin).
    """
    n = len(adj)
    prev = [[int(i == j) for j in range(n)] for i in range(n)]
    cur = [row[:] for row in adj]
    mats = [prev, cur]
    while len(mats) <= kmax:
        step = _matmul(adj, mats[-1])
        mats.append([[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(step, mats[-2])])
    return [sum(map(sum, m)) for m in mats[: kmax + 1]]


def klein_series(label, kmax):
    """Coefficients of (1 + t^a) / ((1 - t^b)(1 - t^c)) up to t^kmax."""
    a, b, c = _KLEIN[label]
    out = [0] * (kmax + 1)
    for i in range(0, kmax + 1, b):
        for j in range(0, kmax + 1 - i, c):
            out[i + j] += 1
            if i + j + a <= kmax:
                out[i + j + a] += 1
    return out


def cumulative(seq):
    """Multiply a series by 1 / (1 - t)."""
    out, run = [], 0
    for x in seq:
        run += x
        out.append(run)
    return out


def expected_hilbert(label, algebra, corner0, kmax):
    """The sequence `mckaykit hilbert` must print for an E group."""
    if corner0:
        seq = klein_series(label, kmax)
    else:
        seq = preprojective_totals(affine_adjacency(label), kmax)
    return cumulative(seq) if algebra == "pibullet" else seq


def check_hilbert(label, algebra, corner0, got):
    want = expected_hilbert(label, algebra, corner0, len(got) - 1)
    require(list(got) == want,
            f"{label} {algebra} corner0={corner0}: got {list(got)}, want {want}")


# ---------------------------------------------------------------------------
# relation residuals in Fraction arithmetic
# ---------------------------------------------------------------------------

def _mat(maps, aid, dims, tail, head):
    m = maps.get(aid)
    if m is None or len(m) == 0:
        return [[Fraction(0)] * dims[head] for _ in range(dims[tail])]
    return [[Fraction(x) for x in row] for row in m]


def _fmul(a, b, ncols):
    return [[sum((x * b[m][c] for m, x in enumerate(row)), Fraction(0))
             for c in range(ncols)] for row in a]


def relation_residuals(vertices, arrows, bar, loops, dims, maps):
    """Number of nonzero residual entries of both relation families.

    ``arrows`` is a list of (id, tail, head).  The vertex relation at v is
    sum over arrows a with tail v and a bar partner of
    sign(a) M_a M_bar(a), the sign being +1 for the smaller id of the pair.
    With loops, every non-loop arrow a must commute: z_tail M_a = M_a z_head.
    The module is flat when the count is 0.
    """
    bad = 0
    for v in vertices:
        d = dims[v]
        total = [[Fraction(0)] * d for _ in range(d)]
        for aid, t, h in arrows:
            if t != v or aid not in bar:
                continue
            b = bar[aid]
            prod = _fmul(_mat(maps, aid, dims, t, h), _mat(maps, b, dims, h, t), d)
            sign = 1 if aid < b else -1
            total = [[x + sign * y for x, y in zip(r1, r2)]
                     for r1, r2 in zip(total, prod)]
        bad += sum(1 for row in total for x in row if x != 0)
    for aid, t, h in arrows:
        if aid not in bar or not loops:
            continue
        a = _mat(maps, aid, dims, t, h)
        zt = _mat(maps, loops[t], dims, t, t)
        zh = _mat(maps, loops[h], dims, h, h)
        left = _fmul(zt, a, dims[h])
        right = _fmul(a, zh, dims[h])
        bad += sum(1 for r1, r2 in zip(left, right) for x, y in zip(r1, r2) if x != y)
    return bad


# ---------------------------------------------------------------------------
# GF(2) closure and subspace counts
# ---------------------------------------------------------------------------

def _gf2_rank(vectors):
    basis = {}
    for vec in vectors:
        v = 0
        for i, x in enumerate(vec):
            if x % 2:
                v |= 1 << i
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    return len(basis)


def gf2_closed(basis, matrices):
    """Whether span(basis) in GF(2)^n is mapped into itself by each matrix."""
    r = _gf2_rank(basis)
    for mat in matrices:
        for vec in basis:
            img = [sum(int(x) * int(y) for x, y in zip(row, vec)) % 2 for row in mat]
            if _gf2_rank(list(basis) + [img]) != r:
                return False
    return True


def gaussian_binomial(n, k, q):
    """Number of k-dimensional subspaces of GF(q)^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def subspace_count(n, q):
    """Number of subspaces of GF(q)^n of every dimension."""
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


# ---------------------------------------------------------------------------
# self-tests: each checker accepts a known answer and rejects a perturbed one
# ---------------------------------------------------------------------------

def _rejects(fn, *args):
    try:
        fn(*args)
    except CheckFailed:
        return True
    return False


def self_test():
    # hand values: E8 pibullet starts 9, 9 + 16 (twice the 8 edges), 48 and
    # ends 586, 685 at k = 11, 12; E6 invariants have degrees 6, 8, 12.
    e8 = expected_hilbert("E8", "pibullet", False, 12)
    require(e8[:3] == [9, 25, 48] and e8[11:] == [586, 685],
            f"E8 pibullet self-test: {e8}")
    require(klein_series("E6", 12) == [1, 0, 0, 0, 0, 0, 1, 0, 1, 0, 0, 0, 2],
            "Klein E6 self-test")
    for label, algebra, corner0 in (("E8", "pibullet", False),
                                    ("E7", "pi", False),
                                    ("E6", "pibullet", True)):
        good = expected_hilbert(label, algebra, corner0, 16)
        check_hilbert(label, algebra, corner0, good)
        for k in (0, 7, 16):
            bad = list(good)
            bad[k] += 1
            require(_rejects(check_hilbert, label, algebra, corner0, bad),
                    f"Hilbert checker accepted an entry off by one at k={k}")

    # relations: A1 doubled (arrows 0: 0<-1, 1: 1<-0), dims 1, 1.  x = 1,
    # y = 0 is flat; y = 1 is not.  Tripled with equal scalar loops is flat;
    # unequal loops break commutation.
    verts = (0, 1)
    arrows = [(0, 0, 1), (1, 1, 0)]
    bar = {0: 1, 1: 0}
    dims = {0: 1, 1: 1}
    flat = {0: [[Fraction(1)]], 1: [[Fraction(0)]]}
    require(relation_residuals(verts, arrows, bar, {}, dims, flat) == 0,
            "relation self-test: flat module rejected")
    require(relation_residuals(verts, arrows, bar, {}, dims,
                               {0: [[1]], 1: [[1]]}) > 0,
            "relation checker accepted a changed matrix entry")
    loops = {0: 2, 1: 3}
    tri = arrows + [(2, 0, 0), (3, 1, 1)]
    ok = {**flat, 2: [[Fraction(3)]], 3: [[Fraction(3)]]}
    require(relation_residuals(verts, tri, bar, loops, dims, ok) == 0,
            "relation self-test: commuting loops rejected")
    require(relation_residuals(verts, tri, bar, loops, dims,
                               {**ok, 3: [[Fraction(4)]]}) > 0,
            "relation checker accepted a loop that does not commute")

    # GF(2) closure: the shift e0 -> e1 -> e2 -> 0 keeps span(e1, e2)
    # but not span(e0) or span(e1, e0 + e2).
    shift = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    require(gf2_closed([(0, 1, 0), (0, 0, 1)], [shift]), "GF(2) self-test")
    require(not gf2_closed([(1, 0, 0)], [shift]),
            "GF(2) checker accepted a subspace that is not closed")
    require(not gf2_closed([(0, 1, 0), (1, 0, 1)], [shift]),
            "GF(2) checker accepted a changed basis entry")

    # subspace counts against a direct enumeration of GF(q)^n
    for n, q in ((3, 2), (2, 3), (2, 5)):
        vectors = _all_vectors(n, q)
        seen = {frozenset(_span(gens, n, q))
                for k in range(n + 1)
                for gens in itertools.product(vectors, repeat=k)}
        require(len(seen) == subspace_count(n, q),
                f"subspace count self-test GF({q})^{n}: {len(seen)}")


def _all_vectors(n, q):
    if n == 0:
        return [()]
    return [(x,) + rest for x in range(q) for rest in _all_vectors(n - 1, q)]


def _span(gens, n, q):
    out = {tuple([0] * n)}
    for g in gens:
        out |= {tuple((x + c * y) % q for x, y in zip(v, g))
                for v in out for c in range(q)}
    return out


if __name__ == "__main__":
    self_test()
    print("bench checks: self-tests pass")
