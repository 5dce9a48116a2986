"""Shared independent oracles and generators for the test suite.

The invariant-dimension oracle here acts on explicit monomial bases by
substitution, so it shares no code path with either the path-algebra
quotients or the character-theoretic counts it is used to check.
"""

import hashlib
from fractions import Fraction

from mckaykit import dynkin
from mckaykit.corner_functors import _scatter
from mckaykit.linalg import QQ, Echelon
from mckaykit.rep_theory import is_stable, random_flat_rep


def monomials(k, nvars):
    """Exponent tuples of total degree k in nvars variables."""
    if nvars == 1:
        return [(k,)]
    out = []
    for first in range(k + 1):
        for rest in monomials(k - first, nvars - 1):
            out.append((first,) + rest)
    return out


def _binomial(n, k):
    from math import comb

    return comb(n, k)


def invariant_dim_by_projector(group, k, with_z=True):
    """dim of degree-k invariants via averaged substitution matrices.

    Each group element acts on polynomials by substituting the inverse
    matrix into (x, y) and fixing z; the invariant dimension is the trace
    of the averaged action on the degree-k monomial basis.  The elements
    are matrices over GF(p), p = ``group.prime``, so the trace is taken
    mod p and lifted: the dimension is at most the number of monomials.
    """
    p = group.prime
    nvars = 3 if with_z else 2
    basis = monomials(k, nvars)
    total = 0
    for elem in group.elements:
        # inverse of a determinant-one 2x2 matrix
        (a, b), (c, d) = elem
        alpha, beta = d, -b % p
        gamma, delta = -c % p, a
        # trace of the action: sum over basis of the diagonal coefficient
        for mono in basis:
            if with_z:
                ea, eb, ez = mono
            else:
                ea, eb = mono
                ez = 0
            # coefficient of x^ea y^eb in (alpha x + beta y)^ea (gamma x + delta y)^eb
            coeff = 0
            for i in range(ea + 1):
                # pick i factors of x from the first power, need ea - i from second
                j = ea - i
                if j > eb:
                    continue
                coeff += (
                    _binomial(ea, i)
                    * pow(alpha, i, p)
                    * pow(beta, ea - i, p)
                    * _binomial(eb, j)
                    * pow(gamma, j, p)
                    * pow(delta, eb - j, p)
                )
            total += coeff
    value = total * pow(group.order, p - 2, p) % p
    assert value <= len(basis), value
    return value


def etingof_eu_slices(series, rank, with_z, kmax):
    """Slice dimension matrices from (1 - Ct + t^2)^-1, integers only.

    M_0 = I, M_1 = C, M_{k+1} = C M_k - M_{k-1} for the affine adjacency
    C (Etingof and Eu, Math. Res. Lett. 2007); the central loop of the
    tripled flavor turns the series into its cumulative sums.
    """
    adj = dynkin.adjacency(series, rank)
    n = len(adj)
    mats = [[[int(a == b) for b in range(n)] for a in range(n)], adj]
    while len(mats) <= kmax:
        prev, cur = mats[-2], mats[-1]
        mats.append([
            [sum(adj[a][c] * cur[c][b] for c in range(n)) - prev[a][b]
             for b in range(n)]
            for a in range(n)
        ])
    mats = mats[:kmax + 1]
    if with_z:
        for k in range(1, kmax + 1):
            mats[k] = [[x + y for x, y in zip(r, s)]
                       for r, s in zip(mats[k - 1], mats[k])]
    return mats


def cyclic_invariant_count(n, k, with_z=True):
    """Monomial count for the cyclic group: x^a y^b (z^c) with a = b mod n."""
    count = 0
    czs = range(k + 1) if with_z else (0,)
    for c in czs:
        for a in range(k - c + 1):
            b = k - c - a
            if (a - b) % n == 0:
                count += 1
    return count


def flat_reps(quiver, dims, count, start_seed=0, predicate=None, max_seed=100000):
    """First ``count`` seeded flat representations (optionally filtered)."""
    out = []
    seed = start_seed
    while len(out) < count:
        if seed > max_seed:
            raise RuntimeError("seed budget exhausted")
        rep = random_flat_rep(quiver, dims, seed)
        seed += 1
        if rep is None:
            continue
        if predicate is not None and not predicate(rep):
            continue
        out.append((seed - 1, rep))
    return out


def stable_reps(quiver, dims, corner, count, start_seed=0):
    from mckaykit.quiver_core import theta_I

    theta = theta_I(corner, dims)
    return flat_reps(
        quiver, dims, count, start_seed=start_seed,
        predicate=lambda rep: is_stable(rep, theta),
    )


def conjugated_copy(rep, seed=17):
    """Base-changed copy: conjugate all maps by random invertible matrices."""
    import random

    from mckaykit.linalg import mat_mul, rank, rref
    from mckaykit.rep_theory import QuiverRep

    rng = random.Random(seed)
    field = rep.field

    def random_invertible(n):
        while True:
            mat = tuple(
                tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
                for _ in range(n)
            )
            if rank(field, mat) == n:
                return mat

    def inverse(mat):
        n = len(mat)
        aug = [tuple(mat[r]) + tuple(
            field.one if c == r else field.zero for c in range(n)
        ) for r in range(n)]
        red, pivots = rref(field, aug)
        return tuple(tuple(row[n:]) for row in red)

    p = {v: random_invertible(rep.dims.get(v)) for v in rep.quiver.vertices}
    p_inv = {v: inverse(p[v]) for v in rep.quiver.vertices}
    maps = {}
    for a in rep.quiver.arrows:
        m = rep.matrix(a.id)
        m2 = mat_mul(field, p[a.tail], m, b_ncols=rep.dims.get(a.head))
        maps[a.id] = mat_mul(field, m2, p_inv[a.head],
                             b_ncols=rep.dims.get(a.head))
    return QuiverRep(quiver=rep.quiver, dims=rep.dims, maps=maps, field=field)


def reference_relations(rep):
    """``check_relations`` computed the long way: for each relation
    generator, the whole product matrix of each term by ``mat_mul``, added
    or subtracted by ``mat_add`` or ``mat_sub`` from a zero matrix."""
    from mckaykit.linalg import mat_add, mat_mul, mat_sub, zeros
    from mckaykit.quiver_core import relation_generators

    field = rep.field
    out = {}
    for gen in relation_generators(rep.quiver):
        ncols = rep.dims.get(gen.src)
        total = zeros(field, rep.dims.get(gen.tgt), ncols)
        for coeff, (x, y) in gen.terms:
            assert coeff in (1, -1)
            prod = mat_mul(field, rep.matrix(x), rep.matrix(y), b_ncols=ncols)
            total = (mat_add if coeff > 0 else mat_sub)(field, total, prod)
        out[gen] = total
    return out


def count_memo_misses(test):
    """The list of the (vertex, row) pairs whose memo entry the
    ``ClosureTest`` ``test`` computes from now on, one per miss."""
    misses = []
    entry = test._entry
    test._entry = lambda v, row: misses.append((v, row)) or entry(v, row)
    return misses


def count_framing_builds(monkeypatch):
    """The list of the representations whose framing submodule is built
    from now on: one entry per ``generated_submodule`` call seeded at the
    framing vertex."""
    from mckaykit import rep_theory
    from mckaykit.quiver_core import INFINITY

    builds = []
    generated = rep_theory.generated_submodule

    def counted(rep, seeds):
        if INFINITY in seeds:
            builds.append(rep)
        return generated(rep, seeds)

    monkeypatch.setattr(rep_theory, "generated_submodule", counted)
    return builds


def memo_row(field, row):
    """The form in which a ``ClosureTest`` over ``field`` memoises the
    dense vector ``row``: over GF(2) an ``int`` with bit c set where row[c]
    is odd, over any other field the dict of its nonzero entries."""
    if field.p == 2:
        return sum(2 ** c for c, x in enumerate(row) if x % 2)
    return {c: x for c, x in enumerate(row) if x}


def closure_memo(test):
    """The memo of the ``ClosureTest`` ``test`` as one dict keyed by
    (vertex, row)."""
    return {(v, row): entry for v, rows in test.memo.items()
            for row, entry in rows.items()}


# ---------------------------------------------------------------------------
# the explicit path-space route: a slice as all its paths modulo the honest
# two-sided relation span, independent of the quotient layers
# ---------------------------------------------------------------------------

def all_paths(quiver, j, kmax):
    """Every path from j of length <= kmax (product order): entry k maps
    each left end to its length-k paths."""
    out = [{v: ((),) if v == j else () for v in quiver.vertices}]
    for _ in range(kmax):
        prev = out[-1]
        out.append({v: tuple((a.id,) + p for a in quiver.arrows_with_tail(v)
                             for p in prev[a.head])
                    for v in quiver.vertices})
    return out


def pathspace_relation_rows(quiver, relgens, j, kmax):
    """Echelonised spanning rows of the relation subspace of every slice
    from j up to degree kmax: entry k maps each left end to an ``Echelon``
    whose rows are sparse dicts keyed by length-k paths.

    This is the honest two-sided span {p . rel . q} of the generators
    ``relgens``; its cost grows with the path count.
    """
    paths = all_paths(quiver, j, kmax)
    spans = []
    for k in range(kmax + 1):
        level = {}
        for v in quiver.vertices:
            ech = Echelon(QQ)
            if k >= 2:
                for a in quiver.arrows_with_tail(v):
                    for row in spans[k - 1][a.head].rows.values():
                        ech.insert({(a.id,) + p: val for p, val in row.items()})
                for gen in relgens:
                    if gen.tgt != v:
                        continue
                    for q in paths[k - 2][gen.src]:
                        vec = {}
                        for coeff, (x, y) in gen.terms:
                            key = (x, y) + q
                            vec[key] = vec.get(key, QQ.zero) + coeff
                        ech.insert({p: c for p, c in vec.items() if c})
            level[v] = ech
        spans.append(level)
    return spans


def pathspace_slice_dims(quiver, relgens, j, kmax):
    """dim e_i A_k e_j for k <= kmax, A the path algebra of ``quiver``
    modulo ``relgens``: entry k maps each left end i to the number of
    length-k paths from j to i minus the rank of their relation span."""
    paths = all_paths(quiver, j, kmax)
    spans = pathspace_relation_rows(quiver, relgens, j, kmax)
    return [{i: len(paths[k][i]) - spans[k][i].rank for i in quiver.vertices}
            for k in range(kmax + 1)]


def reference_subspaces_of_dimension(p, n, s):
    """The s-dimensional subspaces of GF(p)^n as echelon bases, each built
    by filling a fresh copy of its pivot set's template: the enumeration
    that ``rep_theory.subspaces_of_dimension`` must reproduce, basis for
    basis and in the same order."""
    import itertools

    if s == 0:
        yield ()
        return
    for pivots in itertools.combinations(range(n), s):
        base = [[0] * n for _ in range(s)]
        free_positions = []
        for r, pc in enumerate(pivots):
            base[r][pc] = 1
            for c in range(pc + 1, n):
                if c not in pivots:
                    free_positions.append((r, c))
        for values in itertools.product(range(p), repeat=len(free_positions)):
            rows = [row[:] for row in base]
            for (r, c), val in zip(free_positions, values):
                rows[r][c] = val
            yield tuple(map(tuple, rows))


# ---------------------------------------------------------------------------
# the corner extension by one elimination of every bilinearity row
# ---------------------------------------------------------------------------

# (group, corner, component dims): the round-trip configurations of the
# benchmark's corner workload
ROUND_TRIP_CONFIGS = [
    ("A1", (0,), {0: 2, 1: 1}),
    ("A1", (0, 1), {0: 2, 1: 2}),
    ("A2", (0,), {0: 2, 1: 1, 2: 1}),
    ("A2", (0, 1), {0: 1, 1: 1, 2: 2}),
    ("A3", (0,), {0: 2, 1: 1, 2: 1, 3: 1}),
    ("A3", (0, 2), {0: 1, 1: 1, 2: 1, 3: 1}),
    ("D4", (0,), {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}),
    ("D4", (0, 2), {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}),
    ("D5", (0,), {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}),
    ("D5", (0, 1), {0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}),
]

# (group, corner, component dims, seed): the fixed round trips of the
# same workload, whose extensions once raised
KEPT_FAULT_INPUTS = [
    ("A3", (0,), {0: 2, 1: 2, 2: 2, 3: 2}, 0),
    ("D5", (0,), {0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1}, 0),
    ("D5", (0,), {0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1}, 3),
    ("D5", (0,), {0: 1, 1: 1, 2: 2, 3: 2, 4: 1, 5: 1}, 4),
]


def extension_digest(data):
    """The md5 of a computed corner extension: its maps, dims, ``k_max``,
    ``place`` and the normal form of every coordinate key up to ``k_max``,
    each by ``repr``."""
    from mckaykit.corner_functors import pi_context

    module = data.module
    ctx = pi_context(module.group)
    h = hashlib.md5()
    for part in (dict(data.rep.maps), data.rep.dims.as_dict(), data.k_max, data.place):
        h.update(repr(part).encode())
    for k in range(data.k_max + 1):
        for src in sorted(module.corner):
            for c in range(ctx.layer(src, k).dim):
                for b in range(module.dim(src)):
                    h.update(repr(data.normal_form((-k, src, c, b))).encode())
    return h.hexdigest()


def reference_extension(module, force_degree=0):
    """The corner extension of the QQ module ``module`` as (maps, dims,
    k_max, place, normal_form), computed by building every bilinearity row
    (u.a (x) w) - (u (x) a.w) from scratch, products included, and
    inserting each into one fresh ``Echelon``, degree by degree; the same
    stopping rule, key order and output maps as ``j_shriek_with_data``."""
    from mckaykit.corner_functors import TRUNCATION_WINDOW, pi_context
    from mckaykit.graded_algebra import _expand_path_on
    from mckaykit.quiver_core import mckay_quiver, triple_quiver

    ctx = pi_context(module.group)
    quiver_b = triple_quiver(mckay_quiver(module.group))
    corner = sorted(module.corner)
    gen_deg = module.gen_degree
    window = max(TRUNCATION_WINDOW, gen_deg)
    ech = Echelon(QQ)

    def degree_keys(k):
        return [(-k, src, c, b) for src in corner
                for c in range(ctx.layer(src, k).dim)
                for b in range(module.dim(src))]

    new_content = []
    k = 0
    while True:
        k += 1
        for d in range(1, min(gen_deg, k) + 1):
            m = k - d
            for i in corner:
                paths = ctx.layer(i, m).paths
                for src in corner:
                    acts = module.actions[(d, i, src)]
                    for c, act in zip(ctx.slice_coords(i, src, d)[1], acts):
                        for u, path in enumerate(paths):
                            prod = _expand_path_on(ctx, path, {c: QQ.one}, src, d)
                            for b in range(module.dim(src)):
                                row = {(-k, src, c2, b): v for c2, v in prod.items()}
                                for bb in range(module.dim(i)):
                                    if act[bb][b]:
                                        key = (-m, i, u, bb)
                                        row[key] = row.get(key, 0) - act[bb][b]
                                row = {key: v for key, v in row.items() if v}
                                if row:
                                    ech.insert(row)
        pivots = sum(1 for key in ech.rows if key[0] == -k)
        new_content.append(len(degree_keys(k)) - pivots)
        if (k >= force_degree and len(new_content) >= window
                and not any(new_content[-window:])):
            break
    k_max = k

    place = {}
    comps = {v: 0 for v in quiver_b.vertices}
    for kdeg in range(k_max, -1, -1):
        for key in degree_keys(kdeg):
            if key not in ech.rows:
                v = ctx.layer(key[1], kdeg).vertex_of[key[2]]
                place[key] = (v, comps[v])
                comps[v] += 1

    def normal_form(key):
        return ech.reduce({key: QQ.one})

    def scatter(rows, col, coef, red, vertex):
        for key, x in red.items():
            v, r = place[key]
            if v == vertex:
                rows[r][col] += coef * x

    maps = {a.id: [[QQ.zero] * comps[a.head] for _ in range(comps[a.tail])]
            for a in quiver_b.arrows}
    for (neg_k, src, c, b), (v, col) in place.items():
        if -neg_k < k_max:
            lay_next = ctx.layer(src, 1 - neg_k)
            for a in quiver_b.non_loop_arrows():
                if a.head == v:
                    for c2, val in lay_next.image(a.id, c):
                        scatter(maps[a.id], col, val,
                                normal_form((neg_k - 1, src, c2, b)), a.tail)
        zmat = module.z_mats[src]
        for bb in range(module.dim(src)):
            if zmat[bb][b]:
                scatter(maps[quiver_b.loops[v]], col, zmat[bb][b],
                        normal_form((neg_k, src, c, bb)), v)
    maps = {aid: tuple(tuple(row) for row in rows) for aid, rows in maps.items()}
    return maps, comps, k_max, place, normal_form


def j_shriek_on_hom(data_m, data_n, phi_blocks):
    """Blocks of the induced map between two computed corner extensions.

    ``phi_blocks[i]`` is a matrix (N component) x (M component) of a
    module homomorphism M -> N; the induced map sends a tensor
    coordinate through phi on the module factor and reduces in the
    target extension.  Returns per-vertex matrices.
    """
    zero = data_m.module.field.zero
    blocks = {
        v: [[zero] * data_m.rep.dims.get(v) for _ in range(data_n.rep.dims.get(v))]
        for v in data_m.rep.quiver.vertices
    }
    for key, (v, col) in data_m.place.items():
        neg_k, src, c, b = key
        phi = phi_blocks[src]
        for b2 in range(data_n.module.dim(src)):
            if phi[b2][b] != zero:
                _scatter(blocks[v], col, phi[b2][b],
                         data_n.normal_form((neg_k, src, c, b2)), data_n.place, v)
    return {v: tuple(tuple(r) for r in rows) for v, rows in blocks.items()}
