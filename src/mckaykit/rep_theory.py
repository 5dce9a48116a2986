"""Finite-dimensional framed quiver representations and their stability.

An arrow ``a`` acts as a linear map from the component at ``a.head`` to
the component at ``a.tail``; the matrix of ``maps[a]`` therefore has
``dims[tail]`` rows and ``dims[head]`` columns.  That single convention
is enforced in :func:`validate_shapes` and relied on everywhere else.

The submodule closure test, quotients, reduction mod p and the
isomorphism search are the shared ``linalg`` kernels applied to a
representation's generator view: the arrow matrices in arrow order as
``(tail, head, matrix)``, which ``QuiverRep.rebuild`` turns back into a
representation.  Cornered modules share the same kernels.

A ``QuiverRep`` is frozen and memoises its largest relation residual
(for ``is_flat``) and its framing submodule (for the stability verdict
and the decomposition), so a module checked twice computes each once.

Stability is the usual submodule-slope inequality for a parameter that
vanishes on the total dimension.  For parameters of corner shape (one on
a vertex subset, zero elsewhere, balancing value at the framing vertex)
a fast characterisation is used: semistability means the submodule
generated by the framing component fills the corner dimensions, and
stability additionally means that submodule is everything and no nonzero
submodule avoids the corner and the framing vertex.  Both questions are
one least-closure walk: the greatest submodule avoiding a set S is the
annihilator of the least family of the dual module (each map transposed
and reversed) that holds the whole dual component at every vertex of S.
The characterisation ships together with an exhaustive finite-field
checker, which walks the closed families of subspaces vertex by vertex,
each subspace between the bounds the earlier vertices' picks set, stops
at the first destabilising submodule and answers in the same
(semistable, stable, witness) shape; the test suite enforces their
agreement.
"""

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    BadPrime,
    DimensionTooLarge,
    NotSemistable,
    ShapeMismatch,
    UnsupportedTheta,
    VertexNotInCorner,
)
from .linalg import (
    QQ,
    ClosureTest,
    Echelon,
    PrimeField,
    _columns,
    _image,
    combine,
    common_field,
    isomorphic,
    mat_vec,
    matrix_equation_rows,
    nullspace,
    quotient_maps,
    reduce_entries,
    solve_columns,
    vec_to_sparse,
    zeros,
)
from .quiver_core import INFINITY, DimVector, relation_generators, theta_I, vertex_sort_key


@dataclass(frozen=True)
class QuiverRep:
    """A representation: dimension vector plus one matrix per arrow.

    Its generator view (``vertex_dims``, ``generators``, ``rebuild``) is
    what the shared closure, quotient, mod-p, hom-space and isomorphism
    kernels of ``linalg`` act on: the arrows in arrow order, each as
    ``(tail, head, matrix)``.

    ``maps`` is kept as a read-only view of the mapping it is built with
    (every builder here passes a dict of its own), and its matrices are
    not changed after construction, which keeps the memos
    ``_max_residual`` and ``_framing`` valid.  A copy or an unpickled
    module is rebuilt from a dict of the maps and recomputes its memos.
    """

    quiver: object
    dims: DimVector
    maps: MappingProxyType
    field: object = QQ

    def __post_init__(self):
        object.__setattr__(self, "maps", MappingProxyType(self.maps))

    def __reduce__(self):
        return QuiverRep, (self.quiver, self.dims, dict(self.maps), self.field)

    def total_dim(self):
        return sum(self.dims.get(v) for v in self.quiver.vertices)

    def matrix(self, aid):
        a = self.quiver.arrow(aid)
        m = self.maps.get(aid)
        if m is None:
            return zeros(self.field, self.dims.get(a.tail), self.dims.get(a.head))
        return m

    def vertex_dims(self):
        """Component dimensions in vertex order, the framing vertex last."""
        return {v: self.dims.get(v)
                for v in sorted(self.quiver.vertices, key=vertex_sort_key)}

    def generators(self):
        """The arrow matrices as ``(tail, head, matrix)``, in arrow order."""
        return [(a.tail, a.head, self.matrix(a.id)) for a in self.quiver.arrows]

    def rebuild(self, dims, mats, field=None):
        """The representation of the same quiver with vertex dimensions
        ``dims`` and the matrices ``mats`` of ``generators`` order."""
        comps = {v: dims[v] for v in self.quiver.vertices if v != INFINITY}
        at_inf = dims[INFINITY] if INFINITY in self.quiver.vertices else None
        return QuiverRep(
            quiver=self.quiver,
            dims=DimVector(components=comps, at_infinity=at_inf),
            maps={a.id: m for a, m in zip(self.quiver.arrows, mats)},
            field=self.field if field is None else field,
        )

    @functools.cached_property
    def _max_residual(self):
        """Largest absolute residual entry of the relations."""
        return max((abs(x) for mat in check_relations(self).values()
                    for row in mat for x in row), default=0)

    @functools.cached_property
    def _framing(self):
        """The submodule generated by the framing component."""
        n, field = self.dims.get(INFINITY), self.field
        return generated_submodule(self, {INFINITY: [
            tuple(field.one if i == j else field.zero for j in range(n)) for i in range(n)]})


def make_rep(quiver, dims, maps, field=QQ):
    """The checked representation with the matrices ``maps``, each stored
    as a tuple of row tuples."""
    return validate_shapes(QuiverRep(
        quiver=quiver, dims=dims, field=field,
        maps={aid: tuple(map(tuple, m)) for aid, m in maps.items()}))


def validate_shapes(rep):
    """Check every matrix, row by row, is dims[tail] x dims[head].

    Raises ShapeMismatch; a ragged matrix is reported with all its row
    lengths, e.g. ``2x1/2``.
    """
    for a in rep.quiver.arrows:
        m = rep.maps.get(a.id)
        if m is None:
            continue
        rows = len(m)
        widths = sorted({len(row) for row in m}) or [0]
        cols = "/".join(str(w) for w in widths)
        want_r, want_c = rep.dims.get(a.tail), rep.dims.get(a.head)
        if rows != want_r or (rows and widths != [want_c]):
            raise ShapeMismatch(
                f"arrow {a.id}: matrix is {rows}x{cols}, expected {want_r}x{want_c}"
            )
    return rep


def zero_rep(quiver, dims, field=QQ):
    maps = {
        a.id: zeros(field, dims.get(a.tail), dims.get(a.head)) for a in quiver.arrows
    }
    return QuiverRep(quiver=quiver, dims=dims, maps=maps, field=field)


def vertex_simple(quiver, v, field=QQ):
    """The one-dimensional representation concentrated at a single vertex."""
    comps = {u: (1 if u == v else 0) for u in quiver.vertices if u != INFINITY}
    at_inf = None
    if INFINITY in quiver.vertices:
        at_inf = 1 if v == INFINITY else 0
    return zero_rep(quiver, DimVector(components=comps, at_infinity=at_inf), field)


def direct_sum(a, b):
    """Blockwise direct sum of two representations of the same quiver."""
    if a.quiver != b.quiver or a.field != b.field:
        raise ShapeMismatch("direct sum needs the same quiver and field")
    zero = a.field.zero
    mats = []
    for (_, head, am), (_, _, bm) in zip(a.generators(), b.generators()):
        ct, cb = a.dims.get(head), b.dims.get(head)
        mats.append(tuple(tuple(row) + (zero,) * cb for row in am)
                    + tuple((zero,) * ct + tuple(row) for row in bm))
    return a.rebuild({v: a.dims.get(v) + b.dims.get(v) for v in a.quiver.vertices},
                     mats)


# ---------------------------------------------------------------------------
# relations
# ---------------------------------------------------------------------------

def check_relations(rep):
    """The residual sum of coeff . x . y over the terms of each relation
    generator (``quiver_core.relation_generators``), keyed by generator; all
    zero iff flat.  Row r of a residual is one ``combine`` of the
    coefficients coeff . x[r][m] against the stacked rows of the right
    factors y, with no product matrix."""
    field = rep.field
    out = {}
    for gen in relation_generators(rep.quiver):
        lefts = [(coeff, rep.matrix(x)) for coeff, (x, _) in gen.terms]
        stacked = [row for _, (_, y) in gen.terms for row in rep.matrix(y)]
        ncols = rep.dims.get(gen.src)
        out[gen] = tuple(
            combine(field, [coeff * a for coeff, xm in lefts for a in xm[r]],
                    stacked, ncols)
            for r in range(rep.dims.get(gen.tgt)))
    return out


def max_relation_residual(rep):
    """Largest absolute residual entry of the relations; zero iff flat.
    Computed once per representation."""
    return rep._max_residual


def is_flat(rep):
    return rep._max_residual == 0


# ---------------------------------------------------------------------------
# submodules
# ---------------------------------------------------------------------------

@dataclass
class SubmoduleWitness:
    """Per-vertex bases of subspaces closed under all arrow maps."""

    spaces: dict  # vertex -> tuple of basis vectors

    def dim(self, v):
        return len(self.spaces.get(v, ()))

    def dims_dict(self):
        return {v: len(rows) for v, rows in self.spaces.items()}

    def total(self):
        return sum(len(rows) for rows in self.spaces.values())


def generated_submodule(rep, seeds):
    """Least arrow-closed family of subspaces containing the ``seeds``, a
    map from vertices to iterables of vectors in their components.  A seed
    at a vertex the quiver lacks raises VertexNotInCorner, and one whose
    length is not its component's dimension raises ShapeMismatch."""
    dims = {v: rep.dims.get(v) for v in rep.quiver.vertices}
    for v in seeds:
        if v not in dims:
            raise VertexNotInCorner(f"vertex {v} not in the quiver")
    return _generated(rep.field, dims, rep.generators(), seeds)


def _generated(field, dims, gens, seeds):
    """The least family of subspaces, one per vertex of ``dims``, that
    contains the ``seeds`` and is closed under the ``(i, j, mat)`` of
    ``gens``, each sending the component at j into the one at i."""
    ech = {v: Echelon(field) for v in dims}
    queue = []
    for v, vecs in seeds.items():
        for vec in vecs:
            if len(vec) != dims[v]:
                raise ShapeMismatch(f"seed of length {len(vec)} at vertex {v}, "
                                    f"whose component has dimension {dims[v]}")
            if ech[v].insert(vec_to_sparse(field, vec)):
                queue.append((v, tuple(vec)))
    maps_by_head = {}
    for tail, head, mat in gens:
        maps_by_head.setdefault(head, []).append((tail, _columns(mat)))
    while queue:
        v, vec = queue.pop()
        for tail, cols in maps_by_head.get(v, ()):
            img = _image(field.p, cols, vec)
            if ech[tail].insert(img):
                queue.append((tail, tuple(img.get(r, field.zero)
                                          for r in range(dims[tail]))))
    spaces = {}
    for v, n in dims.items():
        monic = ech[v].monic_rows()
        spaces[v] = tuple(tuple(monic[piv].get(c, field.zero) for c in range(n))
                          for piv in sorted(monic))
    return SubmoduleWitness(spaces=spaces)


def max_submodule_avoiding(rep, avoid):
    """Greatest submodule with zero component at every avoided vertex.

    A family N is closed under the maps exactly when its annihilator is
    closed under their transposes, so this is the annihilator of the least
    closed family of the dual module holding each avoided dual component,
    walked on the other vertices from the rows of the maps into an avoided
    vertex (their transposes' images); the transpose of a map out of one
    lands in a full component.  An avoided vertex the quiver lacks is ignored.
    """
    field = rep.field
    dims = {v: rep.dims.get(v) for v in rep.quiver.vertices if v not in avoid}
    seeds, dual = {v: [] for v in dims}, []
    for tail, head, mat in rep.generators():
        if head in dims and tail in dims:
            dual.append((head, tail, tuple(tuple(row[c] for row in mat)
                                           for c in range(dims[head]))))
        elif head in dims:
            seeds[head] += mat
    perp = _generated(field, dims, dual, seeds).spaces
    return SubmoduleWitness(spaces={
        v: tuple(nullspace(field, perp[v], ncols=dims[v])) if v in dims else ()
        for v in rep.quiver.vertices})


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def corner_of_theta(theta, dims):
    """Recover the corner set of a corner-shaped parameter, or raise."""
    if dims.at_infinity != 1:
        raise UnsupportedTheta("fast path needs framing dimension 1")
    corner = set()
    for v, val in theta.values.items():
        if v == INFINITY:
            continue
        if val == 1:
            corner.add(v)
        elif val != 0:
            raise UnsupportedTheta(f"weight {val} at vertex {v} is not 0/1")
    if not corner:
        raise UnsupportedTheta("no vertices with weight one")
    expected = -Fraction(sum(dims.get(v) for v in corner))
    if Fraction(theta.values.get(INFINITY, 0)) != expected:
        raise UnsupportedTheta("framing weight does not balance the corner")
    return frozenset(corner)


def stability_verdict(rep, theta):
    """(semistable, stable, witness dims or None) for a corner parameter."""
    corner = corner_of_theta(theta, rep.dims)
    gen = rep._framing
    semistable = all(gen.dim(i) == rep.dims.get(i) for i in corner)
    if not semistable:
        return False, False, gen.dims_dict()
    if gen.total() != rep.total_dim():
        return True, False, gen.dims_dict()
    avoid = max_submodule_avoiding(rep, set(corner) | {INFINITY})
    if avoid.total() != 0:
        return True, False, avoid.dims_dict()
    return True, True, None


def is_stable(rep, theta):
    return stability_verdict(rep, theta)[1]


# ---------------------------------------------------------------------------
# brute force over a prime field
# ---------------------------------------------------------------------------

BRUTE_FORCE_DIM_LIMIT = 8
# Bound on the walk's work, as the vertices' subspace counts summed: at
# each vertex the walk runs through at most every subspace once per family
# picked at the earlier vertices, and holds one subspace per vertex.
# GF(2)^7 has 29,212 and GF(5)^5 has 42,176; GF(2)^8 (417,199) and
# GF(3)^7 (2,052,656) are refused before the walk starts.
BRUTE_FORCE_SUBSPACE_LIMIT = 100_000


def subspaces_of_dimension(p, n, s):
    """Yield the s-dimensional subspaces of GF(p)^n as canonical
    reduced-echelon bases (tuples of row tuples).

    The pivot sets come in lexicographic order; for each, the free entries
    (those right of a row's pivot outside the pivot columns) run through
    GF(p), the last free entry of the last row fastest.  The choices of
    each row are built once per pivot set, so bases with a row in common
    share that row's tuple object.
    """
    for pivots in itertools.combinations(range(n), s):
        choices = []
        for pc in pivots:
            free = [c for c in range(pc + 1, n) if c not in pivots]
            row = [0] * n
            row[pc] = 1
            row_choices = []
            for values in itertools.product(range(p), repeat=len(free)):
                for c, val in zip(free, values):
                    row[c] = val
                row_choices.append(tuple(row))
            choices.append(row_choices)
        yield from itertools.product(*choices)


def subspace_count(p, n):
    """Number of subspaces of GF(p)^n: the sum of the Gaussian binomials."""
    total = 0
    for s in range(n + 1):
        num = den = 1
        for i in range(s):
            num *= p ** (n - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


def reduce_mod_p(rep, p):
    """Entrywise reduction of a rational module modulo p: a framed
    module, or a cornered one (``cornered_mod_p``).

    Raises BadPrime when p divides any denominator; reduction is a ring
    homomorphism, so flat representations stay flat.
    """
    field = PrimeField(p)
    return rep.rebuild(rep.vertex_dims(), reduce_entries(field, rep.generators()),
                       field)


def brute_force_stability(rep, theta):
    """Exhaustive stability check over every submodule.

    The representation must live over a prime field, have total
    dimension at most BRUTE_FORCE_DIM_LIMIT, and its vertices together
    at most BRUTE_FORCE_SUBSPACE_LIMIT subspaces.  Returns
    (semistable, stable, witness) in the shape of ``stability_verdict``:
    the witness is the dimension dict of a destabilising submodule (the
    whole module when theta(v) != 0), or None when the module is stable.

    The walk picks one subspace U per vertex, in vertex order, between
    two bounds set by the subspaces already picked: U contains L, the
    span of the images of the earlier heads' subspaces under the arrows
    into the vertex, and lies in P, the common preimage of the earlier
    tails' subspaces under the arrows out of it.  U runs over L plus each
    subspace of a complement of L in P, and is kept when the loops at the
    vertex map it into itself, so every family the walk reaches is
    closed.  The walk stops at the first family of negative theta, which
    settles both answers; otherwise the first proper nonzero family of
    theta zero is the witness.
    """
    if not rep.field.p:
        raise BadPrime("brute force runs over a prime field; reduce mod p first")
    total = rep.total_dim()
    if total > BRUTE_FORCE_DIM_LIMIT:
        raise DimensionTooLarge(f"total dimension {total} > {BRUTE_FORCE_DIM_LIMIT}")
    field = rep.field
    p = field.p
    verts = sorted(rep.quiver.vertices, key=vertex_sort_key)
    count = sum(subspace_count(p, rep.dims.get(v)) for v in verts)
    if count > BRUTE_FORCE_SUBSPACE_LIMIT:
        raise DimensionTooLarge(
            f"{count} vertex subspaces > {BRUTE_FORCE_SUBSPACE_LIMIT}"
        )
    if theta(rep.dims) != 0:
        return False, False, rep.dims.as_dict()
    dims = [rep.dims.get(v) for v in verts]
    pos = {v: i for i, v in enumerate(verts)}
    # per position, the nonzero arrows met there: from an earlier head
    # (lower bound), to an earlier tail (upper bound) and the loops
    into = [[] for _ in verts]
    out_of = [[] for _ in verts]
    loops = [[] for _ in verts]
    for tail, head, mat in rep.generators():
        cols = _columns(mat)
        if not cols:
            continue
        t, h = pos[tail], pos[head]
        if t == h:
            loops[t].append(cols)
        elif h < t:
            into[t].append((h, cols))
        else:
            out_of[h].append((t, [(c, dict(col)) for c, col in cols]))
    weights = [QQ.from_fraction(theta.values.get(v, 0)) for v in verts]

    bases = [()] * len(verts)  # the subspace picked at each position
    echelons = [None] * len(verts)  # and its Echelon
    zero_witness = None

    def walk(idx, value, size):
        """The first family of negative theta below the picks so far."""
        nonlocal zero_witness
        if idx == len(verts):
            if value < 0:
                return dict(zip(verts, map(len, bases)))
            if value == 0 and 0 < size < total and zero_witness is None:
                zero_witness = dict(zip(verts, map(len, bases)))
            return None
        n = dims[idx]
        low = Echelon(field)
        for h, cols in into[idx]:
            for vec in bases[h]:
                low.insert(_image(p, cols, vec))
        lower = [tuple(row.get(c, 0) for c in range(n))
                 for row in low.monic_rows().values()]
        residuals = {}  # (arrow, row) -> the row of the residuals of the columns
        for k, (t, cols) in enumerate(out_of[idx]):
            for c, col in cols:
                for r, x in echelons[t].reduce(col).items():
                    residuals.setdefault((k, r), [0] * n)[c] = x
        upper = nullspace(field, list(residuals.values()), ncols=n)
        complement = [vec for vec in upper if low.insert(vec_to_sparse(field, vec))]
        if len(lower) + len(complement) != len(upper):
            return None  # L is not inside P
        for s in range(len(complement) + 1):
            for sub in subspaces_of_dimension(p, len(complement), s):
                basis = lower + [combine(field, row, complement, n) for row in sub]
                ech = Echelon(field)
                for vec in basis:
                    ech.insert(vec_to_sparse(field, vec))
                if not all(ech.contains(_image(p, cols, vec))
                           for cols in loops[idx] for vec in basis):
                    continue
                bases[idx], echelons[idx] = basis, ech
                found = walk(idx + 1, value + weights[idx] * len(basis),
                             size + len(basis))
                if found is not None:
                    return found
        return None

    witness = walk(0, 0, 0)
    if witness is not None:
        return False, False, witness
    return True, zero_witness is None, zero_witness


# ---------------------------------------------------------------------------
# sub/quotient representations
# ---------------------------------------------------------------------------

def restrict_rep(rep, witness):
    """The representation induced on a closed family of subspaces; a family
    that is not closed, or a row of the wrong length, raises ShapeMismatch."""
    field, gens = rep.field, rep.generators()
    if not ClosureTest(field, gens)(witness.spaces):
        raise ShapeMismatch("vector not in the subspace span")
    mats = []
    for tail, head, mat in gens:
        src = witness.spaces.get(head, ())
        tgt = witness.spaces.get(tail, ())
        # the coordinates of the images of src in the basis tgt, by one solve
        coords = solve_columns(field, [tuple(vec[r] for vec in tgt)
                                       for r in range(rep.dims.get(tail))],
                               [mat_vec(field, mat, vec) for vec in src])
        mats.append(tuple(
            tuple(coords[c][r] for c in range(len(src))) for r in range(len(tgt))
        ))
    return rep.rebuild({v: witness.dim(v) for v in rep.quiver.vertices}, mats)


def quotient_rep(rep, witness):
    """The quotient by a closed family of subspaces."""
    gens = rep.generators()
    dims, mats, _ = quotient_maps(rep.field, gens, rep.vertex_dims(),
                                  witness.spaces, ClosureTest(rep.field, gens))
    return rep.rebuild(dims, mats)


# ---------------------------------------------------------------------------
# polystable decomposition and isomorphism
# ---------------------------------------------------------------------------

def polystable_decomposition(rep, corner):
    """Stable core plus vertex simples, conserving the dimension vector."""
    corner = frozenset(corner)
    theta = theta_I(corner, rep.dims)
    semistable, _, _ = stability_verdict(rep, theta)
    if not semistable:
        raise NotSemistable("polystable decomposition needs a semistable input")
    field = rep.field
    sub = restrict_rep(rep, rep._framing)
    torsion = max_submodule_avoiding(sub, set(corner) | {INFINITY})
    core = quotient_rep(sub, torsion)
    summands = [core]
    for v in sorted(rep.quiver.plain_vertices, key=vertex_sort_key):
        if v in corner:
            continue
        for _ in range(rep.dims.get(v) - core.dims.get(v)):
            summands.append(vertex_simple(rep.quiver, v, field))
    return summands


def are_isomorphic(a, b, seed=0):
    """Whether an invertible intertwiner exists (seeded randomised search)."""
    field = common_field(a, b)
    if a.quiver != b.quiver:
        return False
    return isomorphic(field, a.generators(), b.generators(), a.vertex_dims(),
                      b.vertex_dims(), seed)


def s_equivalence_classes(summand_lists, seed=0):
    """Group polystable summands into isomorphism classes (multisets).

    Input is a list of summand lists; output is a list of multisets given
    as sorted tuples of class indices, one per input list.
    """
    reps = []

    def class_index(m):
        for idx, r in enumerate(reps):
            if are_isomorphic(m, r, seed=seed):
                return idx
        reps.append(m)
        return len(reps) - 1

    out = []
    for summands in summand_lists:
        out.append(tuple(sorted(class_index(m) for m in summands)))
    return out


def s_equivalent(list_a, list_b, seed=0):
    a, b = s_equivalence_classes([list_a, list_b], seed=seed)
    return a == b


# ---------------------------------------------------------------------------
# random flat representations
# ---------------------------------------------------------------------------

def random_flat_rep(quiver, dims, seed, field=QQ):
    """Seeded flat representation, or None when the seed yields nothing.

    Positively oriented arrows (and loop maps, when tripled) are sampled
    with entries in [-2, 2];
    the bar maps are then solved for exactly from the vertex relations,
    picking a seeded element of the solution space.
    """
    rng = random.Random(seed)

    def rand_entry():
        return field.from_int(rng.randint(-2, 2))

    maps = {}
    if quiver.is_tripled:
        lam = rand_entry()
        for v, lid in quiver.loops.items():
            n = dims.get(v)
            maps[lid] = tuple(
                tuple(lam if i == j else field.zero for j in range(n))
                for i in range(n)
            )

    plus_arrows = [
        a for a in quiver.non_loop_arrows() if quiver.sign(a.id) > 0
    ]
    for a in plus_arrows:
        maps[a.id] = tuple(
            tuple(rand_entry() for _ in range(dims.get(a.head)))
            for _ in range(dims.get(a.tail))
        )

    unknown = [quiver.arrow(quiver.bar[a.id]) for a in plus_arrows]
    shapes = {a.id: (dims.get(a.tail), dims.get(a.head)) for a in unknown}
    # the loops are scalars, so the loop relations hold: solve the vertex
    # relations, each term known . unknown or unknown . known
    loops = set(quiver.loops.values())
    equations = [
        [(coeff, x, maps[y]) if x in shapes else (coeff, maps[x], y)
         for coeff, (x, y) in gen.terms]
        for gen in relation_generators(quiver)
        if not loops.intersection(gen.terms[0][1])
    ]
    rows, offsets, nvars = matrix_equation_rows(field, shapes, equations)
    basis = nullspace(field, rows, ncols=nvars) if nvars else []
    sol = combine(field, [rand_entry() for _ in basis], basis, nvars)
    for a in unknown:
        dt, dh = shapes[a.id]
        off = offsets[a.id]
        maps[a.id] = tuple(
            tuple(sol[off + r * dh + c] for c in range(dh)) for r in range(dt)
        )
    rep = QuiverRep(quiver=quiver, dims=dims, maps=maps, field=field)
    if not is_flat(rep):
        return None
    return rep
