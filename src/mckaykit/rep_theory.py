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
submodule avoids the corner and the framing vertex.  The characterisation
ships together with an exhaustive finite-field checker and the test
suite enforces their agreement.
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
)
from .linalg import (
    QQ,
    Echelon,
    PrimeField,
    _columns,
    _echelon_of_sparse,
    _image,
    _mod,
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
    ``_max_residual`` and ``_framing`` valid.
    """

    quiver: object
    dims: DimVector
    maps: MappingProxyType
    field: object = QQ

    def __post_init__(self):
        object.__setattr__(self, "maps", MappingProxyType(self.maps))

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
        return generated_submodule(
            self, {INFINITY: _unit_rows(self.field, self.dims.get(INFINITY))})


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
    zero iff flat.  Each is accumulated row by row, with no product matrix."""
    p = rep.field.p
    out = {}
    for gen in relation_generators(rep.quiver):
        ncols = rep.dims.get(gen.src)
        terms = [(coeff, rep.matrix(x), rep.matrix(y)) for coeff, (x, y) in gen.terms]
        rows = []
        for r in range(rep.dims.get(gen.tgt)):
            acc = [0] * ncols
            for coeff, xm, ym in terms:
                for a, yrow in zip(xm[r], ym):
                    if a:
                        a *= coeff
                        for c, b in enumerate(yrow):
                            if b:
                                acc[c] += a * b
            rows.append(_mod(p, acc))
        out[gen] = tuple(rows)
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
    """Least arrow-closed family of subspaces containing the seed vectors.

    ``seeds`` maps vertices to iterables of vectors in their components.
    """
    field = rep.field
    ech = {v: Echelon(field) for v in rep.quiver.vertices}
    queue = []
    for v, vecs in seeds.items():
        for vec in vecs:
            if ech[v].insert(vec_to_sparse(field, vec)):
                queue.append((v, tuple(vec)))
    maps_by_head = {}
    for tail, head, mat in rep.generators():
        maps_by_head.setdefault(head, []).append((tail, _columns(mat)))
    while queue:
        v, vec = queue.pop()
        for tail, cols in maps_by_head.get(v, ()):
            img = _image(field.p, cols, vec)
            if ech[tail].insert(img):
                queue.append((tail, tuple(img.get(r, field.zero)
                                          for r in range(rep.dims.get(tail)))))
    spaces = {}
    for v in rep.quiver.vertices:
        monic = ech[v].monic_rows()
        spaces[v] = tuple(tuple(monic[piv].get(c, field.zero) for c in range(rep.dims.get(v)))
                          for piv in sorted(monic))
    return SubmoduleWitness(spaces=spaces)


def _unit_rows(field, n):
    return [tuple(field.one if i == j else field.zero for j in range(n))
            for i in range(n)]


def max_submodule_avoiding(rep, avoid):
    """Greatest submodule with zero component at every avoided vertex.

    Greatest-fixpoint iteration: start full off the avoided set, then
    repeatedly shrink each component to the vectors whose arrow images
    stay inside the current family.
    """
    field = rep.field
    basis = {v: [] if v in avoid else _unit_rows(field, rep.dims.get(v))
             for v in rep.quiver.vertices}
    # an arrow out of an avoided vertex never acts, its source being empty
    columns = {a.id: _columns(rep.matrix(a.id)) for a in rep.quiver.arrows
               if a.head not in avoid}
    changed = True
    while changed:
        changed = False
        for a in rep.quiver.arrows:
            src = basis[a.head]
            if not src:
                continue
            tgt = basis[a.tail]
            # the combinations of src whose image lies in span(tgt)
            images = [_image(field.p, columns[a.id], vec) for vec in src]
            rows = [tuple(img.get(r, field.zero) for img in images)
                    + tuple(field.neg(t[r]) for t in tgt)
                    for r in range(rep.dims.get(a.tail))]
            new_src = []
            ech = Echelon(field)
            for combo in nullspace(field, rows, ncols=len(src) + len(tgt)):
                vec = combine(field, combo[:len(src)], src, rep.dims.get(a.head))
                if ech.insert(vec_to_sparse(field, vec)):
                    new_src.append(vec)
            if len(new_src) < len(src):
                basis[a.head] = new_src
                changed = True
    return SubmoduleWitness(spaces={v: tuple(rows) for v, rows in basis.items()})


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
# Bound on the subspaces held in memory at once (summed over the vertices):
# GF(2)^7 has 29,212 and GF(5)^5 has 42,176; GF(2)^8 has 417,199.
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


def all_subspaces(p, n):
    """All subspaces of GF(p)^n as canonical reduced-echelon bases."""
    spaces = []
    for s in range(n + 1):
        spaces.extend(subspaces_of_dimension(p, n, s))
    return spaces


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


def _subspace_images(field, mat, subspaces):
    """For each basis of ``subspaces``, the tuple of the nonzero sparse
    images under ``mat`` of its vectors; a vector that lies in several
    bases is mapped once."""
    cols = _columns(mat)
    seen = {}
    out = []
    for basis in subspaces:
        imgs = []
        for vec in basis:
            img = seen.get(vec)
            if img is None:
                img = seen[vec] = _image(field.p, cols, vec)
            if img:
                imgs.append(img)
        out.append(tuple(imgs))
    return out


def _subspace_echelons(field, subspaces):
    """The ``Echelon`` of each basis of ``subspaces``, which are canonical
    reduced-echelon bases (see ``all_subspaces``), so ``_echelon_of_sparse``
    stores every row as it is.  A row that lies in several bases is one
    shared sparse dict."""
    sparse = {}
    out = []
    for basis in subspaces:
        for vec in basis:
            if vec not in sparse:
                sparse[vec] = vec_to_sparse(field, vec)
        out.append(_echelon_of_sparse(field, [sparse[vec] for vec in basis]))
    return out


def brute_force_stability(rep, theta):
    """Exhaustive stability check by enumerating all submodules.

    The representation must live over a prime field, have total
    dimension at most BRUTE_FORCE_DIM_LIMIT, and its vertices together
    at most BRUTE_FORCE_SUBSPACE_LIMIT subspaces.  Returns
    (semistable, stable, violating dimension dicts).

    The walk picks one subspace per vertex, in vertex order and in the
    order of ``all_subspaces``, and goes on to the next vertex only while
    every arrow between the vertices picked so far maps the head's
    subspace into the tail's.  The subspaces, the echelons of the tail
    subspaces and the images of the head subspaces' bases under each
    nonzero arrow matrix are computed once per call, before the walk; a
    closed family is scored when it is reached.
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
    dims = [rep.dims.get(v) for v in verts]
    # vertices of one dimension share their subspaces and echelons
    spaces = {n: all_subspaces(p, n) for n in set(dims)}
    echelons = {}
    # per position idx, the arrows with a nonzero matrix whose later
    # endpoint is verts[idx], as (tail position, head position, images of
    # each head subspace, echelons of the tail subspaces)
    tests_at = [[] for _ in verts]
    pos = {v: i for i, v in enumerate(verts)}
    for tail, head, mat in rep.generators():
        if not any(map(any, mat)):
            continue
        t, h = pos[tail], pos[head]
        if dims[t] not in echelons:
            echelons[dims[t]] = _subspace_echelons(field, spaces[dims[t]])
        images = _subspace_images(field, mat, spaces[dims[h]])
        tests_at[max(t, h)].append((t, h, images, echelons[dims[t]]))
    weights = [QQ.from_fraction(theta.values.get(v, 0)) for v in verts]

    semistable = True
    stable = True
    violations = []
    if theta(rep.dims) != 0:
        semistable = stable = False
        violations.append(rep.dims.as_dict())

    chosen = [0] * len(verts)  # index of the subspace picked at each vertex
    sizes = [0] * len(verts)  # its dimension

    def closed(tests):
        for t, h, images, echs in tests:
            imgs = images[chosen[h]]
            if imgs:
                ech = echs[chosen[t]]
                for img in imgs:
                    if not ech.contains(img):
                        return False
        return True

    def walk(idx, value, size):
        nonlocal semistable, stable
        if idx == len(verts):
            if value < 0:
                semistable = stable = False
                violations.append(dict(zip(verts, sizes)))
            elif value == 0 and 0 < size < total:
                stable = False
                violations.append(dict(zip(verts, sizes)))
            return
        tests, weight = tests_at[idx], weights[idx]
        for k, basis in enumerate(spaces[dims[idx]]):
            chosen[idx] = k
            if closed(tests):
                sizes[idx] = len(basis)
                walk(idx + 1, value + weight * sizes[idx], size + sizes[idx])

    walk(0, 0, 0)
    return semistable, stable, violations


# ---------------------------------------------------------------------------
# sub/quotient representations
# ---------------------------------------------------------------------------

def restrict_rep(rep, witness):
    """The representation induced on a closed family of subspaces."""
    field = rep.field
    mats = []
    for tail, head, mat in rep.generators():
        src = witness.spaces.get(head, ())
        tgt = witness.spaces.get(tail, ())
        # the coordinates of the images of src in the basis tgt, by one solve
        coords = solve_columns(field, list(zip(*tgt)),
                               [mat_vec(field, mat, vec) for vec in src])
        if coords is None:
            raise ShapeMismatch("vector not in the subspace span")
        mats.append(tuple(
            tuple(coords[c][r] for c in range(len(src))) for r in range(len(tgt))
        ))
    return rep.rebuild({v: witness.dim(v) for v in rep.quiver.vertices}, mats)


def quotient_rep(rep, witness):
    """The quotient by a closed family of subspaces."""
    dims, mats, _ = quotient_maps(rep.field, rep.generators(), rep.vertex_dims(),
                                  witness.spaces)
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
