"""Graded pieces of the preprojective-type path algebras, exactly over Q.

Three flavors, with the relations of
:func:`mckaykit.quiver_core.relation_generators`:

* ``pi``       -- doubled McKay quiver modulo the signed vertex relations
                  sum_{tail(x)=v} sign(x) x.xbar;
* ``piw``      -- the framed variant, with framing arrows entering the
                  vertex sums at both endpoints;
* ``pibullet`` -- Pi-bullet = Pi[z], z central of degree one (the line
                  at infinity), so
                  e_i Pi-bullet_k e_j = (+)_{m<=k} e_i Pi_m e_j z^(k-m)
                  (Etingof-Eu).

``pi`` and ``piw`` build quotient layers; a ``pibullet`` context has no
layers of its own and reads every dimension as a running sum over its
``pi`` context.  The ``pi`` layers depend on the group alone, so every
``pi`` context of a group reads one per-label store of them
(``_pi_tables``); the ``piw`` layers depend on w and stay on the context.

Degreewise dimensions are computed by an exact quotient construction:
the degree-(k+1) component is (arrows tensor degree-k) modulo relation
generators placed at the left end, which reproduces the two-sided ideal
span degree by degree.

A cornered context restricts slice endpoints to the corner set but
builds relations in the full algebra (subalgebra semantics).

Path convention: a path is a tuple of arrow ids in product order, so the
rightmost arrow acts first; a path starts at the head of its last arrow
and ends at the tail of its first.  A layer keeps no paths: each class is
its first arrow times a parent class one degree down, and ``_Layer.path``
rebuilds a path through the parents.
"""

import functools
from dataclasses import dataclass
from itertools import accumulate

from .errors import (
    DegreeCapExceeded,
    DimensionTooLarge,
    EmptyI,
    EndpointMismatch,
    BoundNotFound,
    InvalidArgument,
    InvalidDescriptor,
    NonIntegralCoefficient,
    VertexNotInCorner,
)
from .gamma_data import build_group, character_inner
from .linalg import QQ, Echelon
from .quiver_core import frame_quiver, mckay_quiver, relation_generators

DEFAULT_DEGREE_CAP = 16

FLAVORS = ("pi", "piw", "pibullet")


@dataclass(slots=True)
class _Layer:
    """One degree of a layer table.  Class t of degree k > 0 is the arrow
    ``arrow_of[t]`` times class ``parent_of[t]`` of degree k - 1, so its
    path is read back through the parents (``path``)."""

    prev: object  # the layer of degree k - 1, None at degree 0
    arrows: dict  # the plan's {arrow id: (head, tail)}, shared by the table
    arrow_of: tuple
    parent_of: tuple
    vertex_of: tuple
    # by_vertex[v] = the tuple of coords whose class ends at v, increasing;
    # pos[c] = the place of coord c in its block
    by_vertex: dict
    pos: tuple
    # images[aid][pos[c]] = expansion of (arrow . class c of the previous
    # layer, c in the block at the arrow's head) in this layer's
    # coordinates, flat as (coord, value, coord, value, ...) with nonzero
    # values in increasing coord order
    images: dict

    @property
    def dim(self):
        return len(self.vertex_of)

    def image(self, aid, c):
        """(arrow ``aid``) . (class ``c`` of the previous layer) as sparse
        ``(coord, value)`` pairs, an iterator; ``()`` with no slot at c."""
        block = self.images.get(aid)
        prev = self.prev
        if block is None or prev.vertex_of[c] != self.arrows[aid][0]:
            return ()
        flat = iter(block[prev.pos[c]])
        return zip(flat, flat)

    def path(self, c):
        """The basis path of class ``c``, rebuilt through the parents."""
        path = []
        layer = self
        while layer.prev is not None:
            path.append(layer.arrow_of[c])
            c = layer.parent_of[c]
            layer = layer.prev
        return tuple(path)

    @property
    def paths(self):
        return tuple(map(self.path, range(self.dim)))


def _layer_plan(quiver, kill=frozenset()):
    """What the layer tables of ``quiver`` read: the arrows whose tail is
    not in ``kill``, as ``{id: (head, tail)}`` in arrow order, and the terms
    of each relation generator whose target is not in ``kill``, with the
    generator's source.  Built once and shared by the tables."""
    arrows = {a.id: (a.head, a.tail) for a in quiver.arrows if a.tail not in kill}
    relations = tuple((gen.src, gen.terms) for gen in relation_generators(quiver)
                      if gen.tgt not in kill)
    return arrows, relations


class _LayerTable:
    """Degreewise quotient bases for classes with a fixed right endpoint.

    The ``plan`` (:func:`_layer_plan`) removes every class whose left
    endpoint lies in its ``kill`` set (used for the factor algebra by the
    corner ideal; the right end lies outside it).  Degree k + 1 has one
    slot per planned arrow and degree-k class ending at its head; the
    relation rows over the slots go through one ``Echelon``, and the free
    slots of its reduced form are the new basis.
    """

    def __init__(self, plan, right_end):
        self.arrows, self.relations = plan
        self.layers = [_Layer(None, self.arrows, (), (), (right_end,),
                              {right_end: (0,)}, (0,), {})]
        # units[t] = (t, 1), the image of a slot that is basis class t;
        # every layer of the table shares them
        self.units = []

    def ensure(self, k):
        while len(self.layers) <= k:
            self._build_next()
        return self.layers[k]

    def _build_next(self):
        prev = self.layers[-1]
        k = len(self.layers)
        # slot offset[aid] + pos[c] is arrow aid times class c of prev's block
        # at the arrow's head
        offset = {}
        nslots = 0
        for aid, (head, _) in self.arrows.items():
            offset[aid] = nslots
            nslots += len(prev.by_vertex.get(head, ()))

        # relation rows, sparse over the slots, straight into the echelon; a
        # term x.y lands in the block of x's head, y's tail
        ech = Echelon(QQ)
        if k >= 2 and nslots:
            pos = prev.pos
            for src, terms in self.relations:
                for u in self.layers[k - 2].by_vertex.get(src, ()):
                    row = {}
                    for coeff, (x, y) in terms:
                        for c, val in prev.image(y, u):
                            s = offset[x] + pos[c]
                            row[s] = row.get(s, QQ.zero) + coeff * val
                    ech.insert(row)
        red = ech.reduced_rows()

        # a reduced row's columns are free slots after its pivot, so the
        # free positions are counted before the pass that writes the layer
        free_pos = {}
        for s in range(nslots):
            if s not in red:
                free_pos[s] = len(free_pos)
        units = self.units
        arrow_of, parent_of, vertex_of, pos = [], [], [], []
        by_vertex = {}
        images = {}
        for aid, (head, tail) in self.arrows.items():
            coords = prev.by_vertex.get(head)
            if coords is None:
                continue
            s = offset[aid]
            block = None
            imgs = []
            for c in coords:
                row = red.get(s)
                if row is None:
                    t = len(vertex_of)
                    if t == len(units):
                        units.append((t, QQ.one))
                    imgs.append(units[t])
                    arrow_of.append(aid)
                    parent_of.append(c)
                    vertex_of.append(tail)
                    if block is None:
                        block = by_vertex.setdefault(tail, [])
                    pos.append(len(block))
                    block.append(t)
                else:
                    # free_pos increases with the slot, so slot order is
                    # coordinate order
                    flat = []
                    for x, val in sorted(row.items()):
                        if x != s:
                            flat += (free_pos[x], -val)
                    imgs.append(tuple(flat))
                s += 1
            images[aid] = tuple(imgs)
        self.layers.append(_Layer(
            prev, self.arrows, tuple(arrow_of), tuple(parent_of), tuple(vertex_of),
            {v: tuple(block) for v, block in by_vertex.items()}, tuple(pos), images))


@functools.lru_cache(maxsize=None)
def _pi_tables(label):
    """The ``pi`` layer plan of a group and its layer tables by right end,
    which every ``pi`` context of the group reads and extends.  A table
    holds the degrees some context has read, each within that context's
    cap."""
    return _layer_plan(mckay_quiver(build_group(label))), {}


class AlgebraContext:
    """A graded algebra flavor bound to a group, with memoised layers.

    A ``pi`` context reads the layer tables of its group's store
    (``_pi_tables``), shared with every other ``pi`` context of the group
    whatever its corner and cap; it checks its own cap and vertices before
    it reads, and keeps in ``_tables`` the tables it has read.  A ``piw``
    context builds its own tables, which depend on w.  A ``pibullet``
    context is a dimensions-only view of the ``pi`` context with the same
    group, corner and cap: its slices are running sums of that context's,
    and it has no layers, classes or products.

    ``table``, ``layer``, ``slice_coords`` and ``slice_basis_paths``
    refuse a vertex the quiver lacks; only ``slice_dim`` also refuses one
    outside the corner.
    """

    def __init__(self, group, flavor, w=None, corner=None,
                 degree_cap=DEFAULT_DEGREE_CAP):
        if flavor not in FLAVORS:
            raise InvalidArgument(f"unknown algebra flavor {flavor!r}")
        if degree_cap < 0:
            raise InvalidArgument(f"degree cap must be nonnegative, got {degree_cap}")
        self.group = group
        self.flavor = flavor
        self.degree_cap = degree_cap
        base = mckay_quiver(group)
        if flavor == "piw":
            if w is None:
                raise InvalidArgument("the piw flavor needs framing multiplicities w")
            self.quiver = frame_quiver(base, w)
        elif w is not None:
            raise InvalidArgument(f"framing multiplicities w apply to the piw flavor, "
                                  f"not {flavor}")
        else:
            self.quiver = base
        self.corner = frozenset(corner) if corner is not None else None
        if self.corner is not None:
            if not self.corner:
                raise EmptyI("corner set must be nonempty")
            bad = [v for v in self.corner if v not in self.quiver.vertices]
            if bad:
                raise VertexNotInCorner(f"vertices {bad} not in the quiver")
        if flavor == "pibullet":
            self._pi = AlgebraContext(group, "pi", corner=self.corner,
                                     degree_cap=degree_cap)
        elif flavor == "pi":
            self._plan, self._store = _pi_tables(group.descriptor.label)
        else:
            self._plan, self._store = _layer_plan(self.quiver), {}
        self._tables = {}

    def endpoints(self):
        if self.corner is not None:
            return tuple(sorted(self.corner, key=str))
        return self.quiver.vertices

    def _check_degree(self, k):
        if k < 0:
            raise InvalidArgument(f"degree must be nonnegative, got {k}")
        if k > self.degree_cap:
            raise DegreeCapExceeded(f"degree {k} above cap {self.degree_cap}")

    def _check_vertex(self, v):
        if v not in self.quiver.vertices:
            raise VertexNotInCorner(f"vertex {v} not in the quiver")

    def _check_endpoint(self, v):
        self._check_vertex(v)
        if self.corner is not None and v not in self.corner:
            raise VertexNotInCorner(f"vertex {v} outside the corner set")

    def table(self, right_end):
        if self.flavor == "pibullet":
            raise InvalidArgument("a pibullet context has dimensions only; "
                                  "read layers and classes on a pi context")
        tbl = self._tables.get(right_end)
        if tbl is None:
            self._check_vertex(right_end)
            tbl = self._store.get(right_end)
            if tbl is None:
                tbl = self._store[right_end] = _LayerTable(self._plan, right_end)
            self._tables[right_end] = tbl
        return tbl

    def layer(self, right_end, k):
        self._check_degree(k)
        return self.table(right_end).ensure(k)

    def slice_coords(self, i, j, k):
        self._check_vertex(i)
        layer = self.layer(j, k)
        return layer, layer.by_vertex.get(i, ())

    def slice_dim(self, i, j, k):
        self._check_endpoint(i)
        self._check_endpoint(j)
        if self.flavor == "pibullet":
            self._check_degree(k)
            return sum(self._pi.slice_dim(i, j, m) for m in range(k + 1))
        _, coords = self.slice_coords(i, j, k)
        return len(coords)

    def slice_basis_paths(self, i, j, k):
        layer, coords = self.slice_coords(i, j, k)
        return tuple(map(layer.path, coords))


def hilbert_sequence(ctx, kmax):
    """Degreewise total dimension over the allowed endpoint pairs.

    Each allowed right end's layer table is read once per degree, adding
    the sizes of its blocks at the allowed left ends; the endpoints are
    the context's, checked when it was made.  A ``pibullet`` context
    returns the running sums of the sequence of its ``pi`` context
    (Pi-bullet = Pi[z], z central of degree one, commuting with every
    idempotent).
    """
    ctx._check_degree(kmax)
    if ctx.flavor == "pibullet":
        return tuple(accumulate(hilbert_sequence(ctx._pi, kmax)))
    ends = ctx.endpoints()
    out = [0] * (kmax + 1)
    for j in ends:
        table = ctx.table(j)
        for k in range(kmax + 1):
            by_vertex = table.ensure(k).by_vertex
            out[k] += sum(len(by_vertex.get(i, ())) for i in ends)
    return tuple(out)


# ---------------------------------------------------------------------------
# slice classes and multiplication
# ---------------------------------------------------------------------------

@dataclass
class SliceClass:
    """An element of a slice, as coefficients over the quotient basis."""

    ctx: AlgebraContext
    i: object
    j: object
    k: int
    coeffs: tuple


def _expand_path_on(ctx, path, vec, right_end, level):
    """Left-multiply a sparse layer vector by a path, arrow by arrow."""
    table = ctx.table(right_end)
    for aid in reversed(path):
        level += 1
        layer = table.ensure(level)
        nxt = {}
        for c, val in vec.items():
            for t, x in layer.image(aid, c):
                nxt[t] = nxt.get(t, QQ.zero) + val * x
        vec = {c: v for c, v in nxt.items() if v}
    return vec


def multiply_classes(u, v):
    """Product u.v of composable classes (right-to-left composition)."""
    if u.ctx is not v.ctx:
        raise EndpointMismatch("classes from different algebra contexts")
    if u.j != v.i:
        raise EndpointMismatch(f"endpoint mismatch: {u.j} vs {v.i}")
    ctx = u.ctx
    layer_v, coords_v = ctx.slice_coords(v.i, v.j, v.k)
    acc = {}
    base = {c: x for c, x in zip(coords_v, v.coeffs) if x}
    upaths = ctx.slice_basis_paths(u.i, u.j, u.k)
    for x, p in zip(u.coeffs, upaths):
        if not x:
            continue
        vec = _expand_path_on(ctx, p, base, v.j, v.k)
        for c, val in vec.items():
            acc[c] = acc.get(c, QQ.zero) + x * val
    layer, coords = ctx.slice_coords(u.i, v.j, u.k + v.k)
    pos = {c: t for t, c in enumerate(coords)}
    out = [QQ.zero] * len(coords)
    for c, val in acc.items():
        if val:
            if layer.vertex_of[c] != u.i:
                raise EndpointMismatch("product escaped the expected vertex block")
            out[pos[c]] = val
    return SliceClass(ctx, u.i, v.j, u.k + v.k, tuple(out))


# ---------------------------------------------------------------------------
# Molien oracle
# ---------------------------------------------------------------------------

def molien_sequence(g, i, j, with_z, kmax):
    """Character-averaged dimension counts, independent of path algebra.

    Entry k is (1/|G|) sum_c |C_c| chi_i(c) chi_j(c^-1) c_k(c), summed
    over the conjugacy classes c, where c_k(c) is the degree-k coefficient
    of 1/(det(1 - t g) (1-t)^{with_z}) for any g in c.  It depends on g
    only through the trace chi_V(c): c_{k+1} = chi_V(c) c_k - c_{k-1}.
    Entry k is computed in GF(p), p = ``g.prime``, and lifted to an
    integer: it is the multiplicity of rho_j in rho_i (x) S^k V (summed
    over degrees up to k with z), at most d_i (k+1), or d_i (k+1)(k+2)/2
    with z.  A residue above its bound raises NonIntegralCoefficient; when
    the bound at ``kmax`` reaches p, DimensionTooLarge is raised before
    any work.  An irrep index outside ``range(g.num_irreps)`` raises
    InvalidDescriptor and a negative ``kmax`` InvalidArgument.
    """
    if not (0 <= i < g.num_irreps and 0 <= j < g.num_irreps):
        raise InvalidDescriptor(f"irrep index out of range: ({i}, {j})")
    if kmax < 0:
        raise InvalidArgument(f"degree must be nonnegative, got {kmax}")
    d = g.irrep_dims[i]

    def bound(k):
        return d * (k + 1) * (k + 2) // 2 if with_z else d * (k + 1)

    if bound(kmax) >= g.prime:
        raise DimensionTooLarge(
            f"Molien bound {bound(kmax)} at degree {kmax} reaches p = {g.prime}")
    per_class = []
    for tr in g.chi_v:
        coeffs = [1]
        for k in range(1, kmax + 1):
            coeffs.append((tr * coeffs[-1] - (coeffs[-2] if k >= 2 else 0)) % g.prime)
        if with_z:
            coeffs = list(accumulate(coeffs))
        per_class.append(coeffs)

    out = []
    for k in range(kmax + 1):
        val = character_inner(g, [coeffs[k] for coeffs in per_class], i, j)
        if val > bound(k):
            raise NonIntegralCoefficient(
                f"Molien coefficient {k} = {val} mod {g.prime}, above its bound {bound(k)}")
        out.append(val)
    return tuple(out)


# ---------------------------------------------------------------------------
# finiteness of the factor by the corner ideal
# ---------------------------------------------------------------------------

def factor_through_bound(g, corner):
    """Top degree of the factor of the plain flavor by the corner ideal.

    The factor by the two-sided ideal of classes passing through the
    corner is computed degree by degree, as path spaces modulo the
    relation span plus the span of paths visiting the corner.  It is
    generated in degree one, so its first zero degree certifies every
    higher one.  It is a product of Dynkin preprojective algebras of top
    degree at most h - 2, h the Coxeter number (Brenner-Butler-King), so
    BoundNotFound guards degree h - 1.
    """
    corner = frozenset(corner)
    if not corner:
        raise EmptyI("corner set must be nonempty")
    quiver = mckay_quiver(g)
    bad = [v for v in corner if v not in quiver.vertices]
    if bad:
        raise VertexNotInCorner(f"vertices {bad} not in the quiver")
    plan = _layer_plan(quiver, corner)
    tables = [_LayerTable(plan, j) for j in quiver.vertices if j not in corner]
    coxeter = sum(g.irrep_dims)
    for k in range(1, coxeter):
        if sum(t.ensure(k).dim for t in tables) == 0:
            return k - 1
    raise BoundNotFound(f"factor algebra nonzero in degree {coxeter - 1}")


# ---------------------------------------------------------------------------
# corner generation bound
# ---------------------------------------------------------------------------

def corner_generation_bound(ctx, corner):
    """Largest degree whose corner classes are not products of lower ones.

    A degree-k path between corner vertices with no corner vertex inside
    is a.q.b with arrows a, b and q a degree k - 2 path off the corner;
    once q is zero in the factor by the corner ideal, a.q.b is a sum of
    products of corner classes.  So every degree above
    ``factor_through_bound + 2`` is spanned by products, and the answer is
    the last degree up to that bound that is not.  It reads the layers of
    a ``pi`` context; a context whose degree cap is below the bound raises
    DegreeCapExceeded.  Used to size the generator tables of cornered
    modules.
    """
    corner = sorted(frozenset(corner), key=str)
    if not corner:
        raise EmptyI("corner set must be nonempty")
    if ctx.flavor != "pi":
        raise InvalidArgument("the generation certificate needs the pi flavor")

    def saturated(k):
        for i in corner:
            for j in corner:
                dim = ctx.slice_dim(i, j, k)
                if dim == 0:
                    continue
                ech = Echelon(QQ)
                for a in range(1, k):
                    for mid in corner:
                        coords = ctx.slice_coords(mid, j, k - a)[1]
                        for path in ctx.slice_basis_paths(i, mid, a):
                            for c in coords:
                                ech.insert(_expand_path_on(ctx, path, {c: QQ.one},
                                                           j, k - a))
                    if ech.rank == dim:
                        break
                if ech.rank < dim:
                    return False
        return True

    bound = factor_through_bound(ctx.group, corner) + 2
    return max((k for k in range(1, bound + 1) if not saturated(k)), default=0)
