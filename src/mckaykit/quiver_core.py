"""Doubled McKay quivers, framing, tripling, and stability parameters.

Conventions fixed here and used everywhere:

* an arrow ``a`` acts on a module as a linear map from the component at
  ``a.head`` to the component at ``a.tail`` (contravariant action), so a
  path, written as a product, composes right to left;
* the two arrows of an edge are bar partners; the one with the smaller
  id is the positively oriented member of the pair (sign +1);
* for series A the edges are created in cyclic orientation
  ``m -> m+1 (mod r+1)``, for D and E in the canonical layout order of
  :mod:`mckaykit.dynkin`;
* the framing vertex is :data:`INFINITY`;
* the relations are the signed vertex sums and, on a tripled quiver, loop
  commutation; :func:`relation_generators` is their one definition.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from . import dynkin
from .errors import (
    AlreadyFramed,
    AlreadyTripled,
    EmptyI,
    InvalidArgument,
    InvariantViolation,
)
from .linalg import QQ

INFINITY = "inf"


def vertex_sort_key(v):
    return (1, 0) if v == INFINITY else (0, v)


@dataclass(frozen=True)
class Arrow:
    id: int
    tail: object
    head: object


@dataclass
class Quiver:
    """A doubled quiver, optionally framed and/or tripled.

    ``bar`` pairs the two orientations of each edge; loop arrows (from
    tripling) have no bar partner and are recorded in ``loops``.
    ``framing`` maps non-framing vertices to their multiplicities w_i when
    the quiver is framed, a missing vertex counting as 0; it names no other
    key, and each w_i is the number of bar pairs between i and the framing
    vertex.  No vertex and no arrow id is listed twice.  Instances are
    treated as immutable.
    """

    vertices: tuple
    arrows: tuple
    bar: dict
    loops: dict = field(default_factory=dict)
    framing: Optional[dict] = None
    group: Optional[str] = None

    def __post_init__(self):
        self._relation_generators = None  # filled by relation_generators
        if len(set(self.vertices)) != len(self.vertices):
            repeated = list(dict.fromkeys(v for v in self.vertices
                                          if self.vertices.count(v) > 1))
            raise InvariantViolation(f"repeated vertices {repeated}")
        self._by_id = {a.id: a for a in self.arrows}
        if len(self._by_id) != len(self.arrows):
            ids = [a.id for a in self.arrows]
            repeated = list(dict.fromkeys(aid for aid in ids if ids.count(aid) > 1))
            raise InvariantViolation(f"repeated arrow ids {repeated}")
        self._by_tail = {v: [] for v in self.vertices}
        for a in self.arrows:
            self._by_tail[a.tail].append(a)
        for aid, bid in self.bar.items():
            a, b = self._by_id[aid], self._by_id[bid]
            if self.bar.get(bid) != aid or aid == bid:
                raise InvariantViolation("bar is not a fixed-point-free involution")
            if a.tail != b.head or a.head != b.tail:
                raise InvariantViolation("bar partner does not swap tail and head")
        if self.framing is not None:
            if self.vertices.count(INFINITY) != 1:
                raise InvariantViolation("framed quiver needs one framing vertex")
            plain = self.plain_vertices
            for v in self.framing:
                if v not in plain:
                    raise InvariantViolation(f"framing names {v!r}, not a plain vertex")
            for v in plain:
                w = self.framing.get(v, 0)
                found = sum(
                    1 for a in self._by_tail[INFINITY]
                    if a.head == v and a.id in self.bar
                )
                if found != w:
                    raise InvariantViolation(
                        f"framing multiplicity at {v}: {found} arrows, expected {w}"
                    )

    @property
    def is_framed(self):
        return self.framing is not None

    @property
    def is_tripled(self):
        return bool(self.loops)

    @property
    def plain_vertices(self):
        return tuple(v for v in self.vertices if v != INFINITY)

    def arrow(self, aid):
        return self._by_id[aid]

    def arrows_with_tail(self, v):
        return tuple(self._by_tail[v])

    def non_loop_arrows(self):
        return tuple(a for a in self.arrows if a.id in self.bar)

    def sign(self, aid):
        """+1 for the positively oriented member of a bar pair, else -1."""
        return 1 if aid < self.bar[aid] else -1

    def pair_count(self, i, j):
        """Number of edges (bar pairs) between two vertices."""
        return sum(
            1 for a in self._by_tail[i] if a.head == j and a.id in self.bar
        )

    def adjacency(self):
        verts = self.plain_vertices
        return tuple(tuple(self.pair_count(i, j) for j in verts) for i in verts)


@dataclass(frozen=True)
class DimVector:
    """Vertex-indexed natural numbers, with an optional framing entry."""

    components: dict
    at_infinity: Optional[int] = None

    def __post_init__(self):
        if any(x < 0 for x in self.components.values()):
            raise InvariantViolation("negative dimension entry")
        if self.at_infinity is not None and self.at_infinity < 0:
            raise InvariantViolation("negative dimension at the framing vertex")

    def get(self, v):
        if v == INFINITY:
            return 0 if self.at_infinity is None else self.at_infinity
        return self.components.get(v, 0)

    def total(self):
        return sum(self.components.values()) + (self.at_infinity or 0)

    def restrict(self, subset):
        return {v: self.get(v) for v in subset}

    def as_dict(self):
        d = dict(self.components)
        if self.at_infinity is not None:
            d[INFINITY] = self.at_infinity
        return d


@dataclass(frozen=True)
class StabilityParam:
    """Rational weights on the vertices, including the framing vertex.

    The pairing with a dimension vector is exact, and an ``int`` when it is
    integral.
    """

    values: dict

    def __call__(self, dims):
        return sum(QQ.from_fraction(weight) * dims.get(v)
                   for v, weight in self.values.items())


class RelGen(NamedTuple):
    """Degree-2 relation generator: sum of signed two-arrow paths."""

    tgt: object
    src: object
    terms: tuple  # ((coeff, (first_arrow_id, second_arrow_id)), ...)


def relation_generators(quiver):
    """Vertex commutator sums sum_{tail(a)=v} sign(a) a.abar, in vertex
    order, then, when tripled, the loop commutation z_tail a - a z_head of
    each non-loop arrow.  A tripled quiver whose arrow ends at a vertex
    without a loop raises InvalidArgument on every call; the tuple is kept
    on the quiver."""
    if quiver._relation_generators is not None:
        return quiver._relation_generators
    gens = []
    bar, sign = quiver.bar, quiver.sign
    for v in quiver.vertices:
        terms = tuple((sign(a.id), (a.id, bar[a.id]))
                      for a in quiver.arrows_with_tail(v) if a.id in bar)
        if terms:
            gens.append(RelGen(v, v, terms))
    if quiver.is_tripled:
        loops = quiver.loops
        for a in quiver.non_loop_arrows():
            if a.tail not in loops or a.head not in loops:
                raise InvalidArgument(f"arrow {a.id} of a tripled quiver ends "
                                      "at a vertex without a loop")
            gens.append(RelGen(a.tail, a.head, (
                (1, (loops[a.tail], a.id)), (-1, (a.id, loops[a.head])))))
    quiver._relation_generators = gens = tuple(gens)
    return gens


def mckay_quiver(g):
    """Doubled McKay quiver of the group, vertices 0..r in canonical order."""
    mult = g.mckay_matrix
    n = g.num_irreps
    for i in range(n):
        if mult[i][i] != 0:
            raise InvariantViolation("self-loop multiplicity in McKay graph")
    expected = {}
    for i in range(n):
        for j in range(i + 1, n):
            if mult[i][j]:
                expected[(i, j)] = mult[i][j]
    layout = list(dynkin.edge_list(g.descriptor.series, g.descriptor.rank))
    counts = {}
    for a, b in layout:
        key = (min(a, b), max(a, b))
        counts[key] = counts.get(key, 0) + 1
    if counts != expected:
        raise InvariantViolation("character multiplicities disagree with layout")

    arrows = []
    bar = {}
    next_id = 0
    for tail, head in layout:
        a = Arrow(next_id, tail, head)
        b = Arrow(next_id + 1, head, tail)
        arrows.extend([a, b])
        bar[a.id] = b.id
        bar[b.id] = a.id
        next_id += 2
    return Quiver(
        vertices=tuple(range(n)),
        arrows=tuple(arrows),
        bar=bar,
        group=g.descriptor.label,
    )


def frame_quiver(q, w):
    """Attach the framing vertex with w_i bar pairs to each vertex i.

    ``w`` maps vertices of ``q`` to nonnegative ints; any other key or
    value raises InvalidArgument."""
    if q.is_framed:
        raise AlreadyFramed("quiver already has a framing vertex")
    if isinstance(w, DimVector):
        if w.at_infinity is not None:
            raise InvariantViolation("framing multiplicities carry no framing entry")
        wdict = dict(w.components)
    else:
        wdict = dict(w)
    for v, m in wdict.items():
        if v not in q.vertices:
            raise InvalidArgument(f"framing names vertex {v!r}, not in the quiver")
        if isinstance(m, bool) or not isinstance(m, int) or m < 0:
            raise InvalidArgument(
                f"framing multiplicity at {v} must be a nonnegative integer, got {m!r}")
    arrows = list(q.arrows)
    bar = dict(q.bar)
    next_id = max((a.id for a in q.arrows), default=-1) + 1
    for v in q.vertices:
        for _ in range(wdict.get(v, 0)):
            a = Arrow(next_id, v, INFINITY)
            b = Arrow(next_id + 1, INFINITY, v)
            arrows.extend([a, b])
            bar[a.id] = b.id
            bar[b.id] = a.id
            next_id += 2
    return Quiver(
        vertices=q.vertices + (INFINITY,),
        arrows=tuple(arrows),
        bar=bar,
        loops=dict(q.loops),
        framing={v: wdict.get(v, 0) for v in q.vertices},
        group=q.group,
    )


def triple_quiver(q):
    """Add one loop per vertex (the degree-one central elements)."""
    if q.is_tripled:
        raise AlreadyTripled("quiver already has loops")
    if q.is_framed:
        raise AlreadyFramed("triple the quiver before framing")
    arrows = list(q.arrows)
    next_id = max((a.id for a in q.arrows), default=-1) + 1
    loops = {}
    for v in q.vertices:
        arrows.append(Arrow(next_id, v, v))
        loops[v] = next_id
        next_id += 1
    return Quiver(
        vertices=q.vertices,
        arrows=tuple(arrows),
        bar=dict(q.bar),
        loops=loops,
        group=q.group,
    )


def theta_I(corner, v):
    """Stability parameter: 1 on the corner, 0 elsewhere, balanced at infinity."""
    corner = frozenset(corner)
    if not corner:
        raise EmptyI("corner set must be nonempty")
    missing = [i for i in corner if i not in v.components]
    if missing:
        raise InvariantViolation(f"dimension vector lacks corner vertices {missing}")
    values = {i: 0 for i in v.components}
    for i in corner:
        values[i] = 1
    values[INFINITY] = -sum(v.components[i] for i in corner)
    return StabilityParam(values)


def delta(g):
    """The affine marks vector: dimensions of the irreducibles."""
    return DimVector(components={i: d for i, d in enumerate(g.irrep_dims)})
