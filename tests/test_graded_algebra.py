"""Graded slices, Hilbert sequences, the character oracle, class products."""

import functools
import hashlib
from fractions import Fraction
from itertools import accumulate
from types import SimpleNamespace

import pytest

from helpers import cyclic_invariant_count, invariant_dim_by_projector, pathspace_slice_dims
from mckaykit import graded_algebra
from mckaykit.cli import main
from mckaykit.corner_functors import pi_context
from mckaykit.errors import (
    DegreeCapExceeded,
    EndpointMismatch,
    InvalidArgument,
    InvalidDescriptor,
    VertexNotInCorner,
)
from mckaykit.gamma_data import build_group
from mckaykit.graded_algebra import (
    AlgebraContext,
    SliceClass,
    _LayerTable,
    _layer_plan,
    _expand_path_on,
    corner_generation_bound,
    factor_through_bound,
    hilbert_sequence,
    molien_sequence,
    multiply_classes,
)
from mckaykit.linalg import QQ, Echelon
from mckaykit.quiver_core import mckay_quiver, relation_generators, triple_quiver


@pytest.fixture(scope="module")
def a1():
    return build_group("A1")


@pytest.fixture(scope="module")
def a1_bullet(a1):
    return AlgebraContext(a1, "pibullet")


def test_slice_examples(a1, a1_bullet):
    assert a1_bullet.slice_dim(0, 0, 0) == 1  # the vertex idempotent
    cornered = AlgebraContext(a1, "pibullet", corner={0})
    # degree-two invariants of the sign action with a fixed variable:
    # x^2, xy, y^2, z^2
    assert cornered.slice_dim(0, 0, 2) == 4
    plain = AlgebraContext(a1, "pi")
    assert plain.slice_dim(0, 0, 1) == 0  # no length-one loops


def test_slice_pathspace_invariant():
    """Every pibullet slice, a running sum of pi slices, is the rank
    deficit of the explicit two-sided relation span on the tripled quiver,
    whose loops commute with every arrow."""
    for label, kmax in (("A1", 6), ("A2", 5), ("D4", 4), ("E6", 3)):
        g = build_group(label)
        bullet = AlgebraContext(g, "pibullet")
        tripled = triple_quiver(mckay_quiver(g))
        relgens = relation_generators(tripled)
        for j in tripled.vertices:
            dims = pathspace_slice_dims(tripled, relgens, j, kmax)
            for k, by_end in enumerate(dims):
                for i, dim in by_end.items():
                    assert bullet.slice_dim(i, j, k) == dim, (label, i, j, k)


def test_hilbert_examples(a1):
    cornered = AlgebraContext(a1, "pibullet", corner={0})
    assert hilbert_sequence(cornered, 4) == (1, 1, 4, 4, 9)
    for label in ["A1", "A3", "D4"]:
        g = build_group(label)
        ctx = AlgebraContext(g, "pibullet")
        assert hilbert_sequence(ctx, 0) == (g.num_irreps,)
    # cornered dims bounded by uncornered degreewise
    full = AlgebraContext(a1, "pibullet")
    hs_c = hilbert_sequence(cornered, 6)
    hs_f = hilbert_sequence(full, 6)
    assert all(c <= f for c, f in zip(hs_c, hs_f))


@pytest.mark.parametrize("corner", [None, {0}, {0, 1}], ids=["none", "0", "01"])
@pytest.mark.parametrize("label", ["A1", "A2", "A3", "A4", "A5", "D4", "D5",
                                   "D6", "D7", "E6", "E7", "E8"])
def test_pibullet_engine_is_pi_with_z(label, corner):
    """Pi-bullet = Pi[z]: a pibullet context is a dimensions-only view of
    the pi context with the same corner.  Each slice e_i Pi-bullet_k e_j
    has dimension sum_{m<=k} dim e_i Pi_m e_j, ``hilbert_sequence`` sums
    them, and the context builds no layer table and refuses every request
    for layers or slice coordinates."""
    g = build_group(label)
    kmax = 8 if label[0] == "E" else 10
    bullet = AlgebraContext(g, "pibullet", corner=corner)
    plain = AlgebraContext(g, "pi", corner=corner)
    ends = bullet.endpoints()
    assert ends == plain.endpoints()
    hilbert = hilbert_sequence(bullet, kmax)
    total = [0] * (kmax + 1)
    for i in ends:
        for j in ends:
            running = accumulate(plain.slice_dim(i, j, k) for k in range(kmax + 1))
            for k, want in enumerate(running):
                assert bullet.slice_dim(i, j, k) == want, (i, j, k)
                total[k] += want
    assert hilbert == tuple(total)
    i = ends[0]
    with pytest.raises(InvalidArgument):
        bullet.layer(i, 1)
    with pytest.raises(InvalidArgument):
        bullet.slice_coords(i, i, 1)
    with pytest.raises(InvalidArgument):
        bullet.slice_basis_paths(i, i, 0)
    assert bullet._tables == {}


def _canonical_lmul_in(layer):
    """The arrow images of a layer, per arrow with a slot and per class of
    the previous layer at its head, in the sorted form the digests below
    were computed on."""
    return sorted(
        (aid, sorted(
            (c, tuple(sorted((t, str(Fraction(v))) for t, v in layer.image(aid, c) if v)))
            for c in layer.prev.by_vertex[layer.arrows[aid][0]]))
        for aid in layer.images
    )


#: sha256 of every layer of ``pi`` on A1, A3, D4, D5, E6 and E7 to degree
#: 7, in the canonical form of ``test_layer_identity``.  The value was
#: computed when the ``pibullet`` flavor still had tripled-quiver layers of
#: its own, by the same code with those layers left out, so it pins the
#: ``pi`` layers across that change.
LAYER_DIGEST = "168f25f650a775dd84d400d1b657a600e2f605cd1dda61b940fac26135340afd"


def test_layer_identity():
    digest = hashlib.sha256()
    for label in ("A1", "A3", "D4", "D5", "E6", "E7"):
        g = build_group(label)
        ctx = AlgebraContext(g, "pi")
        for j in ctx.quiver.vertices:
            for k in range(8):
                layer = ctx.layer(j, k)
                digest.update(repr((label, "pi", j, k, layer.paths,
                                    layer.vertex_of,
                                    _canonical_lmul_in(layer))).encode())
    assert digest.hexdigest() == LAYER_DIGEST


#: sha256 of the layers ``LAYER_DIGEST`` does not reach, with their
#: ``by_vertex`` blocks in order: ``pi`` on E8 at every right end to degree
#: 16, ``piw`` on A2 with w = Lambda_0 at every right end (inf too) to
#: degree 10, and the tables ``factor_through_bound`` builds for D4 and E6
#: with the corner {0} killed, to degree h - 1.  The value was computed
#: before the layer builder wrote its blocks in the same pass as its paths.
FRAMED_AND_KILLED_LAYER_DIGEST = (
    "246ab9992d5eca06b9f962e3508e1ca44a83669d26aed764016b4f40173a1754")


def _framed_and_killed_tables():
    ctx = AlgebraContext(build_group("E8"), "pi")
    for j in ctx.quiver.vertices:
        yield ("E8", "pi", j), ctx.table(j), 16
    ctx = AlgebraContext(build_group("A2"), "piw", w={0: 1})
    for j in ctx.quiver.vertices:
        yield ("A2", "piw", j), ctx.table(j), 10
    for label in ("D4", "E6"):
        g = build_group(label)
        quiver = mckay_quiver(g)
        plan = _layer_plan(quiver, frozenset({0}))
        for j in quiver.vertices:
            if j != 0:
                table = _LayerTable(plan, j)
                yield (label, "kill0", j), table, sum(g.irrep_dims) - 1


def test_layer_identity_framed_e8_and_killed():
    digest = hashlib.sha256()
    for key, table, kmax in _framed_and_killed_tables():
        for k in range(kmax + 1):
            layer = table.ensure(k)
            digest.update(repr((key, k, layer.paths, layer.vertex_of,
                                [(v, list(coords))
                                 for v, coords in layer.by_vertex.items()],
                                _canonical_lmul_in(layer))).encode())
    assert digest.hexdigest() == FRAMED_AND_KILLED_LAYER_DIGEST


def _compact_tables():
    """``pi`` on A2, D4 and E6 at every right end to degree 10, ``piw`` on
    A2 with w = Lambda_0 to degree 8, and the tables ``factor_through_bound``
    builds for D4 and E6 with the corner {0} killed, to degree h - 1; each
    with the quiver and a context whose ``table`` reads it."""
    for label in ("A2", "D4", "E6"):
        ctx = AlgebraContext(build_group(label), "pi")
        for j in ctx.quiver.vertices:
            yield ctx, ctx.quiver, j, 10
    ctx = AlgebraContext(build_group("A2"), "piw", w={0: 1})
    for j in ctx.quiver.vertices:
        yield ctx, ctx.quiver, j, 8
    for label in ("D4", "E6"):
        g = build_group(label)
        quiver = mckay_quiver(g)
        plan = _layer_plan(quiver, frozenset({0}))
        for j in quiver.vertices:
            if j != 0:
                table = _LayerTable(plan, j)
                ctx = SimpleNamespace(table=lambda _, t=table: t)
                yield ctx, quiver, j, sum(g.irrep_dims) - 1


def test_compact_layers_rebuild_paths_and_images():
    """A layer keeps each class as an arrow and a parent class, and the
    arrow images as one tuple per arrow aligned with the previous layer's
    block at its head.  Expanding a class's path from the degree-0 class
    gives exactly that class's unit vector; its path is the chain of arrow
    ids through the parents; and the image accessor is ``()`` at a class
    away from the arrow's head and for an arrow with no slot."""
    for ctx, quiver, j, kmax in _compact_tables():
        table = ctx.table(j)
        table.ensure(kmax)
        for k, layer in enumerate(table.layers[:kmax + 1]):
            chains = []
            for c in range(layer.dim):
                chain, t = [], c
                for m in range(k, 0, -1):
                    chain.append(table.layers[m].arrow_of[t])
                    t = table.layers[m].parent_of[t]
                assert t == 0
                chains.append(tuple(chain))
                assert _expand_path_on(ctx, chains[c], {0: QQ.one}, j, 0) == {c: QQ.one}
                assert layer.path(c) == chains[c]
            if isinstance(ctx, AlgebraContext):
                for i, coords in layer.by_vertex.items():
                    assert ctx.slice_basis_paths(i, j, k) == tuple(chains[c] for c in coords)
            if k == 0:
                assert layer.images == {}
                continue
            prev = table.layers[k - 1]
            for aid, (head, _) in table.arrows.items():
                block = prev.by_vertex.get(head, ())
                if not block:
                    assert aid not in layer.images
                else:
                    assert len(layer.images[aid]) == len(block)
                for c in range(prev.dim):
                    if prev.vertex_of[c] != head:
                        assert layer.image(aid, c) == ()
            for a in quiver.arrows:
                if a.id not in table.arrows:  # a killed arrow has no slot
                    assert all(layer.image(a.id, c) == () for c in range(prev.dim))


@pytest.mark.parametrize("corner", [None, {0}, {0, 1}], ids=["none", "0", "01"])
@pytest.mark.parametrize("flavor", ["pi", "piw", "pibullet"])
@pytest.mark.parametrize("label", ["A1", "A3", "D4", "E6"])
def test_hilbert_sequence_sums_slices(label, flavor, corner):
    g = build_group(label)
    w = {0: 1} if flavor == "piw" else None
    kmax = 8
    hilbert = hilbert_sequence(AlgebraContext(g, flavor, w=w, corner=corner), kmax)
    ctx = AlgebraContext(g, flavor, w=w, corner=corner)
    ends = ctx.endpoints()
    assert hilbert == tuple(
        sum(ctx.slice_dim(i, j, k) for i in ends for j in ends)
        for k in range(kmax + 1))


def empty_pi_store(monkeypatch):
    """Give the test a per-label store of ``pi`` layer tables that starts
    empty."""
    monkeypatch.setattr(graded_algebra, "_pi_tables", functools.lru_cache(
        maxsize=None)(graded_algebra._pi_tables.__wrapped__))


@pytest.mark.parametrize("flavor", ["pi", "piw", "pibullet"])
def test_hilbert_sequence_refusals(a1, flavor, monkeypatch):
    empty_pi_store(monkeypatch)
    w = {0: 1} if flavor == "piw" else None
    ctx = AlgebraContext(a1, flavor, w=w, degree_cap=3)
    with pytest.raises(DegreeCapExceeded):
        hilbert_sequence(ctx, 4)
    with pytest.raises(InvalidArgument):
        hilbert_sequence(ctx, -1)
    tables = ctx._pi._tables if flavor == "pibullet" else ctx._tables
    assert tables == {}
    assert (ctx._pi if flavor == "pibullet" else ctx)._store == {}
    assert len(hilbert_sequence(ctx, 3)) == 4


def test_accessors_refuse_vertex_outside_quiver(monkeypatch):
    empty_pi_store(monkeypatch)
    ctx = AlgebraContext(build_group("A2"), "pi")
    calls = [
        lambda: ctx.table(7),
        lambda: ctx.layer(7, 1),
        lambda: ctx.slice_coords(0, 7, 2),
        lambda: ctx.slice_coords(7, 0, 2),
        lambda: ctx.slice_basis_paths(0, 7, 2),
        lambda: ctx.slice_basis_paths(7, 0, 2),
    ]
    for call in calls:
        with pytest.raises(VertexNotInCorner, match="vertex 7 not in the quiver"):
            call()
    assert ctx._tables == {}
    assert ctx._store == {}
    cornered = AlgebraContext(build_group("A2"), "pi", corner={0})
    assert cornered.layer(1, 1).dim == 2
    assert cornered.slice_basis_paths(2, 1, 1) != ()


@pytest.mark.parametrize("label", ["A2", "D4", "E6"])
def test_pi_contexts_share_one_table_per_right_end(label):
    """Every ``pi`` context of a group, whatever its corner and cap, the
    ``pi`` context of a ``pibullet`` one and the corner functors' context
    read one layer table per right end; a ``piw`` context, whose layers
    depend on w, builds its own.  A context still refuses degrees above
    its own cap that another context has built."""
    g = build_group(label)
    plain = AlgebraContext(g, "pi")
    cornered = AlgebraContext(g, "pi", corner={0}, degree_cap=8)
    bullet = AlgebraContext(g, "pibullet", corner={0}, degree_cap=8)
    framed = AlgebraContext(g, "piw", w={0: 1})
    for j in plain.quiver.vertices:
        table = plain.table(j)
        assert cornered.table(j) is table
        assert bullet._pi.table(j) is table
        assert pi_context(g).table(j) is table
        assert framed.table(j) is not table
    assert plain.layer(0, 12) is cornered.table(0).layers[12]
    with pytest.raises(DegreeCapExceeded):
        cornered.layer(0, 9)
    with pytest.raises(DegreeCapExceeded):
        hilbert_sequence(bullet, 9)


HILBERT_ORDER_COMMANDS = ("--algebra pi --kmax 16",
                          "--algebra pibullet --kmax 12",
                          "--algebra pibullet --corner 0 --kmax 16")


def test_hilbert_lines_independent_of_call_order(capsys, monkeypatch):
    """In one process with an empty layer store, the ``hilbert`` lines of
    E6 and E7 are the same whichever of the three commands runs first and
    reads the tables the others extend."""
    outputs = {}
    for first in range(len(HILBERT_ORDER_COMMANDS)):
        empty_pi_store(monkeypatch)
        order = HILBERT_ORDER_COMMANDS[first:] + HILBERT_ORDER_COMMANDS[:first]
        for label in ("E6", "E7"):
            for command in order:
                assert main(["hilbert", label, *command.split()]) == 0
                outputs.setdefault((label, command), set()).add(
                    capsys.readouterr().out)
    assert all(len(lines) == 1 for lines in outputs.values()), outputs


def test_corner_requires_member_vertices(a1):
    ctx = AlgebraContext(a1, "pibullet", corner={0})
    with pytest.raises(VertexNotInCorner):
        ctx.slice_dim(1, 0, 2)
    with pytest.raises(VertexNotInCorner):
        AlgebraContext(a1, "pibullet", corner={7})


def test_degree_cap(a1):
    ctx = AlgebraContext(a1, "pibullet", degree_cap=5)
    with pytest.raises(DegreeCapExceeded):
        ctx.slice_dim(0, 0, 6)
    with pytest.raises(DegreeCapExceeded):
        hilbert_sequence(ctx, 6)


def test_molien_examples(a1):
    assert molien_sequence(a1, 0, 0, True, 4) == (1, 1, 4, 4, 9)
    for label in ["A2", "D4"]:
        g = build_group(label)
        assert molien_sequence(g, 0, 0, False, 0) == (1,)
    assert molien_sequence(a1, 0, 1, False, 1)[1] == 2
    # C[x, y]^G for the binary tetrahedral group has Klein's invariants in
    # degrees 6, 8, 12; the central z adds its powers
    assert molien_sequence(build_group("E6"), 0, 0, True, 8) == (
        1, 1, 1, 1, 1, 1, 2, 2, 3)


@pytest.mark.parametrize("i,j", [(0, -1), (-1, 0), (2, 0), (0, 5)])
def test_molien_sequence_refuses_irrep_out_of_range(a1, i, j):
    """An index outside ``range(num_irreps)`` is refused, as
    ``tensor_multiplicity`` refuses it; Python's negative indexing would
    read the last irrep."""
    with pytest.raises(InvalidDescriptor, match="irrep index out of range"):
        molien_sequence(a1, i, j, False, 3)


def test_molien_sequence_refuses_negative_degree(a1):
    with pytest.raises(InvalidArgument, match="nonnegative"):
        molien_sequence(a1, 0, 0, True, -1)
    assert molien_sequence(a1, 0, 0, True, 0) == (1,)


@pytest.mark.parametrize("label", ["A1", "A2", "D4"])
def test_oracle_agreement_small(label):
    g = build_group(label)
    n = g.num_irreps
    for flavor, with_z in [("pi", False), ("pibullet", True)]:
        ctx = AlgebraContext(g, flavor)
        for i in range(n):
            for j in range(n):
                mol = molien_sequence(g, i, j, with_z, 6)
                assert mol == tuple(ctx.slice_dim(i, j, k) for k in range(7))


def test_cornered_invariant_ring_identity(a1):
    cornered = AlgebraContext(a1, "pibullet", corner={0})
    hs = hilbert_sequence(cornered, 6)
    for k in range(7):
        assert hs[k] == cyclic_invariant_count(2, k, with_z=True)
        assert hs[k] == invariant_dim_by_projector(a1, k, with_z=True)


def test_factor_through_bound_values():
    assert factor_through_bound(build_group("A1"), {0, 1}) == 0
    # golden values recorded from the first verified run
    assert factor_through_bound(build_group("A1"), {0}) == 0
    assert factor_through_bound(build_group("A2"), {0}) == 1
    assert factor_through_bound(build_group("A3"), {0}) == 2


def test_class_multiplication(a1):
    a1_pi = AlgebraContext(a1, "pi")
    e0 = SliceClass(a1_pi, 0, 0, 0, (1,))
    assert multiply_classes(e0, e0).coeffs == e0.coeffs
    assert a1_pi.slice_dim(0, 1, 1) == 2
    u = SliceClass(a1_pi, 0, 1, 1, (1, 0))
    e1 = SliceClass(a1_pi, 1, 1, 0, (1,))
    assert multiply_classes(u, e1).coeffs == u.coeffs
    assert multiply_classes(e0, u).coeffs == u.coeffs
    with pytest.raises(EndpointMismatch):
        multiply_classes(u, u)


def test_relation_class_reduces_to_zero(a1):
    """The signed vertex sum of two-step loops is zero in the algebra."""
    ctx = AlgebraContext(a1, "pi")
    quiver = ctx.quiver
    for v in quiver.vertices:
        total = {}
        for a in quiver.arrows_with_tail(v):
            path = (a.id, quiver.bar[a.id])
            for c, val in _expand_path_on(ctx, path, {0: 1}, v, 0).items():
                total[c] = total.get(c, 0) + quiver.sign(a.id) * val
        assert total and not any(total.values())


def test_associativity_sample(a1):
    a1_pi = AlgebraContext(a1, "pi")
    slices = [(0, 1, 1), (1, 0, 1), (0, 1, 3)]
    assert [a1_pi.slice_dim(*s) for s in slices] == [2, 2, 4]
    u = SliceClass(a1_pi, 0, 1, 1, (1, 0))
    v = SliceClass(a1_pi, 1, 0, 1, (0, 1))
    w = SliceClass(a1_pi, 0, 1, 3, (0, 1, 0, 0))
    left = multiply_classes(multiply_classes(u, v), w)
    right = multiply_classes(u, multiply_classes(v, w))
    assert left.coeffs == right.coeffs == (0, 0, 0, 0, 0, -1)


def test_generation_bound_examples():
    a1 = build_group("A1")
    assert corner_generation_bound(AlgebraContext(a1, "pi"), {0}) == 2
    a3 = build_group("A3")
    assert corner_generation_bound(AlgebraContext(a3, "pi"), {0}) == 4


#: Degrees of Klein's generating invariants of C[x, y]^G, which are the
#: degrees of the new corner classes at {0}
KLEIN_DEGREES = {
    "A1": (2, 2, 2), "A2": (2, 3, 3), "A3": (2, 4, 4), "A4": (2, 5, 5),
    "D4": (4, 4, 6), "D5": (4, 6, 8), "D6": (4, 8, 10), "D7": (4, 10, 12),
    "E6": (6, 8, 12), "E7": (8, 12, 18), "E8": (12, 20, 30),
}


def _new_corner_classes(ctx, k):
    """dim of the degree-k slice at {0} minus the rank of the products of
    lower-degree classes in it."""
    dim = ctx.slice_dim(0, 0, k)
    ech = Echelon(QQ)
    for a in range(1, k):
        coords = ctx.slice_coords(0, 0, k - a)[1]
        for path in ctx.slice_basis_paths(0, 0, a):
            for c in coords:
                ech.insert(_expand_path_on(ctx, path, {c: QQ.one}, 0, k - a))
    return dim - ech.rank


@pytest.mark.parametrize("label", sorted(KLEIN_DEGREES))
def test_generation_bound_is_coxeter_number_at_vertex_zero(label):
    """At {0} the corner algebra is C[x, y]^G: its generators sit in
    Klein's degrees, the largest being the Coxeter number h."""
    g = build_group(label)
    h = sum(g.irrep_dims)
    ctx = AlgebraContext(g, "pi", degree_cap=h)
    assert corner_generation_bound(ctx, {0}) == h
    new = {k: _new_corner_classes(ctx, k) for k in range(1, h + 1)}
    klein = KLEIN_DEGREES[label]
    assert {k: n for k, n in new.items() if n} == {
        k: klein.count(k) for k in klein}


@pytest.mark.parametrize("label,corner,degree", [
    ("D6", {0, 1}, 8), ("D7", {0}, 12), ("D7", {0, 1}, 10),
    ("E7", {0, 1}, 10), ("E8", {0, 2}, 8),
])
def test_generation_bound_pinned(label, corner, degree):
    """Corners on which a window of saturated degrees stopped too early."""
    ctx = AlgebraContext(build_group(label), "pi", degree_cap=32)
    assert corner_generation_bound(ctx, corner) == degree


def test_generation_bound_refusals():
    e6 = build_group("E6")
    with pytest.raises(DegreeCapExceeded):
        corner_generation_bound(AlgebraContext(e6, "pi", degree_cap=8), {0})
    with pytest.raises(InvalidArgument):
        corner_generation_bound(AlgebraContext(e6, "piw", w={0: 1}), {0})


def test_framed_flavor_slices():
    g = build_group("A1")
    from mckaykit.quiver_core import INFINITY

    ctx = AlgebraContext(g, "piw", w={0: 1})
    assert ctx.slice_dim(INFINITY, INFINITY, 0) == 1
    assert ctx.slice_dim(0, INFINITY, 1) == 1
    assert hilbert_sequence(ctx, 0) == (3,)
