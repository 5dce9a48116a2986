"""Quiver construction, framing, tripling, stability parameters."""

import dataclasses

import pytest

from mckaykit.errors import (
    AlreadyFramed,
    AlreadyTripled,
    EmptyI,
    InvalidArgument,
    InvariantViolation,
)
from mckaykit.gamma_data import build_group, tensor_multiplicity
from mckaykit.quiver_core import (
    INFINITY,
    DimVector,
    delta,
    frame_quiver,
    mckay_quiver,
    theta_I,
    triple_quiver,
)


def test_mckay_a1():
    q = mckay_quiver(build_group("A1"))
    assert len(q.vertices) == 2
    assert len(q.arrows) == 4
    assert len(q.bar) == 4  # two bar pairs
    assert q.pair_count(0, 1) == 2


def test_mckay_a2_cycle():
    q = mckay_quiver(build_group("A2"))
    assert len(q.vertices) == 3
    assert len(q.arrows) == 6
    for i in range(3):
        for j in range(3):
            assert q.pair_count(i, j) == (1 if i != j else 0)


@pytest.mark.parametrize("label", ["A1", "A3", "D4", "D5", "E6"])
def test_arrow_count_is_total_multiplicity(label):
    g = build_group(label)
    q = mckay_quiver(g)
    n = g.num_irreps
    total = sum(tensor_multiplicity(g, i, j) for i in range(n) for j in range(n))
    assert len(q.arrows) == total


def test_bar_involution_properties():
    q = mckay_quiver(build_group("D4"))
    for aid, bid in q.bar.items():
        assert aid != bid
        assert q.bar[bid] == aid
        a, b = q.arrow(aid), q.arrow(bid)
        assert (a.tail, a.head) == (b.head, b.tail)
        assert q.sign(aid) == -q.sign(bid)


def test_adjacency_symmetric_connected():
    for label in ["A1", "A4", "D5", "E7"]:
        q = mckay_quiver(build_group(label))
        adj = q.adjacency()
        n = len(adj)
        assert all(adj[i][j] == adj[j][i] for i in range(n) for j in range(n))
        seen = {0}
        frontier = [0]
        while frontier:
            v = frontier.pop()
            for u in range(n):
                if adj[v][u] and u not in seen:
                    seen.add(u)
                    frontier.append(u)
        assert seen == set(range(n))


def test_frame_quiver():
    q = mckay_quiver(build_group("A1"))
    fq = frame_quiver(q, {0: 1})
    assert len(fq.vertices) == 3
    assert len(fq.arrows) == 6
    assert fq.framing == {0: 1, 1: 0}
    with pytest.raises(AlreadyFramed):
        frame_quiver(fq, {0: 1})


def test_frame_zero_and_multiplicities():
    q1 = mckay_quiver(build_group("A1"))
    fq = frame_quiver(q1, {})
    assert INFINITY in fq.vertices
    assert len(fq.arrows) == len(q1.arrows)

    q2 = mckay_quiver(build_group("A2"))
    fq2 = frame_quiver(q2, {0: 2, 2: 1})
    assert len(fq2.arrows) == len(q2.arrows) + 2 * 3  # three new bar pairs


def test_frame_quiver_refuses_bad_entries():
    """A key that is not a vertex of the unframed quiver, or a multiplicity
    that is not a nonnegative int, is refused instead of dropped."""
    q = mckay_quiver(build_group("A2"))
    for w in ({7: 1}, {INFINITY: 1}, {"0": 1}, {0: -1}, {0: 1.0}, {0: True},
              DimVector(components={0: 1, 5: 1})):
        with pytest.raises(InvalidArgument):
            frame_quiver(q, w)


@pytest.mark.parametrize("framing", [
    {}, {0: 0, 1: 0}, {0: 2, 1: 0}, {0: 1, 1: 1},
    {0: 1, 7: 0}, {0: 1, 1: 0, INFINITY: 0}, {0: 1, "0": 0},
], ids=["empty", "zeros", "too-many", "too-few", "vertex-7", "inf", "str-key"])
def test_quiver_refuses_framing_that_disagrees_with_arrows(framing):
    """A framed quiver's framing names plain vertices only, and lists at
    each of them, a missing one counting as 0, its number of framing bar
    pairs; A1 framed at 0 has one pair at 0 and none at 1."""
    fq = frame_quiver(mckay_quiver(build_group("A1")), {0: 1})
    with pytest.raises(InvariantViolation):
        dataclasses.replace(fq, framing=framing)
    assert dataclasses.replace(fq, framing={0: 1}).framing == {0: 1}


def test_quiver_and_dim_vector_equality():
    q = mckay_quiver(build_group("A2"))
    assert q == mckay_quiver(build_group("A2"))
    framed = frame_quiver(q, {0: 1, 1: 2})
    assert framed == frame_quiver(mckay_quiver(build_group("A2")), {0: 1, 1: 2})
    assert framed != frame_quiver(q, {0: 2, 1: 1})
    assert framed != q
    assert q != "A2"
    assert q != q.vertices
    v = DimVector(components={0: 1, 1: 2}, at_infinity=1)
    assert v == DimVector(components={0: 1, 1: 2}, at_infinity=1)
    assert v != DimVector(components={0: 1, 1: 2}, at_infinity=2)
    assert v != v.as_dict()
    assert DimVector(components={0: 1}) != DimVector(components={0: 1}, at_infinity=0)
    for unhashable in (q, v):
        with pytest.raises(TypeError):
            hash(unhashable)


def test_triple_quiver():
    q1 = mckay_quiver(build_group("A1"))
    t1 = triple_quiver(q1)
    assert len(t1.arrows) == 6
    q2 = mckay_quiver(build_group("A2"))
    t2 = triple_quiver(q2)
    assert len(t2.arrows) == 9
    for v, lid in t2.loops.items():
        a = t2.arrow(lid)
        assert a.tail == a.head == v
        assert lid not in t2.bar
    with pytest.raises(AlreadyTripled):
        triple_quiver(t1)


def test_theta_examples():
    v = DimVector(components={0: 2, 1: 1, 2: 1})
    th = theta_I({0}, v)
    assert th.values[INFINITY] == -2
    assert th.values[0] == 1
    assert th.values[1] == 0
    assert th.values[2] == 0

    v2 = DimVector(components={0: 1, 1: 1})
    th2 = theta_I({0, 1}, v2)
    assert th2.values[INFINITY] == -2
    assert th2.values[0] == th2.values[1] == 1

    with pytest.raises(EmptyI):
        theta_I(set(), v)


def test_theta_vanishes_on_total_dimension():
    import itertools

    verts = [0, 1, 2, 3]
    for comps in itertools.product(range(3), repeat=4):
        v = DimVector(components=dict(zip(verts, comps)), at_infinity=1)
        for corner in [{0}, {1, 3}, {0, 1, 2, 3}]:
            th = theta_I(corner, v)
            assert th(v) == 0


def test_delta_one_bar():
    g1 = build_group("A1")
    assert delta(g1).as_dict() == {0: 1, 1: 1}
    g4 = build_group("D4")
    assert delta(g4).as_dict() == {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}
    for label in ["A1", "D4", "E6"]:
        assert delta(build_group(label)).get(0) == 1  # the trivial vertex
