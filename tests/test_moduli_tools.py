"""Sufficiency, pushforwards, ADHM splitting, quotient correspondence."""

import dataclasses
import hashlib
from fractions import Fraction

import pytest

from helpers import count_framing_builds, stable_reps
from mckaykit.cli import main as cli_main
from mckaykit.errors import (
    MomentMapNonzero,
    NotAQuotient,
    NotEquivariant,
    NotStable,
    NotStableForSource,
)
from mckaykit.gamma_data import build_group
from mckaykit.io_formats import dump_json, fraction_to_str, rep_to_dict
from mckaykit.linalg import QQ, PrimeField, hom_space, zeros
from mckaykit.quiver_core import (
    DimVector,
    delta,
    frame_quiver,
    mckay_quiver,
    theta_I,
)
from mckaykit.rep_theory import (
    are_isomorphic,
    check_relations,
    is_stable,
    random_flat_rep,
    s_equivalent,
    zero_rep,
)
from mckaykit.corner_functors import (
    CorneredModule,
    cornered_mod_p,
    cornered_quotient,
)
from mckaykit.moduli_tools import (
    adhm_build_cyclic,
    check_quot_correspondence,
    dimension_bound_check,
    is_sufficient,
    minimal_sufficient_completion,
    quot_truncation_degree,
    truncated_corner_column,
    vgit_push_list,
    vgit_pushforward,
)


def test_sufficiency_basics():
    g1 = build_group("A1")
    q1 = mckay_quiver(g1)
    d = delta(g1)
    two_delta = DimVector(components={v: 2 * d.get(v) for v in q1.plain_vertices})
    for corner in ({0}, {1}, {0, 1}):
        assert is_sufficient(two_delta, corner, q1)
    assert is_sufficient(DimVector(components={0: 0, 1: 0}), {0}, q1)

    g2 = build_group("A2")
    q2 = mckay_quiver(g2)
    assert not is_sufficient(DimVector(components={0: 5, 1: 0, 2: 3}), {0}, q2)


@pytest.mark.parametrize("label", ["A1", "A2", "A3", "D4", "E6"])
def test_n_delta_sufficient(label):
    g = build_group(label)
    q = mckay_quiver(g)
    d = delta(g)
    for n in (1, 3):
        nd = DimVector(components={v: n * d.get(v) for v in q.plain_vertices})
        for corner in ({0}, set(q.plain_vertices)):
            assert is_sufficient(nd, corner, q)


def test_minimal_completion_full_corner():
    g = build_group("A2")
    q = mckay_quiver(g)
    v = minimal_sufficient_completion({0: 4, 1: 1, 2: 2}, {0, 1, 2}, q)
    assert v.as_dict() == {0: 4, 1: 1, 2: 2}


def test_minimal_completion_a1_against_search():
    g = build_group("A1")
    q = mckay_quiver(g)
    for n in range(4):
        got = minimal_sufficient_completion({0: n}, {0}, q)
        # brute-force the least sufficient extension over v1 <= 2n
        best = None
        for v1 in range(2 * n + 1):
            v = DimVector(components={0: n, 1: v1})
            if is_sufficient(v, {0}, q):
                best = v
                break
        assert best is not None
        assert got.as_dict() == best.as_dict()
        assert got.as_dict() == {0: n, 1: n}


@pytest.mark.parametrize("label,corner,v_corner", [
    ("A2", {0}, {0: 3}),
    ("A3", {0, 2}, {0: 2, 2: 1}),
    ("D4", {0}, {0: 2}),
])
def test_minimal_completion_is_minimal(label, corner, v_corner):
    g = build_group(label)
    q = mckay_quiver(g)
    got = minimal_sufficient_completion(v_corner, corner, q)
    assert is_sufficient(got, corner, q)
    for i in q.plain_vertices:
        if i in corner or got.get(i) == 0:
            continue
        smaller = dict(got.components)
        smaller[i] -= 1
        assert not is_sufficient(DimVector(components=smaller), corner, q)


def test_dimension_bound_infinity_only():
    g = build_group("A1")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    dims = DimVector(components={0: 0, 1: 0}, at_infinity=1)
    rep = zero_rep(q, dims)
    assert dimension_bound_check(rep, {0})


def test_dimension_bound_requires_stable():
    g = build_group("A1")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    dims = DimVector(components={0: 1, 1: 1}, at_infinity=1)
    rep = zero_rep(q, dims)
    with pytest.raises(NotStable):
        dimension_bound_check(rep, {0})


# ---------------------------------------------------------------------------
# ADHM
# ---------------------------------------------------------------------------

def test_adhm_zero_data():
    g = build_group("A1")
    rep = adhm_build_cyclic(g, [], [], [], [[]], [], [0])
    assert rep.dims.as_dict() == {0: 0, 1: 0, "inf": 1}
    theta = theta_I({0}, rep.dims)
    assert is_stable(rep, theta)


def test_adhm_stable_example():
    g = build_group("A1")
    b1 = [[0, 0], [0, 0]]
    b2 = [[0, 0], [1, 0]]
    rep = adhm_build_cyclic(g, b1, b2, [[1], [0]], [[0, 0]], [0, 1], [0])
    assert rep.dims.as_dict() == {0: 1, 1: 1, "inf": 1}
    assert is_stable(rep, theta_I({0, 1}, rep.dims))
    for mat in check_relations(rep).values():
        assert all(x == 0 for row in mat for x in row)


def test_adhm_a1_uses_both_edges():
    """A1's second edge runs 1 -> 0 with sign -1: the weight-0 -> 1 block
    of B1 lands on it, negated so the vertex relation is [B1, B2] + i.j."""
    g = build_group("A1")
    rep = adhm_build_cyclic(g, [[0, 0], [1, 0]], [[0, 0], [0, 0]],
                            [[1], [0]], [[0, 0]], [0, 1], [0])
    assert rep.matrix(3) == ((-1,),)
    # the two torus-fixed points of n = 1: C[x, y] / (x^2, y), (x, y^2)
    fixed = [rep, adhm_build_cyclic(g, [[0, 0], [0, 0]], [[0, 0], [1, 0]],
                                    [[1], [0]], [[0, 0]], [0, 1], [0])]
    assert [is_stable(r, theta_I({0, 1}, r.dims)) for r in fixed] == [True, True]
    swap = [[0, 1], [1, 0]]
    rep = adhm_build_cyclic(g, swap, swap, [[1], [0]], [[0, 0]], [0, 1], [0])
    for mat in check_relations(rep).values():
        assert all(x == 0 for row in mat for x in row)


def test_adhm_not_equivariant():
    g = build_group("A2")
    # b1 must lower the weight by one; a weight-preserving entry is rejected
    b1 = [[1]]
    with pytest.raises(NotEquivariant):
        adhm_build_cyclic(g, b1, [[0]], [[1]], [[0]], [0], [0])


def test_adhm_refuses_a_malformed_entry():
    g = build_group("A2")
    with pytest.raises(NotEquivariant, match=r"B2\[0\]\[0\] = 'x' is not a rational"):
        adhm_build_cyclic(g, [[0]], [["x"]], [[0]], [[0]], [0], [0])


def test_adhm_refuses_a_malformed_weight():
    g = build_group("A2")
    with pytest.raises(NotEquivariant, match="weight 'a' is not an integer"):
        adhm_build_cyclic(g, [[0]], [[0]], [[0]], [[0]], ["a"], [0])
    with pytest.raises(NotEquivariant, match="weight '%d' is not an integer"):
        adhm_build_cyclic(g, [[0]], [[0]], [[0]], [[0]], [0], ["%d"])


def test_adhm_moment_map_violation():
    g = build_group("A2")
    b1 = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]  # lowers: weight 1 -> 0? see below
    # weights 0,1,2: b1[r][c] nonzero needs w_r = w_c - 1: entry (1,0) has
    # w_1 = 1, w_0 - 1 = -1 = 2 mod 3: not equivariant; use (0,1) instead
    b1 = [[0, 1, 0], [0, 0, 0], [0, 0, 0]]
    b2 = [[0, 0, 0], [1, 0, 0], [0, 0, 0]]
    # [b1, b2] has a nonzero top-left block and i.j = 0
    with pytest.raises(MomentMapNonzero):
        adhm_build_cyclic(g, b1, b2, [[0], [0], [0]], [[0, 0, 0]], [0, 1, 2], [0])


def test_adhm_framing_relation_refused():
    """[B1, B2] + i.j = 0 holds, but framing coordinate 0 carries
    j[0] . i[:, 0] = 1, which its own framing arrow pair cannot absorb."""
    g = build_group("A2")
    with pytest.raises(MomentMapNonzero, match="framing coordinate 0"):
        adhm_build_cyclic(g, [[0]], [[0]], [[1, 1]], [[1], [-1]], [0], [0, 0])


def test_adhm_two_framing_coordinates():
    """A flat input with dim W = 2, framed at vertices 0 and 1, builds; its
    integral inputs give int entries, a fractional one a Fraction."""
    g = build_group("A2")
    b1 = [[0, 1], [0, 0]]
    b2 = [[0, 0], [0, 0]]
    rep = adhm_build_cyclic(g, b1, b2, [[1, 0], [0, 0]], [[0, 0], [0, 1]], [0, 1], [0, 1])
    assert rep.dims.as_dict() == {0: 1, 1: 1, 2: 0, "inf": 2}
    for mat in check_relations(rep).values():
        assert all(x == 0 for row in mat for x in row)
    entries = [x for mat in rep.maps.values() for row in mat for x in row]
    assert entries and all(type(x) is int for x in entries)
    rep = adhm_build_cyclic(g, b1, b2, [["1/2", 0], [0, 0]], [[0, 0], [0, 1]],
                            [0, 1], [0, 1])
    assert Fraction(1, 2) in [x for mat in rep.maps.values() for row in mat for x in row]


def test_adhm_seeded_search_yields_stable_flat():
    """Seeded search over small equivariant data certified stable."""
    import random

    g = build_group("A1")
    found = 0
    for seed in range(40):
        rng = random.Random(seed)
        b1 = [[0, rng.randint(-1, 1)], [0, 0]]
        b2 = [[0, 0], [rng.randint(-1, 1), 0]]
        ivec = [[rng.randint(-1, 1)], [0]]
        jvec = [[rng.randint(-1, 1), 0]]
        comm = b1[0][1] * b2[1][0]
        moment00 = comm + ivec[0][0] * jvec[0][0]
        moment11 = -comm
        if moment00 != 0 or moment11 != 0:
            continue
        rep = adhm_build_cyclic(g, b1, b2, ivec, jvec, [0, 1], [0])
        for mat in check_relations(rep).values():
            assert all(x == 0 for row in mat for x in row)
        if is_stable(rep, theta_I({0, 1}, rep.dims)):
            found += 1
    assert found >= 1


# ---------------------------------------------------------------------------
# VGIT pushforward
# ---------------------------------------------------------------------------

def test_vgit_identity_chamber():
    g = build_group("A1")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    dims = DimVector(components={0: 1, 1: 1}, at_infinity=1)
    (_, rep), = stable_reps(q, dims, {0, 1}, 1)
    out = vgit_pushforward(rep, {0, 1}, {0, 1})
    assert len(out) == 1
    assert are_isomorphic(out[0], rep)


def test_vgit_requires_stability():
    g = build_group("A1")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    dims = DimVector(components={0: 1, 1: 1}, at_infinity=1)
    rep = zero_rep(q, dims)
    with pytest.raises(NotStableForSource):
        vgit_pushforward(rep, {0, 1}, {0})


def test_vgit_dimension_conservation_and_core():
    g = build_group("A2")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    dims = DimVector(components={0: 1, 1: 1, 2: 1}, at_infinity=1)
    for _, rep in stable_reps(q, dims, {0, 1, 2}, 5):
        out = vgit_pushforward(rep, {0, 1, 2}, {0})
        totals = {}
        for m in out:
            for v, d in m.dims.as_dict().items():
                totals[v] = totals.get(v, 0) + d
        assert totals == rep.dims.as_dict()
        assert is_stable(out[0], theta_I({0}, out[0].dims))


def test_vgit_builds_the_framing_submodule_once(monkeypatch):
    """One pushforward builds its input's framing submodule once and shares
    it between the source verdict and the decomposition, and a second
    pushforward of the same object builds none; the summands are those of
    a decomposition of a fresh copy of the input."""
    from mckaykit import rep_theory

    g = build_group("A2")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    dims = DimVector(components={0: 1, 1: 1, 2: 1}, at_infinity=1)
    # the stability filter built each sample's memo, so push fresh copies
    reps = [dataclasses.replace(rep) for _, rep in stable_reps(q, dims, {0, 1, 2}, 4)]
    want = [[(m.dims, m.maps) for m in rep_theory.polystable_decomposition(
        dataclasses.replace(rep), {0})] for rep in reps]
    builds = count_framing_builds(monkeypatch)
    for rep, summands in zip(reps, want):
        builds.clear()
        out = vgit_pushforward(rep, {0, 1, 2}, {0})
        assert len(builds) == 1 and builds[0] is rep
        assert [(m.dims, m.maps) for m in out] == summands
        vgit_pushforward(rep, {0, 1, 2}, {0, 1})
        assert len(builds) == 1


def test_vgit_chain_functoriality():
    g = build_group("A2")
    q = frame_quiver(mckay_quiver(g), {0: 1})
    dims = DimVector(components={0: 1, 1: 1, 2: 1}, at_infinity=1)
    full = {0, 1, 2}
    for _, rep in stable_reps(q, dims, full, 5):
        direct = vgit_pushforward(rep, full, {0})
        two_step = vgit_push_list(
            vgit_pushforward(rep, full, {0, 1}), {0, 1}, {0}
        )
        assert s_equivalent(direct, two_step)


# ---------------------------------------------------------------------------
# quotient correspondence
# ---------------------------------------------------------------------------

def test_quot_zero_module():
    g = build_group("A1")
    f2 = PrimeField(2)
    T = cornered_mod_p(truncated_corner_column(g, {0}), 2)
    full = {
        0: tuple(
            tuple(1 if i == j else 0 for j in range(T.dim(0)))
            for i in range(T.dim(0))
        )
    }
    zero_quotient = cornered_quotient(T, full)
    assert check_quot_correspondence(zero_quotient, {0}, g).as_dict() == {0: 0}


def test_quot_full_truncation_is_a_quotient():
    g = build_group("A1")
    T = truncated_corner_column(g, {0})
    assert check_quot_correspondence(T, {0}, g).as_dict() == {0: T.dim(0)}


def test_quot_dimension_obstruction():
    g = build_group("A1")
    f2 = PrimeField(2)
    T = cornered_mod_p(truncated_corner_column(g, {0}), 2)
    n = T.dim(0)
    too_big = CorneredModule(
        group=g,
        corner=frozenset({0}),
        dims={0: n + 1},
        z_mats={0: zeros(f2, n + 1, n + 1)},
        actions={
            key: [zeros(f2, n + 1, n + 1) for _ in mats]
            for key, mats in T.actions.items()
        },
        gen_degree=T.gen_degree,
        field=f2,
    )
    with pytest.raises(NotAQuotient):
        check_quot_correspondence(too_big, {0}, g)


def test_quot_no_surjection_names_the_uncertified_degree():
    """S + S on A1 {0} over GF(2) (dims {0: 2}, every action zero) has
    homomorphisms from the truncated column, whose top is one copy of S,
    but none onto it; the refusal names the truncation degree and says
    that it is not certified."""
    g = build_group("A1")
    f2 = PrimeField(2)
    T = cornered_mod_p(truncated_corner_column(g, {0}), 2)
    s_plus_s = T.rebuild({0: 2}, [zeros(f2, 2, 2) for _ in T.generators()])
    with pytest.raises(NotAQuotient) as exc:
        check_quot_correspondence(s_plus_s, {0}, g)
    text = str(exc.value)
    assert "degree 4" in text and "not certified" in text
    assert "certified truncation" not in text


def test_quot_truncation_degree_value():
    g = build_group("A1")
    assert quot_truncation_degree(g, {0}) == 4


#: sha256 of framed-layer outputs in the canonical form of
#: ``test_framed_layer_identity``: entries through ``fraction_to_str``, so
#: only values count.  The value was computed when the relation signs were
#: written out separately in the layer builder, the relation check and
#: ``random_flat_rep``, when ``hom_space`` and ``random_flat_rep`` indexed
#: their linear systems by hand, and when the truncated column had its own
#: class-action loop, so it pins the outputs across their merge.  It was
#: recomputed when the generation degree became certified: that changed the
#: E6 (0,) column alone, from degree 0 to 12, and left the digest over the
#: other inputs unchanged.
FRAMED_DIGEST = "c5e3caa61814f8be19a4cdeb2f7eb92b534d2f78d743e2a67ee9e6c1d03fa802"

# (group, framing, component dims) of the sampled framed modules
FRAMED_CASES = [
    ("A1", {0: 1}, {0: 2, 1: 1}),
    ("A2", {0: 1}, {0: 1, 1: 1, 2: 1}),
    ("D4", {0: 1}, {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}),
]
COLUMN_CORNERS = [
    ("A1", (0,)), ("A1", (0, 1)), ("A2", (0,)), ("A2", (0, 1)),
    ("A3", (0,)), ("A3", (0, 2)), ("D4", (0,)), ("D4", (0, 2)),
    ("D5", (0,)), ("D5", (0, 1)), ("E6", (0,)), ("E6", (0, 1)),
]


def _canon_mat(mat):
    return tuple(tuple(fraction_to_str(x) for x in row) for row in mat)


def test_framed_layer_identity(tmp_path, capsys):
    digest = hashlib.sha256()

    def feed(*parts):
        digest.update(repr(parts).encode())

    for label, w, comps in FRAMED_CASES:
        q = frame_quiver(mckay_quiver(build_group(label)), w)
        dims = DimVector(components=comps, at_infinity=1)
        for field in (QQ, PrimeField(5)):
            reps = []
            for seed in range(6):
                rep = random_flat_rep(q, dims, seed, field=field)
                if rep is not None:
                    reps.append(rep)
                    feed(label, repr(field), seed,
                         [_canon_mat(rep.matrix(a.id)) for a in q.arrows])
            for a, b in zip(reps, reps[1:]):
                basis, offsets = hom_space(field, a.generators(), b.generators(),
                                           a.vertex_dims(), b.vertex_dims())
                feed(_canon_mat(basis), sorted(offsets.items(), key=str))
        corner = ",".join(str(v) for v in comps)
        for n, (seed, rep) in enumerate(stable_reps(q, dims, set(comps), 2)):
            path = tmp_path / f"{label}_{n}.json"
            dump_json(rep_to_dict(rep), str(path))
            prefix = tmp_path / f"{label}_{n}_summand"
            assert cli_main(["vgit", str(path), "--from-corner", corner,
                             "--to-corner", "0", "--out-prefix", str(prefix)]) == 0
            for out in sorted(tmp_path.glob(f"{label}_{n}_summand_*.json")):
                feed(seed, out.name, out.read_text())
    capsys.readouterr()

    for label, corner in COLUMN_CORNERS:
        column = truncated_corner_column(build_group(label), corner)
        feed(label, corner, sorted(column.dims.items()), column.gen_degree,
             sorted((key, [_canon_mat(m) for m in mats])
                    for key, mats in column.actions.items()))
    assert digest.hexdigest() == FRAMED_DIGEST
