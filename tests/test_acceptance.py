"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criterion 8 consumes every stable representation produced while running
criteria 5, 7 and 9, so it is defined last in this module (pytest runs
tests in definition order).
"""

import sys

import pytest

from helpers import etingof_eu_slices, invariant_dim_by_projector
from mckaykit import dynkin
from mckaykit.errors import BadPrime
from mckaykit.gamma_data import build_group, tensor_multiplicity_matrix
from mckaykit.graded_algebra import (
    AlgebraContext,
    factor_through_bound,
    hilbert_sequence,
    molien_sequence,
)
from mckaykit.quiver_core import (
    DimVector,
    frame_quiver,
    mckay_quiver,
    theta_I,
    triple_quiver,
)
from mckaykit.rep_theory import (
    brute_force_stability,
    check_relations,
    is_stable,
    random_flat_rep,
    reduce_mod_p,
    s_equivalent,
    stability_verdict,
    subspaces_of_dimension,
)
from mckaykit.corner_functors import (
    cornered_isomorphic,
    cornered_mod_p,
    cornered_quotient,
    cornered_submodule_is_closed,
    j_shriek,
    j_star,
)
from mckaykit.moduli_tools import (
    adhm_build_cyclic,
    check_quot_correspondence,
    dimension_bound_check,
    truncated_corner_column,
    vgit_push_list,
    vgit_pushforward,
)

ADJACENCY_LABELS = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6",
                    "E6", "E7", "E8"]
ORACLE_LABELS = ["A1", "A2", "A3", "D4", "E6", "E7", "E8"]

#: (rep over QQ, corner) for every stable framed module produced in the run
STABLE_REGISTRY = []


def report(criterion, message):
    print(f"ACCEPTANCE {criterion}: PASS - {message}", file=sys.stderr)


def test_criterion_01_mckay_adjacency():
    for label in ADJACENCY_LABELS:
        g = build_group(label)
        mult = tensor_multiplicity_matrix(g)
        series, rank = g.descriptor.series, g.descriptor.rank
        assert mult == dynkin.adjacency(series, rank), label
        quiver_adj = mckay_quiver(g).adjacency()
        assert quiver_adj == dynkin.adjacency(series, rank), label
        delta = g.irrep_dims
        n = g.num_irreps
        for i in range(n):
            assert sum(mult[i][j] * delta[j] for j in range(n)) == 2 * delta[i]
    report(1, f"McKay adjacency and A.delta = 2.delta exact on "
              f"{len(ADJACENCY_LABELS)} descriptors")


def test_criterion_02_molien_oracle_agreement():
    checked = 0
    for label in ORACLE_LABELS:
        g = build_group(label)
        n = g.num_irreps
        series, rank = g.descriptor.series, g.descriptor.rank
        for flavor, with_z in (("pi", False), ("pibullet", True)):
            ctx = AlgebraContext(g, flavor)
            recursion = etingof_eu_slices(series, rank, with_z, 8)
            for i in range(n):
                for j in range(n):
                    mol = molien_sequence(g, i, j, with_z, 8)
                    dims = tuple(ctx.slice_dim(i, j, k) for k in range(9))
                    assert mol == dims, (label, flavor, i, j)
                    assert dims == tuple(m[i][j] for m in recursion), (
                        label, flavor, i, j)
                    checked += 1
    report(2, f"path counts, character counts and the Etingof-Eu recursion "
              f"agree on {checked} slices to degree 8 on {', '.join(ORACLE_LABELS)}")


def test_criterion_03_invariant_ring_identity():
    a1_prefix = None
    for label in ORACLE_LABELS:
        g = build_group(label)
        ctx = AlgebraContext(g, "pibullet", corner={0})
        hs = hilbert_sequence(ctx, 8)
        oracle = tuple(
            invariant_dim_by_projector(g, k, with_z=True) for k in range(9)
        )
        assert hs == oracle, label
        if label == "A1":
            a1_prefix = hs[:5]
    assert a1_prefix == (1, 1, 4, 4, 9)
    report(3, "cornered Hilbert series equals the invariant-ring series "
              f"(monomial projector oracle) to degree 8 on {', '.join(ORACLE_LABELS)}")


def test_criterion_04_finiteness_certificate():
    values = {}
    for label in ["A1", "A2", "A3", "A4", "D4", "D5", "D6", "D7", "E6", "E7", "E8"]:
        g = build_group(label)
        bound = factor_through_bound(g, {0})
        # the factor by the {0} corner ideal is the Dynkin preprojective
        # algebra, of top degree h - 2 with h the Coxeter number
        assert bound == sum(g.irrep_dims) - 2, label
        values[label] = bound
    report(4, f"factor bounds equal the Coxeter number minus two: {values}")


STABILITY_GROUPS = {
    "A1": [{0: 1, 1: 1}, {0: 2, 1: 1}, {0: 1, 1: 2}, {0: 2, 1: 2}],
    "A2": [{0: 1, 1: 1, 2: 1}, {0: 2, 1: 1, 2: 1}, {0: 1, 1: 2, 2: 1},
            {0: 1, 1: 0, 2: 2}],
    "D4": [{0: 1, 1: 1, 2: 1, 3: 1, 4: 1}, {0: 0, 1: 1, 2: 2, 3: 1, 4: 0},
            {0: 1, 1: 0, 2: 2, 3: 0, 4: 1}, {0: 1, 1: 1, 2: 2, 3: 0, 4: 0}],
}


def _corners_for(group):
    verts = tuple(range(group.num_irreps))
    return [{0}, {0, 1}, set(verts)]


@pytest.mark.parametrize("label", sorted(STABILITY_GROUPS))
def test_criterion_05_stability_oracle_gate(label):
    g = build_group(label)
    quiver = frame_quiver(mckay_quiver(g), {0: 1})
    dim_choices = STABILITY_GROUPS[label]
    corners = _corners_for(g)
    count = 0
    seed = 0
    while count < 100:
        assert seed < 50000, "seed budget exhausted"
        comps = dim_choices[seed % len(dim_choices)]
        corner = corners[seed % len(corners)]
        dims = DimVector(components=comps, at_infinity=1)
        rep = random_flat_rep(quiver, dims, seed)
        seed += 1
        if rep is None:
            continue
        assert rep.total_dim() <= 6
        theta = theta_I(corner, dims)
        try:
            reduced = {p: reduce_mod_p(rep, p) for p in (2, 3)}
        except BadPrime:
            continue
        for p in (2, 3):
            got = stability_verdict(reduced[p], theta)[:2]
            want = brute_force_stability(reduced[p], theta)[:2]
            assert got == want, (label, seed - 1, p, got, want)
        if is_stable(rep, theta):
            STABLE_REGISTRY.append((rep, frozenset(corner)))
        count += 1
    report(5, f"{label}: specialized and exhaustive verdicts agree on "
              f"100 instances over GF(2) and GF(3)")


RECOLLEMENT_PAIRS = [
    ("A1", frozenset({0}), {0: 2, 1: 1}),
    ("A1", frozenset({0, 1}), {0: 1, 1: 2}),
    ("A2", frozenset({0}), {0: 1, 1: 1, 2: 1}),
    ("A2", frozenset({0, 1}), {0: 1, 1: 1, 2: 2}),
    ("A3", frozenset({0}), {0: 1, 1: 1, 2: 1, 3: 1}),
    ("A3", frozenset({0, 2}), {0: 1, 1: 1, 2: 1, 3: 1}),
]


@pytest.mark.parametrize("label,corner,comps", RECOLLEMENT_PAIRS)
def test_criterion_06_recollement_round_trip(label, corner, comps):
    g = build_group(label)
    quiver = triple_quiver(mckay_quiver(g))
    dims = DimVector(components=comps)
    done = 0
    seed = 0
    while done < 20:
        assert seed < 20000, "seed budget exhausted"
        rep = random_flat_rep(quiver, dims, seed)
        seed += 1
        if rep is None:
            continue
        restricted = j_star(rep, corner)
        extended = j_shriek(restricted)
        back = j_star(extended, corner)
        assert cornered_isomorphic(back, restricted), (label, corner, seed - 1)
        done += 1
    report(6, f"{label} corner {sorted(corner)}: restriction after extension "
              f"is the identity on 20 seeded modules")


def test_criterion_07_vgit_functoriality():
    g = build_group("A2")
    quiver = frame_quiver(mckay_quiver(g), {0: 1})
    dims = DimVector(components={0: 1, 1: 1, 2: 1}, at_infinity=1)
    full = {0, 1, 2}
    theta = theta_I(full, dims)
    done = 0
    seed = 0
    while done < 20:
        assert seed < 20000, "seed budget exhausted"
        rep = random_flat_rep(quiver, dims, seed)
        seed += 1
        if rep is None or not is_stable(rep, theta):
            continue
        STABLE_REGISTRY.append((rep, frozenset(full)))
        direct = vgit_pushforward(rep, full, {0})
        two_step = vgit_push_list(
            vgit_pushforward(rep, full, {0, 1}), {0, 1}, {0}
        )
        assert s_equivalent(direct, two_step), seed - 1
        totals = {}
        for m in direct:
            for v, d in m.dims.as_dict().items():
                totals[v] = totals.get(v, 0) + d
        assert totals == rep.dims.as_dict()
        done += 1
    report(7, "two-step and direct pushforwards agree (S-equivalence) on "
              "20 seeded stable modules along {0} in {0,1} in Q0")


def test_criterion_09_adhm_flatness():
    import random

    g1 = build_group("A1")
    outputs = [
        adhm_build_cyclic(g1, [], [], [], [[]], [], [0]),
        adhm_build_cyclic(g1, [[0, 0], [0, 0]], [[0, 0], [1, 0]],
                          [[1], [0]], [[0, 0]], [0, 1], [0]),
    ]
    for seed in range(60):
        rng = random.Random(seed)
        b1 = [[0, rng.randint(-2, 2)], [0, 0]]
        b2 = [[0, 0], [rng.randint(-2, 2), 0]]
        ivec = [[rng.randint(-2, 2)], [0]]
        jvec = [[rng.randint(-2, 2), 0]]
        # both diagonal blocks of [B1, B2] + i.j must vanish
        if b1[0][1] * b2[1][0] != 0 or ivec[0][0] * jvec[0][0] != 0:
            continue
        outputs.append(adhm_build_cyclic(g1, b1, b2, ivec, jvec, [0, 1], [0]))
    g2 = build_group("A2")
    b1 = [[0, 1, 0], [0, 0, 1], [0, 0, 0]]
    b2 = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    outputs.append(adhm_build_cyclic(
        g2, b1, b2, [[1], [0], [0]], [[0, 0, 0]], [0, 1, 2], [0]
    ))
    assert len(outputs) >= 6
    for rep in outputs:
        for mat in check_relations(rep).values():
            assert all(x == 0 for row in mat for x in row)
        corner = set(rep.quiver.plain_vertices)
        if is_stable(rep, theta_I(corner, rep.dims)):
            STABLE_REGISTRY.append((rep, frozenset(corner)))
    report(9, f"{len(outputs)} equivariant splittings satisfy the relations "
              f"with zero residual matrices")


def test_criterion_10_quot_correspondence_smoke():
    g = build_group("A1")
    column = cornered_mod_p(truncated_corner_column(g, {0}), 2)
    n = column.dim(0)
    closed = []
    for s in (n, n - 1, n - 2):
        for basis in subspaces_of_dimension(2, n, s):
            if cornered_submodule_is_closed(column, {0: basis}):
                closed.append(basis)
    certified = 0
    for basis in closed:
        quotient = cornered_quotient(column, {0: basis})
        dims = check_quot_correspondence(quotient, {0}, g)
        assert dims.as_dict() == {0: n - len(basis)}
        certified += 1
    assert certified == len(closed)
    # independent sanity: quotient dimensions zero, one, two all occur and
    # the unique maximal submodule gives the unique 1-dimensional quotient
    sizes = sorted(n - len(b) for b in closed)
    assert sizes[0] == 0 and sizes.count(1) == 1 and 2 in sizes
    report(10, f"all {certified} quotients of the truncated column with "
               f"total dim <= 2 certified; count matches the submodule "
               f"enumeration ({len(closed)})")


def test_criterion_08_dimension_bound():
    assert len(STABLE_REGISTRY) >= 20, "registry unexpectedly small"
    failures = 0
    for rep, corner in STABLE_REGISTRY:
        if not dimension_bound_check(rep, corner):
            failures += 1
    assert failures == 0
    report(8, f"dimension bound holds for all {len(STABLE_REGISTRY)} stable "
              f"modules produced in this run (zero failures)")
