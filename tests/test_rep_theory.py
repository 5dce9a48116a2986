"""Framed representations: relations, submodules, stability, decomposition."""

import copy
import dataclasses
import itertools
import pickle
import random
from fractions import Fraction

import pytest

from helpers import (
    conjugated_copy,
    flat_reps,
    reference_relations,
    reference_subspaces_of_dimension,
    stable_reps,
)
from mckaykit.errors import (
    BadPrime,
    DimensionTooLarge,
    InvalidArgument,
    InvariantViolation,
    NotSemistable,
    ShapeMismatch,
    UnsupportedTheta,
    VertexNotInCorner,
)
from mckaykit.gamma_data import build_group
from mckaykit.linalg import QQ, ClosureTest, PrimeField, rank
from mckaykit.quiver_core import (
    INFINITY,
    DimVector,
    frame_quiver,
    mckay_quiver,
    relation_generators,
    theta_I,
    triple_quiver,
    vertex_sort_key,
)
from mckaykit.rep_theory import (
    QuiverRep,
    are_isomorphic,
    brute_force_stability,
    check_relations,
    direct_sum,
    generated_submodule,
    is_flat,
    is_stable,
    make_rep,
    max_relation_residual,
    max_submodule_avoiding,
    polystable_decomposition,
    random_flat_rep,
    reduce_mod_p,
    s_equivalent,
    stability_verdict,
    subspace_count,
    subspaces_of_dimension,
    vertex_simple,
    zero_rep,
)


@pytest.fixture(scope="module")
def a1_framed():
    g = build_group("A1")
    return frame_quiver(mckay_quiver(g), {0: 1})


@pytest.fixture(scope="module")
def dims11():
    return DimVector(components={0: 1, 1: 1}, at_infinity=1)


def test_zero_maps_flat(a1_framed, dims11):
    rep = zero_rep(a1_framed, dims11)
    assert is_flat(rep)
    assert all(
        all(x == 0 for row in mat for x in row)
        for mat in check_relations(rep).values()
    )


def test_generic_scalars_violate_relations(a1_framed, dims11):
    maps = {}
    for a in a1_framed.arrows:
        if a.tail == INFINITY or a.head == INFINITY:
            maps[a.id] = ((Fraction(0),),)
        else:
            maps[a.id] = ((Fraction(1),),)
    rep = make_rep(a1_framed, dims11, maps)
    assert not is_flat(rep)


def test_maps_are_read_only(a1_framed, dims11):
    """A representation's maps cannot be reassigned after ``is_flat`` has
    memoised the residual; copies and equality still work."""
    maps = {a.id: ((1,),) for a in a1_framed.arrows}
    rep = make_rep(a1_framed, dims11, maps)
    assert not is_flat(rep)
    with pytest.raises(TypeError):
        rep.maps[0] = ((0,),)
    assert rep.maps[0] == ((1,),)
    copy = dataclasses.replace(rep)
    assert copy == rep and copy is not rep
    assert not is_flat(copy)
    with pytest.raises(TypeError):
        copy.maps[0] = ((0,),)
    assert rep != make_rep(a1_framed, dims11, {**maps, 0: ((0,),)})


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["deepcopy", "pickle"])
def test_module_copies(a1_framed, dims11, p, duplicate):
    """A deep copy and an unpickled module equal the original, keep its
    field, give its stability verdicts and are isomorphic to it."""
    theta = theta_I({0}, dims11)
    for _, rep in flat_reps(a1_framed, dims11, 3):
        if p:
            rep = reduce_mod_p(rep, p)
        verdict = stability_verdict(rep, theta)  # fills the memos
        twin = duplicate(rep)
        assert twin == rep and twin is not rep
        assert twin.field == rep.field and repr(twin.field) == repr(rep.field)
        assert stability_verdict(twin, theta) == verdict
        assert is_flat(twin)
        if p:
            assert brute_force_stability(twin, theta) == brute_force_stability(rep, theta)
        assert are_isomorphic(twin, rep)
        with pytest.raises(TypeError):
            twin.maps[0] = ((0,),)


def test_loop_commutation_is_a_relation():
    """On a tripled quiver ``check_relations`` has one residual per relation
    generator, the loop commutation z_tail a - a z_head included."""
    quiver = triple_quiver(mckay_quiver(build_group("A1")))
    dims = DimVector(components={0: 1, 1: 1})
    arrow = quiver.non_loop_arrows()[0]
    for z_head, residual in ((1, 0), (3, 2)):
        maps = {arrow.id: ((1,),), quiver.loops[arrow.tail]: ((1,),),
                quiver.loops[arrow.head]: ((z_head,),)}
        rep = make_rep(quiver, dims, maps)
        residuals = check_relations(rep)
        assert list(residuals) == list(relation_generators(quiver))
        assert max_relation_residual(rep) == residual
        assert is_flat(rep) == (residual == 0)


def _flavor_quiver(label, flavor):
    base = mckay_quiver(build_group(label))
    if flavor == "piw":
        return frame_quiver(base, {0: 1, 1: 2})
    return triple_quiver(base) if flavor == "pibullet" else base


@pytest.mark.parametrize("flavor", ["pi", "piw", "pibullet"])
@pytest.mark.parametrize("field", [QQ, PrimeField(2), PrimeField(5)], ids=str)
def test_check_relations_matches_reference(field, flavor):
    """The one-pass residuals equal, value for value and type for type,
    the sums of whole product matrices of ``reference_relations``, on
    random (mostly not flat) modules with ``Fraction`` and ``int`` entries
    over QQ, with a zero-dimensional vertex in every module, and on flat
    ones."""
    nonzero = 0
    for label in ("A1", "A2", "D4"):
        quiver = _flavor_quiver(label, flavor)
        for seed in range(8):
            rng = random.Random(seed)
            comps = {v: rng.randint(0, 3) for v in quiver.plain_vertices}
            comps[rng.choice(quiver.plain_vertices)] = 0
            dims = DimVector(components=comps, at_infinity=(
                rng.randint(0, 2) if quiver.is_framed else None))

            def entry():
                if rng.random() < 0.3:
                    return field.zero
                if field is QQ and rng.random() < 0.5:
                    return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                return field.from_int(rng.randint(-3, 3))

            maps = {a.id: [[entry() for _ in range(dims.get(a.head))]
                           for _ in range(dims.get(a.tail))] for a in quiver.arrows}
            reps = [make_rep(quiver, dims, maps, field)]
            flat = random_flat_rep(quiver, dims, seed, field)
            reps += [flat] if flat is not None else []
            for rep in reps:
                got, want = check_relations(rep), reference_relations(rep)
                assert got == want, (label, seed)
                assert ([[list(map(type, row)) for row in m] for m in got.values()]
                        == [[list(map(type, row)) for row in m] for m in want.values()])
                nonzero += any(x for m in got.values() for row in m for x in row)
    assert nonzero


def test_relation_generators_kept_per_quiver():
    """A quiver's relation generators are built once and kept on it; a
    framed tripled quiver, whose framing vertex has no loop, raises on
    every call."""
    quiver = triple_quiver(mckay_quiver(build_group("A2")))
    gens = relation_generators(quiver)
    assert relation_generators(quiver) is gens
    bad = frame_quiver(triple_quiver(mckay_quiver(build_group("A1"))), {0: 1})
    for _ in range(2):
        with pytest.raises(InvalidArgument):
            relation_generators(bad)


def test_list_matrices_give_the_tuple_verdict(a1_framed, dims11):
    """``make_rep`` accepts list-of-list matrices; the closure kernels key
    caches by matrix, so the rep must hold them as tuples."""
    theta = theta_I({0}, dims11)
    for seed in range(4):
        rep = random_flat_rep(a1_framed, dims11, seed)
        lists = make_rep(a1_framed, dims11,
                         {aid: [list(row) for row in m] for aid, m in rep.maps.items()})
        assert lists.maps == rep.maps
        assert all(type(m) is tuple and all(type(r) is tuple for r in m)
                   for m in lists.maps.values())
        assert stability_verdict(lists, theta) == stability_verdict(rep, theta)
        assert (brute_force_stability(reduce_mod_p(lists, 3), theta)
                == brute_force_stability(reduce_mod_p(rep, 3), theta))


def test_shape_mismatch(a1_framed, dims11):
    maps = {a1_framed.arrows[0].id: ((Fraction(1), Fraction(0)),)}
    with pytest.raises(ShapeMismatch):
        make_rep(a1_framed, dims11, maps)


def test_generated_submodule_trivial_cases(a1_framed, dims11):
    rep = zero_rep(a1_framed, dims11)
    empty = generated_submodule(rep, {})
    assert empty.total() == 0
    seeds = {INFINITY: [(Fraction(1),)]}
    w = generated_submodule(rep, seeds)
    assert w.dims_dict() == {0: 0, 1: 0, INFINITY: 1}
    assert ClosureTest(rep.field, rep.generators())(w.spaces)
    for _, rnd in flat_reps(a1_framed, dims11, 3):
        witness = generated_submodule(rnd, seeds)
        assert ClosureTest(rnd.field, rnd.generators())(witness.spaces)
    full = generated_submodule(
        rep,
        {
            v: [
                tuple(
                    Fraction(1) if i == j else Fraction(0)
                    for j in range(rep.dims.get(v))
                )
                for i in range(rep.dims.get(v))
            ]
            for v in rep.quiver.vertices
        },
    )
    assert full.total() == rep.total_dim()


def test_max_submodule_avoiding(a1_framed, dims11):
    rep = zero_rep(a1_framed, dims11)
    assert max_submodule_avoiding(rep, set(rep.quiver.vertices)).total() == 0
    assert max_submodule_avoiding(rep, set()).total() == rep.total_dim()
    w = max_submodule_avoiding(rep, {INFINITY})
    assert w.dims_dict() == {0: 1, 1: 1, INFINITY: 0}


# (label, framing, components): A1/A2 framed modules of total dimension
# at most 6, among them ones with a vertex of dimension 0
AVOIDING_CONFIGS = [
    ("A1", {0: 1}, {0: 1, 1: 1}),
    ("A1", {0: 1}, {0: 2, 1: 1}),
    ("A1", {0: 1}, {0: 2, 1: 2}),
    ("A1", {0: 1}, {0: 1, 1: 0}),
    ("A1", {0: 1, 1: 1}, {0: 1, 1: 1}),
    ("A1", {0: 1, 1: 1}, {0: 2, 1: 2}),
    ("A2", {0: 1}, {0: 1, 1: 1, 2: 1}),
    ("A2", {0: 1}, {0: 2, 1: 1, 2: 1}),
    ("A2", {0: 1}, {0: 1, 1: 2, 2: 2}),
    ("A2", {0: 1}, {0: 1, 1: 0, 2: 1}),
]


def _closed_families_avoiding(rep, avoid, closed):
    """Every family of subspaces that the closure test ``closed`` passes and
    that is zero on ``avoid``, by running through all the subspaces of every
    component."""
    p, verts = rep.field.p, rep.quiver.vertices
    choices = [[()] if v in avoid else
               [b for s in range(rep.dims.get(v) + 1)
                for b in subspaces_of_dimension(p, rep.dims.get(v), s)]
               for v in verts]
    for pick in itertools.product(*choices):
        spaces = dict(zip(verts, pick))
        if closed(spaces):
            yield spaces


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("label,framing,comps", AVOIDING_CONFIGS, ids=[
    f"{label}-d{''.join(map(str, comps.values()))}-w{len(framing)}"
    for label, framing, comps in AVOIDING_CONFIGS])
def test_max_submodule_avoiding_is_greatest(label, framing, comps, p):
    """The greatest submodule avoiding a set against exhaustive enumeration:
    it is closed, zero on the set, and holds every closed family that is
    zero on the set.  Seeded flat modules and the all-zero maps, avoiding
    {inf}, {0, inf}, {0, 1, inf}, every vertex, nothing, and a vertex the
    quiver lacks."""
    field = PrimeField(p)
    quiver = frame_quiver(mckay_quiver(build_group(label)), framing)
    dims = DimVector(components=comps, at_infinity=1)
    reps = [random_flat_rep(quiver, dims, seed, field) for seed in range(3)]
    reps = [rep for rep in reps if rep is not None] + [zero_rep(quiver, dims, field)]
    avoids = [{INFINITY}, {0, INFINITY}, {0, 1, INFINITY},
              set(quiver.vertices), set(), {7, INFINITY}]
    for rep in reps:
        closed = ClosureTest(field, rep.generators())
        for avoid in avoids:
            spaces = max_submodule_avoiding(rep, avoid).spaces
            assert list(spaces) == list(quiver.vertices)
            assert closed(spaces)
            assert all(not spaces[v] for v in avoid if v in spaces)
            for family in _closed_families_avoiding(rep, avoid, closed):
                for v, rows in family.items():
                    assert (rank(field, list(spaces[v]) + list(rows))
                            == rank(field, list(spaces[v])))


def test_infinity_only_module_stable(a1_framed):
    dims = DimVector(components={0: 0, 1: 0}, at_infinity=1)
    rep = zero_rep(a1_framed, dims)
    theta = theta_I({0}, dims)
    assert stability_verdict(rep, theta)[0]
    assert is_stable(rep, theta)


def test_zero_maps_not_semistable(a1_framed, dims11):
    rep = zero_rep(a1_framed, dims11)
    theta = theta_I({0, 1}, dims11)
    semis, stable, witness = stability_verdict(rep, theta)
    assert (semis, stable) == (False, False)
    # brute-force agreement on the reduced module
    reduced = reduce_mod_p(rep, 2)
    bs, bst, witness = brute_force_stability(reduced, theta)
    assert (bs, bst) == (False, False)
    assert witness


def test_unsupported_theta(a1_framed, dims11):
    from mckaykit.quiver_core import StabilityParam

    rep = zero_rep(a1_framed, dims11)
    bad = StabilityParam(values={0: Fraction(2), 1: Fraction(0),
                                 INFINITY: Fraction(-2)})
    with pytest.raises(UnsupportedTheta):
        stability_verdict(rep, bad)[0]


def test_brute_force_guards(a1_framed):
    dims = DimVector(components={0: 5, 1: 4}, at_infinity=1)
    rep = zero_rep(a1_framed, dims)
    theta = theta_I({0}, dims)
    with pytest.raises(BadPrime):
        brute_force_stability(rep, theta)  # not reduced
    reduced = reduce_mod_p(rep, 2)
    with pytest.raises(DimensionTooLarge):
        brute_force_stability(reduced, theta)


def test_brute_force_subspace_guard(a1_framed):
    """Total dimension 8 passes the dimension limit, but GF(3)^7 alone has
    2,052,656 subspaces: refused before any is enumerated."""
    dims = DimVector(components={0: 7, 1: 0}, at_infinity=1)
    rep = zero_rep(a1_framed, dims, PrimeField(3))
    with pytest.raises(DimensionTooLarge):
        brute_force_stability(rep, theta_I({0}, dims))


def test_subspace_enumeration_matches_reference():
    """The same bases in the same order as the template enumeration, with
    the Gaussian-binomial counts; a row repeated within a pivot set is one
    shared tuple."""
    cases = [(p, n, s) for p in (2, 3, 5) for n in range(6) for s in range(n + 1)]
    cases += [(2, 9, s) for s in (9, 8, 7)]  # the quotient scan of criterion 10
    totals = {}
    for p, n, s in cases:
        got = list(subspaces_of_dimension(p, n, s))
        assert got == list(reference_subspaces_of_dimension(p, n, s)), (p, n, s)
        totals[(p, n)] = totals.get((p, n), 0) + len(got)
        rows = {}
        for basis in got:
            pivots = tuple(row.index(1) for row in basis)
            for row in basis:
                assert rows.setdefault((pivots, row), row) is row
    for (p, n), total in totals.items():
        if n < 6:
            assert total == subspace_count(p, n), (p, n)
    assert totals[(2, 9)] == 1 + 511 + 43435


def test_brute_force_vacuous_stability(a1_framed):
    dims = DimVector(components={0: 0, 1: 0}, at_infinity=1)
    rep = reduce_mod_p(zero_rep(a1_framed, dims), 2)
    theta = theta_I({0}, dims)
    assert brute_force_stability(rep, theta) == (True, True, None)


def test_vertex_simple_summand_blocks_stability(a1_framed, dims11):
    theta = theta_I({0}, dims11)
    reps = flat_reps(a1_framed, DimVector(components={0: 1, 1: 0},
                                          at_infinity=1), 6)
    for _, rep in reps:
        if not is_stable(rep, theta_I({0}, rep.dims)):
            continue
        big = direct_sum(rep, vertex_simple(a1_framed, 1))
        th = theta_I({0}, big.dims)
        assert stability_verdict(big, th)[0]
        assert not is_stable(big, th)
        return
    pytest.fail("no stable seed found")


def test_specialized_vs_brute_force_sample(a1_framed, dims11):
    theta = theta_I({0, 1}, dims11)
    count = 0
    for seed, rep in flat_reps(a1_framed, dims11, 25):
        for p in (2, 3):
            try:
                reduced = reduce_mod_p(rep, p)
            except BadPrime:
                continue
            got = stability_verdict(reduced, theta)[:2]
            want = brute_force_stability(reduced, theta)[:2]
            assert got == want, (seed, p)
            count += 1
    assert count >= 25


def reference_brute_force(rep, theta):
    """The exhaustive walk with a fresh ``ClosureTest`` at every candidate
    and the closed families scored after the walk in ``Fraction``
    arithmetic."""
    field = rep.field
    verts = sorted(rep.quiver.vertices, key=vertex_sort_key)
    pos = {v: i for i, v in enumerate(verts)}
    maps_into = [[] for _ in verts]
    for tail, head, mat in rep.generators():
        maps_into[max(pos[tail], pos[head])].append((tail, head, mat))
    assignment, leaves = {}, []

    def walk(idx):
        if idx == len(verts):
            leaves.append({v: len(assignment[v]) for v in verts})
            return
        v = verts[idx]
        n = rep.dims.get(v)
        for basis in itertools.chain.from_iterable(
                subspaces_of_dimension(field.p, n, s) for s in range(n + 1)):
            assignment[v] = basis
            if ClosureTest(field, maps_into[idx])(assignment):
                walk(idx + 1)
        del assignment[v]

    walk(0)
    total = rep.total_dim()
    semistable = stable = True
    violations = []
    if sum(Fraction(w) * rep.dims.get(v) for v, w in theta.values.items()):
        semistable = stable = False
        violations.append(rep.dims.as_dict())
    for dims in leaves:
        tot = sum(dims.values())
        value = sum(Fraction(theta.values.get(v, 0)) * d for v, d in dims.items())
        if tot and value < 0:
            semistable = stable = False
            violations.append(dims)
        elif tot and value == 0 and tot < total:
            stable = False
            violations.append(dims)
    return semistable, stable, violations


ORACLE_CASES = [
    ("A1", {0: 2, 1: 1}),
    ("A1", {0: 1, 1: 2}),
    ("A2", {0: 1, 1: 1, 2: 1}),
    ("A2", {0: 2, 1: 1, 2: 1}),
    ("D4", {0: 1, 1: 1, 2: 1, 3: 1, 4: 1}),
    ("D4", {0: 1, 1: 1, 2: 2, 3: 1, 4: 1}),
]


@pytest.mark.parametrize("label,comps", ORACLE_CASES,
                         ids=[f"{g}-{''.join(map(str, c.values()))}"
                              for g, c in ORACLE_CASES])
def test_brute_force_matches_reference_walk(label, comps):
    """The reference walk's verdict, with a witness from its violation
    list, on seeded flat modules (one of them stable for the full corner),
    the zero module and the zero module of framing dimension 2 (where
    theta(v) != 0 and the witness is v), for three corners, over GF(2),
    GF(3) and GF(5)."""
    quiver = frame_quiver(mckay_quiver(build_group(label)), {0: 1})
    dims = DimVector(components=comps, at_infinity=1)
    framed_twice = DimVector(components=comps, at_infinity=2)
    every = tuple(range(len(comps)))
    reps = [rep for _, rep in flat_reps(quiver, dims, 2)
            + stable_reps(quiver, dims, every, 1)] + [zero_rep(quiver, dims),
                                                     zero_rep(quiver, framed_twice)]
    seen = set()
    for rep in reps:
        for p in (2, 3, 5):
            try:
                reduced = reduce_mod_p(rep, p)
            except BadPrime:
                continue
            for corner in ((0,), (0, 1), every):
                theta = theta_I(corner, rep.dims)
                semistable, stable, witness = brute_force_stability(reduced, theta)
                want = reference_brute_force(reduced, theta)
                assert (semistable, stable) == want[:2], (p, corner)
                assert (witness is None) == (not want[2]), (p, corner)
                assert witness is None or witness in want[2], (p, corner)
                if rep.dims is framed_twice:
                    assert witness == framed_twice.as_dict() == want[2][0]
                    assert not semistable
                seen.add((semistable, stable, witness is not None))
    assert (False, False, True) in seen and (True, True, False) in seen


@pytest.mark.parametrize("p", [2, 3])
def test_brute_force_tests_loops(p):
    """On the framed tripled A1 quiver with v = (2, 0; 1) and corner {0},
    the framing vector maps to e_2 at vertex 0.  With every loop zero the
    submodule it generates (dims 1, 0; 1) destabilises; the nilpotent loop
    e_2 -> e_1 at vertex 0 makes it generate everything, and the module is
    stable.  Fast path, oracle and reference walk agree on both."""
    quiver = frame_quiver(triple_quiver(mckay_quiver(build_group("A1"))), {0: 1})
    dims = DimVector(components={0: 2, 1: 0}, at_infinity=1)
    theta = theta_I({0}, dims)
    frame_in, = (a.id for a in quiver.arrows if a.tail == 0 and a.head == INFINITY)
    maps = {frame_in: ((0,), (1,))}
    plain = make_rep(quiver, dims, maps)
    looped = make_rep(quiver, dims, {**maps, quiver.loops[0]: ((0, 1), (0, 0))})
    for rep, want in ((plain, (False, False)), (looped, (True, True))):
        reduced = reduce_mod_p(rep, p)
        assert stability_verdict(rep, theta)[:2] == want
        assert brute_force_stability(reduced, theta)[:2] == want
        assert reference_brute_force(reduced, theta)[:2] == want
    witness = {0: 1, 1: 0, INFINITY: 1}
    assert stability_verdict(plain, theta)[2] == witness
    assert brute_force_stability(reduce_mod_p(plain, p), theta)[2] == witness
    assert witness in reference_brute_force(reduce_mod_p(plain, p), theta)[2]
    assert brute_force_stability(reduce_mod_p(looped, p), theta)[2] is None


def test_generated_submodule_refuses_malformed_seeds(a1_framed, dims11):
    rep = zero_rep(a1_framed, dims11)
    with pytest.raises(VertexNotInCorner, match="vertex 7 not in the quiver"):
        generated_submodule(rep, {INFINITY: [(Fraction(1),)], 7: [(Fraction(1),)]})
    for vec in ((Fraction(0), Fraction(1)), ()):
        with pytest.raises(ShapeMismatch, match="at vertex 0"):
            generated_submodule(rep, {0: [vec]})
    spaces = max_submodule_avoiding(rep, {7, INFINITY}).spaces
    assert spaces == max_submodule_avoiding(rep, {INFINITY}).spaces


def test_generated_submodule_rows_lead_with_one(a1_framed):
    """The basis of a generated submodule is its echelon's rows scaled to
    pivot 1, in pivot order, with ``int`` values where integral: these are
    the coordinates a restricted module is written in."""
    rep = zero_rep(a1_framed, DimVector(components={0: 3, 1: 0}, at_infinity=1))
    seeds = {0: [(0, 0, 4), (2, 4, Fraction(1, 3)), (0, Fraction(3, 2), 6)]}
    rows = generated_submodule(rep, seeds).spaces[0]
    assert rows == ((1, 2, Fraction(1, 6)), (0, 1, 4), (0, 0, 1))
    assert all(type(x) is int for row in rows for x in row if x != Fraction(1, 6))


def test_cyclicity_criterion_for_full_corner(a1_framed, dims11):
    """For the full corner, stability collapses to the generation check."""
    theta = theta_I({0, 1}, dims11)
    for _, rep in flat_reps(a1_framed, dims11, 15):
        field = rep.field
        seeds = {INFINITY: [(field.one,)]}
        gen = generated_submodule(rep, seeds)
        cyclic = gen.total() == rep.total_dim()
        assert is_stable(rep, theta) == cyclic


def test_polystable_decomposition(a1_framed, dims11):
    theta0 = theta_I({0}, dims11)
    stable_rep = None
    for _, rep in flat_reps(a1_framed, dims11, 30):
        if is_stable(rep, theta0):
            stable_rep = rep
            break
    assert stable_rep is not None
    # already stable: single summand isomorphic to the input
    summands = polystable_decomposition(stable_rep, {0})
    assert len(summands) == 1
    assert are_isomorphic(summands[0], stable_rep)
    # direct sum with a vertex simple off the corner
    simple = vertex_simple(a1_framed, 1)
    big = direct_sum(stable_rep, simple)
    parts = polystable_decomposition(big, {0})
    assert len(parts) == 2
    totals = {}
    for m in parts:
        for v, d in m.dims.as_dict().items():
            totals[v] = totals.get(v, 0) + d
    assert totals == big.dims.as_dict()
    assert is_stable(parts[0], theta_I({0}, parts[0].dims))
    assert any(are_isomorphic(m, simple) for m in parts[1:])


def test_are_isomorphic_refuses_mixed_fields(a1_framed, dims11):
    """A module over QQ and its reduction mod 3 are over different fields;
    one intertwiner system would mix their values, so it is refused."""
    (_, rep), = flat_reps(a1_framed, dims11, 1)
    with pytest.raises(InvariantViolation, match=r"QQ and GF\(3\)"):
        are_isomorphic(rep, reduce_mod_p(rep, 3))
    with pytest.raises(InvariantViolation, match=r"GF\(3\) and GF\(5\)"):
        are_isomorphic(reduce_mod_p(rep, 3), reduce_mod_p(rep, 5))
    assert are_isomorphic(reduce_mod_p(rep, 3), reduce_mod_p(rep, 3))


@pytest.mark.parametrize("p", [0, 3])
@pytest.mark.parametrize("duplicate", [copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
                         ids=["deepcopy", "pickle"])
def test_kernels_accept_a_copied_field(a1_framed, dims11, p, duplicate):
    """A module whose field is a copy of QQ or GF(p) is over the same
    field: the isomorphism test and the direct sum accept it."""
    (_, rep), = flat_reps(a1_framed, dims11, 1)
    if p:
        rep = reduce_mod_p(rep, p)
    twin = rep.rebuild(rep.vertex_dims(), [mat for _, _, mat in rep.generators()],
                       duplicate(rep.field))
    assert twin.field is not rep.field
    assert are_isomorphic(rep, twin) and are_isomorphic(twin, rep)
    assert direct_sum(rep, twin).field == rep.field


def test_polystable_requires_semistable(a1_framed, dims11):
    rep = zero_rep(a1_framed, dims11)
    with pytest.raises(NotSemistable):
        polystable_decomposition(rep, {0, 1})


def test_s_equivalence_reflexive_symmetric(a1_framed, dims11):
    for _, rep in flat_reps(a1_framed, dims11, 5):
        if not stability_verdict(rep, theta_I({0}, dims11))[0]:
            continue
        parts = polystable_decomposition(rep, {0})
        assert s_equivalent(parts, parts)
        assert s_equivalent(list(reversed(parts)), parts)


def test_are_isomorphic(a1_framed, dims11):
    reps = flat_reps(a1_framed, dims11, 4)
    _, a = reps[0]
    assert are_isomorphic(a, a)
    # different dimension vectors
    other = zero_rep(a1_framed, DimVector(components={0: 2, 1: 1}, at_infinity=1))
    assert not are_isomorphic(a, other)
    # base change round trip
    twisted = conjugated_copy(a, seed=5)
    assert is_flat(twisted)
    assert are_isomorphic(a, twisted)


def test_reduce_mod_p_bad_prime(a1_framed, dims11):
    maps = {}
    for arr in a1_framed.arrows:
        r, c = dims11.get(arr.tail), dims11.get(arr.head)
        maps[arr.id] = tuple(tuple(Fraction(0) for _ in range(c)) for _ in range(r))
    first = a1_framed.arrows[0]
    maps[first.id] = ((Fraction(1, 2),),)
    rep = QuiverRep(quiver=a1_framed, dims=dims11, maps=maps, field=QQ)
    with pytest.raises(BadPrime):
        reduce_mod_p(rep, 2)
    reduce_mod_p(rep, 3)  # fine
