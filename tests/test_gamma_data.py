"""Group data: classification, characters, multiplicities."""

import os
import subprocess
import sys

import pytest

import mckaykit
from mckaykit import dynkin
from mckaykit.errors import InvalidDescriptor, NonIntegralMultiplicity
from mckaykit.gamma_data import (
    E_GENERATORS,
    GroupData,
    build_group,
    closure,
    dixon_character_table,
    parse_descriptor,
    tensor_multiplicity,
    tensor_multiplicity_matrix,
    validate_group_data,
)

ALL_LABELS = ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "D6", "E6", "E7", "E8"]


@pytest.mark.parametrize("label", ["A0", "D3", "E5", "E9", "B2", "Axy"])
def test_invalid_descriptors(label):
    with pytest.raises(InvalidDescriptor):
        build_group(label)


def test_a1_basic():
    g = build_group("A1")
    assert g.order == 2
    assert g.irrep_dims == (1, 1)
    assert sum(d * d for d in g.irrep_dims) == g.order


@pytest.mark.parametrize("label", ALL_LABELS)
def test_sum_of_squares(label):
    g = build_group(label)
    assert sum(d * d for d in g.irrep_dims) == g.order


def test_d4_against_brute_force_oracle():
    """Enumerate the eight binary-dihedral matrices independently and
    recover order, class count and irrep dimensions by brute force."""
    def quat(a, b, c, d):
        return ((a + b * 1j, c + d * 1j), (-c + d * 1j, a - b * 1j))

    elements = closure([quat(0, 1, 0, 0), quat(0, 0, 1, 0)])
    assert len(elements) == 8
    rows, sizes, _, _ = dixon_character_table(elements)
    dims = sorted(int(round(r[0].real)) for r in rows)
    assert dims == [1, 1, 1, 1, 2]
    g = build_group("D4")
    assert g.order == 8
    assert sorted(g.irrep_dims) == dims
    assert sorted(g.class_sizes) == sorted(sizes)


# binary tetrahedral, octahedral and icosahedral groups: order and the
# multiset of conjugacy class sizes, as in the literature
E_LITERATURE = {
    6: (24, [1, 1, 4, 4, 4, 4, 6]),
    7: (48, [1, 1, 6, 6, 6, 8, 8, 12]),
    8: (120, [1, 1, 12, 12, 12, 12, 20, 20, 30]),
}


@pytest.mark.parametrize("rank", sorted(E_LITERATURE))
def test_e_series_against_literature(rank):
    """Pin the E groups by facts that do not come from Dixon's table."""
    order, class_sizes = E_LITERATURE[rank]
    assert len(closure(E_GENERATORS[rank])) == order
    g = build_group(f"E{rank}")
    assert g.order == len(g.elements) == order
    assert sorted(g.class_sizes) == class_sizes
    for c, r in enumerate(g.class_reps):
        (a, _), (_, d) = g.elements[r]
        assert g.class_of[r] == c
        assert abs(g.chi_v[c] - (a + d)) < 1e-12


BUILD_ONCE_SCRIPT = """
import sys
from mckaykit import gamma_data
tables = []
dixon = gamma_data.dixon_character_table
def counted(elements):
    tables.append(len(elements))
    return dixon(elements)
gamma_data.dixon_character_table = counted
labels = sys.argv[1:]
for _ in range(2):
    for label in labels:
        gamma_data.build_group(label)
assert len(tables) == len(labels), tables
assert "numpy.random" not in sys.modules
"""


def test_groups_built_once_without_numpy_random():
    """In a fresh process, building every group twice computes one Dixon
    table per group and never imports numpy.random."""
    src = os.path.dirname(os.path.dirname(mckaykit.__file__))
    proc = subprocess.run([sys.executable, "-c", BUILD_ONCE_SCRIPT, *ALL_LABELS],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_tensor_multiplicity_a1():
    g = build_group("A1")
    # V = rho_1 + rho_1 for the order-two group, so Hom(rho_1, rho_0 x V)
    # is two dimensional and V has no trivial summand
    assert tensor_multiplicity(g, 0, 1) == 2
    assert tensor_multiplicity(g, 1, 0) == 2
    assert tensor_multiplicity(g, 0, 0) == 0
    assert tensor_multiplicity(g, 1, 1) == 0


@pytest.mark.parametrize("label", ALL_LABELS)
def test_multiplicity_symmetry_and_eigenvector(label):
    g = build_group(label)
    mult = tensor_multiplicity_matrix(g)
    n = g.num_irreps
    for i in range(n):
        assert mult[i][i] == 0
        for j in range(n):
            assert mult[i][j] == mult[j][i]
    delta = g.irrep_dims
    for i in range(n):
        assert sum(mult[i][j] * delta[j] for j in range(n)) == 2 * delta[i]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_matches_canonical_layout(label):
    g = build_group(label)
    desc = parse_descriptor(label)
    assert tensor_multiplicity_matrix(g) == dynkin.adjacency(desc.series, desc.rank)
    assert g.irrep_dims == dynkin.marks(desc.series, desc.rank)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_orthogonality_self_check(label):
    validate_group_data(build_group(label))


def test_corrupted_table_detected():
    g = build_group("A2")
    rows = [list(r) for r in g.characters]
    rows[1][1] += 0.2
    bad = GroupData(
        descriptor=g.descriptor,
        order=g.order,
        elements=g.elements,
        characters=tuple(tuple(r) for r in rows),
        class_sizes=g.class_sizes,
        irrep_dims=g.irrep_dims,
        chi_v=g.chi_v,
        class_of=g.class_of,
        class_reps=g.class_reps,
    )
    with pytest.raises(NonIntegralMultiplicity):
        for i in range(3):
            for j in range(3):
                tensor_multiplicity(bad, i, j)


def test_trivial_row_and_chi_v_real():
    for label in ALL_LABELS:
        g = build_group(label)
        assert g.irrep_dims[0] == 1
        assert all(abs(x - 1) < 1e-9 for x in g.characters[0])
        # traces of SL2 torsion elements are real
        assert all(abs(x.imag) < 1e-9 for x in g.chi_v)
