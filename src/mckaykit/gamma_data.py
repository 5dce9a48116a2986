"""Finite subgroups of SL(2, C) in their ADE classification.

Series A is cyclic (order rank+1), series D binary dihedral (order
4(rank-2)), series E the binary tetrahedral / octahedral / icosahedral
groups (orders 24, 48, 120).  For A and D the group elements are stored
explicitly as 2x2 complex matrices and the character table is rebuilt
from scratch at load; for E only curated character tables ship, checked
against orthogonality at load.

Character rows are permuted so that row index equals the canonical
affine Dynkin vertex of :mod:`mckaykit.dynkin`, with the trivial
representation at vertex 0.
"""

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dynkin
from .errors import (
    InvalidDescriptor,
    InvariantViolation,
    NonIntegralMultiplicity,
)

ORTHOGONALITY_TOL = 1e-9
INTEGRALITY_TOL = 1e-6

_KEY_DIGITS = 9


@dataclass(frozen=True)
class GammaDescriptor:
    """ADE label of a finite subgroup of SL(2, C): series + affine rank."""

    series: str
    rank: int

    def __post_init__(self):
        dynkin.validate_descriptor(self.series, self.rank)

    @property
    def label(self):
        return f"{self.series}{self.rank}"

    @property
    def num_vertices(self):
        return self.rank + 1


def parse_descriptor(text):
    """Parse a label like "A3", "D5" or "E7" into a descriptor."""
    text = text.strip()
    if len(text) < 2 or text[0] not in "ADE":
        raise InvalidDescriptor(f"bad group descriptor {text!r}")
    try:
        rank = int(text[1:])
    except ValueError:
        raise InvalidDescriptor(f"bad group descriptor {text!r}") from None
    return GammaDescriptor(text[0], rank)


@dataclass(frozen=True)
class GroupData:
    """A group with its conjugacy classes and irreducible characters.

    ``characters[i][c]`` is the value of irrep i on class c; row indices
    follow the canonical Dynkin vertex order, row 0 is trivial.  ``chi_v``
    is the character of the defining 2-dimensional representation.
    ``elements``/``class_of``/``class_reps`` are present for series A, D
    only.
    """

    descriptor: GammaDescriptor
    order: int
    elements: Optional[tuple]
    characters: tuple
    class_sizes: tuple
    irrep_dims: tuple
    chi_v: tuple
    class_of: Optional[tuple]
    class_reps: Optional[tuple]

    @property
    def num_classes(self):
        return len(self.class_sizes)

    @property
    def num_irreps(self):
        return len(self.irrep_dims)


# ---------------------------------------------------------------------------
# 2x2 matrix helpers (tuples of tuples of complex)
# ---------------------------------------------------------------------------

def _mat2_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


def _mat2_inv(a):
    # valid for determinant 1
    return ((a[1][1], -a[0][1]), (-a[1][0], a[0][0]))


def _mat2_trace(a):
    return a[0][0] + a[1][1]


def _mat2_key(a):
    return tuple(
        (round(z.real, _KEY_DIGITS), round(z.imag, _KEY_DIGITS))
        for row in a
        for z in row
    )


def closure(generators):
    """All products of the generators, in deterministic BFS order."""
    identity = ((1 + 0j, 0j), (0j, 1 + 0j))
    elements = [identity]
    seen = {_mat2_key(identity)}
    frontier = [identity]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = _mat2_mul(x, g)
                key = _mat2_key(y)
                if key not in seen:
                    seen.add(key)
                    elements.append(y)
                    new.append(y)
        frontier = new
        if len(elements) > 1000:
            raise InvariantViolation("generator closure did not terminate")
    return tuple(elements)


def conjugacy_classes(elements):
    """Brute-force classes.  Returns (class_of, class_reps, class_sizes)."""
    index = {_mat2_key(e): i for i, e in enumerate(elements)}
    class_of = [None] * len(elements)
    reps = []
    sizes = []
    for i, e in enumerate(elements):
        if class_of[i] is not None:
            continue
        cls = len(reps)
        members = set()
        for g in elements:
            j = index[_mat2_key(_mat2_mul(_mat2_mul(g, e), _mat2_inv(g)))]
            members.add(j)
        for j in members:
            class_of[j] = cls
        reps.append(i)
        sizes.append(len(members))
    return tuple(class_of), tuple(reps), tuple(sizes)


# ---------------------------------------------------------------------------
# character tables from explicit elements (class-sum eigenvector method)
# ---------------------------------------------------------------------------

def dixon_character_table(elements, seed=0):
    """Numerically recompute the character table from group elements.

    Uses the commuting class-sum multiplication matrices: their common
    eigenvectors give the central characters, from which degrees and
    character values follow.  Row order is arbitrary; rows are exact to
    float precision.  Returns (characters, class_sizes, class_of, reps).
    """
    class_of, reps, sizes = conjugacy_classes(elements)
    k = len(reps)
    n = len(elements)
    index = {_mat2_key(e): i for i, e in enumerate(elements)}
    members = [[] for _ in range(k)]
    for i, c in enumerate(class_of):
        members[c].append(i)

    # n_{ab}^c = #{(x,y) in C_a x C_b : xy = z_c}, z_c a fixed representative
    struct = [np.zeros((k, k)) for _ in range(k)]
    for a in range(k):
        for b in range(k):
            counts = [0] * k
            for xi in members[a]:
                x = elements[xi]
                for yi in members[b]:
                    z = _mat2_mul(x, elements[yi])
                    counts[class_of[index[_mat2_key(z)]]] += 1
            for c in range(k):
                if counts[c] % sizes[c]:
                    raise InvariantViolation("class algebra structure constants broken")
                struct[a][b, c] = counts[c] // sizes[c]

    rng = np.random.default_rng(seed)
    for _ in range(25):
        coeffs = rng.normal(size=k) + 1j * rng.normal(size=k)
        total = sum(c * m for c, m in zip(coeffs, struct))
        eigvals, eigvecs = np.linalg.eig(total.T)
        if min(
            abs(eigvals[i] - eigvals[j]) for i in range(k) for j in range(i + 1, k)
        ) > 1e-6:
            break
    else:
        raise InvariantViolation("no separating class-algebra eigenbasis found")

    rows = []
    for idx in range(k):
        v = eigvecs[:, idx]
        m = int(np.argmax(np.abs(v)))
        omega = np.array([(mat.T @ v)[m] / v[m] for mat in struct])
        denom = sum(abs(omega[a]) ** 2 / sizes[a] for a in range(k))
        degree = math.sqrt(n / denom.real)
        chi = tuple(degree * omega[a] / sizes[a] for a in range(k))
        rows.append(chi)
    rows.sort(key=lambda row: (round(row[0].real), [
        (round(z.real, 6), round(z.imag, 6)) for z in row]))
    return tuple(rows), sizes, class_of, reps


# ---------------------------------------------------------------------------
# series constructions
# ---------------------------------------------------------------------------

def _cyclic_group(rank):
    n = rank + 1
    zeta = cmath.exp(2j * cmath.pi / n)
    gen = ((zeta, 0j), (0j, zeta**-1))
    elements = []
    g = ((1 + 0j, 0j), (0j, 1 + 0j))
    for _ in range(n):
        elements.append(g)
        g = _mat2_mul(g, gen)
    # every element is its own class; irrep j sends the generator to zeta^j
    characters = tuple(
        tuple(zeta ** (j * c) for c in range(n)) for j in range(n)
    )
    chi_v = tuple(_mat2_trace(e) for e in elements)
    return GroupData(
        descriptor=GammaDescriptor("A", rank),
        order=n,
        elements=tuple(elements),
        characters=characters,
        class_sizes=(1,) * n,
        irrep_dims=(1,) * n,
        chi_v=chi_v,
        class_of=tuple(range(n)),
        class_reps=tuple(range(n)),
    )


def _binary_dihedral_elements(n):
    zeta = cmath.exp(1j * cmath.pi / n)
    a = ((zeta, 0j), (0j, zeta**-1))
    b = ((0j, 1 + 0j), (-1 + 0j, 0j))
    elements = []
    g = ((1 + 0j, 0j), (0j, 1 + 0j))
    for _ in range(2 * n):
        elements.append(g)
        g = _mat2_mul(g, a)
    for k in range(2 * n):
        elements.append(_mat2_mul(b, elements[k]))
    return tuple(elements)


def _binary_dihedral_character_rows(n, reps, elements):
    """Closed-form irreducible characters of the binary dihedral group.

    Elements are a^k (k < 2n) and b a^k; irreps are four 1-dimensional
    characters plus the 2-dimensional ones rho_h, h = 1..n-1.
    """
    zeta = cmath.exp(1j * cmath.pi / n)

    def eval_on(rep_index, one_dim):
        a_val, b_val = one_dim
        k = rep_index % (2 * n)
        with_b = rep_index >= 2 * n
        val = a_val**k
        return val * b_val if with_b else val

    if n % 2 == 0:
        one_dims = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    else:
        one_dims = [(1, 1), (1, -1), (-1, 1j), (-1, -1j)]

    rows = []
    for od in one_dims:
        rows.append(tuple(complex(eval_on(r, od)) for r in reps))
    for h in range(1, n):
        row = []
        for r in reps:
            k = r % (2 * n)
            row.append(0j if r >= 2 * n else zeta ** (h * k) + zeta ** (-h * k))
        rows.append(tuple(row))
    return rows


def _binary_dihedral_group(rank):
    n = rank - 2
    elements = _binary_dihedral_elements(n)
    class_of, reps, sizes = conjugacy_classes(elements)
    rows = _binary_dihedral_character_rows(n, reps, elements)
    dims = [int(round(row[0].real)) for row in rows]
    chi_v = tuple(_mat2_trace(elements[r]) for r in reps)

    mult, trivial = _raw_multiplicities(rows, sizes, chi_v, len(elements))
    perm = dynkin.match_layout(mult, dims, trivial, "D", rank)
    ordered = [None] * len(rows)
    for i, slot in enumerate(perm):
        ordered[slot] = rows[i]
    return GroupData(
        descriptor=GammaDescriptor("D", rank),
        order=len(elements),
        elements=elements,
        characters=tuple(ordered),
        class_sizes=sizes,
        irrep_dims=tuple(int(round(row[0].real)) for row in ordered),
        chi_v=chi_v,
        class_of=class_of,
        class_reps=reps,
    )


def _e_series_group(rank):
    from . import _e_tables

    data = _e_tables.E_TABLES[rank]
    return GroupData(
        descriptor=GammaDescriptor("E", rank),
        order=data["order"],
        elements=None,
        characters=data["characters"],
        class_sizes=data["class_sizes"],
        irrep_dims=data["irrep_dims"],
        chi_v=data["chi_v"],
        class_of=None,
        class_reps=None,
    )


def _raw_multiplicities(rows, sizes, chi_v, order):
    """Multiplicity matrix and trivial-row index for unordered rows."""
    k = len(rows)
    trivial = None
    for i, row in enumerate(rows):
        if all(abs(z - 1) < 1e-8 for z in row):
            trivial = i
            break
    if trivial is None:
        raise InvariantViolation("no trivial character row found")
    mult = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            s = sum(
                sizes[c] * chi_v[c] * rows[i][c] * rows[j][c].conjugate()
                for c in range(len(sizes))
            ) / order
            if abs(s - round(s.real)) > INTEGRALITY_TOL:
                raise NonIntegralMultiplicity(f"multiplicity ({i},{j}) = {s}")
            mult[i][j] = int(round(s.real))
    return mult, trivial


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def build_group(descriptor):
    """The group data for an ADE descriptor (or its label), fully validated.

    Built once per descriptor and process; ``GroupData`` is immutable, so
    every caller shares the one copy.
    """
    if isinstance(descriptor, str):
        descriptor = parse_descriptor(descriptor)
    return _build_group(descriptor)


@functools.lru_cache(maxsize=None)
def _build_group(descriptor):
    dynkin.validate_descriptor(descriptor.series, descriptor.rank)
    if descriptor.series == "A":
        g = _cyclic_group(descriptor.rank)
    elif descriptor.series == "D":
        g = _binary_dihedral_group(descriptor.rank)
    else:
        g = _e_series_group(descriptor.rank)
    validate_group_data(g)
    return g


def tensor_multiplicity(g, i, j):
    """dim Hom(rho_j, rho_i (x) V) for the defining 2-dimensional V."""
    if not (0 <= i < g.num_irreps and 0 <= j < g.num_irreps):
        raise InvalidDescriptor(f"irrep index out of range: ({i}, {j})")
    s = sum(
        g.class_sizes[c] * g.chi_v[c] * g.characters[i][c] * g.characters[j][c].conjugate()
        for c in range(g.num_classes)
    ) / g.order
    if abs(s - round(s.real)) > INTEGRALITY_TOL:
        raise NonIntegralMultiplicity(f"multiplicity ({i},{j}) = {s}")
    value = int(round(s.real))
    if value < 0:
        raise NonIntegralMultiplicity(f"negative multiplicity ({i},{j}) = {s}")
    return value


def tensor_multiplicity_matrix(g):
    n = g.num_irreps
    return tuple(tuple(tensor_multiplicity(g, i, j) for j in range(n)) for i in range(n))


def validate_group_data(g):
    """Run the structural self-checks; raise InvariantViolation on failure."""
    if sum(d * d for d in g.irrep_dims) != g.order:
        raise InvariantViolation("sum of squared irrep dimensions != group order")
    if g.irrep_dims[0] != 1 or any(abs(z - 1) > 1e-9 for z in g.characters[0]):
        raise InvariantViolation("row 0 is not the trivial character")
    if sum(g.class_sizes) != g.order:
        raise InvariantViolation("class sizes do not sum to the group order")
    k = g.num_classes
    for i in range(g.num_irreps):
        for j in range(g.num_irreps):
            s = sum(
                g.class_sizes[c] * g.characters[i][c] * g.characters[j][c].conjugate()
                for c in range(k)
            ) / g.order
            expected = 1 if i == j else 0
            if abs(s - expected) > ORTHOGONALITY_TOL:
                raise InvariantViolation(f"row orthogonality fails at ({i},{j}): {s}")

    mult = tensor_multiplicity_matrix(g)
    delta = g.irrep_dims
    for i in range(g.num_irreps):
        if mult[i][i] != 0:
            raise InvariantViolation("nonzero diagonal in the McKay matrix")
        if sum(mult[i][j] * delta[j] for j in range(g.num_irreps)) != 2 * delta[i]:
            raise InvariantViolation("A.delta = 2.delta fails")
    if mult != dynkin.adjacency(g.descriptor.series, g.descriptor.rank):
        raise InvariantViolation("multiplicities do not match the canonical layout")

    if g.elements is not None:
        _check_against_elements(g)


def _check_against_elements(g):
    """Recompute characters from the stored elements and compare."""
    recomputed, sizes, _, reps = dixon_character_table(g.elements)
    if sizes != g.class_sizes:
        raise InvariantViolation("recomputed class sizes disagree")
    for c, r in enumerate(reps):
        if abs(_mat2_trace(g.elements[r]) - g.chi_v[c]) > 1e-9:
            raise InvariantViolation("stored chi_V disagrees with element traces")
    used = set()
    for row in g.characters:
        found = None
        for idx, cand in enumerate(recomputed):
            if idx in used:
                continue
            if all(abs(a - b) <= 1e-9 for a, b in zip(row, cand)):
                found = idx
                break
        if found is None:
            raise InvariantViolation("stored character row not recovered from elements")
        used.add(found)
