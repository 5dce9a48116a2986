"""Finite subgroups of SL(2, C) in their ADE classification.

Series A is cyclic (order rank+1), series D binary dihedral (order
4(rank-2)), series E the binary tetrahedral / octahedral / icosahedral
groups (orders 24, 48, 120).  Every group is built from its elements,
stored as 2x2 complex matrices: A and D from closed-form lists, E as the
closure of unit-quaternion generators.  One path then computes the
conjugacy classes and the character table by Dixon's class-sum method:
A and D check their closed-form character rows against that table, E
takes its rows from it.

Character rows are permuted so that row index equals the canonical
affine Dynkin vertex of :mod:`mckaykit.dynkin`, with the trivial
representation at vertex 0.
"""

import cmath
import functools
import math
import random
from dataclasses import dataclass, replace

import numpy as np

from . import dynkin
from .errors import (
    InvalidDescriptor,
    InvariantViolation,
    NonIntegralMultiplicity,
)

ORTHOGONALITY_TOL = 1e-9
INTEGRALITY_TOL = 1e-6

_KEY_SCALE = 1e9  # matrix entries are compared to 9 decimal places


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
    ``elements`` lists the group as 2x2 complex matrices; element e lies
    in class ``class_of[e]``, and class c is represented by element
    ``class_reps[c]``.
    """

    descriptor: GammaDescriptor
    order: int
    elements: tuple
    characters: tuple
    class_sizes: tuple
    irrep_dims: tuple
    chi_v: tuple
    class_of: tuple
    class_reps: tuple

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
    (p, q), (r, s) = a
    k = _KEY_SCALE
    return (round(p.real * k), round(p.imag * k), round(q.real * k), round(q.imag * k),
            round(r.real * k), round(r.imag * k), round(s.real * k), round(s.imag * k))


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
# character tables from explicit elements (Dixon's class-sum method)
# ---------------------------------------------------------------------------

def dixon_character_table(elements):
    """Numerically compute the character table from group elements.

    Multiplication by the class sums acts on the centre of the group
    algebra through the structure constants n_ab^c = #{x in C_a :
    x^-1 z_c in C_b}, z_c the representative of class c.  These matrices
    commute; the eigenvectors of a random combination of them give the
    central characters, from which degrees and character values follow
    (Dixon, Numer. Math. 1967).  Row order is sorted, not canonical; rows
    are plain complex numbers, exact to float precision.  Returns
    (characters, class_sizes, class_of, reps).
    """
    class_of, reps, sizes = conjugacy_classes(elements)
    k = len(reps)
    n = len(elements)
    index = {_mat2_key(e): i for i, e in enumerate(elements)}

    struct = [[[0] * k for _ in range(k)] for _ in range(k)]  # [a][b][c]
    for c, r in enumerate(reps):
        z = elements[r]
        for xi, x in enumerate(elements):
            y = index[_mat2_key(_mat2_mul(_mat2_inv(x), z))]
            struct[class_of[xi]][class_of[y]][c] += 1
    for a in range(k):
        for b in range(k):
            if sum(struct[a][b][c] * sizes[c] for c in range(k)) != sizes[a] * sizes[b]:
                raise InvariantViolation("class algebra structure constants broken")

    rng = random.Random(0)
    for _ in range(25):
        coeffs = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(k)]
        total = np.array([
            [sum(coeffs[a] * struct[a][b][c] for a in range(k)) for b in range(k)]
            for c in range(k)
        ])
        eigvals, eigvecs = np.linalg.eig(total)
        if min(
            abs(eigvals[i] - eigvals[j]) for i in range(k) for j in range(i + 1, k)
        ) > 1e-6:
            break
    else:
        raise InvariantViolation("no separating class-algebra eigenbasis found")

    rows = []
    for v in eigvecs.T.tolist():
        m = max(range(k), key=lambda b: abs(v[b]))
        omega = [
            sum(struct[a][b][m] * v[b] for b in range(k)) / v[m] for a in range(k)
        ]
        denom = sum(abs(omega[a]) ** 2 / sizes[a] for a in range(k))
        degree = math.sqrt(n / denom)
        rows.append(tuple(degree * omega[a] / sizes[a] for a in range(k)))
    rows.sort(key=lambda row: (round(row[0].real), [
        (round(z.real, 6), round(z.imag, 6)) for z in row]))
    return tuple(rows), sizes, class_of, reps


# ---------------------------------------------------------------------------
# series constructions
# ---------------------------------------------------------------------------

def _quat(a, b, c, d):
    """Unit quaternion a + bi + cj + dk as an SU(2) matrix."""
    return ((complex(a, b), complex(c, d)), (complex(-c, d), complex(a, -b)))


_PHI = (1 + math.sqrt(5)) / 2

#: generators of the binary tetrahedral, octahedral and icosahedral groups
E_GENERATORS = {
    6: (_quat(0, 1, 0, 0), _quat(-0.5, 0.5, 0.5, 0.5)),
    7: (_quat(0, 1, 0, 0), _quat(-0.5, 0.5, 0.5, 0.5),
        _quat(1 / math.sqrt(2), 1 / math.sqrt(2), 0, 0)),
    8: (_quat(0, 1, 0, 0), _quat(_PHI / 2, 1 / (2 * _PHI), 0.5, 0)),
}


def _cyclic_elements(n):
    zeta = cmath.exp(2j * cmath.pi / n)
    gen = ((zeta, 0j), (0j, zeta**-1))
    elements = []
    g = ((1 + 0j, 0j), (0j, 1 + 0j))
    for _ in range(n):
        elements.append(g)
        g = _mat2_mul(g, gen)
    return tuple(elements)


def _cyclic_character_rows(n, reps):
    """Irrep j of the cyclic group sends its generator to zeta^j."""
    zeta = cmath.exp(2j * cmath.pi / n)
    return [tuple(zeta ** (j * r) for r in reps) for j in range(n)]


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


def _binary_dihedral_character_rows(n, reps):
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


def _group_from_elements(descriptor, elements, closed_form_rows=None):
    """Classes, character rows, chi_V and the canonical row order.

    ``closed_form_rows(reps)`` gives the character rows on the class
    representatives; every such row must be recovered from Dixon's
    table.  Without it Dixon's rows are used as they are.
    """
    rows, sizes, class_of, reps = dixon_character_table(elements)
    if closed_form_rows is not None:
        closed = closed_form_rows(reps)
        _require_rows_recovered(closed, rows)
        rows = closed
    trivial = next((i for i, row in enumerate(rows)
                    if all(abs(z - 1) < 1e-8 for z in row)), None)
    if trivial is None:
        raise InvariantViolation("no trivial character row found")
    dims = [int(round(row[0].real)) for row in rows]
    unordered = GroupData(
        descriptor=descriptor,
        order=len(elements),
        elements=elements,
        characters=tuple(rows),
        class_sizes=sizes,
        irrep_dims=tuple(dims),
        chi_v=tuple(_mat2_trace(elements[r]) for r in reps),
        class_of=class_of,
        class_reps=reps,
    )
    perm = dynkin.match_layout(tensor_multiplicity_matrix(unordered), dims,
                               trivial, descriptor.series, descriptor.rank)
    order = sorted(range(len(rows)), key=perm.__getitem__)
    return replace(
        unordered,
        characters=tuple(rows[i] for i in order),
        irrep_dims=tuple(dims[i] for i in order),
    )


def _require_rows_recovered(rows, computed):
    """Match every row to a distinct computed row within 1e-9."""
    used = set()
    for row in rows:
        found = None
        for idx, cand in enumerate(computed):
            if idx in used:
                continue
            if all(abs(a - b) <= 1e-9 for a, b in zip(row, cand)):
                found = idx
                break
        if found is None:
            raise InvariantViolation("closed-form character row not recovered from elements")
        used.add(found)


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
    rank = descriptor.rank
    if descriptor.series == "A":
        g = _group_from_elements(
            descriptor, _cyclic_elements(rank + 1),
            functools.partial(_cyclic_character_rows, rank + 1))
    elif descriptor.series == "D":
        g = _group_from_elements(
            descriptor, _binary_dihedral_elements(rank - 2),
            functools.partial(_binary_dihedral_character_rows, rank - 2))
    else:
        g = _group_from_elements(descriptor, closure(E_GENERATORS[rank]))
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

