"""Finite subgroups of SL(2, C) in their ADE classification, over GF(p).

Series A is cyclic (order rank+1), series D binary dihedral (order
4(rank-2)), series E the binary tetrahedral / octahedral / icosahedral
groups (orders 24, 48, 120).  Each group lives in GF(p), p the least
prime >= 2^31 with p = 1 (mod e), e the group's exponent: GF(p) then
holds every character value, and p is far above every integer lifted
from it.  Every series is built by one path: its elements are the
closure of its generators in SL(2, GF(p)) (``sl2_generators``), which
must have the group order sum(delta_i^2).  Its conjugacy classes are the
orbits under conjugation by a generating set, and its character table
comes from the Dixon-Schneider method over GF(p): the eigenvectors of a
random combination of the class matrices, whose eigenvalues are the roots
of its characteristic polynomial, found by Cantor-Zassenhaus splitting
(Cantor and Zassenhaus, Math. Comp. 1981) and the quadratic formula.  Row
index equals the canonical affine Dynkin vertex of
:mod:`mckaykit.dynkin`, with the trivial representation at vertex 0;
each vertex's row is fixed up to a diagram automorphism fixing vertex 0,
which preserves chi_V and so every multiplicity and Molien count.
``build_group`` refuses a rank above ``MAX_RANK``.
"""

import functools
import math
import operator
import random
from collections import Counter
from dataclasses import dataclass, replace

from . import dynkin
from .errors import (
    BadPrime,
    DimensionTooLarge,
    InvalidDescriptor,
    InvariantViolation,
    NonIntegralMultiplicity,
)
from .linalg import PrimeField, combine, solve

PRIME_FLOOR = 2**31

#: the largest affine rank ``build_group`` accepts.  A group of rank r has
#: r + 1 classes and at most 4r elements, and its build time grows as r^3:
#: A100 and D100 build in about 1 s each, A200 in about 6 s (CPython 3.11,
#: 2 shared cores).
MAX_RANK = 100

#: exponents of the binary tetrahedral, octahedral and icosahedral groups
E_EXPONENTS = {6: 12, 7: 24, 8: 60}

_IDENTITY = ((1, 0), (0, 1))


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

    Every value lies in GF(``prime``), as an int in ``range(prime)``.
    ``characters[i][c]`` is the value of irrep i on class c; row indices
    follow the canonical Dynkin vertex order, row 0 is trivial.  ``chi_v``
    is the character of the defining 2-dimensional representation (the
    trace).  ``elements`` lists the group as 2x2 matrices over GF(prime),
    the identity first; element e lies in class ``class_of[e]``, class c
    is represented by element ``class_reps[c]``, and the inverses of its
    elements form class ``class_inverse[c]``.  Class 0 is the identity.
    ``mckay_matrix[i][j]`` is ``tensor_multiplicity(g, i, j)``, computed
    from the characters once, when the group is built.
    """

    descriptor: GammaDescriptor
    order: int
    prime: int
    elements: tuple
    characters: tuple
    class_sizes: tuple
    class_inverse: tuple
    irrep_dims: tuple
    chi_v: tuple
    class_of: tuple
    class_reps: tuple
    mckay_matrix: tuple

    @property
    def num_classes(self):
        return len(self.class_sizes)

    @property
    def num_irreps(self):
        return len(self.irrep_dims)


# ---------------------------------------------------------------------------
# the prime field of a group
# ---------------------------------------------------------------------------

def exponent(descriptor):
    """Least e with g^e = 1 for every element g of the group."""
    if descriptor.series == "A":
        return descriptor.rank + 1
    if descriptor.series == "D":
        return math.lcm(2 * (descriptor.rank - 2), 4)
    return E_EXPONENTS[descriptor.rank]


def group_field(e):
    """GF(p) for the least prime p >= PRIME_FLOOR with p = 1 (mod e)."""
    p = PRIME_FLOOR + (1 - PRIME_FLOOR) % e
    while True:
        try:
            return PrimeField(p)
        except BadPrime:
            p += e


def root_of_unity(field, e):
    """A primitive e-th root of unity of GF(p), for e dividing p - 1:
    g^((p-1)/e) for the least g >= 2 that gives one."""
    p = field.p
    if (p - 1) % e:
        raise InvariantViolation(f"GF({p}) has no primitive {e}-th root of unity")
    for g in range(2, p):
        z = pow(g, (p - 1) // e, p)
        if all(pow(z, d, p) != 1 for d in range(1, e)):
            return z


# ---------------------------------------------------------------------------
# 2x2 matrices over GF(p) (tuples of tuples of ints, their own dict keys)
# ---------------------------------------------------------------------------

def _mat2_mul(p, a, b):
    return (
        ((a[0][0] * b[0][0] + a[0][1] * b[1][0]) % p,
         (a[0][0] * b[0][1] + a[0][1] * b[1][1]) % p),
        ((a[1][0] * b[0][0] + a[1][1] * b[1][0]) % p,
         (a[1][0] * b[0][1] + a[1][1] * b[1][1]) % p),
    )


def _mat2_inv(p, a):
    # valid for determinant 1
    return ((a[1][1], -a[0][1] % p), (-a[1][0] % p, a[0][0]))


def _mat2_conj(p, g, x):
    """g x g^-1 for g of determinant 1, whose inverse is its adjugate."""
    (a, b), (c, d) = g
    (x00, x01), (x10, x11) = x
    u, v, w, y = a * x00 + b * x10, a * x01 + b * x11, c * x00 + d * x10, c * x01 + d * x11
    return (((u * d - v * c) % p, (v * a - u * b) % p),
            ((w * d - y * c) % p, (y * a - w * b) % p))


def closure(field, generators, order):
    """All products of the generators, in deterministic BFS order.

    ``order`` is the order of the group they should generate; a closure
    that passes it (a wrong generator set) raises InvariantViolation.
    """
    elements = {_IDENTITY: None}  # insertion-ordered set
    frontier = [_IDENTITY]
    while frontier:
        new = []
        for x in frontier:
            for g in generators:
                y = _mat2_mul(field.p, x, g)
                if y not in elements:
                    elements[y] = None
                    new.append(y)
        frontier = new
        if len(elements) > order:
            raise InvariantViolation(
                f"the generators close to more than the group order {order}")
    return tuple(elements)


def conjugacy_classes(field, elements):
    """Classes as orbits under conjugation by a generating set.  Returns
    (class_of, class_reps, class_sizes).

    The generators are taken greedily from ``elements``: each one outside
    the closure of the earlier ones, until that closure is the whole list.
    Classes are numbered by their first element, which is their
    representative.
    """
    p = field.p
    gens, span = [], {_IDENTITY}
    for e in elements:
        if e not in span:
            gens.append(e)
            span = set(closure(field, gens, len(elements)))
    index = {e: i for i, e in enumerate(elements)}
    class_of = [None] * len(elements)
    reps = []
    sizes = []
    for i, e in enumerate(elements):
        if class_of[i] is None:
            class_of[i] = len(reps)
            orbit = [e]
            for x in orbit:  # the orbit grows while it is walked
                for g in gens:
                    j = index[_mat2_conj(p, g, x)]
                    if class_of[j] is None:
                        class_of[j] = len(reps)
                        orbit.append(elements[j])
            reps.append(i)
            sizes.append(len(orbit))
    return tuple(class_of), tuple(reps), tuple(sizes)


# ---------------------------------------------------------------------------
# polynomials over GF(p): coefficient lists, lowest degree first, trimmed
# ---------------------------------------------------------------------------

def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_divide(p, a, f):
    """Divide the list ``a`` by the monic ``f`` in place, from the top
    down: a[:d] becomes the remainder and a[d:] the quotient, d = deg f,
    every entry in range(p).  Returns ``a``."""
    d = len(f) - 1
    low = f[:d]
    for s in range(len(a) - 1, d - 1, -1):
        a[s] = coef = a[s] % p
        if coef:
            a[s - d:s] = [x - coef * y for x, y in zip(a[s - d:s], low)]
    a[:d] = [x % p for x in a[:d]]
    return a


def _poly_rem(p, a, f):
    """a mod the monic f."""
    return _poly_trim(_poly_divide(p, list(a), f)[:len(f) - 1])


def _poly_pack(a, width):
    """The entries of ``a``, in range(2^(8 width)), as the fields of
    ``width`` bytes of one ``int``, lowest first."""
    return int.from_bytes(b"".join([c.to_bytes(width, "little") for c in a]), "little")


def _poly_unpack(number, width, count):
    data = number.to_bytes(count * width, "little")
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, count * width, width)]


def _poly_mulmod(p, f):
    """The product mod the monic f, d = deg f, as a function of two
    polynomials of degree below d.

    The product is one ``int`` product of the coefficient lists packed
    into fixed-width fields (Kronecker substitution).  Its coefficients
    c_j of x^(d+j) are folded back as the sum of c_j times the packed
    x^(d+j) mod f, one more ``int`` sum; every field stays below d p^2.
    """
    d = len(f) - 1
    width = (2 * p.bit_length() + d.bit_length() + 7) // 8
    rows = []
    row = [-c % p for c in f[:d]]  # x^d mod f
    for _ in range(d - 1):
        rows.append(_poly_pack(row, width))
        row = [(low - row[-1] * c) % p for low, c in zip([0] + row[:-1], f)]

    def mulmod(x, y):
        if not x or not y:
            return []
        packed = _poly_pack(x, width)
        packed *= packed if y is x else _poly_pack(y, width)
        coeffs = _poly_unpack(packed, width, max(len(x) + len(y) - 1, d))
        folded = sum(c % p * row for c, row in zip(coeffs[d:], rows))
        return _poly_trim([(c + r) % p for c, r in
                           zip(coeffs, _poly_unpack(folded, width, d))])
    return mulmod


def _poly_powmod(p, a, n, f):
    """a^n mod the monic f, by squaring from the top bit of n down, so a
    short a (x + r in the root splitting) is multiplied as it is."""
    mulmod = _poly_mulmod(p, f)
    a = _poly_rem(p, a, f)
    out = [1]
    for bit in bin(n)[2:]:
        out = mulmod(out, out)
        if bit == "1":
            out = mulmod(out, a)
    return out


def _sqrt_mod(p, a):
    """A square root of the nonzero square a in GF(p), by Tonelli-Shanks
    from the least non-square z >= 2."""
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = next(z for z in range(2, p) if pow(z, (p - 1) // 2, p) == p - 1)
    c, t, root = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:  # t has order 2^i < 2^s: halve it with c, of order 2^s
        i, u = 1, t * t % p
        while u != 1:
            i, u = i + 1, u * u % p
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, root = i, b * b % p, t * b * b % p, root * b % p
    return root


def _split_roots(p, f, rng, h=None):
    """Roots of a monic f dividing x^p - x.  A quadratic is solved by its
    formula; a higher degree is split by Cantor-Zassenhaus into
    gcd(f, (x + r)^((p-1)/2) - 1), the roots lam with lam + r a nonzero
    square, and its cofactor, for random r.  ``h``, when given, is
    x^((p-1)/2) mod f and serves as the first split, r = 0, once a root 0
    is taken out (h vanishes there)."""
    if h is not None and f[0] == 0:
        f = f[1:]
        return [0] + _split_roots(p, f, rng, _poly_rem(p, h, f))
    if len(f) < 3:
        return [-f[0] % p] if len(f) == 2 else []
    if len(f) == 3:
        root = _sqrt_mod(p, (f[1] * f[1] - 4 * f[0]) % p)
        half = (p + 1) // 2
        return [(root - f[1]) * half % p, (-root - f[1]) * half % p]
    while True:
        if h is None:
            h = _poly_powmod(p, [rng.randrange(p), 1], (p - 1) // 2, f)
        g, r = f, _poly_trim([((h[0] if h else 0) - 1) % p] + h[1:])
        while r:  # g = gcd(f, h - 1), kept monic
            inv = pow(r[-1], -1, p)
            r = [x * inv % p for x in r]
            g, r = r, _poly_rem(p, g, r)
        h = None
        if 1 < len(g) < len(f):
            return (_split_roots(p, g, rng)
                    + _split_roots(p, _poly_divide(p, list(f), g)[len(g) - 1:], rng))


def _eigenvectors(field, t, rng):
    """One eigenvector of the k x k matrix t per eigenvalue, in increasing
    eigenvalue order; None unless t has k distinct eigenvalues in GF(p).

    The characteristic polynomial f comes from the Krylov relation
    t^k x = -sum_i c_i t^i x of a random vector x.  One power h =
    x^((p-1)/2) mod f serves twice: f has k distinct roots in GF(p) iff it
    divides x^p - x, that is iff x h^2 = x mod f, and h gives the first
    split of ``_split_roots``.  The eigenvector of lam is read from the
    Krylov vectors as (f / (t - lam))(t) x.
    """
    p = field.p
    k = len(t)
    columns = list(zip(*t))
    krylov = [tuple(rng.randrange(p) for _ in range(k))]
    for _ in range(k):
        krylov.append(combine(field, krylov[-1], columns, k))
    coeffs = solve(field, [tuple(v[r] for v in krylov[:k]) for r in range(k)],
                   tuple(-y % p for y in krylov[k]))
    if coeffs is None:
        return None
    f = list(coeffs) + [1]
    h = _poly_powmod(p, [0, 1], (p - 1) // 2, f)
    mulmod, x = _poly_mulmod(p, f), _poly_rem(p, [0, 1], f)
    if mulmod(x, mulmod(h, h)) != x:
        return None  # f does not split into distinct linear factors
    vectors = []
    for lam in sorted(_split_roots(p, f, rng, h)):
        q = _poly_divide(p, list(f), [-lam % p, 1])[1:]
        v = combine(field, q, krylov, k)
        if not any(v):
            return None  # lam is no eigenvalue of t: x was not cyclic
        vectors.append(v)
    return vectors


# ---------------------------------------------------------------------------
# character tables from explicit elements (Dixon-Schneider over GF(p))
# ---------------------------------------------------------------------------

def dixon_character_table(field, elements):
    """The exact character table over GF(p) from group elements.

    With the structure constants n_ab^c = #{x in C_a : x^-1 z_c in C_b},
    z_c the representative of class c, the central character w(a) =
    |C_a| chi(a) / chi(1) of each irrep is a common eigenvector,
    sum_c n_ab^c w(c) = w(a) w(b), of the class matrices.  A random
    combination T of them has distinct eigenvalues; each eigenvector,
    read from the Krylov vectors of T (``_eigenvectors``), is scaled to
    w(1) = 1, and chi(1)^2 = |G| / sum_a w(a) w(a^-1) / |C_a| is lifted
    and checked to be a square (Dixon, Numer. Math. 1967; Schneider,
    J. Symbolic Comput. 1990).  The n_ab^c are counted once, from |G|
    products per class; each try of T draws its coefficients from
    ``random.Random(0)``.  Exact when p does not divide |G| and p = 1 mod
    the exponent.
    ``elements[0]`` must be the identity.  Rows are in increasing order of
    their eigenvalue of T.  Returns (characters, class_sizes, class_of,
    reps, class_inverse).
    """
    if elements[0] != _IDENTITY:
        raise InvariantViolation("the element list must start with the identity")
    p = field.p
    class_of, reps, sizes = conjugacy_classes(field, elements)
    k = len(reps)
    n = len(elements)
    index = {e: i for i, e in enumerate(elements)}
    inverse = tuple(class_of[index[_mat2_inv(p, elements[r])]] for r in reps)

    inverses = [_mat2_inv(p, x) for x in elements]
    # pairs[c][a, b] = n_ab^c; the row sums are sum_c n_ab^c |C_c| = |C_a||C_b|
    pairs = [Counter(zip(class_of, [class_of[index[_mat2_mul(p, x_inv, elements[r])]]
                                    for x_inv in inverses]))
             for r in reps]
    sums = [[0] * k for _ in range(k)]
    for size, counts in zip(sizes, pairs):
        for (a, b), m in counts.items():
            sums[a][b] += m * size
    if sums != [[sa * sb for sb in sizes] for sa in sizes]:
        raise InvariantViolation("class algebra structure constants broken")
    rng = random.Random(0)
    for _ in range(25):
        coeffs = [rng.randrange(p) for _ in range(k)]
        total = [[0] * k for _ in range(k)]  # T[b][c] = sum_a coeffs[a] n_ab^c
        for c, counts in enumerate(pairs):
            for (a, b), m in counts.items():
                total[b][c] += m * coeffs[a]
        vectors = _eigenvectors(field, [[t % p for t in row] for row in total], rng)
        if vectors is not None:
            break
    else:
        raise InvariantViolation("no separating class-algebra eigenbasis found")

    inv_sizes = [pow(size, -1, p) for size in sizes]
    rows = []
    for v in vectors:
        scale = pow(v[0], -1, p)
        omega = [x * scale % p for x in v]
        denom = sum(omega[a] * omega[inverse[a]] * inv_sizes[a] for a in range(k))
        square = n * pow(denom, -1, p) % p
        degree = math.isqrt(square)
        if square > n or degree * degree != square:
            raise InvariantViolation(f"squared character degree {square} is not a square")
        rows.append(tuple(degree * omega[a] * inv_sizes[a] % p for a in range(k)))
    return tuple(rows), sizes, class_of, reps, inverse


# ---------------------------------------------------------------------------
# series constructions
# ---------------------------------------------------------------------------

def sl2_generators(descriptor, field, z):
    """Generators in SL(2, GF(p)) of the group of ``descriptor``, for z a
    primitive ``exponent(descriptor)``-th root of unity.

    A: diag(z, 1/z).  D: diag(zeta, 1/zeta) with zeta = z^(e/2n) of order
    2n, n = rank - 2, and ((0, 1), (-1, 0)).  E: the binary tetrahedral
    (6), octahedral (7) and icosahedral (8) groups as unit quaternions,
    with i = z^(e/4), sqrt(2) = zeta_8 + 1/zeta_8 and the golden ratio
    1 + zeta_5 + 1/zeta_5.
    """
    p = field.p
    e = exponent(descriptor)
    rank = descriptor.rank
    if descriptor.series == "A":
        return (((z, 0), (0, pow(z, -1, p))),)
    if descriptor.series == "D":
        zeta = pow(z, e // (2 * (rank - 2)), p)
        return (((zeta, 0), (0, pow(zeta, -1, p))), ((0, 1), (p - 1, 0)))
    i = pow(z, e // 4, p)
    half = pow(2, -1, p)

    def quat(a, b, c, d):
        """a + bi + cj + dk as a 2x2 matrix."""
        return (((a + b * i) % p, (c + d * i) % p), ((d * i - c) % p, (a - b * i) % p))

    def two_cos(m):  # zeta_m + 1/zeta_m
        return (pow(z, e // m, p) + pow(z, -(e // m), p)) % p

    if rank == 8:
        phi = 1 + two_cos(5)
        return quat(0, 1, 0, 0), quat(phi * half, pow(2 * phi, -1, p), half, 0)
    gens = (quat(0, 1, 0, 0), quat(-half, half, half, half))
    if rank == 7:
        inv_sqrt2 = two_cos(8) * half
        gens += (quat(inv_sqrt2, inv_sqrt2, 0, 0),)
    return gens


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def build_group(descriptor):
    """The group data for an ADE descriptor (or its label), fully validated.

    Built once per descriptor and process; ``GroupData`` is immutable, so
    every caller shares the one copy.  A rank above ``MAX_RANK`` raises
    DimensionTooLarge before any element is built.
    """
    if isinstance(descriptor, str):
        descriptor = parse_descriptor(descriptor)
    if descriptor.rank > MAX_RANK:
        raise DimensionTooLarge(
            f"{descriptor.label} has rank above the limit {MAX_RANK} of group construction")
    return _build_group(descriptor)


@functools.lru_cache(maxsize=None)
def _build_group(descriptor):
    """The closure of the SL(2) generators, Dixon's classes and table, then
    chi_V and the canonical row order.

    Every series takes this one path.  The closure must have the group
    order sum(delta_i^2) of the affine marks.  The rows are placed by
    ``dynkin.match_layout`` from Dixon's row order, so each vertex's row
    is fixed up to a diagram automorphism fixing vertex 0; such an
    automorphism preserves chi_V, so no multiplicity or Molien count
    depends on the choice.
    """
    dynkin.validate_descriptor(descriptor.series, descriptor.rank)
    order = sum(d * d for d in dynkin.marks(descriptor.series, descriptor.rank))
    e = exponent(descriptor)
    field = group_field(e)
    p = field.p
    elements = closure(field, sl2_generators(descriptor, field, root_of_unity(field, e)), order)
    if len(elements) != order:
        raise InvariantViolation(
            f"the generators of {descriptor.label} close to {len(elements)} elements, "
            f"not {order}")
    rows, sizes, class_of, reps, inverse = dixon_character_table(field, elements)
    ones = (1,) * len(reps)
    if ones not in rows:
        raise InvariantViolation("no trivial character row found")
    dims = [row[0] for row in rows]
    unordered = GroupData(
        descriptor=descriptor,
        order=len(elements),
        prime=p,
        elements=elements,
        characters=tuple(rows),
        class_sizes=sizes,
        class_inverse=inverse,
        irrep_dims=tuple(dims),
        chi_v=tuple((elements[r][0][0] + elements[r][1][1]) % p for r in reps),
        class_of=class_of,
        class_reps=reps,
        mckay_matrix=None,
    )
    mult = tensor_multiplicity_matrix(unordered)
    perm = dynkin.match_layout(mult, dims, rows.index(ones),
                               descriptor.series, descriptor.rank)
    order = sorted(range(len(rows)), key=perm.__getitem__)
    g = replace(
        unordered,
        characters=tuple(rows[i] for i in order),
        irrep_dims=tuple(dims[i] for i in order),
        mckay_matrix=tuple(tuple(mult[a][b] for b in order) for a in order),
    )
    _certify(g, g.mckay_matrix)
    return g


def character_inner(g, weights, i, j):
    """(1/|G|) sum_c |C_c| weights[c] chi_i(c) chi_j(c^-1), in GF(p)."""
    conj = g.characters[j]
    s = sum(size * w * x * conj[inv] for size, w, x, inv
            in zip(g.class_sizes, weights, g.characters[i], g.class_inverse))
    return s * pow(g.order, -1, g.prime) % g.prime


def tensor_multiplicity(g, i, j):
    """dim Hom(rho_j, rho_i (x) V) for the defining 2-dimensional V.

    Computed in GF(p) and lifted: the multiplicity is at most
    dim(rho_i (x) V) = 2 d_i, so a residue above that bound means a
    corrupted table and raises NonIntegralMultiplicity.
    """
    if not (0 <= i < g.num_irreps and 0 <= j < g.num_irreps):
        raise InvalidDescriptor(f"irrep index out of range: ({i}, {j})")
    value = character_inner(g, g.chi_v, i, j)
    bound = 2 * g.irrep_dims[i]
    if value > bound:
        raise NonIntegralMultiplicity(
            f"multiplicity ({i},{j}) = {value} mod {g.prime}, above its bound {bound}")
    return value


def tensor_multiplicity_matrix(g):
    n = g.num_irreps
    return tuple(tuple(tensor_multiplicity(g, i, j) for j in range(n)) for i in range(n))


def validate_group_data(g):
    """Run the structural self-checks; raise InvariantViolation on failure.

    The McKay matrix is recomputed from the characters and must equal
    ``g.mckay_matrix``.
    """
    mult = tensor_multiplicity_matrix(g)
    if mult != g.mckay_matrix:
        raise InvariantViolation("the stored McKay matrix disagrees with the characters")
    _certify(g, mult)


def _certify(g, mult):
    """The self-checks of ``validate_group_data``, with ``mult`` the
    tensor multiplicity matrix computed from g's characters."""
    if sum(d * d for d in g.irrep_dims) != g.order:
        raise InvariantViolation("sum of squared irrep dimensions != group order")
    if g.irrep_dims[0] != 1 or any(x != 1 for x in g.characters[0]):
        raise InvariantViolation("row 0 is not the trivial character")
    if sum(g.class_sizes) != g.order:
        raise InvariantViolation("class sizes do not sum to the group order")
    # row orthogonality, character_inner(g, (1, ..., 1), i, j) = [i == j]:
    # duals[j][c] = |C_c| chi_j(c^-1) / |G|, so the inner products are
    # the dot products of the rows with the duals
    p = g.prime
    scale = pow(g.order, -1, p)
    duals = [[size * scale * row[inv] % p for size, inv in zip(g.class_sizes, g.class_inverse)]
             for row in g.characters]
    for i, row in enumerate(g.characters):
        for j, dual in enumerate(duals):
            s = sum(map(operator.mul, row, dual)) % p
            if s != (i == j):
                raise InvariantViolation(
                    f"row orthogonality fails at ({i},{j}): {s} mod {g.prime}")

    delta = g.irrep_dims
    for i in range(g.num_irreps):
        if mult[i][i] != 0:
            raise InvariantViolation("nonzero diagonal in the McKay matrix")
        if sum(mult[i][j] * delta[j] for j in range(g.num_irreps)) != 2 * delta[i]:
            raise InvariantViolation("A.delta = 2.delta fails")
    if mult != dynkin.adjacency(g.descriptor.series, g.descriptor.rank):
        raise InvariantViolation("multiplicities do not match the canonical layout")
