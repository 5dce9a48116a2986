"""Group data: classification, characters, multiplicities."""

import dataclasses
import hashlib
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import mckaykit
from mckaykit import dynkin, gamma_data
from mckaykit.errors import (
    DimensionTooLarge,
    InvalidDescriptor,
    InvariantViolation,
    NonIntegralMultiplicity,
)
from mckaykit.gamma_data import (
    build_group,
    closure,
    dixon_character_table,
    exponent,
    group_field,
    parse_descriptor,
    root_of_unity,
    sl2_generators,
    tensor_multiplicity,
    tensor_multiplicity_matrix,
    validate_group_data,
)
from mckaykit.graded_algebra import molien_sequence
from mckaykit.linalg import PrimeField, mat_vec
from mckaykit.quiver_core import mckay_quiver

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
    """Enumerate the eight binary-dihedral matrices independently, as the
    quaternions i and j over GF(p), and recover order, class count and
    irrep dimensions by brute force."""
    g = build_group("D4")
    field = PrimeField(g.prime)
    i = root_of_unity(field, 4)
    p = field.p

    def quat(a, b, c, d):
        return (((a + b * i) % p, (c + d * i) % p), ((-c + d * i) % p, (a - b * i) % p))

    elements = closure(field, [quat(0, 1, 0, 0), quat(0, 0, 1, 0)], 8)
    assert len(elements) == 8
    rows, sizes, _, _, _ = dixon_character_table(field, elements)
    dims = sorted(r[0] for r in rows)
    assert dims == [1, 1, 1, 1, 2]
    assert g.order == 8
    assert sorted(g.irrep_dims) == dims
    assert sorted(g.class_sizes) == sorted(sizes)


def test_dixon_checks_the_class_algebra(monkeypatch):
    """Class sizes that do not fit the elements break the row sums
    sum_c n_ab^c |C_c| = |C_a| |C_b| of the class structure constants."""
    desc = parse_descriptor("D4")
    field = group_field(exponent(desc))
    z = root_of_unity(field, exponent(desc))
    elements = closure(field, sl2_generators(desc, field, z), 8)
    classes = gamma_data.conjugacy_classes

    def wrong_sizes(field, elements):
        class_of, reps, sizes = classes(field, elements)
        return class_of, reps, (sizes[0] + 1,) + sizes[1:]

    assert len(dixon_character_table(field, elements)[0]) == 5
    monkeypatch.setattr(gamma_data, "conjugacy_classes", wrong_sizes)
    with pytest.raises(InvariantViolation, match="structure constants broken"):
        dixon_character_table(field, elements)


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
    g = build_group(f"E{rank}")
    field = PrimeField(g.prime)
    z = root_of_unity(field, exponent(g.descriptor))
    assert len(closure(field, sl2_generators(g.descriptor, field, z), order)) == order
    assert g.order == len(g.elements) == order
    assert sorted(g.class_sizes) == class_sizes
    for c, r in enumerate(g.class_reps):
        (a, _), (_, d) = g.elements[r]
        assert g.class_of[r] == c
        assert g.chi_v[c] == (a + d) % g.prime


def closed_form_rows(g):
    """The closed-form character rows of a cyclic (A) or binary dihedral
    (D) group, evaluated on the matrix of each class representative.

    A: irrep j sends diag(l, 1/l) to l^j.  D, n = rank - 2: the elements
    are a^k = diag(l, 1/l) and b a^k = ((0, m), (-1/m, 0)) with l^2n =
    m^2n = 1 and (-1)^k = l^n = m^n, b = ((0, 1), (-1, 0)).  Four
    1-dimensional characters send (a, b) to (+-1, +-1) for even n and to
    (1, +-1), (-1, +-i) for odd n; the 2-dimensional rho_h, h = 1..n-1,
    send a^k to l^h + l^-h and b a^k to 0.
    """
    p = g.prime
    mats = [g.elements[r] for r in g.class_reps]
    if g.descriptor.series == "A":
        return [tuple(pow(m[0][0], j, p) for m in mats) for j in range(g.order)]
    n = g.descriptor.rank - 2
    i = root_of_unity(PrimeField(p), 4)
    minus = p - 1
    ones = ([(1, 1), (1, minus), (minus, 1), (minus, minus)] if n % 2 == 0
            else [(1, 1), (1, minus), (minus, i), (minus, p - i)])

    def one_dim(alpha, beta, m):
        if m[0][1] == 0:  # a^k
            return pow(m[0][0], n, p) if alpha == minus else 1
        return beta * (pow(m[0][1], n, p) if alpha == minus else 1) % p

    rows = [tuple(one_dim(alpha, beta, m) for m in mats) for alpha, beta in ones]
    rows += [tuple(0 if m[0][1] else (pow(m[0][0], h, p) + pow(m[0][0], -h, p)) % p
                   for m in mats)
             for h in range(1, n)]
    return rows


@pytest.mark.parametrize("label", [f"A{r}" for r in range(1, 31)]
                         + [f"D{r}" for r in range(4, 16)])
def test_closed_form_rows_match(label):
    """Dixon's rows equal the closed-form A and D characters as a multiset."""
    g = build_group(label)
    assert sorted(closed_form_rows(g)) == sorted(g.characters)


def test_closure_checks_the_group_order():
    """The order, not a fixed size, bounds the closure: A1000 closes to its
    1001 elements and D5 to its 12.  For odd n, diag(z, 1/z) with z of
    order 4n in place of zeta of order 2n generates a group twice the
    order of D(n+2), which the closure refuses once it passes the order."""
    for label, order in [("A1000", 1001), ("D5", 12)]:
        desc = parse_descriptor(label)
        field = group_field(exponent(desc))
        z = root_of_unity(field, exponent(desc))
        assert len(closure(field, sl2_generators(desc, field, z), order)) == order
    # D5, n = 3: z has order 12 and zeta = z^2
    doubled = (((z, 0), (0, pow(z, -1, field.p))), ((0, 1), (field.p - 1, 0)))
    with pytest.raises(InvariantViolation, match="more than the group order 12"):
        closure(field, doubled, 12)


def test_build_refuses_a_short_closure(monkeypatch):
    """D6's diagonal generator alone closes to 8 of its 16 elements."""
    gens = gamma_data.sl2_generators
    monkeypatch.setattr(gamma_data, "sl2_generators",
                        lambda descriptor, field, z: gens(descriptor, field, z)[:1])
    with pytest.raises(InvariantViolation, match="close to 8 elements, not 16"):
        gamma_data._build_group.__wrapped__(parse_descriptor("D6"))


BUILD_ONCE_SCRIPT = """
import sys
from mckaykit import gamma_data
tables = []
dixon = gamma_data.dixon_character_table
def counted(field, elements):
    tables.append(len(elements))
    return dixon(field, elements)
gamma_data.dixon_character_table = counted
labels = sys.argv[1:]
for _ in range(2):
    for label in labels:
        gamma_data.build_group(label)
assert len(tables) == len(labels), tables
assert "numpy" not in sys.modules
"""


def test_groups_built_once_without_numpy():
    """In a fresh process, building every group twice computes one Dixon
    table per group and never imports numpy."""
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
    rows[1][1] = (rows[1][1] + 1) % g.prime
    bad = dataclasses.replace(g, characters=tuple(tuple(r) for r in rows))
    with pytest.raises(NonIntegralMultiplicity):
        for i in range(3):
            for j in range(3):
                tensor_multiplicity(bad, i, j)


@pytest.mark.parametrize("label", ["A4", "D5", "E6"])
def test_mckay_matrix_computed_once_per_build(label, monkeypatch):
    """A build computes each tensor multiplicity once, the quiver reads the
    stored matrix, and ``validate_group_data`` recomputes it from the
    characters and refuses a stored matrix that disagrees."""
    want = build_group(label)
    calls = []
    tm = gamma_data.tensor_multiplicity
    monkeypatch.setattr(gamma_data, "tensor_multiplicity",
                        lambda g, i, j: calls.append((i, j)) or tm(g, i, j))
    g = gamma_data._build_group.__wrapped__(parse_descriptor(label))
    assert len(calls) == g.num_irreps ** 2
    assert g == want
    mckay_quiver(g)
    assert len(calls) == g.num_irreps ** 2
    validate_group_data(g)
    rows = [list(r) for r in g.mckay_matrix]
    rows[0][1] += 1
    with pytest.raises(InvariantViolation, match="stored McKay matrix"):
        validate_group_data(dataclasses.replace(
            g, mckay_matrix=tuple(map(tuple, rows))))


def test_trivial_row_and_chi_v_real():
    for label in ALL_LABELS:
        g = build_group(label)
        assert g.irrep_dims[0] == 1
        assert all(x == 1 for x in g.characters[0])
        # traces of SL2 torsion elements are real: chi_V(c) = chi_V(c^-1)
        assert all(g.chi_v[c] == g.chi_v[g.class_inverse[c]]
                   for c in range(g.num_classes))


# sha256 of every Molien sequence to degree 30 of the groups below, both
# flavors, as computed by the complex floating-point character tables
# that the GF(p) tables replace
MOLIEN_LABELS = ([f"A{r}" for r in range(1, 9)] + [f"D{r}" for r in range(4, 9)]
                 + ["E6", "E7", "E8"])
MOLIEN_DIGEST = "e454dea4f37b647ca6a17b5ff52445df16b0af5fcb0e7a1a10788664f3f0b740"


def test_molien_digest():
    h = hashlib.sha256()
    for label in MOLIEN_LABELS:
        g = build_group(label)
        for with_z in (False, True):
            for i in range(g.num_irreps):
                for j in range(g.num_irreps):
                    seq = molien_sequence(g, i, j, with_z, 30)
                    h.update(f"{label} {int(with_z)} {i} {j} "
                             f"{','.join(map(str, seq))}\n".encode())
    assert h.hexdigest() == MOLIEN_DIGEST


def test_molien_refuses_bound_at_prime():
    """E8's largest irrep has dimension 6, so with z the degree-k bound
    6 (k+1)(k+2)/2 passes p > 2^31 below k = 26,760."""
    g = build_group("E8")
    i = g.irrep_dims.index(6)
    kmax = 27000
    assert 3 * (kmax + 1) * (kmax + 2) >= g.prime
    with pytest.raises(DimensionTooLarge):
        molien_sequence(g, i, 0, True, kmax)
    assert len(molien_sequence(g, i, 0, False, 30)) == 31


LAYOUT_LABELS = ([f"A{r}" for r in range(1, 31)] + [f"D{r}" for r in range(4, 13)]
                 + ["E6", "E7", "E8"])


@pytest.mark.parametrize("label", LAYOUT_LABELS)
def test_match_layout_any_row_order(label):
    """The canonical layout with its rows shuffled maps back onto the
    canonical layout, by the inverse permutation up to a diagram symmetry
    fixing vertex 0, for every row order.  Placing rows in the given order
    took seconds from A20 on and grew exponentially with the rank."""
    desc = parse_descriptor(label)
    target = dynkin.adjacency(desc.series, desc.rank)
    marks = dynkin.marks(desc.series, desc.rank)
    n = len(target)
    shuffle = list(range(n))
    random.Random(n).shuffle(shuffle)  # computed row r is canonical row shuffle[r]
    mult = [[target[shuffle[r]][shuffle[s]] for s in range(n)] for r in range(n)]
    dims = [marks[shuffle[r]] for r in range(n)]
    perm = dynkin.match_layout(mult, dims, shuffle.index(0), desc.series, desc.rank)
    assert sorted(perm) == list(range(n))
    assert perm[shuffle.index(0)] == 0
    assert all(mult[r][s] == target[perm[r]][perm[s]] for r in range(n) for s in range(n))
    assert [marks[perm[r]] for r in range(n)] == dims


def test_match_layout_rejects_disconnected():
    mult = [[0, 2, 0], [2, 0, 0], [0, 0, 0]]
    with pytest.raises(InvariantViolation):
        dynkin.match_layout(mult, [1, 1, 1], 0, "A", 2)


# sha256 of repr(build_group(label)): the elements in closure order, the
# classes, the character rows in canonical order and the McKay matrix
GROUP_DATA_DIGESTS = {
    "A1": "4d04214be3a2c0604244e020e3158496548d41e0b7cbeb2a8b791b9289d3fd9e",
    "A2": "c83bce50c41435cb9864341658cfe3cfb0294be296bf49aebd90d6ebc6aa9948",
    "A3": "9dc4eac18d3c264083c65bb713bb0f840a327a6e8b0489308b2e75e40d74b104",
    "A4": "c3bbdca042c98f0225088612cc1ca087725bfc459b71a11485d686ff16e9fb40",
    "A5": "8dc31107ab4660b956c0d1d788cecd8ed379f4a140e74a10eb7b657c4d076fd4",
    "A6": "72f0bfe27fde05ea084e50332a6c0a94a1fe029a7fabb993893aebc143d1da94",
    "A7": "66d71c7a8da6ac09130e44610583eaf9fd7e3fa9299a37a496428d40d8df132b",
    "A8": "3306e014e3d97057889240130ebc78b9a0f0bb34bc385331bf0fae690a3a39b9",
    "A9": "1eed4b521d7f00bd64d3563f85a89fab06bf77a6f5a40e70bc2dd84a8a5f9584",
    "A10": "25aa3c1bfd93b3a59c155e57d87b8289a7a131a9d515fe7efa7b1ae49b2f17bf",
    "A11": "b75c7bce6b07e2c0999c82818bcf9ef9d16bac6cc154de7d5238a8ce1d8e121a",
    "A12": "c9744a314deea35e7766492aea3ef7f72d98211e524a255087fc2eb764efe00e",
    "A13": "1de7eb34114779cf02533a6e0abe6c38b9ea49387cb7bdb4c9e91c4b8116b2e9",
    "A14": "2a36f941357478142ebf27343aa4d8d98088633317861269a6fd3594ce82b3b8",
    "A15": "716f4d884f8ddc4459de1f038875f940a07c1a353fde9160a0acc18f886f7afa",
    "A16": "323846c12ea056d74d9320c05693d9bc4c32d9529a01861cc09c1ad03664f0cc",
    "A17": "6d99e052caa3bcbc5a8578f98d36df492f90e22d04426ace2dd910c0d16e481f",
    "A18": "5160727285db02686ca6027290f6bcfbc263c6df9791160e36e256db893481e6",
    "A19": "3f874c0fa667601ada08c0508d0df53901c03eaffd666f5caab142dc338b7872",
    "A20": "01e6f6726c34961746b05283410e6738f6d7184ed76f742085c08090ee2e8f6d",
    "D4": "aa9c0f179688eb7fbcdd307a4ed9bd16932c8426f40352facb9c776bf1dc7912",
    "D5": "cd5a2197eddf8abc493493da89c6cae04cebc5c98c37176ae87005ff3cb10893",
    "D6": "9f5c8fd9e1f7e92ef520c3dd779cc06079582d4daa5e9b732519163353d96d5a",
    "D7": "0afee9dc98d738a6dfbfcc10f126f834c3cb091ddefbffcf16da76a09d57d4a9",
    "D8": "f2d9e8ab5859b071203c11fffb94ce66268f870ad92418a4980175da398bc700",
    "D9": "13f590d869000375679df4ebd800dd91d90acd82f5186290c9171feffd8a6281",
    "D10": "f659524ccc22ae90f216305263b9c4d9d529980d1ed1fbef0bb8d02959604bd5",
    "D11": "844634dbb443ac5dc156198d19a3b87fe7fd86bec89edf1346fc5f7f9bdbde1b",
    "D12": "550dcf92b812c1d5b8cfbf1e8dd226382733e7704bfc5ef03b623f33d045db95",
    "E6": "7fb335c0ce94881830a2a576784be4a848c99f35884dc6b969934dcf8debef76",
    "E7": "cd2e54a3094f5476bcb960f58f493e50576cbe96c80889ec8534b56420bd14ae",
    "E8": "ffb0767d440c4ca6a88485467de9797185ad60e87816ba6365c494eaca213845",
}


@pytest.mark.parametrize("label", sorted(GROUP_DATA_DIGESTS))
def test_group_data_digest(label):
    """A faster build must not move a byte of ``GroupData``."""
    digest = hashlib.sha256(repr(build_group(label)).encode()).hexdigest()
    assert digest == GROUP_DATA_DIGESTS[label]


E8_PRIME = 2147484061


def reference_mulmod(p, a, b, f):
    """a * b mod f by the schoolbook product and long division."""
    prod = [0] * (len(a) + len(b))
    for s, u in enumerate(a):
        for t, v in enumerate(b):
            prod[s + t] += u * v
    lead = pow(f[-1], -1, p)
    for s in range(len(prod) - 1, len(f) - 2, -1):
        coef = prod[s] * lead % p
        for t, y in enumerate(f):
            prod[s - len(f) + 1 + t] -= coef * y
    rem = [c % p for c in prod[:len(f) - 1]]
    while rem and rem[-1] == 0:
        rem.pop()
    return rem


def reference_powmod(p, a, n, f):
    """a^n mod f by repeated multiply-and-reduce, halving n."""
    if n == 0:
        return reference_mulmod(p, [1], [1], f)
    half = reference_powmod(p, a, n // 2, f)
    square = reference_mulmod(p, half, half, f)
    return reference_mulmod(p, square, a, f) if n % 2 else square


def test_poly_powmod_against_reference():
    p = E8_PRIME
    rng = random.Random(31)
    for degree in range(1, 10):
        for _ in range(3):
            f = [rng.randrange(p) for _ in range(degree)] + [1]
            bases = [[0, 1], [rng.randrange(p) for _ in range(degree)]]
            for a in bases:
                for n in (0, 1, p, (p - 1) // 2):
                    assert gamma_data._poly_powmod(p, list(a), n, f) == \
                        reference_powmod(p, a, n, f), (f, a, n)


def poly_from_roots(p, roots):
    f = [1]
    for lam in roots:  # f * (x - lam)
        f = [(lo - lam * hi) % p for lo, hi in zip([0] + f, f + [0])]
    return f


@pytest.mark.parametrize("with_zero", [False, True])
def test_split_roots_returns_the_roots(with_zero):
    """The roots of products of distinct linear factors, as the bare
    splitter and through ``_eigenvectors`` on a triangular matrix with
    those eigenvalues."""
    p = E8_PRIME
    field = PrimeField(p)
    rng = random.Random(7 + with_zero)
    for degree in range(1, 12):
        roots = rng.sample(range(1, p), degree - with_zero) + [0] * with_zero
        f = poly_from_roots(p, roots)
        assert sorted(gamma_data._split_roots(p, f, random.Random(degree))) == sorted(roots)
        t = [[lam if r == c else (rng.randrange(p) if c > r else 0)
              for c in range(degree)] for r, lam in enumerate(roots)]
        vectors = gamma_data._eigenvectors(field, t, random.Random(degree))
        assert vectors is not None and len(vectors) == degree
        for lam, v in zip(sorted(roots), vectors):
            assert any(v)
            assert mat_vec(field, t, v) == tuple(lam * x % p for x in v)


def test_eigenvectors_refuse_an_irreducible_quadratic():
    """(x^2 - n) (x - 1) (x - 2) with n a non-square has no four roots."""
    p = E8_PRIME
    n = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
    t = [[0, n, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 2]]
    for seed in range(5):
        assert gamma_data._eigenvectors(PrimeField(p), t, random.Random(seed)) is None


@pytest.mark.parametrize("label", [f"A{gamma_data.MAX_RANK + 1}",
                                   f"D{gamma_data.MAX_RANK + 1}", "A100000000"])
def test_build_refuses_a_rank_above_the_limit(label, monkeypatch):
    """The rank is refused before the closure holds a single element."""
    def no_closure(*args):
        raise AssertionError("closure reached")

    monkeypatch.setattr(gamma_data, "closure", no_closure)
    with pytest.raises(DimensionTooLarge, match=f"{label} has rank above the limit"):
        build_group(label)
    with pytest.raises(DimensionTooLarge):
        build_group(parse_descriptor(label))


def test_rank_limit_admits_the_ci_groups():
    """Every group that a CI step names lies within the limit."""
    workflow = pathlib.Path(__file__).resolve().parents[1] / ".github/workflows/tier1.yml"
    labels = re.findall(r"mckaykit \w+ ([ADE]\d+)", workflow.read_text())
    assert "A60" in labels and "D30" in labels
    assert all(parse_descriptor(label).rank <= gamma_data.MAX_RANK for label in labels)
