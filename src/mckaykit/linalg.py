"""Exact linear algebra over the rationals and over prime fields.

All core computations in the toolkit run over an exact field, one
``Field`` type given by its characteristic ``p``: ``QQ`` (``p == 0``;
Python ``int`` when integral, ``Fraction`` otherwise) for construction
and graded dimensions, ``GF(p)`` (``PrimeField``) for brute-force
enumerations.  Every choice that depends on the field reads ``p``.  Matrices
are immutable tuples of row tuples; the zero-row and zero-column cases
are legal, so shape arguments are passed explicitly where they cannot be
inferred.

There is one elimination kernel, the sparse incremental ``Echelon``;
``rref``, ``rank``, ``solve`` and ``nullspace`` are dense views of it.
There is one dense product loop, ``combine``, with ``mat_mul`` and
``mat_vec`` as its dense views.
Over GF(p) a stored row has pivot 1.  Over QQ elimination is fraction-free
(after Bareiss): a stored row is a primitive integer row with a positive
pivot, every intermediate value is an ``int``, and a value is divided
only where a caller reads it normalised (``reduce``, ``reduced_rows``,
``monic_rows``), so a ``Fraction`` appears only in a result that is not
integral.  The echelon, the sparse images and the dense helpers compute with
Python's native ``+``, ``-`` and ``*`` and reduce each computed entry once
mod ``p`` when ``p`` is nonzero, so GF(p) values, given in ``range(p)``,
stay there.  Only the closure test over GF(2) eliminates otherwise, by
XOR on rows packed into ``int``s (see ``ClosureTest``).
The kernels shared by the module-theory layers live here too.  They act
on a module's generator view: its per-vertex dimensions and a list of
``(i, j, mat)`` generators, each a dims[i] x dims[j] matrix.  On that view
there is one closure test for families of subspaces (``ClosureTest``,
prepared once per generator list; over GF(2) its memo holds packed rows),
one quotient (with its projections and induced maps), one mod-p
reduction, one intertwiner (hom-space) system, and one seeded search for
a hom-space element that is onto at every vertex, which is also the
isomorphism search.  Every linear system in unknown matrices is built by
``matrix_equation_rows``.  No cache here is keyed by matrix contents: a
caller takes a matrix's sparse columns (``_columns``) once per call, or
keeps them, packed over GF(2), on the object it prepares (``ClosureTest``).
"""

import itertools
import math
import random
from collections import defaultdict
from fractions import Fraction

from .errors import BadPrime, InvariantViolation, ShapeMismatch

# seeded random candidates tried by ``isomorphic`` after the basis vectors
ISOMORPHISM_TRIES = 40
# rows each ``ClosureTest`` memoises (all dropped once it is full)
COLUMN_CACHE_SIZE = 256


# Miller-Rabin with these bases decides primality exactly below
# PRIMALITY_BOUND (Sorenson and Webster, 2015)
PRIMALITY_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n):
    """Whether ``n < PRIMALITY_BOUND`` is prime, by deterministic
    Miller-Rabin with the bases ``PRIMALITY_BASES``."""
    if n < 2:
        return False
    for q in PRIMALITY_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in PRIMALITY_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """The exact field of characteristic ``p``: QQ when ``p`` is 0, else
    GF(p).  An element of QQ is an ``int`` when it is integral and a
    ``Fraction`` otherwise, so elimination with pivots +-1 stays in integer
    arithmetic and a division moves to ``Fraction`` by itself; an element
    of GF(p) is an ``int`` in ``range(p)``.  Two fields are equal when
    their characteristics are.  ``PrimeField`` builds GF(p) and certifies
    that p is prime."""

    zero = 0
    one = 1

    def __init__(self, p):
        self.p = p

    def add(self, a, b):
        return (a + b) % self.p if self.p else a + b

    def sub(self, a, b):
        return (a - b) % self.p if self.p else a - b

    def mul(self, a, b):
        return a * b % self.p if self.p else a * b

    def neg(self, a):
        return -a % self.p if self.p else -a

    def inv(self, a):
        p = self.p
        if not p:
            return a if a in (1, -1) else Fraction(1) / a
        if a % p == 0:
            raise ZeroDivisionError("inverse of zero in GF(p)")
        return pow(a, p - 2, p)

    def from_int(self, n):
        return n % self.p if self.p else n

    def from_fraction(self, fr):
        p = self.p
        if type(fr) is int:
            return fr % p if p else fr
        if not isinstance(fr, Fraction):
            fr = Fraction(fr)
        den = fr.denominator
        if not p:
            return fr.numerator if den == 1 else fr
        if den % p == 0:
            raise BadPrime(f"denominator {den} divisible by {p}")
        return fr.numerator * pow(den, -1, p) % p

    def __repr__(self):
        return f"GF({self.p})" if self.p else "QQ"

    def __eq__(self, other):
        return type(other) is Field and other.p == self.p

    def __hash__(self):
        return hash(self.p)


QQ = Field(0)


def PrimeField(p):
    """GF(p) for a prime ``p`` below ``PRIMALITY_BOUND``; any other ``p``
    raises BadPrime."""
    if not isinstance(p, int):
        raise BadPrime(f"the characteristic must be an int, not {p!r}")
    if p >= PRIMALITY_BOUND:
        raise BadPrime(f"{p} is too large to certify as prime")
    if not _is_prime(p):
        raise BadPrime(f"{p} is not prime")
    return Field(p)


# ---------------------------------------------------------------------------
# dense matrix helpers
# ---------------------------------------------------------------------------

def zeros(field, nrows, ncols):
    return tuple(tuple(field.zero for _ in range(ncols)) for _ in range(nrows))


def _mod(p, values):
    """``values`` as a tuple, each reduced mod ``p`` when ``p`` is nonzero."""
    return tuple(v % p for v in values) if p else tuple(values)


def mat_add(field, a, b):
    p = field.p
    return tuple(_mod(p, [x + y for x, y in zip(ra, rb)]) for ra, rb in zip(a, b))


def mat_sub(field, a, b):
    p = field.p
    return tuple(_mod(p, [x - y for x, y in zip(ra, rb)]) for ra, rb in zip(a, b))


def combine(field, coeffs, vectors, n):
    """The linear combination sum_i coeffs[i] * vectors[i] in F^n, skipping
    zeros and reducing once mod p: the one dense product loop."""
    out = [field.zero] * n
    for coef, vec in zip(coeffs, vectors):
        if coef:
            for idx, x in enumerate(vec):
                if x:
                    out[idx] += coef * x
    return _mod(field.p, out)


def mat_mul(field, a, b, b_ncols=None):
    """Product a @ b, row by row the combination of the rows of ``b``.
    ``b_ncols`` is required when ``b`` has no rows.  A row of ``b`` whose
    length is not ``b_ncols``, or a row of ``a`` whose length is not the
    number of rows of ``b``, raises ShapeMismatch."""
    if b:
        b_ncols = len(b[0])
    if b_ncols is None:
        raise ValueError("b_ncols required for an empty middle dimension")
    for row in b:
        if len(row) != b_ncols:
            raise ShapeMismatch(f"a right factor with rows of lengths {len(row)} "
                                f"and {b_ncols}")
    out = []
    for row in a:
        if len(row) != len(b):
            raise ShapeMismatch(f"a row of length {len(row)} times "
                                f"a right factor with {len(b)} rows")
        out.append(combine(field, row, b, b_ncols))
    return tuple(out)


def mat_vec(field, a, v):
    """a . v, the combination of the columns of ``a``; a row of ``a``
    whose length is not that of ``v`` raises ShapeMismatch."""
    for row in a:
        if len(row) != len(v):
            raise ShapeMismatch(f"a row of length {len(row)} times "
                                f"a vector of length {len(v)}")
    return combine(field, v, zip(*a), len(a))


# ---------------------------------------------------------------------------
# echelon accumulation (sparse rows keyed by column index)
# ---------------------------------------------------------------------------

def _subtract(work, coef, row, p):
    """``work -= coef * row`` on sparse dicts in place, reduced mod ``p``
    when ``p`` is nonzero; entries that become zero are dropped."""
    get = work.get
    for c, v in row.items():
        nv = get(c, 0) - coef * v
        if p:
            nv %= p
        if nv:
            work[c] = nv
        else:
            work.pop(c, None)


def _eliminate(work, row, col):
    """One fraction-free step on ``int`` rows: cancel the entry ``w`` of
    ``work`` at ``col`` against the stored ``row`` whose pivot is ``col``
    and has value ``d > 1``, by ``work = (d/g) work - (w/g) row`` in place,
    ``g = gcd(d, w)``.  Returns ``d/g``, the positive factor put on
    ``work``.  A row with pivot 1 (every GF(p) row) is subtracted by
    ``_subtract`` instead, at no scale."""
    d, w = row[col], work[col]
    g = math.gcd(d, w)
    a = d // g
    if a != 1:
        for c in work:
            work[c] *= a
    _subtract(work, w // g, row, 0)
    return a


# ``_only_int(map(type, values))``: whether every one of the QQ elements
# ``values`` is an ``int``, in one pass in C that stops at another type
_only_int = frozenset((int,)).issuperset


def _integral(vec):
    """(row, m): a new dict of the nonzero entries of the QQ vector ``vec``
    times ``m`` as ``int``s, ``m`` the lcm of their denominators."""
    if _only_int(map(type, vec.values())):
        return Echelon._nonzero(vec), 1
    m = math.lcm(*(v.denominator for v in vec.values() if v))
    return {c: v.numerator * (m // v.denominator) for c, v in vec.items() if v}, m


def _ratio(n, d):
    """The QQ element ``n / d`` of two ``int``s, ``d > 0``: an ``int`` when
    it is integral."""
    if d == 1:
        return n
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


def _primitive(row, lead):
    """The integer sparse ``row`` divided by the gcd of its entries, with
    the sign of ``lead`` (its pivot entry) taken out too."""
    g = math.gcd(*row.values())
    if lead < 0:
        g = -g
    return row if g == 1 else {c: v // g for c, v in row.items()}


def _divided(row, d):
    """The integer sparse ``row`` divided by ``d > 0``, as QQ elements."""
    return row if d == 1 else {c: _ratio(v, d) for c, v in row.items()}


class Echelon:
    """Incremental row echelon basis over an exact field.

    Rows are sparse dicts ``{column: value}``; the pivot of a row is its
    smallest column index.  Over GF(p) a stored row has pivot value 1.
    Over QQ a stored row is a primitive integer row (its entries have gcd
    1) with a positive pivot, and elimination is fraction-free: a step
    against a stored row with pivot d scales the work row by d/gcd(d, w)
    instead of dividing, w being the work row's entry at that pivot.  The
    stored rows span what the inserted vectors span, and each is a
    positive multiple of the row an elimination normalised to pivot 1
    would store (``monic_rows``).  Feeding vectors one by one yields rank
    and span-membership tests; ``reduced_rows`` gives the reduced row
    echelon form.
    """

    def __init__(self, field):
        self.field = field
        self.p = field.p
        self.rows = {}  # pivot column -> sparse row

    @property
    def rank(self):
        return len(self.rows)

    def _reduce_leading(self, work):
        """Eliminate stored rows from ``work`` in place until its smallest
        column has no pivot; return that column, or None once it is empty.
        Over QQ ``work`` holds ``int``s and ends as a positive multiple of
        the reduced vector."""
        rows, p = self.rows, self.p
        while work:
            piv = min(work)
            row = rows.get(piv)
            if row is None:
                return piv
            if p or row[piv] == 1:
                _subtract(work, work[piv], row, p)
            else:
                _eliminate(work, row, piv)
        return None

    @staticmethod
    def _nonzero(vec):
        """A new dict of the nonzero entries of ``vec``."""
        if all(vec.values()):
            return dict(vec)
        return {c: v for c, v in vec.items() if v}

    def reduce(self, vec):
        """Return the normal form of ``vec`` (a new dict): ``vec`` minus the
        element of the stored span that leaves no entry in a pivot column."""
        rows, p = self.rows, self.p
        # work is ``scale`` times the vector being reduced (over QQ), so an
        # entry is divided by the scale when it leaves work
        work, scale = (self._nonzero(vec), 1) if p else _integral(vec)
        out = {}
        while work:
            piv = min(work)
            row = rows.get(piv)
            if row is None:
                out[piv] = _ratio(work.pop(piv), scale)
            elif row[piv] == 1:
                _subtract(work, work[piv], row, p)
            else:
                scale *= _eliminate(work, row, piv)
        return out

    def insert(self, vec):
        """Reduce and store ``vec``; return True if it enlarged the span."""
        p = self.p
        if p or _only_int(map(type, vec.values())):
            work = self._nonzero(vec)
        else:
            work = _integral(vec)[0]
        piv = self._reduce_leading(work)
        if piv is None:
            return False
        lead = work[piv]
        if lead != 1:
            if p:
                inv = self.field.inv(lead)
                work = {c: v * inv % p for c, v in work.items()}
            elif lead == -1:
                work = {c: -v for c, v in work.items()}
            else:
                work = _primitive(work, lead)
        self.rows[piv] = work
        return True

    def contains(self, vec):
        work = self._nonzero(vec) if self.p else _integral(vec)[0]
        return self._reduce_leading(work) is None

    def monic_rows(self):
        """The stored rows scaled to pivot value 1, as a dict keyed by
        pivot; over GF(p) these are the stored rows themselves."""
        if self.p:
            return self.rows
        return {piv: _divided(row, row[piv]) for piv, row in self.rows.items()}

    def reduced_rows(self):
        """The stored rows in reduced form, as a new dict keyed by pivot.

        Back-substitutes from the highest pivot down, so no row keeps an
        entry in another row's pivot column; the stored rows are unchanged.
        Over QQ the back-substitution runs on primitive integer rows, and
        each row is divided by its pivot once, at the end.
        """
        p = self.p
        out = {}
        ints = {}  # the reduced rows as stored: over QQ primitive integer rows
        for piv in sorted(self.rows, reverse=True):
            row = dict(self.rows[piv])
            for col in [c for c in row if c != piv and c in ints]:
                above = ints[col]
                if above[col] == 1:
                    _subtract(row, row[col], above, p)
                else:
                    _eliminate(row, above, col)
            ints[piv] = out[piv] = row
            lead = row[piv]
            if lead != 1:  # over QQ only: divide out what scaling added
                ints[piv] = row = _primitive(row, lead)
                out[piv] = _divided(row, row[piv])
        return out


def vec_to_sparse(field, vec):
    return dict(itertools.compress(enumerate(vec), vec))


def _echelon(field, rows):
    """The ``Echelon`` of the dense ``rows``, inserted in order."""
    return _echelon_of_sparse(field, (vec_to_sparse(field, row) for row in rows))


def _echelon_of_sparse(field, vecs):
    """The ``Echelon`` of the sparse ``vecs`` (dicts in column order, as
    ``vec_to_sparse`` makes them), inserted in order.

    A vec of ``int``s whose leading entry is 1 in a column without a pivot
    is stored as it is, which is what ``insert`` would store; every other
    vec goes through ``insert``.
    """
    ech = Echelon(field)
    stored = ech.rows
    p = field.p
    for vec in vecs:
        if vec:
            piv = next(iter(vec))  # vec_to_sparse keeps column order
            if (vec[piv] == 1 and piv not in stored
                    and (p or _only_int(map(type, vec.values())))):
                stored[piv] = vec
                continue
            ech.insert(vec)
    return ech


# ---------------------------------------------------------------------------
# dense views of the echelon: rref, rank, solve, nullspace
# ---------------------------------------------------------------------------

def rref(field, rows):
    """Reduced row echelon form.  Returns (rows, pivot column list)."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    red = _echelon(field, rows).reduced_rows()
    pivots = sorted(red)
    zero = field.zero
    return [tuple(red[p].get(c, zero) for c in range(ncols)) for p in pivots], pivots


def rank(field, rows):
    return _echelon(field, rows).rank


def solve(field, a, b):
    """One solution x of A x = b, or None if inconsistent.

    ``a`` is a list of rows; ``b`` a vector of matching length.
    """
    sols = solve_columns(field, a, [b])
    return None if sols is None else sols[0]


def solve_columns(field, a, bs):
    """One solution of A x = b for each vector b of ``bs``, all from one
    elimination of the augmented rows, or None if any is inconsistent.

    Free variables are set to zero, so each solution is the one ``solve``
    gives for its vector alone.  A vector whose length is not the number of
    rows of A raises ShapeMismatch.
    """
    for b in bs:
        if len(b) != len(a):
            raise ShapeMismatch(f"a right-hand side of length {len(b)} "
                                f"for {len(a)} equations")
    if not a:
        return [() for _ in bs]
    ncols = len(a[0])
    ech = _echelon(field, [tuple(row) + tuple(b[r] for b in bs)
                           for r, row in enumerate(a)])
    if max(ech.rows, default=-1) >= ncols:
        return None  # pivot in an augmented column: inconsistent
    red = ech.reduced_rows()
    sols = []
    for k in range(ncols, ncols + len(bs)):
        x = [field.zero] * ncols
        for p, row in red.items():
            x[p] = row.get(k, field.zero)
        sols.append(tuple(x))
    return sols


def nullspace(field, a, ncols=None):
    """Basis of the right kernel of A (list of vectors)."""
    if a:
        ncols = len(a[0])
    if ncols is None:
        raise ValueError("ncols required for an empty matrix")
    red = _echelon(field, a).reduced_rows()
    basis = {}
    for f in range(ncols):
        if f not in red:
            basis[f] = [field.zero] * ncols
            basis[f][f] = field.one
    for p, row in red.items():
        for c, x in row.items():
            if c != p:
                basis[c][p] = field.neg(x)
    return [tuple(v) for v in basis.values()]


# ---------------------------------------------------------------------------
# closure, quotients, hom spaces and the seeded search
# ---------------------------------------------------------------------------

def _columns(mat):
    """The nonzero columns of ``mat`` as ((column, ((row, value), ...)),
    ...); empty for a zero map."""
    cols = {}
    for r, row in enumerate(mat):
        for c, x in enumerate(row):
            if x:
                cols.setdefault(c, []).append((r, x))
    return tuple((c, tuple(col)) for c, col in cols.items())


def _image(p, cols, vec):
    """The nonzero entries of mat . vec from the columns of ``mat`` (see
    ``_columns``) and a dense ``vec``, reduced mod p when p != 0."""
    out = {}
    get = out.get
    for c, col in cols:
        x = vec[c]
        if x:
            for r, y in col:
                out[r] = get(r, 0) + x * y
    if p:
        return {r: m for r, v in out.items() if (m := v % p)}
    return {r: v for r, v in out.items() if v}


def _packed(row):
    """The GF(2) vector ``row`` as one ``int``: bit c is the parity of
    row[c]."""
    return sum(1 << c for c, x in enumerate(row) if x & 1)


def _packed_columns(mat):
    """The nonzero GF(2) columns of ``mat``, each packed: ((column, packed
    column), ...); empty for a zero map."""
    return tuple((c, col) for c, col in enumerate(map(_packed, zip(*mat))) if col)


def _packed_image(cols, row):
    """The packed image mat . row over GF(2) from the packed columns of
    ``mat`` (see ``_packed_columns``) and a dense ``row``."""
    img = 0
    for c, col in cols:
        if row[c] & 1:
            img ^= col
    return img


def _check_length(v, row, n):
    if len(row) != n:
        raise ShapeMismatch(f"a row of length {len(row)} at vertex {v}, "
                            f"whose space has dimension {n}")


class ClosureTest:
    """The closure test of the generator list ``maps``: called on
    ``spaces`` (keys to lists of rows), whether every ``(i, j, mat)`` of
    ``maps`` sends span(spaces[j]) into span(spaces[i]).

    The nonzero maps' columns are kept by source.  A row at vertex v is
    memoised under v and tuple(row) with its encoded form and its nonzero
    images under the maps out of v only (a map out of another vertex may
    have another width); once ``COLUMN_CACHE_SIZE`` rows are held, the
    memo is emptied.  A row of ``spaces`` whose length is not the
    dimension at v that ``maps`` gives (a map into v has that many rows, a
    map out of v with rows that many columns) raises ``ShapeMismatch``,
    whether or not the test reads it.  A row is checked when it enters the
    memo, so a memo hit is not checked again; before the verdict is
    returned, every row at a vertex whose span the test did not build is
    checked too.  A target span is built only when a nonzero image needs
    it, from the memoised forms of all the rows at its vertex.

    The field picks the encoding.  Over GF(2) a row and an image are one
    ``int`` each, bit c the parity of entry c, and a target span is a dict
    from lowest set bit to packed row, built and tested by XOR.  Over any
    other field they are sparse dicts, and a target span is an ``Echelon``
    holding the memoised rows as they are (it never changes a stored row).
    """

    def __init__(self, field, maps):
        self.field = field
        self.packed = field.p == 2
        columns = _packed_columns if self.packed else _columns
        self.dims = {}
        self.maps_from = {}  # source -> [(target, columns)]
        for i, j, mat in maps:
            self.dims[i] = len(mat)
            if mat:
                self.dims[j] = len(mat[0])
            if cols := columns(mat):
                self.maps_from.setdefault(j, []).append((i, cols))
        self.memo = {v: {} for i, j, _ in maps for v in (i, j)}  # v -> {row: entry}

    def _entry(self, v, row):
        """Compute and memoise the entry of ``row`` at vertex ``v``: (its
        encoded form, ((target, image), ...))."""
        _check_length(v, row, self.dims.get(v, len(row)))
        if sum(map(len, self.memo.values())) >= COLUMN_CACHE_SIZE:
            for rows in self.memo.values():
                rows.clear()
        if self.packed:
            images = tuple((i, img) for i, cols in self.maps_from.get(v, ())
                           if (img := _packed_image(cols, row)))
            entry = (_packed(row), images)
        else:
            images = tuple((i, img) for i, cols in self.maps_from.get(v, ())
                           if (img := _image(self.field.p, cols, row)))
            entry = (vec_to_sparse(self.field, row), images)
        self.memo[v][row] = entry
        return entry

    def __call__(self, spaces):
        spans = {}  # vertex -> its built span
        closed = self._closed(spaces, spans)
        # a built span went through the memo, which checked all its rows
        for v in spaces:
            if v not in spans and (n := self.dims.get(v)) is not None:
                for row in spaces[v]:
                    _check_length(v, row, n)
        return closed

    def _closed(self, spaces, spans):
        """The verdict; ``spans`` gets the target spans it builds."""
        memo, entry, packed = self.memo, self._entry, self.packed
        for j in self.maps_from:
            at_j = memo[j]
            for row in map(tuple, spaces.get(j, ())):
                for i, img in (at_j.get(row) or entry(j, row))[1]:
                    span = spans.get(i)
                    if span is None:
                        span = spans[i] = self._span(i, spaces.get(i, ()))
                    if not packed:
                        if not span.contains(img):
                            return False
                        continue
                    while img:  # XOR out the span row at the lowest set bit
                        pivot_row = span.get(img & -img)
                        if pivot_row is None:
                            return False
                        img ^= pivot_row
        return True

    def _span(self, i, rows):
        """The span of ``rows`` at vertex ``i`` from their memoised forms:
        over GF(2) a dict from lowest set bit to a packed row with that
        lowest bit, otherwise an ``Echelon`` of the sparse rows."""
        at_i, entry = self.memo[i], self._entry
        if not self.packed:
            return _echelon_of_sparse(self.field, [
                (at_i.get(r) or entry(i, r))[0] for r in map(tuple, rows)])
        span = {}
        for r in map(tuple, rows):
            x = (at_i.get(r) or entry(i, r))[0]
            while x:
                low = x & -x
                if low not in span:
                    span[low] = x
                    break
                x ^= span[low]
        return span


def quotient_projection(field, sub_rows, n):
    """(projection matrix q x n, lifted basis) for F^n / span(sub_rows).

    The quotient basis is the images of the unit vectors that extend
    ``sub_rows`` to a basis of F^n, taken in index order.
    """
    sub = list(sub_rows)
    ech = _echelon(field, sub)
    units = [tuple(field.one if r == i else field.zero for r in range(n))
             for i in range(n)]
    lift = [units[i] for i in range(n) if ech.insert({i: field.one})]
    combined = sub + lift
    cols = [tuple(combined[b][r] for b in range(len(combined))) for r in range(n)]
    sols = solve_columns(field, cols, units)
    proj = tuple(tuple(sol[len(sub) + q] for sol in sols) for q in range(len(lift)))
    return proj, lift


def reduce_entries(field, gens):
    """The matrices of the ``(i, j, mat)`` generators with every entry
    mapped into ``field`` by ``from_fraction`` (reduction mod p)."""
    return [tuple(tuple(field.from_fraction(x) for x in row) for row in mat)
            for _, _, mat in gens]


def quotient_maps(field, gens, dims, spaces, closed):
    """Quotient of a module by a closed family of subspaces.

    ``gens`` lists ``(i, j, mat)`` with mat a dims[i] x dims[j] matrix,
    ``spaces`` maps vertices to spanning rows, and ``closed`` is the
    ``ClosureTest`` of ``gens`` (a cornered module keeps one).  Returns
    (quotient dims, induced matrices in the order of ``gens``, projection
    per vertex); the induced matrix has column c equal to
    ``proj[i] . mat . lift[j][c]``, ``lift`` being the lifted bases of the
    quotients.  A family that is not closed, or a row of the wrong length,
    raises ShapeMismatch.
    """
    if not closed(spaces):
        raise ShapeMismatch("the family of subspaces is not closed")
    proj, lift = {}, {}
    for v, n in dims.items():
        proj[v], lift[v] = quotient_projection(field, spaces.get(v, ()), n)
    mats = []
    for i, j, mat in gens:
        cols = [mat_vec(field, proj[i], mat_vec(field, mat, vec)) for vec in lift[j]]
        mats.append(tuple(tuple(col[r] for col in cols) for r in range(len(proj[i]))))
    return {v: len(lift[v]) for v in dims}, mats, proj


def matrix_equation_rows(field, shapes, equations):
    """The linear system, in the entries of unknown matrices, of the matrix
    equations ``sum of terms = 0``.

    ``shapes`` maps each unknown X (a key that is not a tuple or list) to
    its (rows, cols).  An equation is a list of terms ``(coef, X, K)`` for
    coef.X.K and ``(coef, K, X)`` for coef.K.X, K a matrix.  Returns (rows,
    offsets, nvars): X's entries are variables offsets[X] onward, row-major,
    in ``shapes`` order; ``rows`` has a dense row per entry of each
    equation, in equation order and row-major, zero rows left out.
    """
    offsets = {}
    nvars = 0
    for x, (nr, nc) in shapes.items():
        offsets[x] = nvars
        nvars += nr * nc
    zero, p = field.zero, field.p
    rows = []
    for terms in equations:
        grid = defaultdict(lambda: [zero] * nvars)  # (r, c) -> its dense row
        for coef, left, right in terms:
            # zero + val is val: a variable met first just takes val
            if isinstance(left, (tuple, list)):  # coef.K.X: K[r][m] on X[m][c]
                off, nc = offsets[right], shapes[right][1]
                for r, krow in enumerate(left):
                    nz = [(off + m * nc, coef * k) for m, k in enumerate(krow) if k]
                    for c in range(nc) if nz else ():
                        row = grid[(r, c)]
                        for base, val in nz:
                            i = base + c
                            row[i] = val if row[i] is zero else row[i] + val
            else:  # coef.X.K: K[m][c] on X[r][m]
                off, (nr, nm) = offsets[left], shapes[left]
                for c, kcol in enumerate(zip(*right)):
                    nz = [(m, coef * k) for m, k in enumerate(kcol) if k]
                    for r in range(nr) if nz else ():
                        row = grid[(r, c)]
                        for m, val in nz:
                            i = off + r * nm + m
                            row[i] = val if row[i] is zero else row[i] + val
        for key in sorted(grid):
            row = _mod(p, grid[key])
            if any(row):
                rows.append(row)
    return rows, offsets, nvars


def common_field(a, b):
    """The field of the modules ``a`` and ``b``, which must be one field:
    a kernel given both never mixes QQ and GF(p) values."""
    if a.field != b.field:
        raise InvariantViolation(f"modules over different fields: {a.field} and {b.field}")
    return a.field


def hom_space(field, gens_a, gens_b, dims_a, dims_b):
    """Basis of the families phi_v: A_v -> B_v with phi_i . a = b . phi_j
    for every generator pair ``(i, j, a)``, ``(i, j, b)`` of ``gens_a`` and
    ``gens_b`` (two lists in the same order).

    Returns (basis vectors, offsets): in a solution vector the block of
    vertex v has shape dims_b[v] x dims_a[v] and starts at offsets[v],
    row-major, the vertices taken in the order of ``dims_a``.
    """
    rows, offsets, nvars = matrix_equation_rows(
        field, {v: (dims_b[v], dims_a[v]) for v in dims_a},
        [[(1, i, a), (-1, b, j)]
         for (i, j, a), (_, _, b) in zip(gens_a, gens_b)])
    return nullspace(field, rows, ncols=nvars), offsets


def seeded_candidates(field, basis, seed, tries):
    """Lazily yield elements of span(basis) to search for a special one.

    First the basis vectors, then ``tries`` seeded random combinations
    with coefficients in [-3, 3], then, over a prime field with at most
    4096 elements in the span, every element of the span.
    """
    if not basis:
        return
    nvars = len(basis[0])
    yield from (tuple(vec) for vec in basis)
    rng = random.Random(seed)
    for _ in range(tries):
        coeffs = [field.from_int(rng.randint(-3, 3)) for _ in basis]
        yield combine(field, coeffs, basis, nvars)
    if field.p and field.p ** len(basis) <= 4096:
        for combo in itertools.product(range(field.p), repeat=len(basis)):
            yield combine(field, combo, basis, nvars)


def find_surjection(field, basis, offsets, dims_a, dims_b, seed, tries):
    """Whether a seeded candidate of the hom space is onto at every vertex.

    When dims_a == dims_b this is a search for an isomorphism.  A False
    answer means none was found among the candidates, not a proof that
    none exists.
    """
    for sol in seeded_candidates(field, basis, seed, tries):
        if all(
            rank(field, [sol[off + r * dims_a[v]:off + (r + 1) * dims_a[v]]
                         for r in range(dims_b[v])]) == dims_b[v]
            for v, off in offsets.items()
            if dims_b[v]
        ):
            return True
    return False


def isomorphic(field, gens_a, gens_b, dims_a, dims_b, seed=0):
    """Whether a seeded search finds an invertible intertwiner between two
    modules given by matching generator lists (see ``hom_space``)."""
    if dims_a != dims_b:
        return False
    if not any(dims_a.values()):
        return True
    basis, offsets = hom_space(field, gens_a, gens_b, dims_a, dims_b)
    return find_surjection(field, basis, offsets, dims_a, dims_b, seed,
                           ISOMORPHISM_TRIES)
