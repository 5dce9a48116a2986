"""Sufficiency calculus, chamber pushforwards, cyclic ADHM data, and the
quotient-scheme correspondence check.

Sufficiency of a dimension vector means that away from the chosen corner
every vertex dominates half its multiplicity-weighted neighbour sum; its
least completion, here computed as an integer least fixpoint, bounds the
dimension vector of any stable framed module from above.  The chamber
pushforward re-decomposes a stable module as a stable core plus vertex
simples; composing pushforwards along nested corners is checked (in the
tests) to agree with the direct pushforward up to summand isomorphism.
"""

import functools

from .corner_functors import (
    cornered_hom_space,
    j_star,
    pi_context,
)
from .errors import (
    EmptyI,
    InvariantViolation,
    MomentMapNonzero,
    NoTermination,
    NotAQuotient,
    NotEquivariant,
    NotStable,
    NotStableForSource,
)
from .gamma_data import build_group
from .graded_algebra import factor_through_bound
from .linalg import QQ, find_surjection, mat_add, mat_mul, mat_sub
from .quiver_core import (
    INFINITY,
    DimVector,
    frame_quiver,
    mckay_quiver,
    theta_I,
)
from .rep_theory import (
    QuiverRep,
    is_flat,
    polystable_decomposition,
    reduce_mod_p,
    stability_verdict,
)

FIXPOINT_ITERATION_CAP = 10000
QUOT_TRUNCATION_WINDOW = 4
# seeded random candidates tried for a surjection from the truncated column
QUOT_SEARCH_TRIES = 60


def is_sufficient(v, corner, quiver):
    """Twice each non-corner entry dominates its weighted neighbour sum."""
    corner = frozenset(corner)
    for i in quiver.plain_vertices:
        if i in corner:
            continue
        nbr = sum(
            quiver.pair_count(i, j) * v.get(j) for j in quiver.plain_vertices
        )
        if 2 * v.get(i) < nbr:
            return False
    return True


def minimal_sufficient_completion(v_corner, corner, quiver):
    """Componentwise-least sufficient extension of corner values.

    Integer least fixpoint of v_i <- ceil(neighbour sum / 2) on the
    non-corner vertices, starting from zero.
    """
    corner = frozenset(corner)
    if not corner:
        raise EmptyI("corner set must be nonempty")
    values = {}
    for i in quiver.plain_vertices:
        values[i] = v_corner.get(i, 0) if i in corner else 0
    free = [i for i in quiver.plain_vertices if i not in corner]
    for _ in range(FIXPOINT_ITERATION_CAP):
        changed = False
        for i in free:
            nbr = sum(
                quiver.pair_count(i, j) * values[j] for j in quiver.plain_vertices
            )
            need = (nbr + 1) // 2
            if need > values[i]:
                values[i] = need
                changed = True
        if not changed:
            return DimVector(components=values)
    raise NoTermination("least-fixpoint iteration exceeded its cap")


def dimension_bound_check(rep, corner):
    """Stable framed dimensions never exceed the least sufficient completion."""
    corner = frozenset(corner)
    theta = theta_I(corner, rep.dims)
    _, stable, _ = stability_verdict(rep, theta)
    if not stable:
        raise NotStable("dimension bound applies to stable modules")
    if rep.quiver.group is None:
        raise InvariantViolation("quiver carries no group label")
    base = mckay_quiver(build_group(rep.quiver.group))
    v_hat = minimal_sufficient_completion(
        rep.dims.restrict(corner), corner, base
    )
    return all(rep.dims.get(i) <= v_hat.get(i) for i in base.plain_vertices)


# ---------------------------------------------------------------------------
# variation of GIT pushforward
# ---------------------------------------------------------------------------

def vgit_pushforward(rep, source_corner, target_corner):
    """Polystable re-decomposition when shrinking the corner set.

    The input must be stable for the source corner; the output is the
    stable core for the target corner padded with vertex simples so the
    total dimension vector is conserved.
    """
    source = frozenset(source_corner)
    target = frozenset(target_corner)
    if not target:
        raise EmptyI("target corner must be nonempty")
    if not target <= source:
        raise NotStableForSource("target corner must be contained in the source")
    _, stable, _ = stability_verdict(rep, theta_I(source, rep.dims))
    if not stable:
        raise NotStableForSource("input is not stable for the source corner")
    summands = polystable_decomposition(rep, target)
    conserved = {}
    for m in summands:
        for v, d in m.dims.as_dict().items():
            conserved[v] = conserved.get(v, 0) + d
    if conserved != rep.dims.as_dict():
        raise InvariantViolation("pushforward broke dimension conservation")
    return summands


def vgit_push_list(summands, source_corner, target_corner):
    """Push a polystable summand list along a smaller corner.

    The unique summand with framing dimension one is pushed; vertex
    simples are carried over unchanged.
    """
    out = []
    pushed = False
    for m in summands:
        if m.dims.get(INFINITY) == 1:
            if pushed:
                raise InvariantViolation("two framed summands in one list")
            out.extend(vgit_pushforward(m, source_corner, target_corner))
            pushed = True
        else:
            out.append(m)
    if not pushed:
        raise InvariantViolation("no framed summand to push")
    return out


# ---------------------------------------------------------------------------
# equivariant ADHM data for the cyclic series
# ---------------------------------------------------------------------------

def adhm_build_cyclic(g, b1, b2, i_vec, j_vec, weights, framing_weights):
    """Split weighted ADHM data into a flat framed representation.

    Weights grade the total space by characters of the cyclic group; b1
    lowers the weight by one, b2 raises it, and the framing maps preserve
    it.  The commutator of b1 and b2 plus i_vec . j_vec must vanish; the
    resulting framed module satisfies the vertex relations exactly.  Each
    framing coordinate p becomes its own framing arrow pair, so the
    relation at the framing vertex asks j[p] . i[:, p] = 0 for every p.
    Entries are stored as QQ elements: an int when integral.
    """
    if g.descriptor.series != "A":
        raise NotEquivariant("equivariant splitting is implemented for series A")
    n = g.order
    dim_v = len(weights)
    dim_w = len(framing_weights)
    for w in (*weights, *framing_weights):
        if not isinstance(w, int):
            raise NotEquivariant(f"weight {w!r} is not an integer")
    weights = [w % n for w in weights]
    framing_weights = [w % n for w in framing_weights]

    b1 = _qq_matrix(b1, dim_v, dim_v, "B1")
    b2 = _qq_matrix(b2, dim_v, dim_v, "B2")
    i_vec = _qq_matrix(i_vec, dim_v, dim_w, "i")
    j_vec = _qq_matrix(j_vec, dim_w, dim_v, "j")

    _check_equivariance(b1, weights, weights, -1, n, "B1")
    _check_equivariance(b2, weights, weights, +1, n, "B2")
    _check_equivariance(i_vec, weights, framing_weights, 0, n, "i")
    _check_equivariance(j_vec, framing_weights, weights, 0, n, "j")

    comm = mat_sub(
        QQ, mat_mul(QQ, b1, b2, b_ncols=dim_v), mat_mul(QQ, b2, b1, b_ncols=dim_v)
    )
    moment = mat_add(QQ, comm, mat_mul(QQ, i_vec, j_vec, b_ncols=dim_v))
    if any(x != 0 for row in moment for x in row):
        raise MomentMapNonzero("[B1, B2] + i.j is nonzero")
    for p in range(dim_w):
        if sum(j_vec[p][r] * i_vec[r][p] for r in range(dim_v)):
            raise MomentMapNonzero(
                f"j[{p}] . i[:, {p}] is nonzero: framing coordinate {p} breaks its relation")

    positions = {m: [p for p, w in enumerate(weights) if w == m] for m in range(n)}
    fpositions = {m: [p for p, w in enumerate(framing_weights) if w == m]
                  for m in range(n)}
    w_mult = {m: len(fpositions[m]) for m in range(n)}

    base = mckay_quiver(g)
    quiver = frame_quiver(base, w_mult)
    comps = {m: len(positions[m]) for m in range(n)}
    dims = DimVector(components=comps, at_infinity=dim_w)

    def block(mat, rows, cols):
        return tuple(tuple(mat[r][c] for c in cols) for r in rows)

    maps = {}
    for m in range(len(base.arrows) // 2):
        # edge m joins m and m+1 around the cycle; its arrow with tail m acts
        # on the components at its head (B1 lowers m+1 -> m), signed by the
        # orientation so that the vertex relation is [B1, B2] + i.j
        plus = next(a for a in base.arrows[2 * m:2 * m + 2] if a.tail == m)
        sign = base.sign(plus.id)
        maps[plus.id] = tuple(tuple(sign * b1[r][c] for c in positions[plus.head])
                              for r in positions[m])
        maps[base.bar[plus.id]] = block(b2, positions[plus.head], positions[m])

    framing_pairs = [a for a in quiver.arrows if a.head == INFINITY]
    seen = {m: 0 for m in range(n)}
    for a in framing_pairs:
        m = a.tail
        p = fpositions[m][seen[m]]
        seen[m] += 1
        maps[a.id] = tuple(tuple(i_vec[r][pp] if pp == p else QQ.zero for pp in range(dim_w))
                           for r in positions[m])
        maps[quiver.bar[a.id]] = tuple(
            tuple(j_vec[pp][c] if pp == p else QQ.zero for c in positions[m])
            for pp in range(dim_w))

    rep = QuiverRep(quiver=quiver, dims=dims, maps=maps, field=QQ)
    if not is_flat(rep):
        raise InvariantViolation("equivariant splitting broke the relations")
    return rep


def _qq_matrix(mat, nrows, ncols, name):
    mat = [list(row) for row in mat]
    if len(mat) != nrows or any(len(row) != ncols for row in mat):
        raise NotEquivariant(f"{name} must be {nrows}x{ncols}")
    return tuple(tuple(_qq_entry(x, f"{name}[{r}][{c}]") for c, x in enumerate(row))
                 for r, row in enumerate(mat))


def _qq_entry(x, where):
    try:
        return QQ.from_fraction(x)
    except (TypeError, ValueError, ZeroDivisionError):
        raise NotEquivariant(f"{where} = {x!r} is not a rational number") from None


def _check_equivariance(mat, row_weights, col_weights, shift, n, name):
    for r, row in enumerate(mat):
        for c, x in enumerate(row):
            if x != 0 and (row_weights[r] - col_weights[c] - shift) % n != 0:
                raise NotEquivariant(
                    f"{name}[{r}][{c}] nonzero violates the weight grading"
                )


# ---------------------------------------------------------------------------
# quotient-scheme correspondence
# ---------------------------------------------------------------------------

def quot_truncation_degree(g, corner):
    """Truncation degree for the corner column of the plain flavor: the top
    degree of the factor by the corner ideal plus a fixed margin of
    ``QUOT_TRUNCATION_WINDOW`` degrees.  The margin is not certified."""
    return factor_through_bound(g, corner) + QUOT_TRUNCATION_WINDOW


def truncated_corner_column(g, corner):
    """The degree-truncated column e_I . Pi . e_0 as a cornered module.

    The column Pi . e_0 of the plain flavor modulo the degrees above
    ``quot_truncation_degree`` is a module over the doubled quiver, the
    arrows acting by left multiplication; its corner restriction
    ``j_star`` is the cornered module.  Loops act as zero.
    """
    bound = quot_truncation_degree(g, corner)
    layers = [pi_context(g).layer(0, k) for k in range(bound + 1)]
    quiver = mckay_quiver(g)
    # index[v]: the position at v of each class coordinate (k, c), by degree
    index = {v: {} for v in quiver.vertices}
    for k, layer in enumerate(layers):
        for c, v in enumerate(layer.vertex_of):
            index[v][(k, c)] = len(index[v])
    maps = {}
    for a in quiver.arrows:
        rows = [[QQ.zero] * len(index[a.head]) for _ in index[a.tail]]
        for col, (k, c) in enumerate(index[a.head]):
            if k < bound:
                for c2, val in layers[k + 1].image(a.id, c):
                    rows[index[a.tail][(k + 1, c2)]][col] = val
        maps[a.id] = tuple(map(tuple, rows))
    dims = DimVector(components={v: len(pos) for v, pos in index.items()})
    return j_star(QuiverRep(quiver=quiver, dims=dims, maps=maps), corner)


@functools.lru_cache(maxsize=None)
def _quot_column(label, corner, p):
    """``truncated_corner_column`` of a group and corner, reduced mod ``p``
    when ``p`` is nonzero; built once and shared by every certification."""
    if p:
        return reduce_mod_p(_quot_column(label, corner, 0), p)
    return truncated_corner_column(build_group(label), corner)


def check_quot_correspondence(qmod, corner, g):
    """Certify a cornered module as a quotient of the truncated column.

    Solves for module homomorphisms from the degree-truncated column onto
    the candidate and searches the solution space for a surjection
    (exhaustively over a small prime-field space, otherwise among
    ``QUOT_SEARCH_TRIES`` combinations drawn with seed 0).
    Returns the candidate's dimension vector or raises NotAQuotient.
    """
    corner = frozenset(corner)
    if qmod.corner != corner or qmod.group.descriptor != g.descriptor:
        raise InvariantViolation("candidate module does not match group/corner")
    dims = DimVector(components={v: qmod.dim(v) for v in sorted(corner)})
    if qmod.total_dim() == 0:
        return dims
    column = _quot_column(g.descriptor.label, corner, qmod.field.p)
    for i in sorted(corner):
        if qmod.dim(i) > column.dim(i):
            raise NotAQuotient(
                f"component {i} exceeds the truncated column dimension"
            )
    basis, offsets = cornered_hom_space(column, qmod)
    if not basis:
        raise NotAQuotient("no homomorphisms from the truncated column")
    dims_col = {v: column.dim(v) for v in offsets}
    dims_q = {v: qmod.dim(v) for v in offsets}
    if find_surjection(qmod.field, basis, offsets, dims_col, dims_q, 0,
                       QUOT_SEARCH_TRIES):
        return dims
    raise NotAQuotient(
        f"no surjection found from the column truncated at degree "
        f"{quot_truncation_degree(g, corner)}, the factor top plus a margin of "
        f"{QUOT_TRUNCATION_WINDOW} that is not certified")
