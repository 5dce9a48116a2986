"""Corner restriction and extension on finite-dimensional modules.

``j_star`` restricts a module over the (graded) preprojective algebra to
its corner components, recording the action of a finite generating set
of corner classes (path composites of the arrow matrices).  ``j_shriek``
extends a cornered module back, computed degreewise as the tensor
product of the algebra column with the module modulo the bilinearity
span, truncated once a quiet window of degrees (``TRUNCATION_WINDOW``,
at least the generation degree) stops contributing.  The top-degree
parts of a degree's bilinearity rows do not depend on the module, so
their elimination is planned once per group label and corner
(``_top_plan``) and replayed on each module's rows.
Restriction after extension is the identity up to isomorphism, and the
test suite enforces that round trip on seeded inputs.

The degree-one central loops slide across arrows, so the extension is
assembled over the ungraded flavor with the loop action threaded through
the corner; the output carries genuine loop matrices and satisfies both
relation families.

A cornered module has the same generator view as a framed
representation: its matrices listed as ``(i, j, matrix)``, the loops
first, then the class actions in sorted key order.  Closure, quotients,
reduction mod p, hom spaces and isomorphism are the shared ``linalg``
kernels on that view.

Caution: nothing here relies on higher extension groups vanishing
against modules killed by the corner idempotent.  Only degree-zero and
degree-one compatibility of the extension functor is a safe assumption
(the literature on the stronger statement is known to be flawed), and
the implementation uses nothing beyond the identity round trip and
right-exactness, both of which the test suite checks directly.
"""

import functools
import math
from dataclasses import dataclass

from .errors import (
    BadPrime,
    EmptyI,
    InvariantViolation,
    RepresentativeDependence,
    TruncationNotReached,
    VertexNotInCorner,
)
from .graded_algebra import (
    AlgebraContext,
    _expand_path_on,
    corner_generation_bound,
)
from .gamma_data import build_group
from .linalg import (
    QQ,
    ClosureTest,
    Echelon,
    PrimeField,
    _echelon_of_sparse,
    _primitive,
    common_field,
    hom_space,
    isomorphic,
    mat_mul,
    quotient_maps,
    reduce_entries,
    zeros,
)
from .quiver_core import DimVector, mckay_quiver, triple_quiver
from .rep_theory import QuiverRep, is_flat

TRUNCATION_WINDOW = 4


def pi_context(group):
    """The shared plain-flavor algebra context of a group."""
    return _pi_context(group.descriptor.label)


@functools.lru_cache(maxsize=None)
def _pi_context(label):
    # h = Coxeter number: the generation scan reads degrees <= h, the
    # truncated column <= h + 2, and the extension adds nothing above the
    # factor top + 1 <= h - 1, then waits <= max(TRUNCATION_WINDOW, h)
    # quiet degrees; so only a failure of that spanning meets the cap
    g = build_group(label)
    return AlgebraContext(g, "pi", degree_cap=2 * sum(g.irrep_dims) + TRUNCATION_WINDOW)


@functools.lru_cache(maxsize=None)
def _tripled_quiver(label):
    """The tripled McKay quiver of a group, which every corner extension
    of its modules shares."""
    return triple_quiver(mckay_quiver(build_group(label)))


@functools.lru_cache(maxsize=None)
def _generation_degree(label, corner):
    return corner_generation_bound(_pi_context(label), corner)


@functools.lru_cache(maxsize=None)
def _top_plan(label, corner, gen_deg, k_top):
    """The elimination of the top parts of the corner extension's
    bilinearity rows of degree ``k_top``, which depend on the group, the
    corner and its generation degree alone.

    The row of the index (d, i, t, u) and a module basis index b at the
    corner vertex src is (u.t (x) e_b) - (u (x) t.e_b): t the t-th
    quotient-basis class of the degree-d slice from src to i, d <= gen_deg,
    and u the u-th basis path of the degree k_top - d layer at i.  Its top
    part u.t (x) e_b is the sparse expansion of u.t in the degree-k_top
    layer of the column at src, the same for every b.  For each corner
    vertex src in sorted order the plan holds ``(src, pivots, kernels)``,
    integer combinations ``((index, coefficient), ...)`` of the indices
    into src: ``pivots`` as ``(lead, top, combination)``, the combination's
    top part ``top`` having its smallest coordinate ``lead`` positive and
    distinct from every other pivot's, and ``kernels`` the combinations
    whose top part is zero.  They are the stored rows of one ``Echelon``
    of the products, each with its index appended as a unit coordinate
    keyed after every top coordinate; so each combination adds one index
    to earlier ones, and they are an invertible transform of the rows.
    """
    ctx = _pi_context(label)
    corner_sorted = sorted(corner)

    def rows(src):
        """Each product into src with its index, as a sparse row in key
        order."""
        for d in range(1, min(gen_deg, k_top) + 1):
            for i in corner_sorted:
                paths = ctx.layer(i, k_top - d).paths
                for t, c in enumerate(ctx.slice_coords(i, src, d)[1]):
                    for u, path in enumerate(paths):
                        prod = _expand_path_on(ctx, path, {c: QQ.one}, src, d)
                        row = {(0, c2): prod[c2] for c2 in sorted(prod)}
                        row[(1, (d, i, t, u))] = QQ.one
                        yield row

    plan = []
    for src in corner_sorted:
        ech = _echelon_of_sparse(QQ, rows(src))
        pivots, kernels = [], []
        for (is_index, lead), row in ech.rows.items():
            combo = tuple((idx, v) for (part, idx), v in row.items() if part)
            if is_index:
                kernels.append(combo)
            else:
                top = {c: v for (part, c), v in row.items() if not part}
                pivots.append((lead, top, combo))
        plan.append((src, tuple(pivots), tuple(kernels)))
    return tuple(plan)


def generation_degree(group, corner):
    """Certified degree bound for generators of the cornered algebra."""
    return _generation_degree(group.descriptor.label, frozenset(corner))


@dataclass(frozen=True)
class CorneredModule:
    """Finite-dimensional module over a cornered algebra.

    ``actions[(k, i, j)][idx]`` is the matrix (component j -> component i)
    of the idx-th quotient-basis class of the degree-k corner slice, for
    1 <= k <= gen_degree; ``z_mats[i]`` is the action of the degree-one
    loop at i.  A module over the ungraded cornered algebra is the same
    data with every loop acting as zero.  The module is frozen, and its
    matrices are not changed after construction (``rebuild`` makes a new
    module), which keeps its memos ``_generators`` and ``_closure_test``
    valid.
    """

    group: object
    corner: frozenset
    dims: dict
    z_mats: dict
    actions: dict
    gen_degree: int
    field: object = QQ

    def dim(self, i):
        return self.dims.get(i, 0)

    def total_dim(self):
        return sum(self.dims.values())

    def vertex_dims(self):
        """Component dimensions in sorted corner order."""
        return {v: self.dim(v) for v in sorted(self.corner)}

    def generators(self):
        """The loops, then the class actions in sorted key order, each
        matrix as ``(i, j, matrix)`` acting from component j to i.

        The tuple is built on the first call and kept outside the fields,
        so ``==`` and ``repr`` do not see it.
        """
        return self._generators

    @functools.cached_property
    def _generators(self):
        gens = [(v, v, self.z_mats[v]) for v in sorted(self.corner)]
        for key in sorted(self.actions):
            gens.extend((key[1], key[2], mat) for mat in self.actions[key])
        return tuple(gens)

    @functools.cached_property
    def _closure_test(self):  # kept, so a scan of many subspaces builds it once
        return ClosureTest(self.field, self._generators)

    def rebuild(self, dims, mats, field=None):
        """The module over the same cornered algebra with dimensions
        ``dims`` and the matrices ``mats`` of ``generators`` order."""
        mats = iter(mats)
        z_mats = {v: next(mats) for v in sorted(self.corner)}
        actions = {key: [next(mats) for _ in self.actions[key]]
                   for key in sorted(self.actions)}
        return CorneredModule(
            group=self.group, corner=self.corner, dims=dict(dims),
            z_mats=z_mats, actions=actions, gen_degree=self.gen_degree,
            field=self.field if field is None else field,
        )


def j_star(rep, corner):
    """Corner restriction of a module over the plain or graded flavor.

    The input must satisfy its relations; otherwise the class actions
    would depend on the chosen path representatives.
    """
    corner = frozenset(corner)
    if not corner:
        raise EmptyI("corner set must be nonempty")
    quiver = rep.quiver
    if quiver.is_framed:
        raise VertexNotInCorner("corner restriction expects an unframed module")
    bad = [v for v in corner if v not in quiver.vertices]
    if bad:
        raise VertexNotInCorner(f"vertices {bad} not in the quiver")
    field = rep.field
    if not is_flat(rep):
        raise RepresentativeDependence("relations violated upstream")

    group = build_group(quiver.group)
    ctx = pi_context(group)
    gen_deg = generation_degree(group, corner)
    dims = {v: rep.dims.get(v) for v in sorted(corner)}
    z_mats = {}
    for v in sorted(corner):
        if quiver.is_tripled:
            z_mats[v] = rep.matrix(quiver.loops[v])
        else:
            z_mats[v] = zeros(field, dims[v], dims[v])
    actions = {}
    for k in range(1, gen_deg + 1):
        for i in sorted(corner):
            for j in sorted(corner):
                mats = []
                for path in ctx.slice_basis_paths(i, j, k):
                    mat = rep.matrix(path[0])
                    for aid in path[1:]:
                        mat = mat_mul(field, mat, rep.matrix(aid),
                                      b_ncols=rep.dims.get(quiver.arrow(aid).head))
                    mats.append(mat)
                actions[(k, i, j)] = mats
    return CorneredModule(
        group=group, corner=corner, dims=dims, z_mats=z_mats,
        actions=actions, gen_degree=gen_deg, field=field,
    )


@dataclass
class ExtensionData:
    """A computed corner extension with its internal coordinates.

    A tensor coordinate is keyed ``(-k, src, c, b)``: degree k, corner
    vertex src, coordinate c of the degree-k layer of the column at src,
    module basis index b.  ``normal_form(key)`` is the sparse normal form
    of a coordinate modulo the bilinearity span; its keys are basis keys,
    and ``place[key]`` is the (vertex, position) of a basis key in ``rep``.
    """

    module: object
    rep: object
    k_max: int
    normal_form: object
    place: dict


def j_shriek(module):
    """Corner extension: the universal module generated by the corner data.

    Computed degreewise as (algebra column tensor module) modulo the
    bilinearity span, with coordinates eliminated from the top degree
    downward; stops once ``TRUNCATION_WINDOW`` consecutive degrees (at
    least the module's generation degree) contribute no new quotient
    coordinates and returns a module over the tripled quiver.
    """
    return j_shriek_with_data(module).rep


def j_shriek_with_data(module, force_degree=0):
    """Corner extension together with its internal coordinates.

    ``force_degree`` keeps extending at least that far even after the
    stabilisation window, so two extensions can be compared coordinate
    by coordinate.  The module must be over QQ; a module over a prime
    field raises BadPrime.
    """
    group = module.group
    field = module.field
    if field is not QQ:
        raise BadPrime(f"corner extension runs over QQ, not {field}")
    label = group.descriptor.label
    ctx = pi_context(group)
    quiver_b = _tripled_quiver(label)
    corner_sorted = sorted(module.corner)
    gen_deg = module.gen_degree
    # a bilinearity row of degree k reaches down to degree k - gen_deg, so
    # a shorter quiet window could stop before the relations it would
    # still insert into the lower degrees
    window = max(TRUNCATION_WINDOW, gen_deg)

    # the action matrices as integer columns, all scaled by the lcm of
    # their denominators: cols[(d, i, src)][t][b] holds the nonzero
    # (bb, scale * act_t[bb][b]) of column b, so no row holds a Fraction
    scale = math.lcm(1, *(x.denominator for mats in module.actions.values()
                          for mat in mats for row in mat for x in row if x))
    dims = {src: module.dim(src) for src in corner_sorted}
    cols = {(d, i, src): [_int_columns(mat, dims[src], scale) for mat in mats]
            for (d, i, src), mats in module.actions.items()}
    ech = Echelon(QQ)
    stored = ech.rows

    def lower_part(row, k_top, src, combo, b):
        """Add to ``row`` the parts -(u (x) t.e_b) of the rows of ``combo``,
        at degrees below ``k_top``."""
        for (d, i, t, u), coef in combo:
            for bb, x in cols[(d, i, src)][t][b]:
                key = (d - k_top, i, u, bb)
                v = row.get(key, 0) - coef * x
                if v:
                    row[key] = v
                else:
                    del row[key]
        return row

    def insert_bilinearity(k_top):
        """Add the span of the rows (u.a (x) w) - (u (x) a.w) with
        deg u + deg a == k_top; return how many pivots of degree k_top it
        adds.  A pivot step's row is stored as it is: no stored row has a
        key of degree k_top, and its smallest key is its top key."""
        added = 0
        for src, pivots, kernels in _top_plan(label, module.corner, gen_deg, k_top):
            for b in range(dims[src]):
                for lead, top, combo in pivots:
                    key = (-k_top, src, lead, b)
                    row = lower_part({(-k_top, src, c, b): scale * v for c, v in top.items()},
                                     k_top, src, combo, b)
                    stored[key] = row if row[key] == 1 else _primitive(row, row[key])
                for combo in kernels:
                    row = lower_part({}, k_top, src, combo, b)
                    if row:
                        ech.insert(row)
            added += len(pivots) * dims[src]
        return added

    new_content = []
    k = 0
    while True:
        k += 1
        if k > ctx.degree_cap:
            raise TruncationNotReached(
                f"corner extension did not stabilise below degree {ctx.degree_cap}"
            )
        coords = sum(ctx.layer(src, k).dim * dims[src] for src in corner_sorted)
        new_content.append(coords - insert_bilinearity(k))
        if (
            k >= force_degree
            and len(new_content) >= window
            and all(x == 0 for x in new_content[-window:])
        ):
            break
    k_max = k

    # the basis keys in key order, placed blockwise by vertex; a degree
    # whose keys were all pivots when it was reached has none
    place = {}
    comps = {v: 0 for v in quiver_b.vertices}
    for kdeg in range(k_max, -1, -1):
        if kdeg and not new_content[kdeg - 1]:
            continue
        for src in corner_sorted:
            layer = ctx.layer(src, kdeg)
            for c, v in enumerate(layer.vertex_of):
                for b in range(dims[src]):
                    key = (-kdeg, src, c, b)
                    if key not in stored:
                        place[key] = (v, comps[v])
                        comps[v] += 1

    @functools.lru_cache(maxsize=None)
    def normal_form(key):
        return ech.reduce({key: QQ.one})

    maps = {
        a.id: [[QQ.zero] * comps[a.head] for _ in range(comps[a.tail])]
        for a in quiver_b.arrows
    }
    arrows_into = {v: [] for v in quiver_b.vertices}
    for a in quiver_b.non_loop_arrows():
        arrows_into[a.head].append(a)
    for key, (v, col) in place.items():
        neg_k, src, c, b = key
        # non-loop arrows: left multiplication on the class factor
        if -neg_k < k_max:
            lay_next = ctx.layer(src, 1 - neg_k)
            for a in arrows_into[v]:
                for c2, val in lay_next.lmul_in.get(a.id, {}).get(c, ()):
                    _scatter(maps[a.id], col, val,
                             normal_form((neg_k - 1, src, c2, b)), place, a.tail)
        # loops: thread the corner loop action through the module factor
        zmat = module.z_mats[src]
        for bb in range(module.dim(src)):
            if zmat[bb][b] != QQ.zero:
                _scatter(maps[quiver_b.loops[v]], col, zmat[bb][b],
                         normal_form((neg_k, src, c, bb)), place, v)

    maps = {aid: tuple(tuple(row) for row in rows) for aid, rows in maps.items()}
    out = QuiverRep(quiver=quiver_b, dims=DimVector(components=comps), maps=maps,
                    field=field)
    if not is_flat(out):
        raise InvariantViolation("corner extension broke the relations")
    return ExtensionData(module=module, rep=out, k_max=k_max,
                         normal_form=normal_form, place=place)


def _int_columns(mat, ncols, scale):
    """The columns of ``mat`` times ``scale``, a multiple of every
    denominator, each as the ``int`` pairs ((row, value), ...) of its
    nonzero entries."""
    if not mat:
        return ((),) * ncols
    return tuple(tuple((r, x.numerator * (scale // x.denominator))
                       for r, x in enumerate(col) if x)
                 for col in zip(*mat))


def _scatter(rows, col, coef, red, place, vertex):
    """Add ``coef`` times the normal form ``red`` to column ``col`` of
    ``rows``, a block whose rows are the basis keys placed at ``vertex``."""
    for key, x in red.items():
        v, r = place[key]
        if v == vertex:
            rows[r][col] += coef * x


def j_shriek_on_hom(data_m, data_n, phi_blocks):
    """Blocks of the induced map between two computed corner extensions.

    ``phi_blocks[i]`` is a matrix (N component) x (M component) of a
    module homomorphism M -> N; the induced map sends a tensor
    coordinate through phi on the module factor and reduces in the
    target extension.  Returns per-vertex matrices.
    """
    zero = data_m.module.field.zero
    blocks = {
        v: [[zero] * data_m.rep.dims.get(v) for _ in range(data_n.rep.dims.get(v))]
        for v in data_m.rep.quiver.vertices
    }
    for key, (v, col) in data_m.place.items():
        neg_k, src, c, b = key
        phi = phi_blocks[src]
        for b2 in range(data_n.module.dim(src)):
            if phi[b2][b] != zero:
                _scatter(blocks[v], col, phi[b2][b],
                         data_n.normal_form((neg_k, src, c, b2)), data_n.place, v)
    return {v: tuple(tuple(r) for r in rows) for v, rows in blocks.items()}


def cornered_hom_space(a, b):
    """Basis of module homomorphisms a -> b between cornered modules.

    Returns (basis vectors, offsets): a solution phi is stored as a flat
    vector; the block for vertex v has shape b.dim(v) x a.dim(v) starting
    at offsets[v], row-major.
    """
    if a.group.descriptor != b.group.descriptor or a.corner != b.corner:
        raise InvariantViolation("hom space needs matching group and corner")
    if a.gen_degree != b.gen_degree:
        raise InvariantViolation("hom space needs matching generator tables")
    return hom_space(common_field(a, b), a.generators(), b.generators(),
                     a.vertex_dims(), b.vertex_dims())


def cornered_isomorphic(a, b):
    """Whether two cornered modules are isomorphic (invertible intertwiner)."""
    if a.group.descriptor != b.group.descriptor or a.corner != b.corner:
        return False
    if a.gen_degree != b.gen_degree:
        raise InvariantViolation("isomorphism test needs matching generator tables")
    return isomorphic(common_field(a, b), a.generators(), b.generators(),
                      a.vertex_dims(), b.vertex_dims())


def cornered_submodule_is_closed(module, spaces):
    """Whether per-vertex subspaces are closed under all stored actions.

    ``spaces`` maps corner vertices to spanning rows; a key outside the
    corner raises VertexNotInCorner, and a row the test reads whose length
    is not its component's dimension raises ShapeMismatch.
    """
    if not module.corner.issuperset(spaces):
        bad = sorted(set(spaces) - module.corner, key=repr)
        raise VertexNotInCorner(f"subspaces at {bad}, outside the corner "
                                f"{sorted(module.corner)}")
    return module._closure_test(spaces)


def cornered_quotient(module, spaces, with_projection=False):
    """Quotient of a cornered module by a closed family of subspaces.

    With ``with_projection`` also returns the per-vertex projection
    matrices realising the quotient map.
    """
    dims, mats, proj = quotient_maps(module.field, module.generators(),
                                     module.vertex_dims(), spaces)
    quotient = module.rebuild(dims, mats)
    return (quotient, proj) if with_projection else quotient


def cornered_mod_p(module, p):
    """Entrywise reduction of a rational cornered module modulo p."""
    field = PrimeField(p)
    return module.rebuild(module.vertex_dims(),
                          reduce_entries(field, module.generators()), field)
