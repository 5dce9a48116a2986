"""Corner restriction and extension on finite-dimensional modules,
plus truncated graded modules with their divisor-at-infinity operations.

``j_star`` restricts a module over the (graded) preprojective algebra to
its corner components, recording the action of a finite generating set
of corner classes (path composites of the arrow matrices).  ``j_shriek``
extends a cornered module back, computed degreewise as the tensor
product of the algebra column with the module modulo the bilinearity
span, truncated once a safety window of degrees stops contributing.
Restriction after extension is the identity up to isomorphism, and the
test suite enforces that round trip on seeded inputs.

The degree-one central loops slide across arrows, so the extension is
assembled over the ungraded flavor with the loop action threaded through
the corner; the output carries genuine loop matrices and satisfies both
relation families.

Caution: nothing here relies on higher extension groups vanishing
against modules killed by the corner idempotent.  Only degree-zero and
degree-one compatibility of the extension functor is a safe assumption
(the literature on the stronger statement is known to be flawed), and
the implementation uses nothing beyond the identity round trip and
right-exactness, both of which the test suite checks directly.
"""

import functools
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
    class_from_path,
    multiply_classes,
    slice_class_basis,
)
from .gamma_data import build_group
from .linalg import (
    QQ,
    Echelon,
    PrimeField,
    find_surjection,
    hom_space,
    induced_map,
    mat_mul,
    mat_vec,
    nullspace,
    quotient_projection,
    spans_closed,
    zeros,
)
from .quiver_core import DimVector, mckay_quiver, triple_quiver
from .rep_theory import QuiverRep, is_flat

TRUNCATION_WINDOW = 4


def pi_context(group, degree_cap=None):
    """The shared plain-flavor algebra context of a group."""
    return _pi_context(group.descriptor.label, degree_cap)


@functools.lru_cache(maxsize=None)
def _pi_context(label, degree_cap):
    kwargs = {} if degree_cap is None else {"degree_cap": degree_cap}
    return AlgebraContext(build_group(label), "pi", **kwargs)


@functools.lru_cache(maxsize=None)
def _generation_degree(label, corner):
    return corner_generation_bound(_pi_context(label, None), corner)


def generation_degree(group, corner):
    """Certified degree bound for generators of the cornered algebra."""
    return _generation_degree(group.descriptor.label, frozenset(corner))


@dataclass
class CorneredModule:
    """Finite-dimensional module over a cornered algebra.

    ``actions[(k, i, j)][idx]`` is the matrix (component j -> component i)
    of the idx-th quotient-basis class of the degree-k corner slice, for
    1 <= k <= gen_degree; ``z_mats[i]`` is the action of the degree-one
    loop at i.  A module over the ungraded cornered algebra is the same
    data with every loop acting as zero.
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

    def dims_dict(self):
        return dict(self.dims)


def cornered_vertex_simple(group, corner, i, field=QQ):
    """One-dimensional cornered module concentrated at a corner vertex."""
    corner = frozenset(corner)
    if i not in corner:
        raise VertexNotInCorner(f"vertex {i} outside the corner")
    gen_deg = generation_degree(group, corner)
    ctx = pi_context(group)
    dims = {v: (1 if v == i else 0) for v in sorted(corner)}
    z_mats = {v: zeros(field, dims[v], dims[v]) for v in dims}
    actions = {}
    for k in range(1, gen_deg + 1):
        for a in sorted(corner):
            for b in sorted(corner):
                n = ctx.slice_dim(a, b, k)
                actions[(k, a, b)] = [
                    zeros(field, dims[a], dims[b]) for _ in range(n)
                ]
    return CorneredModule(
        group=group, corner=corner, dims=dims, z_mats=z_mats,
        actions=actions, gen_degree=gen_deg, field=field,
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
                    mat = None
                    for aid in path:
                        m = rep.matrix(aid)
                        mat = m if mat is None else mat_mul(
                            field, mat, m, b_ncols=len(m[0]) if m else 0
                        )
                        if not mat:
                            break
                    if mat is None or dims[i] == 0 or dims[j] == 0:
                        mat = zeros(field, dims[i], dims[j])
                    mats.append(mat)
                actions[(k, i, j)] = mats
    return CorneredModule(
        group=group, corner=corner, dims=dims, z_mats=z_mats,
        actions=actions, gen_degree=gen_deg, field=field,
    )


@dataclass
class ExtensionData:
    """Internal coordinates of a computed corner extension."""

    module: object
    rep: object
    k_max: int
    coords: dict
    basis_keys: list
    basis_pos: dict
    vertex_of_key: dict
    pos_in_vertex: dict
    reduce_key: object  # key -> dense vector over the quotient basis
    coord_key: object


def j_shriek(module, degree_cap=None, window=TRUNCATION_WINDOW):
    """Corner extension: the universal module generated by the corner data.

    Computed degreewise as (algebra column tensor module) modulo the
    bilinearity span, with coordinates eliminated from the top degree
    downward; stops once ``window`` consecutive degrees (at least the
    module's generation degree) contribute no new quotient coordinates
    and returns a module over the tripled quiver.
    """
    return j_shriek_with_data(module, degree_cap=degree_cap, window=window).rep


def j_shriek_with_data(module, degree_cap=None, window=TRUNCATION_WINDOW,
                       force_degree=0):
    """Corner extension together with its internal coordinates.

    ``force_degree`` keeps extending at least that far even after the
    stabilisation window, so two extensions can be compared coordinate
    by coordinate.  The module must be over QQ; a module over a prime
    field raises BadPrime.
    """
    group = module.group
    corner = module.corner
    field = module.field
    if field is not QQ:
        raise BadPrime(f"corner extension runs over QQ, not {field}")
    ctx = pi_context(group)
    cap = degree_cap if degree_cap is not None else ctx.degree_cap
    quiver_b = triple_quiver(mckay_quiver(group))

    if module.total_dim() == 0:
        comps = {v: 0 for v in quiver_b.vertices}
        rep = QuiverRep(
            quiver=quiver_b,
            dims=DimVector(components=comps),
            maps={a.id: () for a in quiver_b.arrows},
            field=field,
        )
        return ExtensionData(
            module=module, rep=rep, k_max=0, coords={}, basis_keys=[],
            basis_pos={}, vertex_of_key={}, pos_in_vertex={},
            reduce_key=lambda key: (), coord_key=lambda *a: None,
        )

    corner_sorted = sorted(corner)
    gen_deg = module.gen_degree
    # a bilinearity row of degree k reaches down to degree k - gen_deg, so
    # a shorter quiet window could stop before the relations it would
    # still insert into the lower degrees
    window = max(window, gen_deg)

    # T coordinates: (k, src corner vertex, layer coord, module basis index)
    def coord_key(k, src, c, b):
        return (-k, corner_sorted.index(src), c, b)

    coords = {}  # key -> (k, src, c, b)

    def layer(src, k):
        return ctx.layer(src, k)

    def add_degree(k):
        for src in corner_sorted:
            lay = layer(src, k)
            for c in range(lay.dim):
                for b in range(module.dim(src)):
                    key = coord_key(k, src, c, b)
                    coords[key] = (k, src, c, b)

    ech = Echelon(QQ)

    def insert_bilinearity(k_top):
        """Rows (u.a (x) w) - (u (x) a.w) with deg u + deg a == k_top."""
        for d in range(1, min(gen_deg, k_top) + 1):
            m = k_top - d
            for i in corner_sorted:
                for src in corner_sorted:
                    acts = module.actions[(d, i, src)]
                    classes = slice_class_basis(ctx, i, src, d)
                    if not classes:
                        continue
                    lay_m = layer(i, m)
                    for cls, act in zip(classes, acts):
                        base = {
                            c: x for c, x in zip(
                                ctx.slice_coords(i, src, d)[1], cls.coeffs
                            ) if x
                        }
                        for u in range(lay_m.dim):
                            path = lay_m.paths[u]
                            prod = _expand_path_on(ctx, path, dict(base), src, d)
                            for b in range(module.dim(src)):
                                row = {}
                                for c, val in prod.items():
                                    row[coord_key(k_top, src, c, b)] = val
                                for bb in range(module.dim(i)):
                                    coef = act[bb][b]
                                    if coef != field.zero:
                                        key = coord_key(m, i, u, bb)
                                        row[key] = row.get(key, QQ.zero) - coef
                                row = {kk: v for kk, v in row.items() if v}
                                if row:
                                    ech.insert(row)

    add_degree(0)
    new_content = []
    k = 0
    while True:
        k += 1
        if k > cap:
            raise TruncationNotReached(
                f"corner extension did not stabilise below degree {cap}"
            )
        add_degree(k)
        insert_bilinearity(k)
        pivots_at_k = sum(1 for key in ech.rows if -key[0] == k)
        coords_at_k = sum(1 for key in coords if -key[0] == k)
        new_content.append(coords_at_k - pivots_at_k)
        if (
            k >= force_degree
            and len(new_content) >= window
            and all(x == 0 for x in new_content[-window:])
        ):
            break
    k_max = k

    pivot_keys = set(ech.rows.keys())
    basis_keys = [key for key in sorted(coords) if key not in pivot_keys]
    basis_pos = {key: t for t, key in enumerate(basis_keys)}
    ndim = len(basis_keys)

    reduce_cache = {}

    def reduce_key(key):
        out = reduce_cache.get(key)
        if out is not None:
            return out
        red = ech.reduce({key: QQ.one})
        vec = [QQ.zero] * ndim
        for kk, val in red.items():
            vec[basis_pos[kk]] = val
        out = tuple(vec)
        reduce_cache[key] = out
        return out

    # vertex assignment and blockwise index
    vertex_of_key = {}
    for key in basis_keys:
        kdeg, src, c, b = coords[key]
        vertex_of_key[key] = layer(src, kdeg).vertex_of[c]
    by_vertex = {v: [key for key in basis_keys if vertex_of_key[key] == v]
                 for v in quiver_b.vertices}
    pos_in_vertex = {}
    for v, keys in by_vertex.items():
        for t, key in enumerate(keys):
            pos_in_vertex[key] = t

    comps = {v: len(by_vertex[v]) for v in quiver_b.vertices}
    dims = DimVector(components=comps)

    def blank_maps():
        return {
            a.id: [
                [field.zero] * comps[a.head] for _ in range(comps[a.tail])
            ]
            for a in quiver_b.arrows
        }

    maps = blank_maps()
    for key in basis_keys:
        kdeg, src, c, b = coords[key]
        col = pos_in_vertex[key]
        v_here = vertex_of_key[key]
        # non-loop arrows: left multiplication on the class factor
        if kdeg + 1 <= k_max:
            lay_next = layer(src, kdeg + 1)
            for a in quiver_b.non_loop_arrows():
                if a.head != v_here:
                    continue
                img = lay_next.lmul_in.get(a.id, {}).get(c)
                if img is None:
                    continue
                acc = [QQ.zero] * ndim
                for c2, val in img:
                    red = reduce_key(coord_key(kdeg + 1, src, c2, b))
                    for t, x in enumerate(red):
                        if x:
                            acc[t] += val * x
                for key2, t in basis_pos.items():
                    if acc[t] and vertex_of_key[key2] == a.tail:
                        maps[a.id][pos_in_vertex[key2]][col] = acc[t]
        # loops: thread the corner loop action through the module factor
        lid = quiver_b.loops[v_here]
        zmat = module.z_mats[src]
        acc = [QQ.zero] * ndim
        for bb in range(module.dim(src)):
            coef = zmat[bb][b]
            if coef == field.zero:
                continue
            red = reduce_key(coord_key(kdeg, src, c, bb))
            for t, x in enumerate(red):
                if x:
                    acc[t] += coef * x
        for key2, t in basis_pos.items():
            if acc[t] and vertex_of_key[key2] == v_here:
                maps[lid][pos_in_vertex[key2]][col] = acc[t]

    maps = {aid: tuple(tuple(row) for row in rows) for aid, rows in maps.items()}
    out = QuiverRep(quiver=quiver_b, dims=dims, maps=maps, field=field)
    if not is_flat(out):
        raise InvariantViolation("corner extension broke the relations")
    return ExtensionData(
        module=module,
        rep=out,
        k_max=k_max,
        coords=coords,
        basis_keys=basis_keys,
        basis_pos=basis_pos,
        vertex_of_key=vertex_of_key,
        pos_in_vertex=pos_in_vertex,
        reduce_key=reduce_key,
        coord_key=coord_key,
    )


def j_shriek_on_hom(data_m, data_n, phi_blocks):
    """Blocks of the induced map between two computed corner extensions.

    ``phi_blocks[i]`` is a matrix (N component) x (M component) of a
    module homomorphism M -> N; the induced map sends a tensor
    coordinate through phi on the module factor and reduces in the
    target extension.  Returns per-vertex matrices.
    """
    m_mod, n_mod = data_m.module, data_n.module
    field = m_mod.field
    quiver_b = data_m.rep.quiver
    blocks = {
        v: [
            [field.zero] * data_m.rep.dims.get(v)
            for _ in range(data_n.rep.dims.get(v))
        ]
        for v in quiver_b.vertices
    }
    for key in data_m.basis_keys:
        kdeg, src, c, b = data_m.coords[key]
        v = data_m.vertex_of_key[key]
        col = data_m.pos_in_vertex[key]
        phi = phi_blocks[src]
        for b2 in range(n_mod.dim(src)):
            coef = phi[b2][b]
            if coef == field.zero:
                continue
            red = data_n.reduce_key(data_n.coord_key(kdeg, src, c, b2))
            for key2, t in data_n.basis_pos.items():
                val = red[t]
                if val and data_n.vertex_of_key[key2] == v:
                    row = data_n.pos_in_vertex[key2]
                    blocks[v][row][col] = field.add(
                        blocks[v][row][col], field.mul(coef, val)
                    )
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
    verts = sorted(a.corner)
    constraints = [(v, v, a.z_mats[v], b.z_mats[v]) for v in verts]
    for key in sorted(a.actions, key=lambda t: (t[0], t[1], t[2])):
        _, i, j = key
        for ma, mb in zip(a.actions[key], b.actions[key]):
            constraints.append((i, j, ma, mb))
    dims_a = {v: a.dim(v) for v in verts}
    dims_b = {v: b.dim(v) for v in verts}
    return hom_space(a.field, constraints, dims_a, dims_b, verts)


def cornered_isomorphic(a, b, seed=0, tries=40):
    """Whether two cornered modules are isomorphic (invertible intertwiner)."""
    if a.group.descriptor != b.group.descriptor or a.corner != b.corner:
        return False
    if a.dims != b.dims:
        return False
    if a.total_dim() == 0:
        return True
    basis, offsets = cornered_hom_space(a, b)
    dims = {v: a.dim(v) for v in offsets}
    return find_surjection(a.field, basis, offsets, dims, dims, seed, tries)


def cornered_submodule_is_closed(module, spaces):
    """Whether per-vertex subspaces are closed under all stored actions."""
    gens = [(v, v, module.z_mats[v]) for v in sorted(module.corner)]
    for (_, i, j), mats in module.actions.items():
        gens.extend((i, j, mat) for mat in mats)
    return spans_closed(module.field, spaces, gens)


def cornered_quotient(module, spaces, with_projection=False):
    """Quotient of a cornered module by a closed family of subspaces.

    With ``with_projection`` also returns the per-vertex projection
    matrices realising the quotient map.
    """
    field = module.field
    proj = {}
    lift = {}
    qdim = {}
    for v in sorted(module.corner):
        proj[v], lift[v] = quotient_projection(
            field, spaces.get(v, ()), module.dim(v)
        )
        qdim[v] = len(lift[v])

    def push(mat, i, j):
        return induced_map(field, mat, lift[j], proj[i])

    z_mats = {v: push(module.z_mats[v], v, v) for v in sorted(module.corner)}
    actions = {
        key: [push(mat, key[1], key[2]) for mat in mats]
        for key, mats in module.actions.items()
    }
    quotient = CorneredModule(
        group=module.group,
        corner=module.corner,
        dims={v: qdim[v] for v in sorted(module.corner)},
        z_mats=z_mats,
        actions=actions,
        gen_degree=module.gen_degree,
        field=field,
    )
    if with_projection:
        return quotient, proj
    return quotient


def cornered_mod_p(module, p):
    """Entrywise reduction of a rational cornered module modulo p."""
    field = PrimeField(p)

    def conv(mat):
        return tuple(tuple(field.from_fraction(x) for x in row) for row in mat)

    return CorneredModule(
        group=module.group,
        corner=module.corner,
        dims=dict(module.dims),
        z_mats={v: conv(m) for v, m in module.z_mats.items()},
        actions={k: [conv(m) for m in mats] for k, mats in module.actions.items()},
        gen_degree=module.gen_degree,
        field=field,
    )


# ---------------------------------------------------------------------------
# truncated graded modules, restriction to the divisor, z-torsion
# ---------------------------------------------------------------------------

@dataclass
class TruncatedGradedModule:
    """A graded module seen through a degree window [k0, k1].

    ``dims[(k, v)]`` are component dimensions; every generator raises
    degree by one: ``actions[gid][k]`` maps the (k, src) component to the
    (k+1, dst) component.  ``gens[gid] = (src, dst, is_z)``.
    """

    kind_label: str
    window: tuple
    vertices: tuple
    dims: dict
    gens: dict
    actions: dict
    field: object = QQ

    def dim(self, k, v):
        return self.dims.get((k, v), 0)

    def action(self, gid, k):
        src, dst, _ = self.gens[gid]
        mat = self.actions.get(gid, {}).get(k)
        if mat is None:
            return zeros(self.field, self.dim(k + 1, dst), self.dim(k, v=src))
        return mat

    def z_image_basis(self, k):
        """Spanning rows of the z-image inside each degree-(k+1) component."""
        field = self.field
        out = {}
        for v in self.vertices:
            vecs = []
            for gid, (src, dst, is_z) in self.gens.items():
                if not is_z or dst != v:
                    continue
                mat = self.actions.get(gid, {}).get(k)
                if not mat:
                    continue
                ncols = len(mat[0]) if mat else 0
                for c in range(ncols):
                    vecs.append(tuple(row[c] for row in mat))
            out[v] = vecs
        return out


def c_star(m):
    """Degreewise quotient by the image of the degree-one loops.

    The output window drops the bottom degree (its incoming image lies
    outside the window); loops act as zero afterwards.  Raises when a
    non-loop action fails to descend, which signals broken commutation.
    """
    k0, k1 = m.window
    if k1 - k0 < 1:
        raise InvariantViolation("window of length >= 2 required")
    field = m.field
    proj = {}
    lift = {}
    new_dims = {}
    for k in range(k0 + 1, k1 + 1):
        z_img = m.z_image_basis(k - 1)
        for v in m.vertices:
            n = m.dim(k, v)
            proj[(k, v)], lift[(k, v)] = quotient_projection(
                field, z_img.get(v, ()), n
            )
            new_dims[(k, v)] = len(lift[(k, v)])
    new_actions = {}
    for gid, (src, dst, is_z) in m.gens.items():
        per_degree = {}
        for k in range(k0 + 1, k1):
            mat = m.actions.get(gid, {}).get(k)
            if mat is None:
                continue
            if is_z:
                continue
            per_degree[k] = induced_map(
                field, mat, lift[(k, src)], proj[(k + 1, dst)]
            )
            _check_descends(field, m, gid, k, proj)
        if is_z:
            for k in range(k0 + 1, k1):
                per_degree[k] = zeros(
                    field, new_dims[(k + 1, dst)], new_dims[(k, src)]
                )
        new_actions[gid] = per_degree
    return TruncatedGradedModule(
        kind_label=m.kind_label,
        window=(k0 + 1, k1),
        vertices=m.vertices,
        dims=new_dims,
        gens=dict(m.gens),
        actions=new_actions,
        field=field,
    )


def _check_descends(field, m, gid, k, proj):
    """The action must send the z-image into the z-image."""
    src, dst, _ = m.gens[gid]
    mat = m.actions.get(gid, {}).get(k)
    if mat is None:
        return
    for vec in m.z_image_basis(k - 1).get(src, ()):
        red = mat_vec(field, proj[(k + 1, dst)], mat_vec(field, mat, vec))
        if any(x != field.zero for x in red):
            raise InvariantViolation(
                "action does not descend to the z-quotient (commutation broken)"
            )


def z_torsion(m):
    """Kernels of the loop action per degree; empty kernels mean torsion-free."""
    k0, k1 = m.window
    if k1 - k0 < 1:
        raise InvariantViolation("window of length >= 2 required")
    field = m.field
    out = {}
    for k in range(k0, k1):
        for v in m.vertices:
            n = m.dim(k, v)
            rows = []
            for gid, (src, dst, is_z) in m.gens.items():
                if not is_z or src != v:
                    continue
                mat = m.actions.get(gid, {}).get(k)
                if mat:
                    rows.extend(mat)
            if not rows:
                rows = [tuple(field.zero for _ in range(n))] if n else []
            kern = nullspace(field, rows, ncols=n) if n else []
            out[(k, v)] = tuple(kern)
    return out


def is_z_torsion_free(m):
    return all(len(v) == 0 for v in z_torsion(m).values())


# ---------------------------------------------------------------------------
# builders for truncated graded modules from algebra slices
# ---------------------------------------------------------------------------

def free_column_tgm(ctx, source_vertex, window):
    """The free column (slices ending at one vertex) as a graded module.

    For a cornered context only the loops act (kind "cornered"); for the
    tripled flavor all arrows and loops act by left multiplication.
    """
    k0, k1 = window
    field = QQ
    if ctx.flavor != "pibullet":
        raise InvariantViolation("free column needs the graded flavor")
    corner = ctx.corner
    if corner is not None:
        vertices = tuple(sorted(corner))
        kind = "cornered"
    else:
        vertices = ctx.quiver.plain_vertices
        kind = "pibullet"
    dims = {}
    for k in range(k0, k1 + 1):
        for v in vertices:
            dims[(k, v)] = ctx.slice_dim(v, source_vertex, k)

    gens = {}
    gen_classes = {}
    loops = ctx.quiver.loops
    for v in vertices:
        gid = f"z{v}"
        gens[gid] = (v, v, True)
        gen_classes[gid] = (loops[v],)
    if kind == "pibullet":
        for a in ctx.quiver.non_loop_arrows():
            gid = f"a{a.id}"
            gens[gid] = (a.head, a.tail, False)
            gen_classes[gid] = (a.id,)

    actions = {}
    for gid, (src, dst, _) in gens.items():
        per_degree = {}
        path = gen_classes[gid]
        for k in range(k0, k1):
            src_basis = slice_class_basis(ctx, src, source_vertex, k)
            cols = []
            for cls in src_basis:
                gen_cls = class_from_path(ctx, path, dst, src)
                prod = multiply_classes(gen_cls, cls)
                cols.append(prod.coeffs)
            nrows = dims[(k + 1, dst)]
            per_degree[k] = tuple(
                tuple(cols[c][r] for c in range(len(cols))) for r in range(nrows)
            )
        actions[gid] = per_degree
    return TruncatedGradedModule(
        kind_label=kind,
        window=window,
        vertices=vertices,
        dims=dims,
        gens=gens,
        actions=actions,
        field=field,
    )
