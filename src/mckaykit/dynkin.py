"""Canonical affine ADE diagram layouts.

The toolkit fixes one vertex ordering per series and uses it everywhere:
vertex 0 always carries the trivial representation.

* series A, rank r: vertices 0..r on a cycle, edges (m, m+1 mod r+1);
  rank 1 degenerates to a double bond between 0 and 1.
* series D, rank r: fork legs 0, 1 attached to 2, a chain 2..r-2, and
  fork legs r-1, r attached to r-2.
* series E: the long tail comes first; vertex 0 is the tail end, the
  branch vertex carries the extra node last.

``marks`` returns the affine marks delta (irrep dimensions under the
McKay correspondence); the layouts satisfy A.delta = 2 delta.
"""

from .errors import InvalidDescriptor

E_EDGES = {
    6: ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6)),
    7: ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7)),
    8: ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8)),
}

E_MARKS = {
    6: (1, 2, 3, 2, 1, 2, 1),
    7: (1, 2, 3, 4, 3, 2, 1, 2),
    8: (1, 2, 3, 4, 5, 6, 4, 2, 3),
}


def validate_descriptor(series, rank):
    if series == "A":
        if rank < 1:
            raise InvalidDescriptor(f"series A needs rank >= 1, got {rank}")
    elif series == "D":
        if rank < 4:
            raise InvalidDescriptor(f"series D needs rank >= 4, got {rank}")
    elif series == "E":
        if rank not in (6, 7, 8):
            raise InvalidDescriptor(f"series E needs rank in 6..8, got {rank}")
    else:
        raise InvalidDescriptor(f"unknown series {series!r}")


def edge_list(series, rank):
    """Edges of the affine diagram, with multiplicity, in canonical order."""
    validate_descriptor(series, rank)
    if series == "A":
        if rank == 1:
            return ((0, 1), (0, 1))
        return tuple((m, (m + 1) % (rank + 1)) for m in range(rank + 1))
    if series == "D":
        edges = [(0, 2), (1, 2)]
        edges.extend((m, m + 1) for m in range(2, rank - 2))
        edges.extend([(rank - 2, rank - 1), (rank - 2, rank)])
        return tuple(edges)
    return E_EDGES[rank]


def adjacency(series, rank):
    """Symmetric multiplicity matrix of the affine diagram."""
    n = rank + 1
    mat = [[0] * n for _ in range(n)]
    for a, b in edge_list(series, rank):
        mat[a][b] += 1
        mat[b][a] += 1
    return tuple(tuple(row) for row in mat)


def marks(series, rank):
    """Affine marks delta, indexed by the canonical vertex order."""
    validate_descriptor(series, rank)
    if series == "A":
        return (1,) * (rank + 1)
    if series == "D":
        return (1, 1) + (2,) * (rank - 3) + (1, 1)
    return E_MARKS[rank]


def match_layout(mult, dims, trivial_index, series, rank):
    """Permutation sending computed irrep indices to canonical vertices.

    ``mult`` is the computed multiplicity matrix, ``dims`` the irrep
    dimensions, ``trivial_index`` the row of the trivial character.
    Returns ``perm`` with ``perm[computed] = canonical``; raises
    InvariantViolation when no isomorphism onto the canonical layout
    exists (a corrupted character table).  Rows are placed in
    breadth-first order from the trivial row over the graph of ``mult``,
    so every row after the first has a placed neighbour and the search
    cost does not depend on the order of the rows.
    """
    from .errors import InvariantViolation

    target = adjacency(series, rank)
    mk = marks(series, rank)
    n = rank + 1
    if len(mult) != n:
        raise InvariantViolation(
            f"expected {n} irreps for {series}{rank}, got {len(mult)}"
        )
    visit = [trivial_index]
    for i in visit:
        visit.extend(j for j in range(n) if mult[i][j] and j not in visit)
    if len(visit) != n:
        raise InvariantViolation(f"multiplicity matrix of {series}{rank} is not connected")
    perm = [None] * n
    used = [False] * n

    def ok(i, slot):
        if dims[i] != mk[slot]:
            return False
        for j in range(n):
            if perm[j] is not None and mult[i][j] != target[slot][perm[j]]:
                return False
        return mult[i][i] == target[slot][slot]

    def place(pos):
        if pos == n:
            return True
        i = visit[pos]
        for slot in [0] if pos == 0 else range(1, n):
            if not used[slot] and ok(i, slot):
                perm[i] = slot
                used[slot] = True
                if place(pos + 1):
                    return True
                perm[i] = None
                used[slot] = False
        return False

    if not place(0):
        raise InvariantViolation(
            f"multiplicity matrix does not match the affine {series}{rank} diagram"
        )
    return tuple(perm)
