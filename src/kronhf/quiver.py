"""Coefficient quivers: the basis-indexed graph of nonzero map entries.

Vertices are tagged pairs (layer, index) with layer 0 for the source vertex
basis and layer 1 for the sink vertex basis. An edge ((0, j) -> (1, i),
arrow k, c) exists exactly when entry (i, j) of the k-th arrow matrix in the
chosen basis equals c != 0.

This module is also the one graph layer of the package: components,
centroid_of, split_until and component_modules work on any adjacency map and
vertex subset, and the witness producers and the expander search use them
for their component and centroid work.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import PreconditionError, ValidationError
from .matrices import Matrix
from .modules import KroneckerModule


@dataclass
class BasisChoice:
    basis1: Matrix  # columns are the chosen source-space basis
    basis2: Matrix
    standard: bool = False

    @classmethod
    def standard_for(cls, M: KroneckerModule) -> "BasisChoice":
        return cls(Matrix.identity(M.field, M.dim1),
                   Matrix.identity(M.field, M.dim2), standard=True)


@dataclass
class CoefficientQuiver:
    n_src: int
    n_snk: int
    edges: list  # (src_index, snk_index, arrow, coeff)
    d: int

    @property
    def n_vertices(self) -> int:
        return self.n_src + self.n_snk

    def vertices(self):
        for j in range(self.n_src):
            yield (0, j)
        for i in range(self.n_snk):
            yield (1, i)

    def adjacency(self):
        """Undirected adjacency: vertex -> list of (neighbor, arrow)."""
        adj = {v: [] for v in self.vertices()}
        for j, i, k, _ in self.edges:
            adj[(0, j)].append(((1, i), k))
            adj[(1, i)].append(((0, j), k))
        return adj


def build_gamma(M: KroneckerModule, B: BasisChoice | None = None) -> CoefficientQuiver:
    if B is None:
        B = BasisChoice.standard_for(M)
    if B.standard:
        mats = M.maps
    else:
        if B.basis1.rank() != M.dim1 or B.basis2.rank() != M.dim2:
            raise ValidationError("basis matrices must be invertible")
        mats = [B.basis2.solve(m @ B.basis1) for m in M.maps]
    edges = []
    for k, mat in enumerate(mats):
        for i, j, v in mat.entries():
            edges.append((j, i, k, v))
    edges.sort()  # by (source, sink, arrow); that triple is unique per edge
    return CoefficientQuiver(M.dim1, M.dim2, edges, M.d)


def is_tree(gamma: CoefficientQuiver) -> bool:
    """Connected and acyclic, counting parallel edges as cycles; empty is not a tree."""
    n = gamma.n_vertices
    if n == 0 or len(gamma.edges) != n - 1:
        return False
    return len(components(gamma.adjacency(), gamma.vertices())) == 1


def degree_stats(gamma: CoefficientQuiver):
    """(max indegree, max outdegree) over all vertices, parallel edges counted."""
    indeg = [0] * gamma.n_snk
    outdeg = [0] * gamma.n_src
    for j, i, _, _ in gamma.edges:
        outdeg[j] += 1
        indeg[i] += 1
    return (max(indeg, default=0), max(outdeg, default=0))


def centroid(gamma: CoefficientQuiver):
    """Tree vertex whose removal leaves components of size <= ceil((n-1)/2).

    Ties break toward the smallest vertex id, sources before sinks.
    """
    if not is_tree(gamma):
        raise PreconditionError("centroid requires a tree")
    return centroid_of(list(gamma.vertices()), gamma.adjacency())[0]


# -- graph layer: components, centroids and splitting over an adjacency map --------


def components(adj, vertices):
    """Components of the subgraph induced on vertices.

    Each component is a sorted vertex list; the list is ordered by smallest
    vertex. adj maps a vertex to (neighbor, arrow) pairs, as from
    CoefficientQuiver.adjacency.
    """
    left = set(vertices)
    out = []
    while left:
        comp = [left.pop()]
        stack = comp[:]
        while stack:
            for w, _ in adj[stack.pop()]:
                if w in left:
                    left.remove(w)
                    comp.append(w)
                    stack.append(w)
        comp.sort()
        out.append(comp)
    out.sort()
    return out


def centroid_of(vertices, adj):
    """Centroid of the tree induced on vertices, and its branch sizes.

    Returns (c, branch) where c minimises the largest component left by
    removing it, ties broken toward the earliest vertex in the given order,
    and branch maps each neighbor of c inside the set to the size of its
    component once c is removed (the sizes sum to len(vertices) - 1).
    """
    inside = set(vertices)
    root = vertices[0]
    parent = {root: None}
    order = []
    dq = deque([root])
    while dq:
        v = dq.popleft()
        order.append(v)
        for w, _ in adj[v]:
            if w in inside and w not in parent:
                parent[w] = v
                dq.append(w)
    n = len(order)
    size = {v: 1 for v in order}
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    rank = {v: t for t, v in enumerate(vertices)}
    best = None
    for v in order:
        branch = {} if parent[v] is None else {parent[v]: n - size[v]}
        for w, _ in adj[v]:
            if w in inside and parent[w] == v:
                branch[w] = size[w]
        key = (max(branch.values(), default=0), rank[v])
        if best is None or key < best[0]:
            best = (key, v, branch)
    return best[1], best[2]


def split_until(adj, vertices, bound, choose_batch):
    """Remove batches of vertices until every component has at most bound vertices.

    choose_batch(comp) gets an oversized component (sorted vertex list) and
    returns the set of its vertices to remove. Returns (final components,
    removed vertex set, size of each removed batch in removal order).
    """
    queue = components(adj, vertices)
    final = []
    removed = set()
    batch_sizes = []
    while queue:
        comp = queue.pop()
        if len(comp) <= bound:
            final.append(comp)
            continue
        batch = choose_batch(comp)
        removed |= batch
        batch_sizes.append(len(batch))
        queue.extend(components(adj, [u for u in comp if u not in batch]))
    return final, removed, batch_sizes


def component_modules(M: KroneckerModule, mats, comps):
    """One (submodule, (emb1, emb2)) per vertex set, with selection embeddings.

    mats are the arrow matrices of M in the basis the vertices index; each
    submodule keeps the rows and columns of its sink and source vertices.
    """
    out = []
    for verts in comps:
        src = sorted(v[1] for v in verts if v[0] == 0)
        snk = sorted(v[1] for v in verts if v[0] == 1)
        sub = KroneckerModule(M.d, M.field, len(src), len(snk),
                              [m.submatrix(snk, src) for m in mats])
        out.append((sub, (Matrix.selection(M.field, M.dim1, src),
                          Matrix.selection(M.field, M.dim2, snk))))
    return out


def submodule_from_generators(M: KroneckerModule, gens):
    """Smallest submodule containing the given standard basis vectors.

    gens is an iterable of vertices (0, j) / (1, i); the closure adds the
    span of the arrow images of the chosen source vectors. Returns the
    submodule with its embedding pair.
    """
    src = sorted({v[1] for v in gens if v[0] == 0})
    snk = {v[1] for v in gens if v[0] == 1}
    fld = M.field
    src_sel = Matrix.selection(fld, M.dim1, src)
    images = [m @ src_sel for m in M.maps]
    stack = [Matrix.selection(fld, M.dim2, sorted(snk))] + images if snk else images
    if stack:
        big = Matrix.hstack(stack) if len(stack) > 1 else stack[0]
        emb2 = _column_basis(big, big.pivot_columns())
    else:
        emb2 = Matrix.zeros(fld, M.dim2, 0)
    emb1 = src_sel
    maps = [emb2.solve(m @ emb1) for m in M.maps]
    sub = KroneckerModule(M.d, fld, emb1.cols, emb2.cols, maps)
    return sub, (emb1, emb2)


def _column_basis(m: Matrix, pivots):
    return m.submatrix(range(m.rows), pivots)


def split_components(M: KroneckerModule, B: BasisChoice | None = None):
    """One module per connected component of the coefficient quiver.

    Returns a list of (module, (emb1, emb2)); embeddings are expressed in the
    given basis (coordinate selections composed with the basis matrices).
    The block-diagonal sum over components is the module in that basis, up to
    the recorded vertex partition.
    """
    if B is None:
        B = BasisChoice.standard_for(M)
    gamma = build_gamma(M, B)
    mats = M.maps if B.standard else [B.basis2.solve(m @ B.basis1) for m in M.maps]
    out = component_modules(M, mats, components(gamma.adjacency(), gamma.vertices()))
    if B.standard:
        return out
    return [(sub, (B.basis1 @ e1, B.basis2 @ e2)) for sub, (e1, e2) in out]


def export_edges(gamma: CoefficientQuiver) -> str:
    """Edge-list text: 'u v arrow=<k> coeff=<c>' lines plus isolated vertices."""
    def name(v):
        return f"{v[0] + 1}.{v[1] + 1}"

    lines = []
    touched = set()
    for j, i, k, c in gamma.edges:
        touched.add((0, j))
        touched.add((1, i))
        lines.append(f"{name((0, j))} {name((1, i))} arrow={k + 1} coeff={c}")
    for v in gamma.vertices():
        if v not in touched:
            lines.append(name(v))
    return "\n".join(lines) + ("\n" if lines else "")
