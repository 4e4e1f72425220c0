"""Coefficient quivers: the basis-indexed graph of nonzero map entries.

The graph is read off the module's own standard bases; a caller who wants
another basis transports the module first. Vertex ids are ints: source basis
vector j is vertex j and sink basis vector i is vertex n_src + i, so sources
come first. Source j and sink i are joined by one edge per arrow k whose
matrix has a nonzero entry (i, j); export_edges prints each edge with that
entry as its coefficient, numbering each layer from 1.

This module is the one graph layer of the package, and its one graph is an
adjacency list: build_gamma(M) reads it straight off the rows of the arrow
matrices, adj[v] listing v's neighbors with one entry per edge. is_tree
(one BFS) and degree_stats read that list; components works on it and a
vertex id subset, split_until on it and the components of a forest, and
split_components, the witness producers and the expander search use them
for their component and centroid work. split_until roots each component
once and keeps every vertex's parent, subtree size and least subtree id
across its splits, so a split walks the heavy path to its centroid and
the ancestor paths of the vertices it removes, not its whole piece.

A vertex id subset closed under arrows is a coordinate submodule. Its one
form is a MonomialPart: M with a source id list and a sink id list, whose
module (each arrow matrix restricted to the sink rows and source columns)
and selection embeddings are built only when something asks for them.
_monomial_parts turns sorted id lists, such as components, into
MonomialParts: split_components returns those of the components, the
witness producers build their parts with it, and witness re-exports both
names.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .matrices import Matrix
from .modules import KroneckerModule


def build_gamma(M: KroneckerModule) -> list:
    """The coefficient quiver of M as an adjacency list, read off the rows of
    M's arrow matrices: adj[v] lists v's neighbors, one entry per edge, so a
    pair joined under several arrows lists each other once per arrow."""
    n = M.dim1
    adj = [[] for _ in range(n + M.dim2)]
    for m in M.maps:
        for i, row in m._rows.items():
            s = n + i
            adj[s].extend(row)
            for j in row:
                adj[j].append(s)
    return adj


def is_tree(adj) -> bool:
    """Connected and acyclic, counting parallel edges as cycles; empty is not a tree."""
    n = len(adj)
    if n == 0 or sum(map(len, adj)) // 2 != n - 1:
        return False
    # n - 1 edges: connected exactly when one BFS reaches every vertex
    seen = bytearray(n)
    seen[0] = 1
    reached = [0]
    for u in reached:
        for w in adj[u]:
            if not seen[w]:
                seen[w] = 1
                reached.append(w)
    return len(reached) == n


def degree_stats(adj, n_src: int):
    """(max indegree, max outdegree) over all vertices, parallel edges counted:
    the first n_src lists are the sources', holding their outgoing edges, and
    the rest the sinks', holding their incoming ones."""
    return (max(map(len, adj[n_src:]), default=0), max(map(len, adj[:n_src]), default=0))


# -- graph layer: components, centroids and splitting over an adjacency list ------


def components(adj, vertices):
    """Components of the subgraph induced on vertices.

    Each component is a sorted id list; the list is ordered by smallest
    vertex. adj is an adjacency list as from build_gamma.
    """
    left = bytearray(len(adj))
    vertices = sorted(vertices)
    for v in vertices:
        left[v] = 1
    out = []
    for s in vertices:
        if left[s]:
            left[s] = 0
            comp = [s]
            for u in comp:  # the list grows while it is walked: a BFS
                for w in adj[u]:
                    if left[w]:
                        left[w] = 0
                        comp.append(w)
            comp.sort()
            out.append(comp)
    return out


def split_until(adj, comps, bound, choose_batch):
    """Remove batches of vertices until every component has at most bound vertices.

    comps are the components of a forest, as components(adj, vertices) gives
    them for a vertex set that induces one; both witness fragmenters pass
    one tree. One BFS roots each component at its first vertex, and three
    values per vertex are kept from then on: its parent, the size of its
    subtree and the least id in that subtree, both counted inside its
    current piece. A piece is named by its root, the vertex of it nearest
    the component's root, so its size and least id are its root's.

    An oversized piece of size n is split at its centroid: the vertices
    heavier than n/2 form a path down from the root through the one child
    heavier than n/2, and the last of them is a centroid, since every
    branch it leaves weighs at most n/2; a child of it weighing exactly n/2
    is the only other one, and the smaller id wins. choose_batch(c,
    branch, kept) gets that centroid c, branch mapping each neighbour of c
    in the piece, its parent first, to the size of its component once c is
    removed, and kept, which lists the neighbours of a vertex in the piece;
    it returns the set of the piece's vertices to remove. The removal walks
    up from each removed vertex to the nearest removed ancestor or the
    piece's root, takes the removed subtree's size off each vertex on the
    way, and recomputes a least id only where that subtree held it. The new
    pieces are the root's, unless the root was removed, and those of the
    kept children of removed vertices; they are queued by least id, the
    order of components. A piece at or under the bound is collected by one
    walk and sorted. So a split costs its heavy path and the ancestor paths
    of its batch, not a walk of its piece. Returns (final components, each
    a sorted id list, removed vertex set, size of each removed batch in
    removal order).
    """
    inside = bytearray(len(adj))
    parent = [-1] * len(adj)
    size = [1] * len(adj)
    low = list(range(len(adj)))
    for comp in comps:
        for v in comp:
            inside[v] = 1
        order = [comp[0]]
        for v in order:  # the list grows while it is walked: a BFS
            p = parent[v]
            for w in adj[v]:
                if inside[w] and w != p:
                    parent[w] = v
                    order.append(w)
        for v in reversed(order[1:]):
            p = parent[v]
            size[p] += size[v]
            if low[v] < low[p]:
                low[p] = low[v]

    def kept(v):
        return [w for w in adj[v] if inside[w]]

    queue = [comp[0] for comp in comps]
    final = []
    removed = set()
    batch_sizes = []
    while queue:
        r = queue.pop()
        n = size[r]
        if n <= bound:  # final: its vertices are unmarked as they are collected
            piece = [r]
            inside[r] = 0
            for v in piece:
                for w in adj[v]:
                    if inside[w]:
                        inside[w] = 0
                        piece.append(w)
            piece.sort()
            final.append(piece)
            continue
        c = r
        while True:
            p = parent[c]
            for w in adj[c]:
                if inside[w] and w != p and 2 * size[w] > n:
                    c = w
                    break
            else:
                break
        p = parent[c]
        for w in adj[c]:
            if inside[w] and w != p and 2 * size[w] == n and w < c:
                c = w
                break
        p = parent[c]
        branch = {p: n - size[c]} if c != r else {}
        for w in adj[c]:
            if inside[w] and w != p:
                branch[w] = size[w]
        batch = choose_batch(c, branch, kept)
        removed |= batch
        batch_sizes.append(len(batch))
        for b in batch:
            inside[b] = 0
        for b in batch:
            s, m = size[b], low[b]
            a = parent[b]
            while a >= 0 and inside[a]:
                size[a] -= s
                if low[a] == m:
                    low[a] = min([a, *(low[w] for w in adj[a] if inside[w] and parent[w] == a)])
                a = parent[a]
        roots = [r] if inside[r] else []
        for b in batch:
            for w in adj[b]:
                if inside[w] and parent[w] == b:
                    roots.append(w)
        roots.sort(key=low.__getitem__)
        queue.extend(roots)
    return final, removed, batch_sizes


# -- coordinate submodules ----------------------------------------------------------


@dataclass
class MonomialPart:
    """The coordinate submodule of ambient on a list of source ids and a list
    of sink ids: the span of those basis vectors, in that order.

    Its dim is read off the lists. Its module, the restriction of each arrow
    matrix of ambient to the sink rows and source columns, and its selection
    embeddings are built the first time something asks for them. The ids are
    checked by verify_witness, not here.
    """
    ambient: KroneckerModule
    sources: list
    sinks: list

    @property
    def dim(self) -> int:
        return len(self.sources) + len(self.sinks)

    @cached_property
    def module(self) -> KroneckerModule:
        M, src, snk = self.ambient, self.sources, self.sinks
        return KroneckerModule(M.d, M.field, len(src), len(snk),
                               [m.submatrix(snk, src) for m in M.maps])

    @cached_property
    def emb1(self) -> Matrix:
        return Matrix.selection(self.ambient.field, self.ambient.dim1, self.sources)

    @cached_property
    def emb2(self) -> Matrix:
        return Matrix.selection(self.ambient.field, self.ambient.dim2, self.sinks)


def _monomial_parts(M: KroneckerModule, comps):
    """Vertex id sets of M's coefficient quiver as monomial parts of M.

    comps are sorted id lists, as components(adj, vertices) gives them;
    each becomes the part on its sources and its sinks, in order. The
    producers pass the components of arrow-closed kept sets (d = 2: the
    closure sinks of the kept sources; trees: a removed sink goes with its
    sources), and verify_witness checks that they are closed.
    """
    n = M.dim1
    cuts = [bisect_left(comp, n) for comp in comps]
    return [MonomialPart(M, comp[:k], [v - n for v in comp[k:]]) for comp, k in zip(comps, cuts)]


def split_components(M: KroneckerModule) -> list:
    """The MonomialPart of each connected component of the coefficient
    quiver, in the order of components. The block-diagonal sum of their
    modules is M up to that vertex partition; no module or embedding is
    built here.
    """
    return _monomial_parts(M, components(build_gamma(M), range(M.dim)))


def export_edges(M: KroneckerModule) -> str:
    """Edge-list text: 'u v arrow=<k> coeff=<c>' lines, sorted by source, sink
    and arrow, then the isolated vertices, sources first."""
    edges = sorted((j, i, k, c) for k, m in enumerate(M.maps) for i, j, c in m.entries())
    lines = [f"1.{j + 1} 2.{i + 1} arrow={k + 1} coeff={c}" for j, i, k, c in edges]
    n = M.dim1
    lines += [f"1.{v + 1}" if v < n else f"2.{v - n + 1}"
              for v, nbrs in enumerate(build_gamma(M)) if not nbrs]
    return "\n".join(lines) + ("\n" if lines else "")
