"""Coefficient quivers: the basis-indexed graph of nonzero map entries.

The graph is read off the module's own standard bases; a caller who wants
another basis transports the module first. Vertex ids are ints: source basis
vector j is vertex j and sink basis vector i is vertex n_src + i, so sources
come first. Source j and sink i are joined by one edge per arrow k whose
matrix has a nonzero entry (i, j); export_edges prints each edge with that
entry as its coefficient, numbering each layer from 1.

This module is the one graph layer of the package, and its one graph is an
adjacency list: build_gamma(M) reads it straight off the rows of the arrow
matrices, adj[v] listing v's neighbors with one entry per edge. is_tree and
degree_stats read that list; components works on it and a vertex id
subset, split_until on it and the components of a forest, and
split_components, the witness producers and the expander search use them
for their component and centroid work.

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

from bisect import bisect_left, bisect_right
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
    return len(components(adj, range(n))) == 1


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


def _rooted(adj, root, inside):
    """BFS from root over the vertices marked in inside, unmarking them.

    Returns (order, parent): order lists the vertices reached in BFS order
    and parent[t] is the position in order of order[t]'s parent, -1 for the
    root. A BFS appends the children of each vertex together, so parent
    never decreases, which _children relies on. split_until keeps this form
    for the pieces it cuts from such a tree: each piece keeps its vertices
    in the same order, and their parents renumbered.
    """
    order = [root]
    parent = [-1]
    inside[root] = 0
    for t, v in enumerate(order):
        for w in adj[v]:
            if inside[w]:
                inside[w] = 0
                order.append(w)
                parent.append(t)
    return order, parent


def _children(parent, t):
    """Positions of the children of position t in a rooted tree: parent is
    sorted, so they are the run of t's in it."""
    return range(bisect_left(parent, t, t + 1), bisect_right(parent, t, t + 1))


def _tree_centroid(order, parent):
    """Centroid of a rooted tree (order, parent) as _rooted gives it, and its
    branch sizes, in positions of order.

    Returns (c, branch) where order[c] minimises the largest component left
    by removing it, ties broken toward the smallest vertex id, and branch
    maps the position of each neighbor of order[c], its parent first, to the
    size of its component once order[c] is removed (the sizes sum to
    len(order) - 1).
    """
    n = len(order)
    size = [1] * n
    for t in range(n - 1, 0, -1):
        size[parent[t]] += size[t]
    # the vertices heavier than n/2 form a path down from the root, their
    # sizes falling, and no other vertex weighs as much; the path's last
    # vertex, the lightest of them, is a centroid, and a child of it
    # weighing n/2 is the only other one
    c = size.index(min(filter((n // 2).__lt__, size)))
    best = min([c] + [u for u in _children(parent, c) if 2 * size[u] == n],
               key=order.__getitem__)
    branch = {} if best == 0 else {parent[best]: n - size[best]}
    for u in _children(parent, best):
        branch[u] = size[u]
    return best, branch


def split_until(adj, comps, bound, choose_batch):
    """Remove batches of vertices until every component has at most bound vertices.

    comps are the components of a forest, as components(adj, vertices) gives
    them for a vertex set that induces one; both witness fragmenters pass
    one tree. An oversized component is rooted by one BFS, and
    choose_batch(order, parent) gets the rooted tree, as _rooted returns
    it, and returns the set of its vertices to remove. Each split then walks
    the component once more, in one pass over the parents, which is exact on
    a forest: a kept vertex starts a new piece when it is the root or its
    parent was removed, and joins its parent's piece otherwise. The pass
    also roots each piece, at its first vertex, with the restriction of
    (order, parent), so no piece is searched again. Pieces are queued by
    smallest vertex, the order of components, and sorted only once they are
    final. Returns (final components, each a sorted id list, removed vertex
    set, size of each removed batch in removal order).
    """
    inside = bytearray(len(adj))
    for comp in comps:
        for v in comp:
            inside[v] = 1
    queue = [(comp, None) for comp in comps]  # (order, parent), None until rooted
    final = []
    removed = set()
    batch_sizes = []
    while queue:
        order, parent = queue.pop()
        if len(order) <= bound:
            final.append(sorted(order))
            continue
        if parent is None:
            order, parent = _rooted(adj, order[0], inside)
        batch = choose_batch(order, parent)
        removed |= batch
        batch_sizes.append(len(batch))
        # label[t] is the index of order[t]'s piece, -1 if removed, with one
        # slot more for the root's parent position -1; at[t] is its position
        # in the piece
        n = len(order)
        label = [-1] * (n + 1)
        at = [0] * n
        orders = []
        parents = []
        for t, v in enumerate(order):
            if v in batch:
                continue
            p = parent[t]
            q = label[p]
            if q < 0:
                q = len(orders)
                orders.append([v])
                parents.append([-1])
            else:
                piece = orders[q]
                at[t] = len(piece)
                piece.append(v)
                parents[q].append(at[p])
            label[t] = q
        for q in sorted(range(len(orders)), key=lambda q: min(orders[q])):
            queue.append((orders[q], parents[q]))
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
