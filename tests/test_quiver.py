import random
from collections import deque
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronhf.errors import PreconditionError, ShapeError
from kronhf.fields import QQ, PrimeField
from kronhf.matrices import Matrix
from kronhf.modules import (KroneckerModule, PencilBlock, build_P, build_R,
                            build_postinjective_theta, direct_sum)
from kronhf.quiver import (build_gamma, components, degree_stats, export_edges, is_tree,
                           split_components, split_until)
from kronhf.witness import (Witness, _centroid_batch, _monomial_parts, _sink_batch,
                            fragment_tree_module, monomial_submodule, verify_witness)

from oracles import (centroid_of, edge_list, edge_list_degree_stats, edge_list_is_tree,
                     split_components_by_restriction, split_until_by_walks)


def _tag(M, v):
    """The (layer, index) tag of vertex id v of M's coefficient quiver."""
    return (0, v) if v < M.dim1 else (1, v - M.dim1)


def test_build_gamma_edge_count_matches_nnz():
    rng = random.Random(1)
    for _ in range(20):
        n1, n2 = rng.randint(0, 4), rng.randint(0, 4)
        maps = [Matrix.from_entries(QQ, n2, n1,
                                    ((i, j, rng.randint(0, 1)) for i in range(n2)
                                     for j in range(n1)))
                for _ in range(2)]
        M = KroneckerModule(2, QQ, n1, n2, maps)
        # one entry per edge at each end
        assert sum(map(len, build_gamma(M))) == 2 * sum(m.nnz for m in M.maps)


def test_build_gamma_p3_is_figure_zigzag():
    M = build_P(3)
    adj = build_gamma(M)
    assert len(adj) == 7 and sum(map(len, adj)) == 2 * 6
    assert is_tree(adj)
    # alternating arrow labels along the path
    labels = [line.split()[2] for line in export_edges(M).splitlines()]
    assert labels == ["arrow=1", "arrow=2"] * 3


def test_gamma_zero_module_empty():
    adj = build_gamma(direct_sum([]))
    assert adj == []
    assert not is_tree(adj)


def test_gamma_regular_has_back_edges():
    # companion of an irreducible quadratic adds edges out of the last source
    r = build_R(PencilBlock("R_poly", poly=(1, 1), e=1), PrimeField(2))
    adj = build_gamma(r)
    assert not is_tree(adj)
    assert sum(map(len, adj)) // 2 >= len(adj)


def test_is_tree_singleton():
    assert is_tree(build_gamma(build_P(0)))  # one sink, no edge


def test_degree_stats():
    assert degree_stats(build_gamma(build_P(3)), 3) == (2, 2)
    assert degree_stats([], 0) == (0, 0)
    q33 = build_postinjective_theta(3, 3)
    indeg, outdeg = degree_stats(build_gamma(q33), q33.dim1)
    assert indeg <= 5 and outdeg <= 2


def test_centroid_path():
    # path f1-e1-f2-e2-f3 with sinks f: the middle f2 is sink 1, vertex 2 + 1
    assert centroid_of(range(5), build_gamma(build_P(2)))[0] == 3


def test_centroid_star():
    m = build_postinjective_theta(3, 1)  # star with sink center, vertex 3
    assert centroid_of(range(4), build_gamma(m))[0] == 3


def test_centroid_p3_and_postcondition():
    adj = build_gamma(build_P(3))
    verts = list(range(len(adj)))
    c = centroid_of(verts, adj)[0]
    # 4th vertex along the path f1-e1-f2-e2-f3-e3-f4, source 1
    assert c == 1
    # exhaustive check: no vertex does better

    def worst(v):
        rest = [u for u in verts if u != v]
        seen = set()
        best = 0
        for s in rest:
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            while stack:
                u = stack.pop()
                for wv in adj[u]:
                    if wv != v and wv not in comp:
                        comp.add(wv)
                        stack.append(wv)
            seen |= comp
            best = max(best, len(comp))
        return best

    assert worst(c) == min(worst(v) for v in verts)
    assert worst(c) <= (len(verts) - 1 + 1) // 2


def test_centroid_random_trees():
    rng = random.Random(9)
    for _ in range(100):
        # random tree module: each sink attaches to a random earlier source
        n1 = rng.randint(1, 6)
        n2 = rng.randint(1, 6)
        ent = [[] for _ in range(2)]
        for i in range(n2):
            ent[rng.randrange(2)].append((i, rng.randrange(n1), 1))
        # connect sources in a chain through extra sinks to make it a tree:
        # simpler: only accept connected instances
        maps = [Matrix.from_entries(QQ, n2, n1, e) for e in ent]
        M = KroneckerModule(2, QQ, n1, n2, maps)
        adj = build_gamma(M)
        if not is_tree(adj):
            continue
        n = len(adj)
        c = centroid_of(range(n), adj)[0]
        comp_sizes = []
        seen = {c}
        for s in range(n):
            if s in seen:
                continue
            comp = {s}
            stack = [s]
            seen.add(s)
            while stack:
                u = stack.pop()
                for wv in adj[u]:
                    if wv not in seen:
                        seen.add(wv)
                        comp.add(wv)
                        stack.append(wv)
            comp_sizes.append(len(comp))
        assert all(s <= (n - 1 + 1) // 2 for s in comp_sizes)


def test_submodule_generators_full_and_empty():
    M = build_P(4)
    sub = monomial_submodule(M, range(4)).module
    assert (sub.dim1, sub.dim2) == (4, 5)
    sub = monomial_submodule(M, []).module
    assert sub.dim == 0


def test_submodule_generators_out_of_range_are_refused():
    M = build_P(3)
    for bad, shown in (([3], 3), ([-1, 0], -1), ([0, 10], 10)):
        with pytest.raises(ShapeError, match=f"selection index {shown} outside 0..2"):
            monomial_submodule(M, bad)


def test_submodule_generators_given_twice_are_refused():
    M = build_P(3)
    for bad, shown in (([0, 0], 0), ([2, 1, 2], 2)):
        with pytest.raises(ShapeError, match=f"source {shown} given twice"):
            monomial_submodule(M, bad)


def test_submodule_generators_p7_drop_pattern():
    M = build_P(7)
    gens = [0, 1, 3, 4, 6]  # e1 e2 e4 e5 e7
    part = monomial_submodule(M, gens)
    sub, e1, e2 = part.module, part.emb1, part.emb2
    assert (sub.dim1, sub.dim2) == (5, 8)
    assert sub.dim == 13
    # closure is exact: arrow images of the embedded sources stay inside
    for k in range(2):
        assert M.maps[k] @ e1 == e2 @ sub.maps[k]


def test_submodule_closure_property_random():
    rng = random.Random(17)
    for _ in range(25):
        M = build_P(rng.randint(1, 8))
        gens = [j for j in range(M.dim1) if rng.random() < 0.6]
        part = monomial_submodule(M, gens)
        sub, e1, e2 = part.module, part.emb1, part.emb2
        for k in range(2):
            assert M.maps[k] @ e1 == e2 @ sub.maps[k]


def test_split_components_direct_sum():
    M = direct_sum([build_P(1), build_P(1)])
    comps = split_components(M)
    assert len(comps) == 2
    assert all((p.module.dim1, p.module.dim2) == (1, 2) for p in comps)
    # reassembled block module equals M under the recorded permutation
    perm_src = [e for p in comps for e in p.emb1.is_selection()]
    perm_snk = [e for p in comps for e in p.emb2.is_selection()]
    D = direct_sum([p.module for p in comps])
    sel1 = Matrix.selection(QQ, M.dim1, perm_src)
    sel2 = Matrix.selection(QQ, M.dim2, perm_snk)
    for k in range(2):
        assert M.maps[k] @ sel1 == sel2 @ D.maps[k]


def test_split_components_p7_witness_parts():
    M = build_P(7)
    sub = monomial_submodule(M, [0, 1, 3, 4, 6]).module
    comps = split_components(sub)
    dims = sorted(p.module.dim for p in comps)
    assert dims == [3, 5, 5]  # P_1, P_2, P_2


def test_split_components_connected():
    M = build_P(3)
    assert len(split_components(M)) == 1


def test_split_component_dim_sum_invariant():
    rng = random.Random(23)
    for _ in range(20):
        mods = [build_P(rng.randint(0, 3)) for _ in range(rng.randint(1, 3))]
        M = direct_sum(mods)
        comps = split_components(M)
        assert sum(p.module.dim1 for p in comps) == M.dim1
        assert sum(p.module.dim2 for p in comps) == M.dim2


@st.composite
def sparse_modules(draw):
    """Modules over Q or GF(5) with d = 1..4 arrows, up to 7 sources and 7
    sinks, and at most 6 drawn entries per arrow, so most draws have
    several components and isolated vertices; 0 x 0 draws are zero modules."""
    fld = draw(st.sampled_from([QQ, PrimeField(5)]))
    d = draw(st.integers(1, 4))
    n1, n2 = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    maps = []
    for _ in range(d):
        ent = draw(st.lists(st.tuples(st.integers(0, n2 - 1), st.integers(0, n1 - 1),
                                      st.integers(-3, 3)), max_size=6)) if n1 and n2 else []
        maps.append(Matrix.from_entries(fld, n2, n1, ent))
    return KroneckerModule(d, fld, n1, n2, maps)


@settings(max_examples=300, deadline=None)
@given(M=sparse_modules())
@example(M=KroneckerModule(2, QQ, 0, 0, [Matrix.zeros(QQ, 0, 0)] * 2))
@example(M=KroneckerModule(3, PrimeField(5), 3, 2, [Matrix.zeros(PrimeField(5), 2, 3)] * 3))
def test_split_components_matches_the_restriction_construction(M):
    """split_components gives the MonomialParts whose modules and
    selections are those of restricting each arrow matrix to every
    component."""
    assert ([(p.module, (p.emb1, p.emb2)) for p in split_components(M)]
            == split_components_by_restriction(M))


def test_export_edges_format():
    text = export_edges(build_P(1))
    lines = text.strip().splitlines()
    assert lines[0] == "1.1 2.1 arrow=1 coeff=1"
    assert lines[1] == "1.1 2.2 arrow=2 coeff=1"
    z = KroneckerModule(2, QQ, 1, 1, [Matrix.zeros(QQ, 1, 1)] * 2)
    iso = export_edges(z).strip().splitlines()
    assert iso == ["1.1", "2.1"]


@st.composite
def modules_with_parallel_edges(draw):
    """A module with d = 1..4 whose arrows often share a nonzero cell."""
    d = draw(st.integers(1, 4))
    dim1, dim2 = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    cells = [(i, j) for i in range(dim2) for j in range(dim1)]
    common = draw(st.sets(st.sampled_from(cells), max_size=3)) if cells else set()
    maps = []
    for _ in range(d):
        own = draw(st.sets(st.sampled_from(cells), max_size=6)) if cells else set()
        maps.append(Matrix.from_entries(QQ, dim2, dim1,
                                        [(i, j, draw(st.sampled_from([1, -1, 2])))
                                         for i, j in sorted(common | own)]))
    return KroneckerModule(d, QQ, dim1, dim2, maps)


@settings(max_examples=200, deadline=None)
@given(modules_with_parallel_edges())
def test_build_gamma_matches_the_edge_list_reference(M):
    adj, edges, n = build_gamma(M), edge_list(M), M.dim1
    want = [[] for _ in range(M.dim)]
    for j, i, _, _ in edges:
        want[j].append(n + i)
        want[n + i].append(j)
    assert [sorted(nbrs) for nbrs in adj] == [sorted(nbrs) for nbrs in want]
    assert is_tree(adj) == edge_list_is_tree(n, M.dim2, edges)
    assert degree_stats(adj, n) == edge_list_degree_stats(n, M.dim2, edges)


def test_fragment_tree_module_refuses_a_parallel_pair_and_high_indegree():
    # the only cycle: source 0 -> sink 0 under both arrows
    pair = KroneckerModule(2, QQ, 2, 1, [Matrix.from_dense(QQ, [[1, 1]]),
                                         Matrix.from_dense(QQ, [[1, 0]])])
    with pytest.raises(PreconditionError, match="requires a tree"):
        fragment_tree_module(pair, Fraction(1, 4))
    fan = KroneckerModule(1, QQ, 2, 1, [Matrix.from_dense(QQ, [[1, 1]])])
    assert is_tree(build_gamma(fan))
    with pytest.raises(PreconditionError, match="indegree 2 exceeds arrow count 1"):
        fragment_tree_module(fan, Fraction(1, 4))


def test_verify_witness_refuses_kept_set_not_arrow_closed():
    M = build_P(2)  # source j maps to sinks j and j + 1; sink i is vertex 2 + i
    adj = build_gamma(M)
    [part] = _monomial_parts(M, components(adj, [0, 1, 2, 3]))
    rep = verify_witness(M, Witness(M, Fraction(1, 4), Fraction(5), [part]))
    assert (rep.ok, rep.clause) == (False, "embedding")
    assert rep.detail == "arrow 1 does not intertwine with the embeddings"
    [part] = _monomial_parts(M, components(adj, [0, 1, 2, 3, 4]))
    assert (part.module.dim1, part.module.dim2) == (2, 3)
    assert verify_witness(M, Witness(M, Fraction(1, 4), Fraction(5), [part])).ok


# -- graph layer properties on random tree modules -----------------------------


@st.composite
def tree_modules(draw, max_vertices=14):
    """Each new vertex hangs off an earlier vertex of the other layer by one arrow."""
    n = draw(st.integers(1, max_vertices))
    verts = [(0, 0)]
    counts = [1, 0]
    edges = []  # (source, sink, arrow)
    for _ in range(n - 1):
        anchor = verts[draw(st.integers(0, len(verts) - 1))]
        layer = 1 - anchor[0]
        v = (layer, counts[layer])
        counts[layer] += 1
        src, snk = (anchor, v) if layer == 1 else (v, anchor)
        edges.append((src[1], snk[1], draw(st.integers(0, 1))))
        verts.append(v)
    maps = [Matrix.from_entries(QQ, counts[1], counts[0],
                                [(i, j, 1) for j, i, k in edges if k == a])
            for a in range(2)]
    return KroneckerModule(2, QQ, counts[0], counts[1], maps)


def _brute_components(M, verts):
    """Partition of the vertex ids verts by search over the raw edge list,
    ordered by smallest vertex."""
    edges, n_src = edge_list(M), M.dim1
    verts = set(verts)
    left = set(verts)
    out = []
    while left:
        start = min(left)
        comp = {start}
        frontier = [start]
        while frontier:
            u = frontier.pop()
            for j, i, _, _ in edges:
                for a, b in ((j, n_src + i), (n_src + i, j)):
                    if a == u and b in verts and b not in comp:
                        comp.add(b)
                        frontier.append(b)
        out.append(sorted(comp))
        left -= comp
    return out


def _subset(draw, M):
    return [v for v in range(M.dim) if draw(st.booleans())]


@settings(max_examples=60, deadline=None)
@given(tree_modules(), st.data())
def test_components_match_brute_force(M, data):
    adj = build_gamma(M)
    assert is_tree(adj)
    subset = _subset(data.draw, M)
    assert components(adj, subset) == _brute_components(M, subset)
    assert components(adj, range(M.dim)) == [list(range(M.dim))]


@settings(max_examples=60, deadline=None)
@given(tree_modules(), st.data())
def test_centroid_of_minimises_largest_branch(M, data):
    adj = build_gamma(M)
    for comp in components(adj, _subset(data.draw, M)) or [list(range(M.dim))]:
        c, branch = centroid_of(comp, adj)
        largest = {v: max(map(len, _brute_components(M, set(comp) - {v})), default=0)
                   for v in comp}
        assert c == min(comp, key=lambda v: (largest[v], v))
        assert sum(branch.values()) == len(comp) - 1
        pieces = _brute_components(M, set(comp) - {c})
        assert set(branch) == {w for w in adj[c] if w in comp}
        for nb, size in branch.items():
            assert len(next(p for p in pieces if nb in p)) == size


@settings(max_examples=60, deadline=None)
@given(tree_modules(), st.data())
def test_split_until_bounds_components_and_covers(M, data):
    adj = build_gamma(M)
    subset = _subset(data.draw, M)
    bound = data.draw(st.integers(1, M.dim))
    final, removed, batch_sizes = split_until(
        adj, components(adj, subset), bound, lambda c, branch, kept: {c})
    kept = [v for comp in final for v in comp]
    assert all(len(comp) <= bound for comp in final)
    assert len(kept) == len(set(kept)) and not set(kept) & removed
    assert set(kept) | removed == set(subset)
    assert sum(batch_sizes) == len(removed)
    assert sorted(final) == components(adj, kept)


def _piece(c, kept):
    """The sorted piece of c, walked by the kept neighbours that split_until
    hands its batch rule."""
    piece, seen = [c], {c}
    for v in piece:
        for w in kept(v):
            if w not in seen:
                seen.add(w)
                piece.append(w)
    return sorted(piece)


def _random_batches(seed):
    """A nonempty random subset of a sorted piece, fixed by the seed and the
    piece, so every split run on the same forest draws the same batches."""
    def batch_of(comp):
        rng = random.Random(f"{seed}:{comp}")
        return set(rng.sample(comp, rng.randint(1, len(comp))))
    return batch_of


@settings(max_examples=150, deadline=None)
@given(tree_modules(), st.data())
def test_split_pieces_match_components_for_any_batch(M, data):
    """Random nonempty batches, not only centroid ones: split_until hands
    each component over as centroid_of finds its centroid and branch sizes,
    with its vertices' neighbours inside it, and the pieces a batch leaves
    are components(adj, comp - batch), queued in that order. At bound 0
    every piece is handed over in turn, so the sequence of handed
    components compares each split's pieces, order included."""
    adj = build_gamma(M)
    subset = _subset(data.draw, M)
    bound = data.draw(st.integers(0, M.dim))
    seed = data.draw(st.integers(0, 2 ** 32))
    batch_of = _random_batches(seed)
    handed = []

    def choose(c, branch, kept):
        comp = _piece(c, kept)
        inside = set(comp)
        assert all(kept(v) == [w for w in adj[v] if w in inside] for v in comp)
        assert (c, branch) == centroid_of(comp, adj)
        handed.append(comp)
        return batch_of(comp)

    got = split_until(adj, components(adj, subset), bound, choose)
    queue = components(adj, subset)
    final, removed, batch_sizes, want_handed = [], set(), [], []
    while queue:
        comp = queue.pop()
        if len(comp) <= bound:
            final.append(comp)
            continue
        want_handed.append(comp)
        batch = batch_of(comp)
        removed |= batch
        batch_sizes.append(len(batch))
        queue.extend(components(adj, [u for u in comp if u not in batch]))
    assert handed == want_handed
    assert got == (final, removed, batch_sizes)


@settings(max_examples=150, deadline=None)
@given(tree_modules(max_vertices=80), st.data())
def test_split_until_matches_the_walking_reference(M, data):
    """split_until, which keeps subtree sizes and least ids across splits,
    returns what split_until_by_walks returns, order included: under both
    witness batch rules and under random batches drawn inside the piece.
    The trees reach 80 vertices, so pieces split again and again and a
    piece's least id is often cut away."""
    adj = build_gamma(M)
    comps = components(adj, _subset(data.draw, M))
    rule = data.draw(st.sampled_from(["centroid", "sink", "random"]))
    if rule == "random":
        bound = data.draw(st.integers(0, M.dim))
        batch_of = _random_batches(data.draw(st.integers(0, 2 ** 32)))

        def choose(c, branch, kept):
            return batch_of(_piece(c, kept))
    else:
        bound = data.draw(st.integers(1, M.dim))
        choose = partial(_centroid_batch if rule == "centroid" else _sink_batch, M.dim1)
    assert split_until(adj, comps, bound, choose) == split_until_by_walks(adj, comps, bound, choose)


# -- the (layer, index)-keyed graph layer as the reference for the id one ---------


def _tag_adjacency(M):
    """vertex tag -> list of (neighbor tag, arrow)."""
    adj = {_tag(M, v): [] for v in range(M.dim)}
    for j, i, k, _ in edge_list(M):
        adj[(0, j)].append(((1, i), k))
        adj[(1, i)].append(((0, j), k))
    return adj


def _tag_components(adj, vertices):
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


def _tag_centroid_of(vertices, adj):
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


def _tag_split_until(adj, vertices, bound, choose_batch):
    queue = _tag_components(adj, vertices)
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
        queue.extend(_tag_components(adj, [u for u in comp if u not in batch]))
    return final, removed, batch_sizes


def _tag_batch_rule(sink_rule, adj):
    """The batch choice of fragment_tree_module (a sink centroid takes its
    branch heads) or, with sink_rule, of fragment_postinjective_theta (the
    sink heading a source centroid's largest branch, with its neighbors), on
    a sorted tag list."""
    def choose(comp):
        v, br = _tag_centroid_of(comp, adj)
        if not sink_rule:
            return {v, *br} if v[0] == 1 else {v}
        sink = v if v[0] == 1 else min(br, key=lambda nb: (-br[nb], nb))
        inside = set(comp)
        return {sink} | {w for w, _ in adj[sink] if w in inside}
    return choose


@settings(max_examples=80, deadline=None)
@given(tree_modules(), st.data())
def test_id_graph_layer_matches_the_tag_keyed_reference(M, data):
    adj, tadj = build_gamma(M), _tag_adjacency(M)

    def tag(v):
        return _tag(M, v)

    subset = _subset(data.draw, M)
    tsubset = [tag(v) for v in subset]
    comps = components(adj, subset)
    assert [[tag(v) for v in c] for c in comps] == _tag_components(tadj, tsubset)
    for comp in comps + [list(range(M.dim))]:
        c, branch = centroid_of(comp, adj)
        tc, tbranch = _tag_centroid_of([tag(v) for v in comp], tadj)
        assert tag(c) == tc
        assert {tag(w): size for w, size in branch.items()} == tbranch
    bound = data.draw(st.integers(1, M.dim))
    rule = data.draw(st.booleans())
    batch = _sink_batch if rule else _centroid_batch
    got = split_until(adj, comps, bound, partial(batch, M.dim1))
    want = _tag_split_until(tadj, tsubset, bound, _tag_batch_rule(rule, tadj))
    assert [[tag(v) for v in c] for c in got[0]] == want[0]
    assert {tag(v) for v in got[1]} == want[1]
    assert got[2] == want[2]
