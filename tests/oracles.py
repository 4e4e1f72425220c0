"""Plain reference implementations that the tests compare the library against.

None of these is called by the library: hom_system is the Hom system
without presolve, kernel_module builds a kernel submodule through
kernel_basis and solve, classify_standard_d2 recognises the d = 2 canonical
shapes by building each and comparing, nested_regular_witness and
nested_postinjective_witness run the tame producers on submodules built as
modules, random_matrix draws the random matrices of several tests and of
the matrix golden, whose text depends on its exact sequence of rng calls,
edge_list is the coefficient quiver as a sorted edge list, with the tree
and degree checks over it that quiver.is_tree and quiver.degree_stats are
compared against, is_homomorphism checks a pair (f, g) against the
arrows directly, image_dim takes dim sum T_i(W) as the rank of the
n x dk column stack of the T_i W^t, which expander._stacked_image_dim
takes on the dk x n row stack instead, centroid_of finds the centroid of
an induced tree by one BFS and _tree_centroid, which computes every
subtree size afresh, split_until_by_walks is quiver.split_until walking
each piece it splits twice, once for those sizes and once to label the
pieces a batch leaves, where split_until keeps the sizes across splits,
permutation_rep
is the permutation matrix of SL(2, p) acting on P^1(F_p), a reducible
representation, and split_components_by_restriction is
quiver.split_components with each component's module and selections
built by hand, dense_matrix_text and dense_module_text are the text writers
that format every entry, per_token_matrix_from_text and
per_token_module_from_text the readers that parse every token,
comb_power_coeffs expands (x + a)^e with one math.comb per coefficient,
and poly_by_expression builds a sympy Poly from a sum of symbolic terms.
"""

import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

from kronhf.errors import ValidationError
from kronhf.fields import QQ, field_from_label, rational
from kronhf.matrices import Matrix, column_space_dim_of_stack
from kronhf.modules import KroneckerModule, build_P, build_Q, companion_matrix
from kronhf.quiver import build_gamma, components
from kronhf.sl2p import SL2pElement, point_permutation
from kronhf.witness import (_drop_rule_chain, combinator_bounded_codim, monomial_submodule,
                            whole_module_witness)


def is_homomorphism(theta, X: KroneckerModule, Y: KroneckerModule) -> bool:
    """g X(k) == Y(k) f for every arrow k, for theta = (f, g): X -> Y."""
    f, g = theta
    return all(g @ X.maps[k] == Y.maps[k] @ f for k in range(X.d))


def image_dim(cand, W: Matrix) -> int:
    """dim sum T_i(W) for the row span W of a k x n matrix, over the maps of
    the expander candidate cand: the rank of the columns of the T_i W^t."""
    wt = W.transpose()
    return column_space_dim_of_stack([m @ wt for m in cand.maps])


def hom_system(X: KroneckerModule, Y: KroneckerModule) -> Matrix:
    """The linear system g X(k) = Y(k) f for all arrows k, in the unknowns
    f[l, j] (first Y.dim1 * X.dim1 columns) and then g[i, m], each matrix
    in row-major order."""
    if X.d != Y.d or X.field != Y.field:
        raise ValidationError("hom space needs matching arrow count and field")
    fld = X.field
    nf = Y.dim1 * X.dim1
    ng = Y.dim2 * X.dim2

    def fvar(l, j):  # f[l, j]
        return l * X.dim1 + j

    def gvar(i, m):  # g[i, m]
        return nf + i * X.dim2 + m

    nrows = X.d * Y.dim2 * X.dim1
    rows = [dict() for _ in range(nrows)]

    def ridx(k, i, j):
        return (k * Y.dim2 + i) * X.dim1 + j

    for k in range(X.d):
        for m, j, v in X.maps[k].entries():
            for i in range(Y.dim2):
                r = rows[ridx(k, i, j)]
                var = gvar(i, m)
                nv = fld.add(r.get(var, fld.zero), v)
                if nv:
                    r[var] = nv
                else:
                    r.pop(var, None)
        for i, l, w in Y.maps[k].entries():
            for j in range(X.dim1):
                r = rows[ridx(k, i, j)]
                var = fvar(l, j)
                nv = fld.sub(r.get(var, fld.zero), w)
                if nv:
                    r[var] = nv
                else:
                    r.pop(var, None)
    return Matrix._build(fld, nrows, nf + ng, rows)


def kernel_module(theta, X: KroneckerModule, Y: KroneckerModule):
    """Kernel submodule of a homomorphism, with its embedding into X."""
    if not is_homomorphism(theta, X, Y):
        raise ValidationError("theta does not intertwine the arrow maps")
    f, g = theta
    k1 = f.kernel_basis()
    k2 = g.kernel_basis()
    maps = []
    for k in range(X.d):
        image = X.maps[k] @ k1
        maps.append(k2.solve(image))
    sub = KroneckerModule(X.d, X.field, k1.cols, k2.cols, maps)
    return sub, (k1, k2)


def classify_standard_d2(M: KroneckerModule):
    """classify_standard on a d = 2 module, by building P_n, Q_n, the
    identity and the companion of x^n and comparing them with M, and by
    checking a companion matrix entry by entry."""
    fld = M.field
    n = min(M.dim1, M.dim2)
    if M.dim2 == M.dim1 + 1 and M == build_P(M.dim1, fld):
        return ("P", M.dim1)
    if M.dim1 == M.dim2 + 1 and M == build_Q(M.dim2, fld):
        return ("Q", M.dim2)
    if M.dim1 == M.dim2 and n >= 1:
        ident = Matrix.identity(fld, n)
        if M.maps[0] == ident and _is_companion(M.maps[1]):
            return ("R_poly", tuple(fld.neg(M.maps[1].entry(i, n - 1)) for i in range(n)))
        if M.maps[1] == ident and M.maps[0] == companion_matrix(fld, (fld.zero,) * n):
            return ("R_mono", n)
    return None


def _is_companion(m: Matrix) -> bool:
    n = m.rows
    if n == 0 or m.cols != n:
        return False
    for i in range(n):
        for j, v in m.row_items(i):
            if j == n - 1:
                continue
            if i != j + 1 or v != m.field.one:
                return False
    for i in range(n - 1):
        if m.entry(i + 1, i) != m.field.one:
            return False
    return True


def nested_regular_witness(R: KroneckerModule, eps: Fraction):
    """The regular producer on R_poly or R_mono, one module per step: the
    codimension-1 submodule on sources 0..n-2, its zigzag witness at eps/2,
    and combinator_bounded_codim up to R."""
    l_eps = 2 / eps + 3
    if Fraction(R.dim) <= l_eps:
        return whole_module_witness(R, eps, l_eps, "regular_2k")
    sub = monomial_submodule(R, range(R.dim1 - 1))
    assert sub.dim == R.dim - 1
    inner = _drop_rule_chain(sub.module, eps / 2)
    w = combinator_bounded_codim(R, sub, inner, eps)
    w.notes["producer"] = "regular_2k"
    return w


def nested_postinjective_witness(Qm: KroneckerModule, eps: Fraction):
    """The postinjective producer on Q_n, one module per step: the kernel
    of theta: Q_n -> I(1) on sources 1..n, nested_regular_witness on it at
    eps/2, and combinator_bounded_codim up to Q_n."""
    n = Qm.dim2
    l_eps = 4 / eps + 3
    if Fraction(Qm.dim) <= l_eps:
        return whole_module_witness(Qm, eps, l_eps, "postinjective_2k")
    ker = monomial_submodule(Qm, range(1, n + 1))
    inner = nested_regular_witness(ker.module, eps / 2)
    w = combinator_bounded_codim(Qm, ker, inner, eps)
    w.notes["producer"] = "postinjective_2k"
    w.notes["kernel_blocks"] = [f"R_mono({n})"]
    return w


def split_components_by_restriction(M: KroneckerModule):
    """One (module, (emb1, emb2)) per component of M's coefficient quiver,
    in the order of components: each arrow matrix restricted to the
    component's sinks and sources, and the selections of those ids."""
    n, fld = M.dim1, M.field
    out = []
    for comp in components(build_gamma(M), range(M.dim)):
        k = bisect_left(comp, n)
        src, snk = comp[:k], [v - n for v in comp[k:]]
        sub = KroneckerModule(M.d, fld, k, len(snk), [m.submatrix(snk, src) for m in M.maps])
        out.append((sub, (Matrix.selection(fld, n, src), Matrix.selection(fld, M.dim2, snk))))
    return out


def random_matrix(field, rows, cols, rng, span=5):
    ent = []
    for i in range(rows):
        for j in range(cols):
            if field.char == 0:
                v = rational(rng.randint(-span, span), rng.randint(1, 3))
            else:
                v = rng.randrange(field.q)
            if v:
                ent.append((i, j, v))
    return Matrix.from_entries(field, rows, cols, ent)


def edge_list(M: KroneckerModule) -> list:
    """The coefficient quiver of M as its sorted (source, sink, arrow, coeff)
    edges, one per nonzero entry (sink, source) of each arrow matrix."""
    return sorted((j, i, k, c) for k, m in enumerate(M.maps) for i, j, c in m.entries())


def edge_list_is_tree(n_src: int, n_snk: int, edges) -> bool:
    """Connected and acyclic by union-find over the edges, parallel edges
    counting as cycles; the empty graph is not a tree."""
    root = list(range(n_src + n_snk))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for j, i, _, _ in edges:
        a, b = find(j), find(n_src + i)
        if a == b:
            return False
        root[a] = b
    return len(edges) == n_src + n_snk - 1


def edge_list_degree_stats(n_src: int, n_snk: int, edges):
    """(max indegree, max outdegree) counted over the edges."""
    indeg = [0] * n_snk
    outdeg = [0] * n_src
    for j, i, _, _ in edges:
        outdeg[j] += 1
        indeg[i] += 1
    return (max(indeg, default=0), max(outdeg, default=0))


def _rooted(adj, root, inside):
    """BFS from root over the vertices marked in inside, unmarking them.

    Returns (order, parent): order lists the vertices reached in BFS order
    and parent[t] is the position in order of order[t]'s parent, -1 for the
    root. A BFS appends the children of each vertex together, so parent
    never decreases, which _children relies on. split_until_by_walks keeps
    this form for the pieces it cuts from such a tree: each piece keeps its
    vertices in the same order, and their parents renumbered.
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
    len(order) - 1). Every subtree size is computed afresh.
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


def centroid_of(vertices, adj):
    """Centroid of the tree induced on vertices, and its branch sizes.

    Returns (c, branch) where c minimises the largest component left by
    removing it, ties broken toward the smallest id, and branch maps each
    neighbor of c inside the set to the size of its component once c is
    removed (the sizes sum to len(vertices) - 1). One BFS roots the tree at
    vertices[0], and the centroid is read off the rooted tree.
    """
    inside = bytearray(len(adj))
    for v in vertices:
        inside[v] = 1
    order, parent = _rooted(adj, vertices[0], inside)
    c, branch = _tree_centroid(order, parent)
    return order[c], {order[u]: size for u, size in branch.items()}


def split_until_by_walks(adj, comps, bound, choose_batch):
    """quiver.split_until by walking each piece it splits twice: once to
    compute every subtree size of the piece and find its centroid, and
    once more to cut it into pieces.

    An oversized component is rooted by one BFS. Each split computes the
    centroid afresh (_tree_centroid) and hands choose_batch the same
    (c, branch, kept) as split_until, kept reading a vertex's parent and
    children in the rooted piece. One pass over the parents, exact on a
    forest, then labels the kept vertices: a kept vertex starts a new piece
    when it is the root or its parent was removed, and joins its parent's
    piece otherwise. The pass keeps each piece rooted, at its first vertex,
    with the restriction of (order, parent). Pieces are queued by smallest
    vertex and sorted once they are final. Returns what split_until
    returns, order included.
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
        c, branch = _tree_centroid(order, parent)
        pos = {v: t for t, v in enumerate(order)}

        def kept(v):
            t = pos[v]
            return [order[u] for u in ([] if t == 0 else [parent[t]]) + list(_children(parent, t))]

        batch = choose_batch(order[c], {order[u]: s for u, s in branch.items()}, kept)
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


def permutation_rep(g: SL2pElement) -> Matrix:
    """(p+1) x (p+1) permutation matrix of the projective action over Q."""
    sigma = point_permutation(g)
    return Matrix.from_entries(QQ, g.p + 1, g.p + 1,
                               ((sigma[z], z, QQ.one) for z in range(g.p + 1)))


def dense_matrix_text(m: Matrix) -> str:
    """Matrix.to_text by formatting every entry, zero or not, one at a time."""
    lines = [f"field {m.field.label}", f"{m.rows} {m.cols}"]
    for i in range(m.rows):
        lines.append(" ".join(m.field.fmt(m.entry(i, j)) for j in range(m.cols)))
    return "\n".join(lines) + "\n"


def dense_module_text(M: KroneckerModule) -> str:
    """KroneckerModule.to_text through dense_matrix_text."""
    head = f"kronecker d={M.d} field={M.field.label} dims={M.dim1}x{M.dim2}\n"
    return head + "".join(dense_matrix_text(m) for m in M.maps)


def per_token_matrix_from_text(text: str) -> Matrix:
    """matrix_from_text by parsing every entry token, "0" included, through
    field.parse; a shape token that is no integer raises int()'s ValueError."""
    tokens = text.split()
    if len(tokens) < 4 or tokens[0] != "field":
        raise ValidationError("matrix text must start with a 'field' line")
    fld = field_from_label(tokens[1])
    rows, cols = int(tokens[2]), int(tokens[3])
    vals = tokens[4:]
    if len(vals) != rows * cols:
        raise ValidationError(f"expected {rows * cols} entries, got {len(vals)}")
    entries = []
    for k, tok in enumerate(vals):
        v = fld.parse(tok)
        if v:
            entries.append((k // cols, k % cols, v))
    return Matrix.from_entries(fld, rows, cols, entries)


def per_token_module_from_text(text: str) -> KroneckerModule:
    """module_from_text through line lists, one re-joined token string per
    arrow block and per_token_matrix_from_text; tokens after the d-th block
    are ignored."""
    lines = text.splitlines()
    if not lines or not lines[0].startswith("kronecker "):
        raise ValidationError("module text must start with a 'kronecker' header")
    try:
        fields = dict(tok.split("=", 1) for tok in lines[0].split()[1:])
        d = int(fields["d"])
        d1, d2 = (int(x) for x in fields["dims"].split("x"))
        label = fields["field"]
    except (KeyError, ValueError):
        raise ValidationError(f"malformed module header {lines[0]!r}: expected "
                              "'kronecker d=<d> field=<label> dims=<d1>x<d2>'") from None
    fld = field_from_label(label)
    toks = "\n".join(lines[1:]).split()
    maps = []
    pos = 0
    for _ in range(d):
        if (pos + 4 > len(toks) or toks[pos] != "field"
                or not (toks[pos + 2].isdecimal() and toks[pos + 3].isdecimal())):
            raise ValidationError("malformed matrix block in module text")
        count = int(toks[pos + 2]) * int(toks[pos + 3])
        maps.append(per_token_matrix_from_text(" ".join(toks[pos:pos + 4 + count])))
        pos += 4 + count
    return KroneckerModule(d, fld, d1, d2, maps)


def comb_power_coeffs(field, a, e) -> tuple:
    """Low-order coefficients of (x + a)^e, leading 1 dropped, with each
    binomial from math.comb."""
    a = field.coerce(a)
    powers = [field.one]
    for _ in range(e):
        powers.append(field.mul(powers[-1], a))
    return tuple(field.mul(field.coerce(math.comb(e, k)), powers[e - k]) for k in range(e))


def poly_by_expression(field, coeffs):
    """The sympy Poly of the monic polynomial with low-order coefficients
    coeffs, built by summing symbolic terms: modules.poly_to_sympy's
    reference."""
    import sympy

    x = sympy.Symbol("x")
    if field.char == 0:
        expr = x ** len(coeffs) + sum(sympy.Rational(c) * x ** k for k, c in enumerate(coeffs))
        return sympy.Poly(expr, x, domain=sympy.QQ)
    expr = x ** len(coeffs) + sum(int(c) * x ** k for k, c in enumerate(coeffs))
    return sympy.Poly(expr, x, modulus=field.char)
