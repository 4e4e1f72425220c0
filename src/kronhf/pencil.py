"""Kronecker canonical form for d = 2 modules, by exact kernel-chain peeling.

The block multiset of a matrix pencil (a, b) is recovered by three peels and
a rational canonical form. Each peel (``_peel``) takes a source subspace U1
whose images span a submodule, reads the block sizes off the kernel chain
of that submodule and passes on the quotient. The kernel chains
X_1 = ker a, X_{i+1} = a^{-1}(b X_i) stop at a limit X*(a, b) (the Wong
sequences of Berger, Ilchmann and Trenn). Chains are additive over direct
sums, X*(a, b) is the source space of the Q and R_mono blocks and X*(b, a)
that of the Q and R_poly(x^e) blocks, so the Q blocks are peeled off on
X*(a, b) ∩ X*(b, a). The P blocks come off the same way on the transposed
quotient, and the R_mono blocks off the regular rest on its X*(a, b). In
what remains a is invertible, and the rational canonical form of a^{-1} b
gives the R_poly blocks. Literal canonical shapes short-circuit the
machinery, which keeps the witness pipelines linear at four-digit
dimensions.
"""

from __future__ import annotations

from collections import Counter

from .errors import PreconditionError
from .matrices import Matrix
from .modules import (
    KroneckerModule,
    PencilBlock,
    build_P,
    build_Q,
    build_R,
    classify_standard,
    direct_sum,
    factor_monic,
    sympy_to_coeffs,
)


# -- subspace helpers (column-basis matrices with independent columns) --------


def _colspace(m: Matrix) -> Matrix:
    return m.submatrix(range(m.rows), m.pivot_columns())


def _intersect(U: Matrix, V: Matrix) -> Matrix:
    if U.cols == 0 or V.cols == 0:
        return Matrix.zeros(U.field, U.rows, 0)
    K = Matrix.hstack([U, -V]).kernel_basis()
    top = K.submatrix(range(U.cols), range(K.cols))
    return _colspace(U @ top)


def _preimage(A: Matrix, W: Matrix) -> Matrix:
    """Basis of {v : A v in colspace(W)}."""
    ann = W.transpose().kernel_basis().transpose()
    if ann.rows == 0:
        return Matrix.identity(A.field, A.cols)
    return (ann @ A).kernel_basis()


def _complete_basis(U: Matrix, n: int):
    """Invertible [U | standard completion]; greedy unit-vector completion."""
    fld = U.field
    if U.cols == n:
        return U
    aug = Matrix.hstack([U, Matrix.identity(fld, n)])
    extra = [p - U.cols for p in aug.pivot_columns() if p >= U.cols]
    return Matrix.hstack([U, Matrix.selection(fld, n, extra)])


# -- kernel chains -------------------------------------------------------------


def _xchain(A: Matrix, B: Matrix):
    """Increasing chain X_1 = ker A, X_{i+1} = preimage_A(B X_i), to stabilization."""
    out = [A.kernel_basis()]
    while True:
        nxt = _preimage(A, B @ out[-1])
        if nxt.cols == out[-1].cols:
            return out
        out.append(nxt)


def _block_lengths(dims) -> Counter:
    """Block lengths from an increasing kernel-dimension sequence, dims[0] = 0.

    With steps D_L = dims[L] - dims[L-1] (and 0 past the end), there are
    D_L - D_{L+1} blocks of length L.
    """
    steps = [hi - lo for lo, hi in zip(dims, dims[1:])] + [0]
    return Counter({L: d - nxt for L, (d, nxt) in enumerate(zip(steps, steps[1:]), 1)
                    if d - nxt})


def _chain_lengths(A: Matrix, B: Matrix) -> Counter:
    """Multiset of chain lengths: length L with multiplicity per block seen."""
    return _block_lengths([0] + [x.cols for x in _xchain(A, B)])


def _postinjective_source_space(M: KroneckerModule) -> Matrix:
    """Span of the source spaces of all wide (postinjective) blocks of M,
    X*(a, b) ∩ X*(b, a) (see the module docstring for why)."""
    A, B = M.maps
    return _intersect(_xchain(A, B)[-1], _xchain(B, A)[-1])


def _peel(M: KroneckerModule, U1: Matrix):
    """(chain lengths of the submodule on U1, quotient of M by it).

    U1 spans a source subspace whose images A U1 + B U1 (spanned by U2) make
    a submodule. In the completed bases F1 = [U1 | .] and F2 = [U2 | .] each
    map is block upper triangular: one solve gives the submodule as its
    top-left block and the quotient as its bottom-right block.
    """
    if U1.cols == 0:
        return Counter(), M
    A, B = M.maps
    U2 = _colspace(Matrix.hstack([A @ U1, B @ U1]))
    F1 = _complete_basis(U1, M.dim1)
    F2 = _complete_basis(U2, M.dim2)
    k1, k2 = U1.cols, U2.cols
    subs, quots = [], []
    for m in M.maps:
        T = F2.solve(m @ F1)
        subs.append(T.submatrix(range(k2), range(k1)))
        quots.append(T.submatrix(range(k2, M.dim2), range(k1, M.dim1)))
    return (_chain_lengths(*subs),
            KroneckerModule(M.d, M.field, M.dim1 - k1, M.dim2 - k2, quots))


# -- regular core ---------------------------------------------------------------


def _charpoly_coeffs(C: Matrix) -> tuple:
    """Low-order coefficients of the characteristic polynomial (monic)."""
    import sympy

    sm = sympy.Matrix(C.rows, C.rows, lambda i, j: sympy.Rational(
        C.entry(i, j).numerator, C.entry(i, j).denominator))
    return sympy_to_coeffs(C.field, sm.charpoly())


def _poly_eval_matrix(C: Matrix, q: tuple) -> Matrix:
    """q(C) for the monic polynomial with low-order coefficients q."""
    fld = C.field
    n = C.rows
    acc = Matrix.identity(fld, n)
    for c in reversed(q):
        acc = acc @ C
        if c:
            acc = acc + Matrix.identity(fld, n).scale(c)
    return acc


def _rcf_blocks(C: Matrix) -> Counter:
    """Primary block multiset of the module (id, C)."""
    blocks = Counter()
    if C.rows == 0:
        return blocks
    fld = C.field
    char = _charpoly_coeffs(C)
    for q, total_mult in factor_monic(fld, char):
        deg = len(q)
        qc = _poly_eval_matrix(C, q)
        # ker q(C)^e grows until it is the generalized eigenspace, of dim deg * mult
        kdims = [0]
        power = Matrix.identity(fld, C.rows)
        while kdims[-1] < deg * total_mult:
            power = power @ qc
            kdims.append(C.rows - power.rank())
        for e, m in _block_lengths(kdims).items():
            blocks[PencilBlock("R_poly", poly=q, e=e)] += m // deg
    return blocks


# -- main ------------------------------------------------------------------------


def block_module(b: PencilBlock, field) -> KroneckerModule:
    if b.kind == "P":
        return build_P(b.n, field)
    if b.kind == "Q":
        return build_Q(b.n, field)
    return build_R(b, field)


def decompose_pencil(M: KroneckerModule) -> Counter:
    """Block multiset of a d = 2 module.

    Three peels take off the Q blocks on X*(a, b) ∩ X*(b, a) (the limits
    add the R_mono and the R_poly(x^e) blocks respectively), then the P
    blocks the same way on the transposed quotient, then the R_mono blocks
    on X*(a, b); a^{-1} b on what remains gives the R_poly blocks. The only
    check on the result is its rank profile (the rank of lam a + mu b at a
    few sample points against the reassembled blocks), and that check can
    accept a wrong multiset, e.g. R_poly(x^2 + 2) for R_poly(x^2 + 1) over
    Q. A certifying decomposition that returns the isomorphism is the
    "make the pencil decomposition certifying" item of ROADMAP.md.
    """
    if M.d != 2:
        raise PreconditionError("pencil decomposition is defined for d = 2")
    fast = _fast_path(M)
    if fast is not None:
        return fast
    blocks = Counter()
    lengths, rest = _peel(M, _postinjective_source_space(M))
    for L, m in lengths.items():
        blocks[PencilBlock("Q", L - 1)] += m
    rest = rest.transpose()
    lengths, rest = _peel(rest, _postinjective_source_space(rest))
    for L, m in lengths.items():
        blocks[PencilBlock("P", L - 1)] += m
    R = rest.transpose()
    lengths, R = _peel(R, _xchain(*R.maps)[-1])
    for L, m in lengths.items():
        blocks[PencilBlock("R_mono", L)] += m
    if R.dim1:
        C = R.maps[0].solve(R.maps[1])
        blocks += _rcf_blocks(C)
    _certify(M, blocks)
    return blocks


def _fast_path(M: KroneckerModule):
    if M.dim == 0:
        return Counter()
    kind = classify_standard(M)
    if kind is None:
        return None
    tag = kind[0]
    if tag in ("P", "Q", "R_mono"):
        return Counter({PencilBlock(tag, kind[1]): 1})
    if tag == "R_poly":
        out = Counter()
        for q, e in factor_monic(M.field, kind[1]):
            out[PencilBlock("R_poly", poly=q, e=e)] += 1
        return out
    return None


def reassemble(blocks: Counter, field, d=2) -> KroneckerModule:
    mods = []
    for b in sorted(blocks, key=lambda b: (b.kind, b.n, b.e, b.poly)):
        mods.extend(block_module(b, field) for _ in range(blocks[b]))
    return direct_sum(mods, d=d, field=field)


def _sample_points(field, count):
    """(0:1), (1:0), then (1:c) for c = 1, -1, 2, -2, ..."""
    points = [(field.zero, field.one), (field.one, field.zero)]
    c = 1
    while len(points) < count:
        points.append((field.one, field.coerce(c)))
        c = -c if c > 0 else 1 - c
    return points


def rank_profile(M: KroneckerModule, points=None):
    """rank(lam * a + mu * b) at deterministic sample pairs."""
    fld = M.field
    a, b = M.maps
    if points is None:
        points = _sample_points(fld, 2 * (M.dim + 1))
    return [(lam, mu, (a.scale(lam) + b.scale(mu)).rank()) for lam, mu in points]


def _certify(M: KroneckerModule, blocks: Counter):
    D = reassemble(blocks, M.field)
    if (D.dim1, D.dim2) != (M.dim1, M.dim2):
        raise AssertionError(
            f"decomposition dims {(D.dim1, D.dim2)} != module dims {(M.dim1, M.dim2)}")
    for (lam, mu, r1), (_, _, r2) in zip(rank_profile(M), rank_profile(D)):
        if r1 != r2:
            raise AssertionError(f"rank profile mismatch at ({lam}, {mu}): {r1} != {r2}")

