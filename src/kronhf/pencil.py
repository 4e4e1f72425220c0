"""Kronecker canonical form for d = 2 modules, by exact kernel-chain peeling.

The block multiset of a matrix pencil (a, b) is recovered by three peels and
a rational canonical form. Each peel (``_peel``) takes a source subspace U1
whose images span a submodule, reads the block sizes off the kernel chain
of that submodule and passes on the quotient. The Q blocks are peeled off
the module on the source spaces of its wide blocks, the P blocks the same
way off the transposed quotient, and the R_mono blocks off the regular rest
on the limit of its ker a chain. In what remains a is invertible, and the
rational canonical form of a^{-1} b gives the R_poly blocks. Literal
canonical shapes short-circuit the machinery, which keeps the witness
pipelines linear at four-digit dimensions.
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
    out = []
    X = A.kernel_basis()
    while True:
        out.append(X)
        if B.cols and X.cols:
            nxt = _preimage(A, B @ X)
        else:
            nxt = _preimage(A, Matrix.zeros(A.field, B.rows, 0))
        if nxt.cols == X.cols:
            break
        X = nxt
    return out


def _chain_lengths(A: Matrix, B: Matrix) -> Counter:
    """Multiset of chain lengths: length L with multiplicity per block seen."""
    dims = [x.cols for x in _xchain(A, B)]
    deltas = []
    prev = 0
    for dv in dims:
        deltas.append(dv - prev)
        prev = dv
    lengths = Counter()
    for i, d in enumerate(deltas):
        nxt = deltas[i + 1] if i + 1 < len(deltas) else 0
        if d - nxt:
            lengths[i + 1] += d - nxt
    lengths.pop(0, None)
    return lengths


def _postinjective_source_space(M: KroneckerModule) -> Matrix:
    """Span of the source spaces of all wide (postinjective) blocks of M."""
    A, B = M.maps
    xstab = _xchain(A, B)[-1]
    S = _intersect(B.kernel_basis(), xstab)
    while S.cols:
        grown = _colspace(Matrix.hstack([S, _intersect(_preimage(B, A @ S), xstab)]))
        if grown.cols == S.cols:
            break
        S = grown
    return S


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
        kdims = [0]
        power = Matrix.identity(fld, C.rows)
        while True:
            power = power @ qc
            kdims.append(C.rows - power.rank())
            if kdims[-1] == kdims[-2]:
                break
        # blocks with exponent e: second difference of the kernel filtration
        for e in range(1, len(kdims) - 1):
            lower = kdims[e] - kdims[e - 1]
            upper = kdims[e + 1] - kdims[e] if e + 1 < len(kdims) else 0
            m = (lower - upper) // deg
            if m:
                blocks[PencilBlock("R_poly", poly=q, e=e)] += m
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

    Three peels take off the Q blocks, then the P blocks (on the transposed
    quotient), then the R_mono blocks; a^{-1} b on what remains gives the
    R_poly blocks. The only check on the result is its rank profile (the
    rank of lam a + mu b at a few sample points against the reassembled
    blocks), and that check can accept a wrong multiset, e.g.
    R_poly(x^2 + 2) for R_poly(x^2 + 1) over Q. A certifying decomposition
    that returns the isomorphism is ROADMAP.md item 2.
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

