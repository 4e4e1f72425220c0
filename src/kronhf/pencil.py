"""Kronecker canonical form for d = 2 modules, by exact kernel-chain peeling.

The block multiset of a matrix pencil (a, b) is recovered in three stages:
the postinjective part is split off as the submodule generated by the
kernel-chain limit intersected with ker b, the preprojective part the same
way on the transposed module, and the remaining regular core is separated
into the nilpotent-first part (chain of ker a) and a rational-canonical-form
analysis of a^{-1} b. Literal canonical shapes short-circuit the machinery,
which keeps the witness pipelines linear at four-digit dimensions.
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
)


# -- subspace helpers (column-basis matrices with independent columns) --------


def _colspace(m: Matrix) -> Matrix:
    _, pivots = m.rref()
    return m.submatrix(range(m.rows), pivots)


def _space_sum(mats) -> Matrix:
    mats = [m for m in mats if m.cols]
    if not mats:
        raise ValueError("no generators")
    return _colspace(Matrix.hstack(mats)) if len(mats) > 1 else _colspace(mats[0])


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
    _, pivots = aug.rref()
    extra = [p - U.cols for p in pivots if p >= U.cols]
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
        grown = _space_sum([S, _intersect(_preimage(B, A @ S), xstab)])
        if grown.cols == S.cols:
            break
        S = grown
    return S


def _restrict(M: KroneckerModule, U1: Matrix, U2: Matrix) -> KroneckerModule:
    maps = [U2.solve(m @ U1) for m in M.maps]
    return KroneckerModule(M.d, M.field, U1.cols, U2.cols, maps)


def _quotient(M: KroneckerModule, U1: Matrix, U2: Matrix) -> KroneckerModule:
    F1 = _complete_basis(U1, M.dim1)
    F2 = _complete_basis(U2, M.dim2)
    rows = list(range(U2.cols, M.dim2))
    cols = list(range(U1.cols, M.dim1))
    maps = [F2.solve(m @ F1).submatrix(rows, cols) for m in M.maps]
    return KroneckerModule(M.d, M.field, len(cols), len(rows), maps)


def _split_off_postinjective(M: KroneckerModule):
    """(chain lengths of the postinjective part, quotient by that part)."""
    U1 = _postinjective_source_space(M)
    if U1.cols == 0:
        return Counter(), M
    A, B = M.maps
    imgs = [m for m in (A @ U1, B @ U1) if m.cols]
    U2 = _space_sum(imgs) if any(m.nnz for m in imgs) else Matrix.zeros(M.field, M.dim2, 0)
    sub = _restrict(M, U1, U2)
    lengths = _chain_lengths(sub.maps[0], sub.maps[1])
    return lengths, _quotient(M, U1, U2)


# -- regular core ---------------------------------------------------------------


def _charpoly_coeffs(C: Matrix) -> tuple:
    """Low-order coefficients of the characteristic polynomial (monic)."""
    import sympy

    n = C.rows
    fld = C.field
    if fld.char == 0:
        sm = sympy.Matrix(n, n, lambda i, j: sympy.Rational(
            C.entry(i, j).numerator, C.entry(i, j).denominator))
        poly = sm.charpoly()
        coeffs = list(reversed(poly.all_coeffs()))[:-1]
        from fractions import Fraction

        return tuple(Fraction(str(c)) for c in coeffs)
    sm = sympy.Matrix(n, n, lambda i, j: int(C.entry(i, j)))
    poly = sm.charpoly()
    coeffs = list(reversed(poly.all_coeffs()))[:-1]
    return tuple(int(c) % fld.char for c in coeffs)


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
    """Block multiset of a d = 2 module, certified against rank invariants."""
    if M.d != 2:
        raise PreconditionError("pencil decomposition is defined for d = 2")
    fast = _fast_path(M)
    if fast is not None:
        return fast
    blocks = Counter()
    lengths, M1 = _split_off_postinjective(M)
    for L, m in lengths.items():
        blocks[PencilBlock("Q", L - 1)] += m
    Mt = M1.transpose()
    lengths, M2 = _split_off_postinjective(Mt)
    for L, m in lengths.items():
        blocks[PencilBlock("P", L - 1)] += m
    R = M2.transpose()
    A, B = R.maps
    U1 = _xchain(A, B)[-1]
    if U1.cols:
        U2 = _space_sum([A @ U1, B @ U1])
        sub = _restrict(R, U1, U2)
        for L, m in _chain_lengths(sub.maps[0], sub.maps[1]).items():
            blocks[PencilBlock("R_mono", L)] += m
        R = _quotient(R, U1, U2)
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
    if tag == "P":
        return Counter({PencilBlock("P", kind[1]): 1})
    if tag == "Q":
        return Counter({PencilBlock("Q", kind[1]): 1})
    if tag == "R_mono":
        return Counter({PencilBlock("R_mono", kind[1]): 1})
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
    for lam, mu in _sample_points(M.field, 2 * (M.dim + 1)):
        r1 = (M.maps[0].scale(lam) + M.maps[1].scale(mu)).rank()
        r2 = (D.maps[0].scale(lam) + D.maps[1].scale(mu)).rank()
        if r1 != r2:
            raise AssertionError(f"rank profile mismatch at ({lam}, {mu}): {r1} != {r2}")

