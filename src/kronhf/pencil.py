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
gives the R_poly blocks.

No multiset is returned without a certificate: an isomorphism (F1, F2) from
D = reassemble(blocks) onto M, checked exactly (F1 and F2 invertible,
m F1 = F2 d_m per arrow). It is drawn at random from Hom(D, M), the direct
sum of Hom(B, M) over the summands B of D, with one modules.PresolvedHom
solve per distinct B, and exists only if M ≅ D (the certifying algorithms
of McConnell, Mehlhorn, Näher and Schweitzer, Comput. Sci. Rev. 2011). A
literal canonical shape is D itself, and (I, I) certifies it with no
elimination.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter

from .errors import CertificateError, PreconditionError
from .matrices import Matrix
from .modules import (
    KroneckerModule,
    PencilBlock,
    PresolvedHom,
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
    """Basis of colspace(U) ∩ colspace(V) for U, V with independent columns:
    then U times the top rows of a kernel basis of [U | -V] is already one."""
    if U.cols == 0 or V.cols == 0:
        return Matrix.zeros(U.field, U.rows, 0)
    K = Matrix.hstack([U, -V]).integral_kernel()
    return U @ K.submatrix(range(U.cols), range(K.cols))


def _preimage(A: Matrix, W: Matrix) -> Matrix:
    """Basis of {v : A v in colspace(W)}."""
    ann = W.transpose().integral_kernel().transpose()
    if ann.rows == 0:
        return Matrix.identity(A.field, A.cols)
    return (ann @ A).integral_kernel()


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
    out = [A.integral_kernel()]
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
    map is block upper triangular: one solve, of F2 T = [a F1 | b F1], gives
    both maps side by side, each with the submodule as its top-left block
    and the quotient as its bottom-right block.
    """
    if U1.cols == 0:
        return Counter(), M
    A, B = M.maps
    U2 = _colspace(Matrix.hstack([A @ U1, B @ U1]))
    F1 = _complete_basis(U1, M.dim1)
    F2 = _complete_basis(U2, M.dim2)
    k1, k2, n1 = U1.cols, U2.cols, M.dim1
    T = F2.solve(Matrix.hstack([A @ F1, B @ F1]))
    subs = [T.submatrix(range(k2), range(o, o + k1)) for o in (0, n1)]
    quots = [T.submatrix(range(k2, M.dim2), range(o + k1, o + n1)) for o in (0, n1)]
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
    """Primary block multiset of the module (id, C), for C at least 1 x 1."""
    blocks = Counter()
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
    """The canonical module of b. An R_poly block's q is taken as irreducible,
    as it is in every block that decompose_pencil returns; build_R checks
    it for other callers."""
    if b.kind == "P":
        return build_P(b.n, field)
    if b.kind == "Q":
        return build_Q(b.n, field)
    return build_R(b, field, check=False)


def certify_pencil(M: KroneckerModule):
    """(blocks, F1, F2): the block multiset of a d = 2 module and an isomorphism
    from D = reassemble(blocks) onto M, i.e. invertible F1, F2 with
    m F1 = F2 d_m for each arrow m of M and d_m of D.

    A literal canonical shape is D itself, with (I, I) and no elimination.
    Otherwise three peels take off the Q blocks on X*(a, b) ∩ X*(b, a) (the
    limits add the R_mono and the R_poly(x^e) blocks respectively), then the
    P blocks the same way on the transposed quotient, then the R_mono blocks
    on X*(a, b); a^{-1} b on what remains gives the R_poly blocks. The
    isomorphism is then drawn from Hom(D, M) (_isomorphism); one exists only
    if M ≅ D, so a wrong multiset raises CertificateError instead of being
    returned.
    """
    if M.d != 2:
        raise PreconditionError("pencil decomposition is defined for d = 2")
    fast = _fast_path(M)
    if fast is not None and fast[1]:
        return fast[0], Matrix.identity(M.field, M.dim1), Matrix.identity(M.field, M.dim2)
    blocks = fast[0] if fast is not None else _peeled_blocks(M)
    return (blocks, *_isomorphism(M, blocks))


def decompose_pencil(M: KroneckerModule) -> Counter:
    """Block multiset of a d = 2 module, returned only with a checked
    isomorphism certificate (certify_pencil)."""
    return certify_pencil(M)[0]


def _peeled_blocks(M: KroneckerModule) -> Counter:
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
    return blocks


def _fast_path(M: KroneckerModule):
    """(blocks, literal) for the zero module and the canonical shapes that
    classify_standard recognises, else None. literal says that M equals
    reassemble(blocks); a companion matrix with several distinct factors
    is not literal."""
    if M.dim == 0:
        return Counter(), True
    kind = classify_standard(M)
    if kind is None:
        return None
    if kind[0] == "R_poly":
        factors = factor_monic(M.field, kind[1])
        return (Counter({PencilBlock("R_poly", poly=q, e=e): 1 for q, e in factors}),
                len(factors) == 1)
    return Counter({PencilBlock(*kind): 1}), True


def _layout(blocks: Counter) -> list:
    """The block of each summand of reassemble(blocks), in order."""
    return [b for b in sorted(blocks, key=lambda b: (b.kind, b.n, b.e, b.poly))
            for _ in range(blocks[b])]


def reassemble(blocks: Counter, field) -> KroneckerModule:
    return direct_sum([block_module(b, field) for b in _layout(blocks)], field=field)


# -- isomorphism certificate -------------------------------------------------------

DRAW_BUDGET = 64
_COEFF_SPAN = 1 << 15          # random coefficients over Q lie in [-span, span]


def _draw_key(b: PencilBlock):
    """Draw order: Q by ascending n, each tube longest first, P by descending n.

    Hom(B, B') vanishes whenever B comes before B' here, except within a
    tube, so a dependent column of a draw shows first in the block whose
    own part of the draw is singular (see _isomorphism).
    """
    if b.kind == "Q":
        return (0, (), b.n)
    if b.kind == "P":
        return (2, (), -b.n)
    return (1, b.poly, -(b.n + b.e))


def _isomorphism(M: KroneckerModule, blocks: Counter):
    """Invertible (F1, F2) with m F1 = F2 d_m per arrow, D = reassemble(blocks).

    D is block diagonal, so Hom(D, M) is the direct sum of Hom(B, M) over
    its summands B, and one PresolvedHom per distinct block B solves it.
    The columns of F1 and F2 that belong to a summand of type B are one
    random combination of the kernel basis of Hom(B, M), seeded by a
    digest of M so that runs replay; the pair is accepted only when both
    sides have full rank and every arrow intertwines. With the columns of
    D in draw order (_draw_key), one pivot_columns() call per side finds
    the first dependent column, and the next draw renews only the summand
    that owns it (of the two sides' summands, the one earlier in draw
    order). An empty Hom(B, M) for a summand B, or DRAW_BUDGET failed
    draws, raises CertificateError.
    """
    fld = M.field
    inst = _layout(blocks)
    mods = {b: block_module(b, fld) for b in inst}
    D = direct_sum([mods[b] for b in inst], d=2, field=fld)
    if (D.dim1, D.dim2) != (M.dim1, M.dim2):
        raise CertificateError(f"blocks of dims {D.dim1}x{D.dim2} cannot make up "
                               f"a module of dims {M.dim1}x{M.dim2}")
    homs = {}
    for b, X in mods.items():
        homs[b] = PresolvedHom(X, M)
        if not homs[b].kernel.cols:
            raise CertificateError(f"Hom({b.describe()}, M) = 0, so M is not the sum "
                                   "of the claimed blocks")
    position = {s: r for r, s in enumerate(sorted(range(len(inst)),
                                                  key=lambda s: _draw_key(inst[s])))}
    own = {"f": [], "g": []}           # the summand owning each column of D
    for s, b in enumerate(inst):
        dv = b.dim_vector()
        own["f"] += [s] * dv.d1
        own["g"] += [s] * dv.d2
    orders = [sorted(range(len(own[side])), key=lambda c: position[own[side][c]])
              for side in ("f", "g")]
    digest = hashlib.blake2b(M.to_text().encode(), digest_size=16).digest()
    rng = random.Random(digest)

    def draw(hom, count):
        """count random pairs (f, g) of the Hom space that hom solves."""
        K = hom.kernel
        C = Matrix.from_entries(fld, K.cols, count, (
            (t, s, rng.randrange(fld.q) if fld.char else rng.randint(-_COEFF_SPAN, _COEFF_SPAN))
            for s in range(count) for t in range(K.cols)))
        return hom.pairs(K @ C)

    # homs is in layout order, and _layout puts equal blocks next to each other
    parts = [pair for b, hom in homs.items() for pair in draw(hom, blocks[b])]
    for _ in range(DRAW_BUDGET):
        F1 = Matrix.hstack([f for f, _ in parts])
        F2 = Matrix.hstack([g for _, g in parts])
        bad = [own[side][order[i]] for side, F, order in zip("fg", (F1, F2), orders)
               if (i := _first_dependent(F, order)) is not None]
        if not bad:
            if all(m @ F1 == F2 @ dm for m, dm in zip(M.maps, D.maps)):
                return F1, F2
            raise CertificateError("a drawn homomorphism does not intertwine the arrows")
        worst = min(bad, key=position.get)
        parts[worst] = draw(homs[inst[worst]], 1)[0]
    raise CertificateError(f"no isomorphism onto M found in {DRAW_BUDGET} draws")


def _first_dependent(F: Matrix, order):
    """Position in order of the first column of F (square) that depends on
    the columns before it, or None when F is invertible."""
    piv = F.submatrix(range(F.rows), order).pivot_columns()
    if len(piv) == F.cols:
        return None
    return next((i for i, p in enumerate(piv) if p != i), len(piv))
