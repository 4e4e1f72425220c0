"""Irreducible p-dimensional representations of SL(2,p) and Kazhdan brackets.

The group acts on the projective line over F_p by Moebius transformations;
the permutation representation on C^(p+1) restricts to the sum-zero
hyperplane W, and in the difference basis w_i = e_{i+1} - e_i the restricted
generators are integer matrices with entries in {-1, 0, 1}. Irreducibility
is decided exactly over Q from the dimension of the commutant of the
generators: in n unknowns, the coefficients of a polynomial in s, when a
Krylov matrix of s has full rank, and otherwise as the kernel of the
presolved Hom system of a Kronecker module (modules.PresolvedHom) in n^2
unknowns. Spectral estimates for the adjoint action on trace-zero matrices
run in floating point (numpy) on an orthonormal transport of the same
representation.

numpy binds on the first spectral call: each float routine imports it
inside its body, so importing this module, and every exact path through it,
never loads numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import DomainError, ValidationError
from .fields import QQ, is_prime
from .matrices import Matrix, _eliminate
from .modules import KroneckerModule, PresolvedHom

if TYPE_CHECKING:
    import numpy as np


@dataclass(frozen=True)
class SL2pElement:
    p: int
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")
        for x in (self.a, self.b, self.c, self.d):
            if not (0 <= x < self.p):
                raise ValidationError("entries must be reduced residues")
        if (self.a * self.d - self.b * self.c) % self.p != 1:
            raise ValidationError("determinant must be 1 mod p")

    def __mul__(self, other: "SL2pElement") -> "SL2pElement":
        p = self.p
        return SL2pElement(
            p,
            (self.a * other.a + self.b * other.c) % p,
            (self.a * other.b + self.b * other.d) % p,
            (self.c * other.a + self.d * other.c) % p,
            (self.c * other.b + self.d * other.d) % p,
        )


def gen_s(p: int) -> SL2pElement:
    return SL2pElement(p, 1, 1, 0, 1)


def gen_t(p: int) -> SL2pElement:
    return SL2pElement(p, 0, 1, (-1) % p, 0)


def point_permutation(g: SL2pElement) -> list:
    """sigma[i] = index of the Moebius image (a z + b) / (c z + d) of the i-th
    point of P^1(F_p), in the order 0, 1, ..., p-1, infinity = p. x/0 is
    infinity, and infinity goes to a/c (to itself when c = 0)."""
    p, a, b, c, d = g.p, g.a, g.b, g.c, g.d
    out = []
    for z in range(p):
        den = (c * z + d) % p
        out.append(p if den == 0 else (a * z + b) * pow(den, -1, p) % p)
    out.append(p if c == 0 else a * pow(c, -1, p) % p)
    return out


def restricted_rep(g: SL2pElement) -> Matrix:
    """Matrix of the permutation action on the sum-zero subspace W.

    Basis w_i = e_{i+1} - e_i for i = 1..p; the image of w_i telescopes to a
    contiguous block of +-1 entries, so the matrix is integral.
    """
    p = g.p
    sigma = point_permutation(g)
    entries = []
    for i in range(1, p + 1):  # column i (1-based)
        a, b = sigma[i], sigma[i - 1]
        if a > b:
            for row in range(b + 1, a + 1):  # w_row, 1-based
                entries.append((row - 1, i - 1, QQ.one))
        elif b > a:
            for row in range(a + 1, b + 1):
                entries.append((row - 1, i - 1, -QQ.one))
    return Matrix.from_entries(QQ, p, p, entries)


@dataclass
class IrreducibleRep:
    p: int
    mat_s: Matrix
    mat_t: Matrix


def irreducible_rep(p: int) -> IrreducibleRep:
    """The p-dimensional representation on W, with its invariants checked."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    ms = restricted_rep(gen_s(p))
    mt = restricted_rep(gen_t(p))
    ident = Matrix.identity(QQ, p)
    if mt @ mt != ident:
        raise AssertionError("t matrix must be an involution")
    acc = ident
    for _ in range(p):
        acc = acc @ ms
    if acc != ident:
        raise AssertionError("s matrix must have order p")
    for i in range(p):
        for j in range(p):
            if mt.entry(i, j) != mt.entry(p - 1 - i, p - 1 - j):
                raise AssertionError("t matrix must be centrally symmetric")
    return IrreducibleRep(p, ms, mt)


# -- irreducibility via the commutant -------------------------------------------


def _action(m: Matrix):
    """x -> m x on lists of ints, for an integer matrix m."""
    rows = [tuple(m.row_items(i)) for i in range(m.rows)]
    return lambda x: [sum(a * x[j] for j, a in row) for row in rows]


def _orbit(act, x: list, count: int) -> list:
    """x, act(x), ..., act^(count-1)(x)."""
    out = [x]
    while len(out) < count:
        out.append(act(out[-1]))
    return out


def commutant_dimension(mats) -> int:
    """Exact dimension over Q of {X : X m = m X for all m}.

    Krylov route. Let s = mats[0] and v the all-ones vector. When the
    Krylov matrix K = [v, s v, ..., s^(n-1) v] has rank n over Q, v is a
    cyclic vector of s: s is nonderogatory, and every X that commutes with
    s is sum_j c_j s^j, with c unique (Horn & Johnson, Matrix Analysis,
    2nd ed., section 3.2). Such an X commutes with another generator m iff
    X m - m X kills the basis s^i v, i = 0..n-1, that is iff
    sum_j c_j (s^j m s^i v - m s^(i+j) v) = 0. The commutant is the kernel
    of these equations in the n unknowns c_j, over Q. The identity
    (c = e_0) always solves them, so the nullity is at least 1, and the
    equations are added one i at a time only until it reaches 1. The n
    rows of each i are eliminated with the echelon rows kept from the i
    before, which span every earlier row, not with the whole stack.

    Q route. When K is singular (always so when s is derogatory, and for
    the few nonderogatory s of which v is no cyclic vector), the commutant
    is End of the Kronecker module (I, m_1, ..., m_r) on (Q^n, Q^n): a pair
    (f, g) with g I = I f and g m = m f is X = f = g. Every column of the
    identity arrow has a single entry, so PresolvedHom pins each g column
    to the same f column, and its kernel is X m_k = m_k X in the n^2
    unknowns of X, over Q.
    """
    if not mats:
        raise ValidationError("need at least one matrix")
    n = mats[0].rows
    for m in mats:
        if m.rows != m.cols or m.rows != n:
            raise ValidationError("square matrices of equal size required")
        if m.field != QQ:
            raise ValidationError("commutant solver works over Q")
        for _, _, v in m.entries():
            if v.denominator != 1:
                raise ValidationError("integer matrices expected")
    s = _action(mats[0])
    powers = _orbit(s, [1] * n, 2 * n - 1)        # powers[k] = s^k v
    if Matrix.from_dense(QQ, powers[:n]).rank() < n:
        X = KroneckerModule(len(mats) + 1, QQ, n, n, [Matrix.identity(QQ, n), *mats])
        return PresolvedHom(X, X).kernel.cols
    basis = []                                    # independent rows so far, echelon
    for m in map(_action, mats[1:]):
        images = [m(x) for x in powers[:n - 1]]   # images[k] = m s^k v
        for i in range(n):
            images.append(m(powers[i + n - 1]))
            left = _orbit(s, images[i], n)        # left[j] = s^j m s^i v
            rows = [{j: left[j][r] - images[i + j][r] for j in range(n)
                     if left[j][r] != images[i + j][r]} for r in range(n)]
            stack = Matrix._build(QQ, len(basis) + n, n, basis + rows)
            basis = _eliminate(stack, reduce=False)[1]
            if len(basis) == n - 1:
                return 1
    return n - len(basis)


def is_irreducible(mats) -> bool:
    """True iff the commutant of the rational representation is the scalars.

    On the generators of irreducible_rep(p) the Krylov route of
    commutant_dimension decides, for every p: the all-ones vector is
    e_inf - e_0 in point coordinates, which has a nonzero component on each
    of the p distinct eigenlines of rho_p(s) on W, so it is cyclic.
    """
    return commutant_dimension(mats) == 1


# -- orthogonal transport and the adjoint action ---------------------------------


def orthonormal_w_basis(p: int) -> np.ndarray:
    """(p+1) x p orthonormal basis of the sum-zero subspace (Gram-Schmidt of w_i)."""
    import numpy as np

    diffs = np.zeros((p + 1, p))
    for i in range(p):
        diffs[i, i] = -1.0
        diffs[i + 1, i] = 1.0
    q, _ = np.linalg.qr(diffs)
    return q[:, :p]


def orthogonal_rep(g: SL2pElement) -> np.ndarray:
    """Orthogonal p x p matrix of the permutation action on W."""
    import numpy as np

    p = g.p
    sigma = point_permutation(g)
    perm = np.zeros((p + 1, p + 1))
    for z in range(p + 1):
        perm[sigma[z], z] = 1.0
    u = orthonormal_w_basis(p)
    return u.T @ perm @ u


def _traceless_basis(p: int) -> np.ndarray:
    """Orthonormal basis of trace-zero p x p matrices under <S, T> = tr(S T^t)."""
    import numpy as np

    mats = []
    for i in range(p):
        for j in range(p):
            if i != j:
                e = np.zeros((p, p))
                e[i, j] = 1.0
                mats.append(e)
    prev = []
    for i in range(p - 1):
        d = np.zeros((p, p))
        d[i, i] = 1.0
        d[i + 1, i + 1] = -1.0
        for q in prev:
            d = d - np.sum(d * q) * q
        d = d / math.sqrt(np.sum(d * d))
        prev.append(d)
    return np.array(mats + prev)


def adjoint_rep(rho_g: np.ndarray) -> np.ndarray:
    """Matrix of T -> g T g^(-1) on trace-zero matrices, orthonormal basis.

    Requires an input orthogonal within 1e-8 (covers invertibility); the
    output is again orthogonal within 1e-8.
    """
    import numpy as np

    rho_g = np.asarray(rho_g, dtype=float)
    n = rho_g.shape[0]
    if rho_g.shape != (n, n):
        raise ValidationError("square matrix required")
    if not np.isfinite(rho_g).all():
        raise ValidationError("matrix entries must be finite")
    # written so that a NaN deviation fails
    if not np.max(np.abs(rho_g @ rho_g.T - np.eye(n))) <= 1e-8:
        raise ValidationError("adjoint transport expects an orthogonal matrix")
    basis = _traceless_basis(n)
    images = np.einsum("ij,bjk,lk->bil", rho_g, basis, rho_g)
    out = np.einsum("aij,bij->ab", basis, images)
    if not np.max(np.abs(out @ out.T - np.eye(out.shape[0]))) <= 1e-8:
        raise AssertionError("adjoint matrix failed the orthogonality check")
    return out


@functools.lru_cache(maxsize=8)
def adjoint_generators(p: int) -> tuple:
    """Adjoint action matrices of the two generators on the trace-zero space.

    Built once per p; the arrays are read-only, since every caller shares them."""
    gens = (adjoint_rep(orthogonal_rep(gen_s(p))), adjoint_rep(orthogonal_rep(gen_t(p))))
    for g in gens:
        g.flags.writeable = False
    return gens


# -- Kazhdan bracket ----------------------------------------------------------------


def _float_generators(gens) -> list:
    """The generators as float arrays, checked to be finite square matrices of one size."""
    import numpy as np

    if not gens:
        raise ValidationError("need at least one generator")
    arrays = [np.asarray(g, dtype=float) for g in gens]
    shape = arrays[0].shape
    if (len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0
            or any(g.shape != shape for g in arrays)):
        raise ValidationError("generators must be nonempty square matrices of one size")
    if not all(np.isfinite(g).all() for g in arrays):
        raise ValidationError("generator entries must be finite")
    return arrays


def kazhdan_lower_bound(gens) -> float:
    """sqrt of the smallest eigenvalue of the averaged displacement form.

    For unit v, max_s ||g v - v|| is at least the quadratic mean, whose square
    is v^t [ (1/|S|) sum (I - g)^t (I - g) ] v; the smallest eigenvalue of
    that form lower-bounds the squared Kazhdan constant.
    """
    import numpy as np

    gens = _float_generators(gens)
    n = gens[0].shape[0]
    acc = np.zeros((n, n))
    for g in gens:
        if not np.max(np.abs(g @ g.T - np.eye(n))) <= 1e-8:  # a NaN deviation fails
            raise ValidationError("generators must be orthogonal within 1e-8")
        d = np.eye(n) - g
        acc += d.T @ d
    acc /= len(gens)
    lam = float(np.linalg.eigvalsh((acc + acc.T) / 2.0)[0])
    if lam < 1e-12:  # eigenvalue noise would be amplified by the square root
        return 0.0
    return math.sqrt(lam)


def kazhdan_upper_bound(gens, trials: int = 200, seed: int = 0) -> float:
    """Best displacement max over sampled and coordinate-descended unit vectors.

    Each trial descends greedily from a random unit v. A sweep tries the moves
    v + step e_0, v - step e_0, v + step e_1, ... in that order, each
    renormalised, and accepts a move that lowers the objective by more than
    1e-12; a sweep that accepts none halves the step.

    One numpy pass prices every move of the sweep that is still ahead, from
    G = m^t m for each m = g - I:
    ||m(v + s e_i)||^2 = ||m v||^2 + 2 s (G v)_i + s^2 G_ii and
    ||v + s e_i||^2 = ||v||^2 + 2 s v_i + s^2. The cross term is at most
    ||m v||^2 + s^2 G_ii in size, so taking 2e-12 of that off the price covers
    its rounding. Only moves priced below (val - 1e-12)^2, the square of the
    acceptance threshold, are tried, in sweep order, by the exact step, which
    alone decides: a move the price rules out is one the exact step rejects,
    so the descent takes the same path as trying every move.

    The exact step makes one product Y = stack @ cand and takes
    sqrt(max_k Y_k . Y_k). That is max_k ||m_k cand|| bit for bit: the 3-D
    product runs the same gemv on each slice as m_k @ cand, numpy's norm of
    a real vector is sqrt(x . x), and sqrt is monotone and correctly
    rounded. An accepted move keeps its row dots as the ||m v||^2 of the
    next price and computes G v and v . v once; s^2 G_ii and 2 s change only
    with the step. Both signs are priced by two maxima over the k rows,
    written into one vector of 2n prices, position 2i + 0/1 for e_i +/-.
    On the adjoint generators at p = 5 / 7 / 11 / 13 with 3 / 2 / 1 / 1
    trials this takes 9.9 / 13.0 / 25.8 / 40.4 ms, against 14.1 / 19.2 /
    40.5 / 65.7 ms with an objective call of k norms per candidate and
    every product recomputed per price (shared 2-vCPU Xeon, BLAS on one
    thread, medians of 31); `kronhf sl2p --p 11 --kazhdan` at 200 trials
    takes 4.3 s against 8.0 s.
    """
    import numpy as np

    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    gens = _float_generators(gens)
    n = gens[0].shape[0]
    stack = np.stack([g - np.eye(n) for g in gens])
    gram = np.transpose(stack, (0, 2, 1)) @ stack
    col_sq = np.einsum("kii->ki", gram)
    prices = np.empty(2 * n)
    plus, minus = prices[0::2], prices[1::2]

    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(trials):
        v = rng.standard_normal(n)
        v /= math.sqrt(v.dot(v))
        mv_sq = [y.dot(y) for y in stack @ v]
        val = math.sqrt(max(mv_sq))
        gv, vv = gram @ v, v @ v
        step = 0.5
        while step > 1e-3:
            s2, two_s = step * step, 2.0 * step
            s2_diag = s2 * col_sq
            improved = False
            start = 0
            while start < 2 * n:
                low = (1 - 2e-12) * (np.array(mv_sq)[:, None] + s2_diag)
                cross, shift = two_s * gv, two_s * v
                np.divide(np.maximum.reduce(low + cross), vv + s2 + shift, out=plus)
                np.divide(np.maximum.reduce(low - cross), vv + s2 - shift, out=minus)
                passed = (prices[start:] < (val - 1e-12) ** 2).nonzero()[0]
                for pos in start + passed:
                    i, down = divmod(int(pos), 2)
                    cand = v.copy()
                    cand[i] += -step if down else step
                    cand /= math.sqrt(cand.dot(cand))
                    cand_sq = [y.dot(y) for y in stack @ cand]
                    cv = math.sqrt(max(cand_sq))
                    if cv < val - 1e-12:
                        v, val, mv_sq = cand, cv, cand_sq
                        gv, vv = gram @ v, v @ v
                        improved = True
                        start = pos + 1
                        break
                else:
                    break
            if not improved:
                step /= 2.0
        best = min(best, val)
    return best


@dataclass
class KazhdanEstimate:
    p: int
    lower: float
    upper: float
    dim: int

    @property
    def alpha(self) -> float:
        return self.lower ** 2 / 12.0


def kazhdan_estimate(p: int, trials: int = 200, seed: int = 0) -> KazhdanEstimate:
    gens = adjoint_generators(p)
    lb = kazhdan_lower_bound(gens)
    ub = kazhdan_upper_bound(gens, trials=trials, seed=seed)
    if lb > ub + 1e-8:
        raise AssertionError("lower bound exceeds upper bound; bug")
    return KazhdanEstimate(p, lb, ub, gens[0].shape[0])


# -- the wild counterexample family ---------------------------------------------------


def _over(field, m: Matrix) -> Matrix:
    """An integer matrix over Q with its entries taken in field."""
    if field == QQ:
        return m
    return Matrix.from_entries(field, m.rows, m.cols,
                               ((i, j, field.coerce(v)) for i, j, v in m.entries()))


def theta3_counterexample_module(p: int, field=QQ) -> KroneckerModule:
    """The 3-Kronecker module (identity, rho_p(s), rho_p(t)) on (k^p, k^p).

    Over a prime field this is a reduction experiment, not the rational
    family itself; callers should flag it as such.
    """
    rep = irreducible_rep(p)
    return KroneckerModule(3, field, p, p, [Matrix.identity(field, p),
                                            _over(field, rep.mat_s), _over(field, rep.mat_t)])


def rep_dump_text(p: int) -> str:
    """Fixture format: the s matrix then the t matrix in matrix text form."""
    rep = irreducible_rep(p)
    return rep.mat_s.to_text() + "\n" + rep.mat_t.to_text()
