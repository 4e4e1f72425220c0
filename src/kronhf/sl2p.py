"""Irreducible p-dimensional representations of SL(2,p) and Kazhdan brackets.

The group acts on the projective line over F_p by Moebius transformations;
the permutation representation on C^(p+1) restricts to the sum-zero
hyperplane W, and in the difference basis w_i = e_{i+1} - e_i the restricted
generators are integer matrices with entries in {-1, 0, 1}. Irreducibility
is decided exactly: the commutant of the generators is the endomorphism
space of a Kronecker module, whose dimension comes from the Hom system and
the exact elimination kernel (modules.hom_dimension). Spectral estimates
for the adjoint action on trace-zero matrices run in floating point (numpy)
on an orthonormal transport of the same representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .errors import DomainError, ValidationError
from .fields import QQ, PrimeField, is_prime
from .matrices import Matrix
from .modules import KroneckerModule, hom_dimension


@dataclass(frozen=True)
class ProjPoint:
    """Point of P^1(F_p): a residue 0..p-1 or None for infinity."""

    p: int
    value: int | None

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValidationError(f"{self.p} is not prime")
        if self.value is not None and not (0 <= self.value < self.p):
            raise ValidationError("finite point out of range")

    @property
    def index(self) -> int:
        """Position in the fixed ordering 0, 1, ..., p-1, infinity."""
        return self.p if self.value is None else self.value

    def __repr__(self):
        return f"({'inf' if self.value is None else self.value} : P1(F_{self.p}))"


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


def identity_element(p: int) -> SL2pElement:
    return SL2pElement(p, 1, 0, 0, 1)


def mobius(g: SL2pElement, z: ProjPoint) -> ProjPoint:
    """(a z + b) / (c z + d) with x/0 = infinity and evaluation at infinity a/c."""
    if g.p != z.p:
        raise ValidationError("characteristic mismatch")
    p = g.p
    if z.value is None:
        if g.c % p == 0:
            return ProjPoint(p, None)
        return ProjPoint(p, g.a * pow(g.c, -1, p) % p)
    num = (g.a * z.value + g.b) % p
    den = (g.c * z.value + g.d) % p
    if den == 0:
        return ProjPoint(p, None)
    return ProjPoint(p, num * pow(den, -1, p) % p)


def point_permutation(g: SL2pElement) -> list:
    """sigma[i] = index of the Moebius image of the i-th point."""
    p = g.p
    out = []
    for i in range(p + 1):
        z = ProjPoint(p, None if i == p else i)
        out.append(mobius(g, z).index)
    return out


def permutation_rep(g: SL2pElement) -> Matrix:
    """(p+1) x (p+1) permutation matrix of the projective action over Q."""
    sigma = point_permutation(g)
    return Matrix.from_entries(QQ, g.p + 1, g.p + 1,
                               ((sigma[z], z, QQ.one) for z in range(g.p + 1)))


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
    basis: str = "difference"


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

_SCREEN = PrimeField(2_147_483_647)


def _over(field, m: Matrix) -> Matrix:
    """An integer matrix over Q with its entries taken in field."""
    if field == QQ:
        return m
    return Matrix.from_entries(field, m.rows, m.cols,
                               ((i, j, field.coerce(v)) for i, j, v in m.entries()))


def commutant_dimension(mats) -> int:
    """Exact dimension over Q of {X : X m = m X for all m}.

    The commutant is End of the Kronecker module (I, m_1, ..., m_r) on
    (Q^n, Q^n): a pair (f, g) with g I = I f and g m = m f is X = f = g.
    Its dimension is taken with hom_dimension, first over F_p for the prime
    p = 2^31 - 1. Reducing the integer system mod p can only lower its rank,
    and the identity always commutes, so an answer of 1 there is exact; any
    other answer is recomputed over Q.
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

    def end_dimension(field):
        M = KroneckerModule(len(mats) + 1, field, n, n,
                            [Matrix.identity(field, n)] + [_over(field, m) for m in mats])
        return hom_dimension(M, M)

    return 1 if end_dimension(_SCREEN) == 1 else end_dimension(QQ)


def is_irreducible(mats) -> bool:
    """True iff the commutant of the rational representation is the scalars."""
    return commutant_dimension(mats) == 1


# -- orthogonal transport and the adjoint action ---------------------------------


def orthonormal_w_basis(p: int) -> np.ndarray:
    """(p+1) x p orthonormal basis of the sum-zero subspace (Gram-Schmidt of w_i)."""
    diffs = np.zeros((p + 1, p))
    for i in range(p):
        diffs[i, i] = -1.0
        diffs[i + 1, i] = 1.0
    q, _ = np.linalg.qr(diffs)
    return q[:, :p]


def orthogonal_rep(g: SL2pElement) -> np.ndarray:
    """Orthogonal p x p matrix of the permutation action on W."""
    p = g.p
    sigma = point_permutation(g)
    perm = np.zeros((p + 1, p + 1))
    for z in range(p + 1):
        perm[sigma[z], z] = 1.0
    u = orthonormal_w_basis(p)
    return u.T @ perm @ u


def _traceless_basis(p: int) -> np.ndarray:
    """Orthonormal basis of trace-zero p x p matrices under <S, T> = tr(S T^t)."""
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


def adjoint_rep(rho_g: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Matrix of T -> g T g^(-1) on trace-zero matrices, orthonormal basis.

    Requires an orthogonal input (covers invertibility); the output is again
    orthogonal within tol.
    """
    rho_g = np.asarray(rho_g, dtype=float)
    n = rho_g.shape[0]
    if rho_g.shape != (n, n):
        raise ValidationError("square matrix required")
    if np.max(np.abs(rho_g @ rho_g.T - np.eye(n))) > max(tol, 1e-8):
        raise ValidationError("adjoint transport expects an orthogonal matrix")
    basis = _traceless_basis(n)
    images = np.einsum("ij,bjk,lk->bil", rho_g, basis, rho_g)
    out = np.einsum("aij,bij->ab", basis, images)
    if np.max(np.abs(out @ out.T - np.eye(out.shape[0]))) > 1e-8:
        raise AssertionError("adjoint matrix failed the orthogonality check")
    return out


def adjoint_generators(p: int):
    """Adjoint action matrices of the two generators on the trace-zero space."""
    return [adjoint_rep(orthogonal_rep(gen_s(p))), adjoint_rep(orthogonal_rep(gen_t(p)))]


# -- Kazhdan bracket ----------------------------------------------------------------


def _float_generators(gens) -> list:
    """The generators as float arrays, checked to be square matrices of one size."""
    if not gens:
        raise ValidationError("need at least one generator")
    arrays = [np.asarray(g, dtype=float) for g in gens]
    shape = arrays[0].shape
    if (len(shape) != 2 or shape[0] != shape[1] or shape[0] == 0
            or any(g.shape != shape for g in arrays)):
        raise ValidationError("generators must be nonempty square matrices of one size")
    return arrays


def kazhdan_lower_bound(gens, tol: float = 1e-8) -> float:
    """sqrt of the smallest eigenvalue of the averaged displacement form.

    For unit v, max_s ||g v - v|| is at least the quadratic mean, whose square
    is v^t [ (1/|S|) sum (I - g)^t (I - g) ] v; the smallest eigenvalue of
    that form lower-bounds the squared Kazhdan constant.
    """
    gens = _float_generators(gens)
    n = gens[0].shape[0]
    acc = np.zeros((n, n))
    for g in gens:
        if np.max(np.abs(g @ g.T - np.eye(n))) > tol:
            raise ValidationError("generators must be orthogonal within tol")
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
    its rounding. Only moves priced below (val - 1e-12 + 1e-9)^2 are tried,
    in sweep order, by the exact step, which alone decides: a move the price
    rules out is one the exact step rejects, so the descent takes the same
    path as trying every move.
    """
    if trials < 1:
        raise ValidationError(f"trials must be at least 1, got {trials}")
    gens = _float_generators(gens)
    n = gens[0].shape[0]
    stack = np.stack([g - np.eye(n) for g in gens])
    gram = np.transpose(stack, (0, 2, 1)) @ stack
    col_sq = np.einsum("kii->ki", gram)

    def objective(v):
        return max(float(np.linalg.norm(m @ v)) for m in stack)

    def screen(v, step, val, start):
        """Sweep positions >= start that may pass; position 2i + 0/1 is e_i +/-."""
        mv = stack @ v
        low = (1 - 2e-12) * (np.einsum("ki,ki->k", mv, mv)[:, None] + step * step * col_sq)
        move = np.array([2.0 * step, -2.0 * step])
        num = np.maximum.reduce(low[:, :, None] + (gram @ v)[:, :, None] * move)
        price = num / (v @ v + step * step + v[:, None] * move)
        return start + np.flatnonzero(price.ravel()[start:] < (val - 1e-12 + 1e-9) ** 2)

    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(trials):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        val = objective(v)
        step = 0.5
        while step > 1e-3:
            improved = False
            start = 0
            while start < 2 * n:
                for pos in screen(v, step, val, start):
                    i, minus = divmod(int(pos), 2)
                    cand = v.copy()
                    cand[i] += -step if minus else step
                    cand /= np.linalg.norm(cand)
                    cv = objective(cand)
                    if cv < val - 1e-12:
                        v, val = cand, cv
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
    generators: str = "s, t on trace-zero matrices"

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
