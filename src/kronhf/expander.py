"""Dimension-expander checks and the induced non-hyperfiniteness bounds.

Over a prime field every subspace of small dimension is enumerated through
canonical reduced-row-echelon generator matrices; over the rationals the
check samples random subspaces, where a refutation is definitive and a pass
is only empirical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import combinations

from .errors import DomainError, GuardRefusal, ShapeError, ValidationError
from .fields import PrimeField
from .matrices import Matrix, column_space_dim_of_stack
from .modules import KroneckerModule
from .quiver import build_gamma, components
from .witness import Witness, verify_witness


@dataclass
class ExpanderCandidate:
    field: object
    n: int
    maps: list
    eta: Fraction
    alpha: Fraction

    def __post_init__(self):
        if not (0 < self.eta <= 1):
            raise ValidationError("eta must lie in (0, 1]")
        if self.alpha <= 0:
            raise ValidationError("alpha must be positive")
        for m in self.maps:
            if m.field != self.field:
                raise ValidationError("map field mismatch")
            if (m.rows, m.cols) != (self.n, self.n):
                raise ShapeError("expander maps must be square of size n")

    @classmethod
    def from_module(cls, M: KroneckerModule, eta: Fraction, alpha: Fraction):
        if M.dim1 != M.dim2:
            raise ShapeError("expander candidate needs equal dimensions at both vertices")
        return cls(M.field, M.dim1, list(M.maps), eta, alpha)


@dataclass
class ExpansionReport:
    verdict: str  # proved | refuted | sampled-pass
    eta: Fraction
    alpha: Fraction
    worst_ratio: object = None
    witness: Matrix | None = None
    subspaces_checked: int = 0
    method: str = ""
    seed: int | None = None
    notes: dict = dc_field(default_factory=dict)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def enumerate_subspaces(field: PrimeField, n: int, k: int, reverse: bool = False):
    """Canonical k x n RREF generator matrices, lexicographic in
    (pivot columns, free entries); reverse flips the order."""
    q = field.q
    pivot_sets = list(combinations(range(n), k))
    if reverse:
        pivot_sets = pivot_sets[::-1]
    for pivots in pivot_sets:
        pivset = set(pivots)
        free = [(i, c) for i in range(k) for c in range(pivots[i] + 1, n)
                if c not in pivset]
        total = q ** len(free)
        values = range(total - 1, -1, -1) if reverse else range(total)
        for code in values:
            ent = [(i, p, field.one) for i, p in enumerate(pivots)]
            rem = code
            for slot in reversed(range(len(free))):
                rem, v = divmod(rem, q)
                if v:
                    i, c = free[slot]
                    ent.append((i, c, v))
            yield Matrix.from_entries(field, k, n, ent)


def _image_dim(cand: ExpanderCandidate, W: Matrix) -> int:
    """dim of sum of T_i(W) for the row-span W (k x n generator matrix)."""
    wt = W.transpose()
    return column_space_dim_of_stack([m @ wt for m in cand.maps])


def check_exhaustive(cand: ExpanderCandidate, guard: int = 10 ** 7,
                     reverse: bool = False) -> ExpansionReport:
    """Decide the (eta, alpha) expansion property over a prime field."""
    if not isinstance(cand.field, PrimeField):
        raise ValidationError("exhaustive check requires a prime field")
    kmax = int(cand.eta * cand.n)
    total = sum(gaussian_binomial(cand.n, k, cand.field.q) for k in range(1, kmax + 1))
    if total > guard:
        raise GuardRefusal(f"{total} subspaces exceed the guard of {guard}")
    checked = 0
    worst = None
    ks = range(kmax, 0, -1) if reverse else range(1, kmax + 1)
    for k in ks:
        for W in enumerate_subspaces(cand.field, cand.n, k, reverse=reverse):
            checked += 1
            dim_sum = _image_dim(cand, W)
            ratio = Fraction(dim_sum, k)
            if worst is None or ratio < worst:
                worst = ratio
            if Fraction(dim_sum) < (1 + cand.alpha) * k:
                return ExpansionReport("refuted", cand.eta, cand.alpha, ratio, W,
                                       checked, "exhaustive",
                                       notes={"expected_total": total})
    return ExpansionReport("proved", cand.eta, cand.alpha, worst, None, checked,
                           "exhaustive", notes={"expected_total": total})


def check_sampled_rational(cand: ExpanderCandidate, trials: int, max_entry: int = 9,
                           seed: int = 0) -> ExpansionReport:
    """Sample random rational subspaces; refutation is definitive, a pass is not."""
    if trials < 1:
        raise DomainError("trials >= 1")
    kmax = max(1, int(cand.eta * cand.n))
    rng = random.Random(seed)
    worst = None
    checked = 0
    for trial in range(trials):
        k = 1 + trial % kmax
        while True:
            W = Matrix.from_dense(cand.field, [
                [rng.randint(-max_entry, max_entry) for _ in range(cand.n)]
                for _ in range(k)])
            if W.rank() == k:
                break
        checked += 1
        dim_sum = _image_dim(cand, W)
        ratio = Fraction(dim_sum, k)
        if worst is None or ratio < worst:
            worst = ratio
        if Fraction(dim_sum) < (1 + cand.alpha) * k:
            return ExpansionReport("refuted", cand.eta, cand.alpha, ratio, W,
                                   checked, "sampled", seed)
    return ExpansionReport("sampled-pass", cand.eta, cand.alpha, worst, None,
                           checked, "sampled", seed)


# -- bounds ---------------------------------------------------------------------


def nonhf_epsilon_bound(alpha: Fraction) -> Fraction:
    """Every witness for an (eta, alpha)-expander module needs eps >= alpha / (2 (1 + alpha))."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return alpha / (2 * (1 + alpha))


def weak_nonhf_epsilon_bound(alpha: Fraction) -> Fraction:
    """Weak-witness analogue: eps >= alpha / (6 + 4 alpha)."""
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    return alpha / (6 + 4 * alpha)


# -- witness refutation ------------------------------------------------------------


@dataclass
class RefutationReport:
    verdict: str  # contradiction | expander-counterexample | not-a-submodule |
    #               witness-invalid | inconclusive
    detail: str = ""
    part_index: int | None = None
    counterexample: Matrix | None = None
    chain: dict = dc_field(default_factory=dict)


def refute_witness(M: KroneckerModule, w: Witness, eta: Fraction,
                   alpha: Fraction) -> RefutationReport:
    """Play a claimed witness against the expansion property.

    If every part is a genuinely embedded small submodule whose source space
    expands, the summed inequality forces eps >= alpha / (2 (1 + alpha)),
    contradicting the witness's claimed eps; a part that fails to expand is
    emitted as an expander counterexample instead.
    """
    if M.dim1 != M.dim2:
        return RefutationReport("inconclusive", "module is not expander-induced (dims differ)")
    n = M.dim1
    bound = nonhf_epsilon_bound(alpha)
    if w.eps >= bound:
        return RefutationReport(
            "inconclusive", f"claimed eps {w.eps} is not below the bound {bound}")
    for idx, p in enumerate(w.parts):
        # the expander definition applies to W = P_j(1), so that is the space
        # that must be small; the stronger bound dim P_j < eta * n implies it
        if Fraction(p.module.dim1) > eta * n:
            return RefutationReport(
                "inconclusive",
                f"part {idx} has source dim {p.module.dim1} > eta * n", idx)
    for idx, p in enumerate(w.parts):
        src = p.emb1  # n x k1 basis of P_j(1) inside V
        snk_dim = p.module.dim2
        images = [m @ src for m in M.maps]
        img_dim = column_space_dim_of_stack(images) if src.cols else 0
        inside = column_space_dim_of_stack(images + [p.emb2]) if src.cols else p.emb2.rank()
        if inside > p.emb2.rank():
            return RefutationReport(
                "not-a-submodule",
                f"part {idx}: sum of T_i(P(1)) is not contained in P(2)", idx)
        if Fraction(img_dim) < (1 + alpha) * src.cols:
            return RefutationReport(
                "expander-counterexample",
                f"part {idx}: dim sum T_i(W) = {img_dim} < (1 + {alpha}) * {src.cols}",
                idx, src)
    rep = verify_witness(M, w)
    if not rep.ok:
        return RefutationReport("witness-invalid", f"{rep.clause}: {rep.detail}")
    sum1 = sum(p.module.dim1 for p in w.parts)
    sum2 = sum(p.module.dim2 for p in w.parts)
    implied = Fraction(2 * n - sum1 - sum2, 2 * n)
    chain = {
        "sum_dim1": sum1,
        "sum_dim2": sum2,
        "dim_v": n,
        "claimed_eps": str(w.eps),
        "implied_eps_lower_bound": str(bound),
        "witness_eps_actual": str(implied),
    }
    return RefutationReport(
        "contradiction",
        "a valid witness with expanding parts cannot have eps below "
        f"{bound}; the claimed eps {w.eps} is impossible",
        chain=chain)


# -- best-epsilon search -------------------------------------------------------------


@dataclass
class BestEpsReport:
    eps: Fraction
    partial: bool
    kept_sources: list
    detail: str = ""


def empirical_best_epsilon(M: KroneckerModule, l_eps: int,
                           budget: int = 100_000) -> BestEpsReport:
    """Smallest eps over enumerated monomial decompositions with parts <= l_eps.

    Searches subsets of the standard source basis (largest first); every sink
    is always kept since isolated sinks form valid size-1 parts. The result
    upper-bounds the true infimum; a budget exhaustion is flagged partial.
    """
    if M.dim == 0:
        return BestEpsReport(Fraction(0), False, [])
    adj = build_gamma(M).adjacency()
    sinks = [(1, i) for i in range(M.dim2)]
    n1 = M.dim1
    spent = 0
    best = None
    for k in range(n1, -1, -1):
        for subset in combinations(range(n1), k):
            spent += 1
            if spent > budget:
                eps = best if best is not None else Fraction(M.dim1, M.dim)
                return BestEpsReport(eps, True, [],
                                     detail=f"budget {budget} exhausted")
            kept = [(0, j) for j in subset] + sinks
            if all(len(c) <= l_eps for c in components(adj, kept)):
                eps = Fraction(M.dim1 - k, M.dim)
                return BestEpsReport(eps, False, list(subset))
    return BestEpsReport(Fraction(M.dim1, M.dim), False, [])
