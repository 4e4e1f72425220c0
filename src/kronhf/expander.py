"""Dimension-expander checks and the induced non-hyperfiniteness bounds.

Over a prime field every subspace of small dimension is enumerated through
canonical reduced-row-echelon generator matrices; over the rationals the
check samples random subspaces, where a refutation is definitive and a pass
is only empirical.
"""

from __future__ import annotations

import operator
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


def _stacked_image_dim(W: Matrix, maps_t: list) -> int:
    """dim sum T_i(W) for the row span W of a k x n matrix, given the
    transposes T_i^t of the maps: the rank of the dk x n row stack of the
    W T_i^t, whose rows are the T_i w_j."""
    return Matrix.vstack([W @ t for t in maps_t]).rank()


class _PackedImages:
    """The images T_1(w), ..., T_d(w) of one vector w of F_q^n, packed into one int.

    Entry s of T_j(w) sits in bits (j*n + s)*B .. (j*n + s)*B + B - 1, and
    ``add`` adds two reduced packed values mod q entrywise in whole-int
    operations. Over GF(2), B = 1 and ``add`` is XOR. Over odd q, B leaves
    one bit to spare above q - 1, and ``add`` is _add_mod_q. T_j(w) is
    linear in w: the packed images of e_c, one int per column c, generate
    every other by ``add`` and ``scale``.

    At B = 1 every nonzero entry is 1, so the eliminations below never call
    ``scale`` or ``pow``: a leading coefficient is 1, and q - c is 1.
    """

    def __init__(self, cand: ExpanderCandidate):
        q, n, d = cand.field.q, cand.n, len(cand.maps)
        if q == 2:
            B, self.add = 1, operator.xor
        else:
            B, self.add = (q - 1).bit_length() + 1, self._add_mod_q
            unit = sum(1 << (s * B) for s in range(n * d))
            self.high = unit << (B - 1)       # the spare bit of every entry
            self.bias = unit * ((1 << (B - 1)) - q)
            self.spare = B - 1
        self.q, self.n = q, n
        self.entry = (1 << B) - 1
        self.vec = (1 << (n * B)) - 1
        self.offsets = [j * n * B for j in range(d)]
        # bit length of a nonzero packed value -> shift of its highest nonzero entry
        self.lead = [0] + [(b - 1) // B * B for b in range(1, n * d * B + 1)]
        self.columns = [0] * n
        for j, m in enumerate(cand.maps):
            for r, c, v in m.entries():
                self.columns[c] += (v % q) << ((j * n + r) * B)

    def _add_mod_q(self, a: int, b: int) -> int:
        """Entrywise (a + b) mod q for odd q: an entry of a + b is at most
        2q - 2 < 2^B, and adding 2^(B-1) - q sets its spare bit exactly when
        it is >= q."""
        t = a + b
        return t - (((t + self.bias) & self.high) >> self.spare) * self.q

    def scale(self, v: int, f: int) -> int:
        """f * v mod q for 0 < f < q, by doubling; the first multiple taken is
        assigned, not added to zero."""
        add = self.add
        out = v if f & 1 else 0
        f >>= 1
        while f:
            v = add(v, v)
            if f & 1:
                out = add(out, v) if out else v
            f >>= 1
        return out

    def echelon(self, images: int, cap: int) -> dict:
        """Rows spanning the d packed vectors of ``images``, keyed by the shift of
        their highest nonzero entry, which is 1, or the first ``cap`` of them.

        The elimination stops once it holds ``cap`` rows, so it returns
        min(cap, rank) rows: a result of ``cap`` rows says only that the rank
        is at least ``cap`` (its last row is left unscaled), and a shorter
        one holds all the rows."""
        q, lead, vec, scale, add = self.q, self.lead, self.vec, self.scale, self.add
        rows = {}
        for off in self.offsets:
            v = (images >> off) & vec
            while v:
                sh = lead[v.bit_length()]
                c = v >> sh
                r = rows.get(sh)
                if r is None:
                    if len(rows) + 1 == cap:
                        rows[sh] = v
                        return rows
                    rows[sh] = v if c == 1 else scale(v, pow(c, -1, q))
                    break
                v = add(v, r if c == q - 1 else scale(r, q - c))
        return rows

    def spans(self, vectors: list, target: int) -> bool:
        """Whether ``target`` lies in the span of ``vectors``, all packed
        values of d * n entries: one elimination of ``vectors``, then
        ``target`` reduced by its rows. With ``target`` the images of a row's
        pivot column and ``vectors`` those of its free columns, this says
        whether some option of the row has images that all vanish."""
        q, lead, scale, add = self.q, self.lead, self.scale, self.add
        rows = {}
        for v in vectors:
            while v:
                sh = lead[v.bit_length()]
                c = v >> sh
                r = rows.get(sh)
                if r is None:
                    rows[sh] = v if c == 1 else scale(v, pow(c, -1, q))
                    break
                v = add(v, r if c == q - 1 else scale(r, q - c))
        v = target
        while v:
            sh = lead[v.bit_length()]
            r = rows.get(sh)
            if r is None:
                return False
            c = v >> sh
            v = add(v, r if c == q - 1 else scale(r, q - c))
        return True

    def reduce(self, images: int, order: list) -> int:
        """Kill the entries of every packed vector of ``images`` at the leading
        positions of the (shift, row) pairs of ``order``, taken by shift
        descending, by subtracting multiples of the rows. The map is linear with
        kernel the span of the rows, so the rank of reduced vectors is their
        rank modulo that span."""
        q, entry, scale, add = self.q, self.entry, self.scale, self.add
        for off in self.offsets:
            for sh, r in order:
                c = (images >> (off + sh)) & entry
                if c:
                    images = add(images, (r if c == q - 1 else scale(r, q - c)) << off)
        return images

    def options(self, images: int, steps: list, digits: list):
        """Odometer over the digits of one row, from all zeros, last digit
        fastest: yields the packed images of each option, with ``digits``
        set to its digits; stepping a digit adds steps[pos], the images of
        its column."""
        q, add = self.q, self.add
        digits[:] = [0] * len(steps)
        for _ in range(q ** len(steps)):
            yield images
            pos = len(steps) - 1
            while pos >= 0:
                images = add(images, steps[pos])
                v = digits[pos] + 1
                if v < q:
                    digits[pos] = v
                    break
                digits[pos] = 0
                pos -= 1

    def scan(self, k: int, need: int):
        """Walk the k-dimensional subspaces in canonical order (see
        check_exhaustive) until one has dim sum T_i(W) < need.

        Returns (subspaces decided, least dim sum T_i(W) over them, RREF entries
        of the failing W or None). Row i of W is e_p + sum of digit * e_c over
        its free columns c. Its images are kept reduced modulo the span of the
        images of rows 0..i-1 (the prefix), of dimension base, and updated by
        one column per odometer step.

        Bound: U inside W gives sum T_i(U) inside sum T_i(W), and every W below
        a prefix contains its span, so has dim sum T_i(W) >= base. Once the
        images of rows 0..i span at least the least dimension seen so far,
        which is >= need while the walk runs, no W below lowers it or fails,
        so the walk skips them. So each echelon only has to tell whether the
        rank of the reduced images of row i reaches cap = least - base, and
        stops once it holds cap rows; only a shorter result, the full rows,
        is used further.

        Decided prefix: a complete W (i == k), or one with least - base == 1.
        Below it only a W of dimension base can lower least, and it does so
        exactly when every row i.. takes an option whose images all vanish.
        Such a row leaves the reduced columns unchanged, so the rows are
        independent, and row j has such an option exactly when its pivot
        column's images lie in the span of its free columns' images: one span
        test per row decides the whole subtree. If all pass, least becomes
        base; if base < need too, the first failing W takes each row's first
        vanishing option. Every other prefix goes through the row loop.

        The count, the least dimension, the order and the first failing W are
        those of the walk that computes every image.
        """
        q, n, echelon, reduce, options = self.q, self.n, self.echelon, self.reduce, self.options
        spans = self.spans
        least = n + 1                 # above every dim sum T_i(W) inside F_q^n

        def walk(i, cols, base):
            # cols[c]: images of e_c reduced modulo the prefix, rows 0..i-1, of dim
            # base. Returns the position below the prefix of the first W with
            # dim sum T_i(W) < need, or None if there is none
            nonlocal least
            if i == k or least - base == 1:
                if not all(spans([cols[c] for c in frees[j]], cols[pivots[j]])
                           for j in range(i, k)):
                    return None
                least = base
                if base >= need:
                    return None
                count = 1             # the first failing W: each row's first vanishing option
                for j in range(i, k):
                    row = options(cols[pivots[j]], [cols[c] for c in frees[j]], digit_rows[j])
                    count += sizes[j + 1] * next(index for index, v in enumerate(row) if not v)
                return count
            row = options(cols[pivots[i]], [cols[c] for c in frees[i]], digit_rows[i])
            for index, images in enumerate(row):
                cap = least - base
                if cap <= 0:
                    return None
                rows = echelon(images, cap)
                if len(rows) == cap:
                    continue
                nxt = cols
                if rows and i + 1 < k:
                    # rows i+1.. only read columns from their own pivot on
                    after, order = pivots[i + 1], sorted(rows.items(), reverse=True)
                    nxt = cols[:after] + [reduce(c, order) if c else 0 for c in cols[after:]]
                count = walk(i + 1, nxt, base + len(rows))
                if count is not None:
                    return index * sizes[i + 1] + count
            return None

        walked = 0
        for pivots in combinations(range(n), k):
            pivset = set(pivots)
            frees = [[c for c in range(p + 1, n) if c not in pivset] for p in pivots]
            # sizes[i]: the number of W that share a given choice of rows 0..i-1
            sizes = [q ** sum(map(len, frees[i:])) for i in range(k + 1)]
            digit_rows = [[] for _ in pivots]
            count = walk(0, self.columns, 0)
            if count is not None:
                entries = [(i, p, 1) for i, p in enumerate(pivots)]
                entries += [(i, c, v) for i in range(k)
                            for c, v in zip(frees[i], digit_rows[i]) if v]
                return walked + count, least, entries
            walked += sizes[0]
        return walked, least, None


def check_exhaustive(cand: ExpanderCandidate, guard: int = 10 ** 7) -> ExpansionReport:
    """Decide the (eta, alpha) expansion property over a prime field.

    Subspaces W of dimension k = 1..floor(eta n) are walked by k ascending,
    each k in canonical order: by the k x n reduced row echelon generator
    matrix of W, lexicographic in (pivot columns, free entries), the first
    row's free entries most significant and, within a row, the leftmost
    free entry most significant. A refutation reports the first W in that
    order with dim sum T_i(W) < (1 + alpha) k.

    The walk skips every W whose first RREF rows already have images of
    dimension at least the least dim sum T_i(W) seen at that k, since such a
    W contains them. Each elimination stops once its rank reaches that
    bound. First rows whose images span one dimension less than that least
    are decided, with every W below them, by one span test per remaining
    row (see _PackedImages.scan). ``subspaces_checked`` counts the
    subspaces decided, most of them by the bound or the span tests: all of
    them for a proof, and those up to the first failing W for a refutation.
    The order, the first failing W and ``worst_ratio`` are those of a walk
    that computes every image.
    """
    if not isinstance(cand.field, PrimeField):
        raise ValidationError("exhaustive check requires a prime field")
    kmax = int(cand.eta * cand.n)
    total = sum(gaussian_binomial(cand.n, k, cand.field.q) for k in range(1, kmax + 1))
    if total > guard:
        raise GuardRefusal(f"{total} subspaces exceed the guard of {guard}")
    alpha = Fraction(cand.alpha)
    packed = _PackedImages(cand)
    checked = 0
    worst = None                  # (dim, k) of the least ratio dim / k
    for k in range(1, kmax + 1):
        # dim < (1 + alpha) k  <=>  dim < need, the ceiling of (1 + alpha) k
        need = -(-(alpha.denominator + alpha.numerator) * k // alpha.denominator)
        walked, least, entries = packed.scan(k, need)
        checked += walked
        if worst is None or least * worst[1] < worst[0] * k:
            worst = (least, k)
        if entries is not None:
            W = Matrix.from_entries(cand.field, k, cand.n, entries)
            return ExpansionReport("refuted", cand.eta, cand.alpha, Fraction(least, k), W,
                                   checked, notes={"expected_total": total})
    return ExpansionReport("proved", cand.eta, cand.alpha,
                           None if worst is None else Fraction(*worst), None, checked,
                           notes={"expected_total": total})


SAMPLED_MAX_ENTRY = 9


def check_sampled_rational(cand: ExpanderCandidate, trials: int,
                           seed: int = 0) -> ExpansionReport:
    """Sample random rational subspaces; refutation is definitive, a pass is not.

    Trial t draws a k x n integer matrix W of rank k = 1 + t mod floor(eta n),
    entries uniform in -SAMPLED_MAX_ENTRY..SAMPLED_MAX_ENTRY, redrawn until
    its rank is k, and takes dim sum T_i(W) as the rank of the dk x n row
    stack of the W T_i^t (_stacked_image_dim), with each map transposed once
    per call.
    The first W with dim sum T_i(W) < (1 + alpha) k refutes; otherwise the
    report passes with the least ratio dim / k seen.
    """
    if trials < 1:
        raise DomainError("trials >= 1")
    kmax = int(cand.eta * cand.n)
    if kmax == 0:
        # no nonzero subspace has dimension <= eta * n: the property holds vacuously
        return ExpansionReport("sampled-pass", cand.eta, cand.alpha, None, None, 0, seed)
    rng = random.Random(seed)
    maps_t = [m.transpose() for m in cand.maps]
    worst = None
    checked = 0
    for trial in range(trials):
        k = 1 + trial % kmax
        while True:
            W = Matrix.from_dense(cand.field, [
                [rng.randint(-SAMPLED_MAX_ENTRY, SAMPLED_MAX_ENTRY) for _ in range(cand.n)]
                for _ in range(k)])
            if W.rank() == k:
                break
        checked += 1
        dim_sum = _stacked_image_dim(W, maps_t)
        ratio = Fraction(dim_sum, k)
        if worst is None or ratio < worst:
            worst = ratio
        if Fraction(dim_sum) < (1 + cand.alpha) * k:
            return ExpansionReport("refuted", cand.eta, cand.alpha, ratio, W, checked, seed)
    return ExpansionReport("sampled-pass", cand.eta, cand.alpha, worst, None, checked, seed)


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
    verdict: str  # inconclusive | not-a-submodule | expander-counterexample | witness-invalid
    detail: str = ""
    part_index: int | None = None
    counterexample: Matrix | None = None


def refute_witness(M: KroneckerModule, w: Witness, eta: Fraction,
                   alpha: Fraction) -> RefutationReport:
    """Play a claimed witness against the expansion property.

    Verdicts, with n = dim M(1): "inconclusive" when dim M(2) != n, the
    claimed eps is not below alpha / (2 (1 + alpha)), or a part's source
    space exceeds eta n; "not-a-submodule" when a part's images leave its
    sink space; "expander-counterexample", with the part's index and source
    basis, when a part fails to expand; else "witness-invalid". A verifying
    witness cannot get that far: parts of dims (k_j, m_j) that pass give
    m_j >= (1 + alpha) k_j, and sum m_j <= n then gives dim N <= (1 - alpha
    / (2 (1 + alpha))) 2n, against the dimension clause (AssertionError).
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
    if rep.ok:
        raise AssertionError(f"witness verifies with eps {w.eps} below {bound}; bug")
    return RefutationReport("witness-invalid", f"{rep.clause}: {rep.detail}")


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
    adj = build_gamma(M)
    sinks = list(range(M.dim1, M.dim))  # vertex ids of the sinks
    n1 = M.dim1
    spent = 0
    for k in range(n1, -1, -1):
        for subset in combinations(range(n1), k):
            spent += 1
            if spent > budget:
                return BestEpsReport(Fraction(M.dim1, M.dim), True, [],
                                     detail=f"budget {budget} exhausted")
            kept = [*subset, *sinks]
            if all(len(c) <= l_eps for c in components(adj, kept)):
                eps = Fraction(M.dim1 - k, M.dim)
                return BestEpsReport(eps, False, list(subset))
    return BestEpsReport(Fraction(M.dim1, M.dim), False, [])
