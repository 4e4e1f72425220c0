"""Independent answer checks for the benchmark workloads.

Each check takes what an op returned and the answer known from how its input
was built, and returns None when the verdict is right or a one-line reason
when it is not. The arithmetic here (mod-q rank, subspace counts) is written
out afresh instead of calling kronhf, so a defect in the program's own
elimination or certification cannot hide a wrong verdict.
"""

from __future__ import annotations

from fractions import Fraction


def rank_mod(vectors, q):
    """Rank over F_q of a list of integer vectors (rows)."""
    rows = [[x % q for x in v] for v in vectors]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], -1, q)
        prow = [x * inv % q for x in rows[rank]]
        rows[rank] = prow
        for i in range(len(rows)):
            f = rows[i][c]
            if i != rank and f:
                rows[i] = [(x - f * y) % q for x, y in zip(rows[i], prow)]
        rank += 1
    return rank


def apply_mod(mat, v, q):
    """mat @ v over F_q for a dense row-major integer matrix."""
    return [sum(a * b for a, b in zip(row, v)) % q for row in mat]


def image_dim_mod(maps, W, q):
    """dim of sum_i T_i(row span of W) over F_q."""
    return rank_mod([apply_mod(m, w, q) for m in maps for w in W], q)


def subspace_total(n, kmax, q):
    """Number of subspaces of F_q^n of dimension 1..kmax, by the q-binomial product."""
    total = 0
    for k in range(1, kmax + 1):
        num = den = 1
        for i in range(k):
            num *= q ** (n - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


# -- per-workload checks ----------------------------------------------------------


def check_pencil(built, blocks, hom_dm, hom_dd):
    """Block multiset equals the one built, and dim Hom(D, M) = dim End(D)."""
    if blocks != built:
        return f"blocks {sorted(b.describe() for b in blocks.elements())} != built"
    if hom_dm != hom_dd:
        return f"dim Hom(D, M) = {hom_dm} but dim End(D) = {hom_dd}"
    return None


def check_refutation(maps, q, alpha, W):
    """W (k rows) has rank k and its image sum has dim below (1 + alpha) k."""
    k = len(W)
    if k == 0 or rank_mod(W, q) != k:
        return f"refuting W has rank {rank_mod(W, q) if W else 0}, expected {k}"
    dim = image_dim_mod(maps, W, q)
    if Fraction(dim) >= (1 + alpha) * k:
        return f"refuting W expands: dim {dim} >= (1 + {alpha}) * {k}"
    return None


def check_expander(cand, verdict, checked, W, pinned=None):
    """Refutations re-checked, proofs counted, optional pinned reference matched."""
    total = subspace_total(cand.n, int(cand.eta * cand.n), cand.q)
    if verdict == "refuted":
        reason = check_refutation(cand.dense, cand.q, cand.alpha, W)
        if reason is None and not 1 <= checked <= total:
            reason = f"refuted after {checked} of {total} subspaces"
    elif verdict == "proved":
        reason = None if checked == total else f"proved after {checked}, expected {total}"
    else:
        reason = f"unexpected verdict {verdict!r}"
    if reason is None and pinned is not None and [verdict, checked, W] != pinned:
        reason = f"differs from the pinned reference {pinned}"
    return reason


def check_witness(expected, ok, clause, dims_digest):
    """Verifier verdict, failing clause and part-dimension list as recorded."""
    if expected is None:
        return "no recorded expectation for this case"
    got = {"ok": ok, "clause": clause, "dims_sha256": dims_digest}
    want = {k: expected[k] for k in got}
    if got != want:
        return f"got {got}, recorded {want}"
    return None


def check_sl2p(pinned_lower, fixture_ok, irreducible, lower, upper, sampled):
    """Fixture, irreducibility, pinned lower bracket, bracket order, sampled pass."""
    if not fixture_ok:
        return "representation differs from the committed fixture"
    if not irreducible:
        return "representation reported reducible"
    if abs(lower - pinned_lower) > 1e-9:
        return f"lower bracket {lower!r} differs from pinned {pinned_lower!r}"
    if not lower <= upper:
        return f"lower bracket {lower} exceeds upper {upper}"
    if sampled != "sampled-pass":
        return f"sampled check returned {sampled!r}"
    return None
