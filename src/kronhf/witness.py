"""Hyperfiniteness witnesses: producers, combinators, and independent verifiers.

A witness for a module M at tolerance eps is a list of submodule parts whose
embeddings are jointly independent; their direct sum N satisfies
dim N >= (1 - eps) * dim M and every part has dimension at most l_eps. All
inequalities are decided in exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .errors import GuardRefusal, PreconditionError, ValidationError
from .fields import QQ, check_eps
from .matrices import Matrix
from .modules import (
    KroneckerModule,
    build_P,
    build_postinjective_theta,
    classify_standard,
    direct_sum,
    is_homomorphism,
    kernel_module,
    a_sequence,
)
from .pencil import decompose_pencil
from .quiver import (build_gamma, centroid_of, component_modules, components,
                     degree_stats, is_tree, split_until)


@dataclass
class WitnessPart:
    module: KroneckerModule
    emb1: Matrix
    emb2: Matrix


@dataclass
class Witness:
    module: KroneckerModule
    eps: Fraction
    l_eps: Fraction
    parts: list
    notes: dict = dc_field(default_factory=dict)

    @property
    def dim_n(self) -> int:
        return sum(p.module.dim for p in self.parts)


@dataclass
class WeakWitness:
    module: KroneckerModule
    eps: Fraction
    l_eps: Fraction
    n_module: KroneckerModule
    theta: tuple  # (f, g) : N -> M
    parts: list   # modules N_i with direct sum N
    notes: dict = dc_field(default_factory=dict)


@dataclass
class VerifyReport:
    ok: bool
    clause: str | None = None
    detail: str = ""

    def __bool__(self):
        return self.ok


# -- verifiers -----------------------------------------------------------------


def verify_witness(M: KroneckerModule, w: Witness) -> VerifyReport:
    """Re-checks every clause of the witness definition from scratch.

    The intertwining and closure conditions are checked on the stacked
    embeddings against the block-diagonal sum of the parts, which is
    equivalent to the per-part conditions (columns split by part) while
    staying linear in the size of M.
    """
    if w.module is not M and w.module != M:
        return VerifyReport(False, "embedding", "witness refers to a different module")
    for idx, p in enumerate(w.parts):
        if p.emb1.rows != M.dim1 or p.emb2.rows != M.dim2:
            return VerifyReport(False, "embedding", f"part {idx}: embedding shape mismatch")
        if p.emb1.cols != p.module.dim1 or p.emb2.cols != p.module.dim2:
            return VerifyReport(False, "embedding", f"part {idx}: embedding/part shape mismatch")
        if p.module.d != M.d or p.module.field != M.field:
            return VerifyReport(False, "embedding", f"part {idx}: arrow count or field mismatch")
    tot1 = sum(p.module.dim1 for p in w.parts)
    tot2 = sum(p.module.dim2 for p in w.parts)
    if w.parts:
        N = direct_sum([p.module for p in w.parts])
        e1 = Matrix.hstack([p.emb1 for p in w.parts])
        e2 = Matrix.hstack([p.emb2 for p in w.parts])
        for k in range(M.d):
            if M.maps[k] @ e1 != e2 @ N.maps[k]:
                return VerifyReport(False, "embedding",
                                    f"arrow {k} does not intertwine with the embeddings")
        if e1.rank() != tot1:
            return VerifyReport(False, "embedding", "source embeddings are dependent")
        if e2.rank() != tot2:
            return VerifyReport(False, "embedding", "sink embeddings are dependent")
    for idx, p in enumerate(w.parts):
        if Fraction(p.module.dim) > w.l_eps:
            return VerifyReport(False, "part-size",
                                f"part {idx} has dim {p.module.dim} > l_eps {w.l_eps}")
    if Fraction(tot1 + tot2) < (1 - w.eps) * M.dim:
        return VerifyReport(False, "dimension",
                            f"dim N = {tot1 + tot2} < (1 - {w.eps}) * {M.dim}")
    return VerifyReport(True)


def verify_weak_witness(M: KroneckerModule, w: WeakWitness) -> VerifyReport:
    f, g = w.theta
    N = w.n_module
    if direct_sum(w.parts, d=M.d, field=M.field) != N:
        return VerifyReport(False, "parts", "N is not the direct sum of the listed parts")
    if f.rows != M.dim1 or g.rows != M.dim2 or f.cols != N.dim1 or g.cols != N.dim2:
        return VerifyReport(False, "homomorphism", "theta shape mismatch")
    if not is_homomorphism((f, g), N, M):
        return VerifyReport(False, "homomorphism", "theta does not intertwine")
    for idx, part in enumerate(w.parts):
        if Fraction(part.dim) > w.l_eps:
            return VerifyReport(False, "part-size",
                                f"part {idx} has dim {part.dim} > l_eps {w.l_eps}")
    ker_dim, coker_dim = weak_stats(M, w)
    if Fraction(ker_dim) > w.eps * M.dim:
        return VerifyReport(False, "kernel", f"dim ker = {ker_dim} > eps * dim M")
    if Fraction(coker_dim) > w.eps * M.dim:
        return VerifyReport(False, "cokernel", f"dim coker = {coker_dim} > eps * dim M")
    return VerifyReport(True)


def weak_stats(M: KroneckerModule, w: WeakWitness):
    f, g = w.theta
    N = w.n_module
    rank_f, rank_g = f.rank(), g.rank()
    ker_dim = (N.dim1 - rank_f) + (N.dim2 - rank_g)
    coker_dim = (M.dim1 - rank_f) + (M.dim2 - rank_g)
    return ker_dim, coker_dim


# -- shared monomial machinery ---------------------------------------------------


def _closure_sinks(adj, kept_sources):
    return sorted({w[1] for j in kept_sources for w, _ in adj[(0, j)]})


def _parts_from_kept(M: KroneckerModule, adj, kept):
    """Connected components of the kept vertex set as embedded part modules.

    Requires the kept set to be arrow-closed: every kept source's neighbors
    in the coefficient quiver are kept sinks (checked).
    """
    kept = set(kept)
    for v in kept:
        if v[0] == 0:
            for w, _ in adj[v]:
                if w not in kept:
                    raise ValidationError(
                        f"kept set not arrow-closed: source {v[1]} hits dropped sink {w[1]}")
    return [WitnessPart(sub, e1, e2)
            for sub, (e1, e2) in component_modules(M, M.maps, components(adj, kept))]


def monomial_submodule(M: KroneckerModule, kept_sources):
    """Arrow-closed span of the kept source vectors and every sink they hit."""
    src = sorted(kept_sources)
    snk = _closure_sinks(build_gamma(M).adjacency(), src)
    verts = [(0, j) for j in src] + [(1, i) for i in snk]
    [(sub, embs)] = component_modules(M, M.maps, [verts])
    return sub, embs


def whole_module_witness(M: KroneckerModule, eps, l_eps, producer, **notes) -> Witness:
    part = WitnessPart(M, Matrix.identity(M.field, M.dim1), Matrix.identity(M.field, M.dim2))
    nd = dict(producer=producer, whole_module=True, removed=0,
              removed_fraction=Fraction(0))
    nd.update(notes)
    return Witness(M, eps, Fraction(l_eps), [part], nd)


# -- Thm-style witness producers (d = 2) -----------------------------------------


def witness_preprojective_2k(n: int, eps: Fraction, field=QQ) -> Witness:
    """Drop-every-K-th witness for the standard preprojective P_n."""
    check_eps(eps)
    return _zigzag_witness(build_P(n, field), eps, producer="preprojective_2k")


def _zigzag_witness(M: KroneckerModule, eps: Fraction, producer: str) -> Witness:
    """Witness for a module in standard preprojective shape (both orientations).

    K = ceil(1/(2 eps)) + 1, L = 1/eps + 3; every K-th source generator is
    dropped. When K divides the source dimension the last drop is shifted by
    one so no sink is orphaned and the tail part stays below L.
    """
    check_eps(eps)
    K = math.ceil(Fraction(1, 2) / eps) + 1
    L = 1 / eps + 3
    if Fraction(M.dim) <= L:
        return whole_module_witness(M, eps, L, producer)
    n = M.dim1
    j, r = divmod(n, K)
    drops = {i * K - 1 for i in range(1, j + 1) if i * K < n}
    if r == 0 and Fraction(2 * K + 1) > L:
        drops.add(n - 2)
    kept = [c for c in range(n) if c not in drops]
    adj = build_gamma(M).adjacency()
    snk = _closure_sinks(adj, kept)
    parts = _parts_from_kept(M, adj, [(0, j) for j in kept] + [(1, i) for i in snk])
    removed = M.dim - len(kept) - len(snk)
    w = Witness(M, eps, L, parts,
                dict(producer=producer, dropped_sources=sorted(drops),
                     removed=removed, removed_fraction=Fraction(removed, M.dim)))
    if Fraction(w.dim_n) < (1 - eps) * M.dim:
        raise AssertionError("zigzag witness violates the dimension bound; bug")
    return w


def witness_regular_2k(R: KroneckerModule, eps: Fraction) -> Witness:
    """Witness for a regular canonical module via its codimension-1 submodule."""
    check_eps(eps)
    kind = classify_standard(R)
    if kind is None or kind[0] not in ("R_poly", "R_mono"):
        raise ValidationError("expected a regular canonical module (identity + companion)")
    l_eps = 2 / eps + 3
    if Fraction(R.dim) <= l_eps:
        return whole_module_witness(R, eps, l_eps, "regular_2k")
    n = R.dim1
    sub, embs = monomial_submodule(R, range(n - 1))
    if sub.dim != R.dim - 1:
        raise AssertionError("regular submodule should have codimension 1")
    inner = _zigzag_witness(sub, eps / 2, producer="regular_2k/inner")
    w = combinator_bounded_codim(R, sub, embs, inner, eps)
    w.notes["producer"] = "regular_2k"
    return w


def witness_postinjective_2k(Qm: KroneckerModule, eps: Fraction) -> Witness:
    """Witness for a standard postinjective Q_n via the kernel of theta: Q_n -> I(1)."""
    check_eps(eps)
    kind = classify_standard(Qm)
    if kind is None or kind[0] != "Q":
        raise ValidationError("expected a standard postinjective module")
    n = kind[1]
    l_eps = 4 / eps + 3
    if Fraction(Qm.dim) <= l_eps:
        return whole_module_witness(Qm, eps, l_eps, "postinjective_2k")
    fld = Qm.field
    f = Matrix.from_entries(fld, 1, n + 1, [(0, 0, fld.one)])
    g = Matrix.zeros(fld, 0, n)
    target = KroneckerModule(2, fld, 1, 0, [Matrix.zeros(fld, 0, 1)] * 2)
    if not is_homomorphism((f, g), Qm, target):
        raise AssertionError("theta into the injective I(1) must intertwine; bug")
    ker, embs = kernel_module((f, g), Qm, target)
    blocks = decompose_pencil(ker)
    bad = [b for b in blocks if b.defect >= 1]
    if bad:
        raise AssertionError(f"kernel of theta contains defect >= 1 blocks: {bad}")
    inner = witness_regular_2k(ker, eps / 2)
    w = combinator_bounded_codim(Qm, ker, embs, inner, eps)
    w.notes["producer"] = "postinjective_2k"
    w.notes["kernel_blocks"] = sorted(b.describe() for b in blocks.elements())
    return w


# -- combinators ------------------------------------------------------------------


def combinator_direct_sum(witnesses, *, eps: Fraction | None = None) -> Witness:
    """Block-diagonal witness for the direct sum of the witnessed modules."""
    if not witnesses:
        if eps is None:
            raise ValidationError("empty direct sum needs an explicit eps")
        check_eps(eps)
        zero = direct_sum([])
        return Witness(zero, eps, Fraction(0), [], dict(producer="direct_sum"))
    eps0 = witnesses[0].eps
    for w in witnesses:
        if w.eps != eps0:
            raise ValidationError("direct sum combinator requires a shared eps")
        if w.module.field != witnesses[0].module.field or w.module.d != witnesses[0].module.d:
            raise ValidationError("direct sum combinator requires matching field and d")
    M = direct_sum([w.module for w in witnesses])
    parts = []
    off1 = off2 = 0
    for w in witnesses:
        for p in w.parts:
            e1 = Matrix.from_entries(M.field, M.dim1, p.emb1.cols,
                                     ((i + off1, j, v) for i, j, v in p.emb1.entries()))
            e2 = Matrix.from_entries(M.field, M.dim2, p.emb2.cols,
                                     ((i + off2, j, v) for i, j, v in p.emb2.entries()))
            parts.append(WitnessPart(p.module, e1, e2))
        off1 += w.module.dim1
        off2 += w.module.dim2
    l_eps = max(w.l_eps for w in witnesses)
    out = Witness(M, eps0, l_eps, parts, dict(producer="direct_sum"))
    if Fraction(out.dim_n) < (1 - eps0) * M.dim:
        raise AssertionError("direct sum combinator broke the dimension bound; bug")
    return out


def combinator_bounded_codim(M: KroneckerModule, sub: KroneckerModule, embs,
                             w: Witness, eps: Fraction) -> Witness:
    """Transport a witness for a bounded-codimension submodule up to M.

    Preconditions (checked, refused with a diagnostic on failure): the inner
    tolerance is at most eps/2 and dim M >= 2 L / eps where L is the
    codimension. The resulting dimension inequality is re-checked exactly.
    """
    check_eps(eps)
    L = M.dim - sub.dim
    if L < 0:
        raise ValidationError("submodule larger than the module")
    if L > 0:
        if w.eps > eps / 2:
            raise GuardRefusal(
                f"inner eps {w.eps} exceeds eps/2 = {eps / 2}; refusing to transport")
        if Fraction(M.dim) < Fraction(2 * L) / eps:
            raise GuardRefusal(
                f"dim M = {M.dim} < 2L/eps = {Fraction(2 * L) / eps}; refusing to transport")
    e1, e2 = embs
    parts = [WitnessPart(p.module, e1 @ p.emb1, e2 @ p.emb2) for p in w.parts]
    out = Witness(M, eps, w.l_eps, parts,
                  dict(producer="bounded_codim", codim=L, inner_eps=w.eps,
                       removed=M.dim - sum(p.module.dim for p in parts)))
    out.notes["removed_fraction"] = Fraction(out.notes["removed"], M.dim) if M.dim else Fraction(0)
    if Fraction(out.dim_n) < (1 - eps) * M.dim:
        raise GuardRefusal(
            f"transported witness has dim N = {out.dim_n} < (1 - {eps}) * {M.dim}")
    return out


def weaken(w: Witness) -> WeakWitness:
    """Inclusion of the witness submodule as a weak witness (kernel zero)."""
    N = direct_sum([p.module for p in w.parts], d=w.module.d, field=w.module.field)
    if w.parts:
        f = Matrix.hstack([p.emb1 for p in w.parts])
        g = Matrix.hstack([p.emb2 for p in w.parts])
    else:
        f = Matrix.zeros(w.module.field, w.module.dim1, 0)
        g = Matrix.zeros(w.module.field, w.module.dim2, 0)
    return WeakWitness(w.module, w.eps, w.l_eps, N, (f, g),
                       [p.module for p in w.parts], dict(w.notes))


# -- fragmentation for wild theta(d) ------------------------------------------------


def fragment_tree_module(M: KroneckerModule, eps: Fraction) -> Witness:
    """Centroid-splitting witness for a tree module with indegree at most d.

    Components above C(eps) = ceil(2 (d + 1) / eps) are split at a centroid;
    a sink centroid takes its incoming sources with it so the kept set stays
    arrow-closed. The eps budget is verified a posteriori and reported.
    """
    check_eps(eps)
    gamma = build_gamma(M)
    if not is_tree(gamma):
        raise PreconditionError("fragment_tree_module requires a tree coefficient quiver")
    indeg, _ = degree_stats(gamma)
    if indeg > M.d:
        raise PreconditionError(f"indegree {indeg} exceeds arrow count {M.d}")
    C = math.ceil(Fraction(2 * (M.d + 1)) / eps)
    if M.dim <= C:
        return whole_module_witness(M, eps, C, "fragment_tree")
    adj = gamma.adjacency()

    def choose_batch(comp):
        # a sink centroid takes its incoming sources, its neighbors in comp
        v, branch = centroid_of(comp, adj)
        return {v} if v[0] == 0 else {v, *branch}

    final, removed, batch_sizes = split_until(adj, gamma.vertices(), C, choose_batch)
    parts = _parts_from_kept(M, adj, set().union(*final))
    notes = dict(producer="fragment_tree", removed=len(removed),
                 removed_fraction=Fraction(len(removed), M.dim),
                 splits=len(batch_sizes), max_removed_per_split=max(batch_sizes, default=0),
                 budget_met=Fraction(len(removed), M.dim) <= eps)
    return Witness(M, eps, Fraction(C), parts, notes)


def postinjective_fragment_size_bound(d: int, eps: Fraction,
                                      delta: Fraction = Fraction(1, 8)) -> int:
    """Component size bound from the geometric-series removal estimate.

    alpha = 1/2 + delta, A = 2 + (4 / ln phi) (d - 2), beta = sqrt(alpha);
    solving A n / (alpha L^(1/2) (1 - beta)) <= eps n for L gives
    L = ceil((A / (alpha (1 - beta) eps))^2).
    """
    if not (0 < delta < Fraction(1, 4)):
        raise ValidationError("delta must lie in (0, 1/4)")
    alpha = float(Fraction(1, 2) + delta)
    phi = a_sequence(d, 1).phi
    A = 2.0 + (4.0 / math.log(phi)) * (d - 2)
    beta = math.sqrt(alpha)
    return math.ceil((A / (alpha * (1.0 - beta) * float(eps))) ** 2)


def fragment_postinjective_theta(d: int, t: int, eps: Fraction, *,
                                 delta: Fraction = Fraction(1, 8),
                                 l_override: int | None = None,
                                 field=QQ) -> Witness:
    """Staged sink-removal witness for the canonical postinjective tree module.

    Oversized components lose a centroid sink (or, for a source centroid, the
    neighboring sink in its largest branch) together with all sources mapping
    into it, so the kept set is a monomial submodule. The component size
    target defaults to the proof-driven bound, which exceeds every desk-scale
    module; l_override exercises the staged machinery.
    """
    check_eps(eps)
    M = build_postinjective_theta(d, t, field)
    alpha = Fraction(1, 2) + delta
    L = l_override if l_override is not None else postinjective_fragment_size_bound(d, eps, delta)
    if L < 1:
        raise ValidationError("size bound must be >= 1")
    n = M.dim
    if n <= L:
        return whole_module_witness(M, eps, L, "fragment_postinjective",
                                    below_threshold=True, size_bound=L)
    k = 0
    x = Fraction(n)
    while x > L:
        x *= alpha
        k += 1
    if Fraction(n) * alpha ** (k - 1) <= 2:
        return whole_module_witness(M, eps, max(L, n), "fragment_postinjective",
                                    guard_triggered=True, size_bound=L)
    gamma = build_gamma(M)
    adj = gamma.adjacency()

    def choose_batch(comp):
        # a source centroid hands over to the neighbor sink heading its largest branch
        v, branch = centroid_of(comp, adj)
        sink = v if v[0] == 1 else min(branch, key=lambda nb: (-branch[nb], nb))
        inside = set(comp)
        return {sink} | {w for w, _ in adj[sink] if w in inside}

    final, removed, batch_sizes = split_until(adj, gamma.vertices(), L, choose_batch)
    parts = _parts_from_kept(M, adj, set().union(*final))
    notes = dict(producer="fragment_postinjective", removed=len(removed),
                 removed_fraction=Fraction(len(removed), M.dim),
                 stages=len(batch_sizes), size_bound=L, alpha=alpha,
                 budget_met=Fraction(len(removed), M.dim) <= eps)
    return Witness(M, eps, Fraction(L), parts, notes)


# -- serialization -------------------------------------------------------------------


def witness_to_dict(w: Witness, report: VerifyReport | None = None) -> dict:
    parts = []
    for p in w.parts:
        entry = {"dims": [p.module.dim1, p.module.dim2]}
        s1, s2 = p.emb1.is_selection(), p.emb2.is_selection()
        if s1 is not None and s2 is not None:
            entry["source_indices"] = s1
            entry["sink_indices"] = s2
        else:
            entry["emb1"] = p.emb1.to_text()
            entry["emb2"] = p.emb2.to_text()
        parts.append(entry)
    out = {
        "module": {"d": w.module.d, "field": w.module.field.label,
                   "dims": [w.module.dim1, w.module.dim2]},
        "eps": str(w.eps),
        "l_eps": str(w.l_eps),
        "dim_m": w.module.dim,
        "dim_n": w.dim_n,
        "parts": parts,
        "notes": {k: (str(v) if isinstance(v, Fraction) else v)
                  for k, v in w.notes.items()},
    }
    if report is not None:
        out["verdict"] = {"pass": report.ok, "clause": report.clause, "detail": report.detail}
    return out

