"""Hyperfiniteness witnesses: producers, combinators, and independent verifiers.

A witness for a module M at tolerance eps is a list of submodule parts whose
embeddings are jointly independent; their direct sum N satisfies
dim N >= (1 - eps) * dim M and every part has dimension at most l_eps. All
inequalities are decided in exact rational arithmetic.

The producers' parts are coordinate submodules, each given by a source id
list and a sink id list of M (MonomialPart, defined in quiver and
re-exported here), so their witness is a vertex partition of the
coefficient quiver with every part closed under arrows. Parts with other
embeddings (WitnessPart) hold their module and embedding matrices. A
submodule of M travels in one of these two forms, and both combinators
carry a witness's parts through such a part into M by one rule,
_transported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import partial

from .errors import GuardRefusal, PreconditionError, ShapeError, ValidationError
from .fields import check_eps
from .matrices import Matrix
from .modules import (
    KroneckerModule,
    build_P,
    build_postinjective_theta,
    classify_standard,
    direct_sum,
    a_sequence,
)
from .quiver import (MonomialPart, _monomial_parts, build_gamma, components, degree_stats,
                     is_tree, split_until)


@dataclass
class WitnessPart:
    """A part with general embeddings: its module and the embeddings of its
    source and sink spaces into M's."""
    module: KroneckerModule
    emb1: Matrix
    emb2: Matrix

    @property
    def dim(self) -> int:
        return self.module.dim


@dataclass
class Witness:
    module: KroneckerModule
    eps: Fraction
    l_eps: Fraction
    parts: list   # of MonomialPart and WitnessPart
    notes: dict = dc_field(default_factory=dict)

    @property
    def dim_n(self) -> int:
        return sum(p.dim for p in self.parts)


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

    The closure and independence clauses say that the stacked embeddings
    e1 = [emb1 of each part] and e2 = [emb2 of each part] have full column
    rank and that M_k @ e1 == e2 @ N_k for every arrow k, where N is the
    block-diagonal sum of the parts; split by part, this is the per-part
    condition. Every id of a monomial part is first checked to lie in
    range. The two clauses are then checked by one of two routes, with the
    same clause and detail on every witness:

    - The partition check, when every part is a MonomialPart of w.module and
      no source id or sink id is used twice (the producers' witnesses). It
      reads only the rows of M's arrow matrices. Distinct ids make both
      stacked ranks full. Column t of M_k @ e1 is column s_t of M_k, for the
      part's t-th source s_t, and column t of e2 @ N_k is that column with
      the rows outside the part's sinks set to zero, since the part's map is
      M_k restricted to its sinks and sources. So the equality holds exactly
      when every nonzero M_k[i, j] whose source j is in a part has its sink i
      in the same part. No part module, embedding, direct sum or product is
      built.
    - Otherwise (an emb2 that spans images, as in the refutation witnesses
      of the expander search, or an id used twice), the stacked check
      itself: N, e1 and e2 are built, the products compared, and both
      ranks taken. This is _verify_stacked, the reference for the partition
      check.
    """
    return _verify(M, w, partition=True)


def _verify_stacked(M: KroneckerModule, w: Witness) -> VerifyReport:
    """verify_witness by the stacked check on every witness."""
    return _verify(M, w, partition=False)


def _verify(M, w, partition):
    if w.module is not M and w.module != M:
        return VerifyReport(False, "embedding", "witness refers to a different module")
    for idx, p in enumerate(w.parts):
        bad = _id_out_of_range(p) if isinstance(p, MonomialPart) else None
        if bad:
            return VerifyReport(False, "embedding", f"part {idx}: {bad}")
    owners = None
    if partition and all(isinstance(p, MonomialPart) and p.ambient is w.module
                         for p in w.parts):
        owners = _owners(M, w.parts)
    bad = _stacked_mismatch(M, w.parts) if owners is None else _partition_mismatch(M, *owners)
    if bad:
        return VerifyReport(False, "embedding", bad)
    cap = math.floor(w.l_eps)  # an int dim exceeds l_eps exactly when it exceeds this
    for idx, p in enumerate(w.parts):
        if p.dim > cap:
            return VerifyReport(False, "part-size",
                                f"part {idx} has dim {p.dim} > l_eps {w.l_eps}")
    if Fraction(w.dim_n) < (1 - w.eps) * M.dim:
        return VerifyReport(False, "dimension",
                            f"dim N = {w.dim_n} < (1 - {w.eps}) * {M.dim}")
    return VerifyReport(True)


def _id_out_of_range(p):
    """The detail of the first id of a monomial part outside its module, or None."""
    for name, ids, n in (("source", p.sources, p.ambient.dim1),
                         ("sink", p.sinks, p.ambient.dim2)):
        if ids and (min(ids) < 0 or max(ids) >= n):
            bad = next(v for v in ids if not 0 <= v < n)
            return f"{name} id {bad} outside 0..{n - 1}"
    return None


def _stacked_mismatch(M, parts):
    """The detail of the first failed shape, closure or independence clause,
    by the stacked products and ranks, or None."""
    for idx, p in enumerate(parts):
        if p.emb1.rows != M.dim1 or p.emb2.rows != M.dim2:
            return f"part {idx}: embedding shape mismatch"
        if p.emb1.cols != p.module.dim1 or p.emb2.cols != p.module.dim2:
            return f"part {idx}: embedding/part shape mismatch"
        if p.module.d != M.d or p.module.field != M.field:
            return f"part {idx}: arrow count or field mismatch"
    if not parts:
        return None
    N = direct_sum([p.module for p in parts])
    e1 = Matrix.hstack([p.emb1 for p in parts])
    e2 = Matrix.hstack([p.emb2 for p in parts])
    for k in range(M.d):
        if M.maps[k] @ e1 != e2 @ N.maps[k]:
            return f"arrow {k} does not intertwine with the embeddings"
    if e1.rank() != e1.cols:
        return "source embeddings are dependent"
    if e2.rank() != e2.cols:
        return "sink embeddings are dependent"
    return None


def _owners(M, parts):
    """(owner1, owner2): the index of the part holding each source id and
    each sink id, -1 for none; None when an id is used twice, which shows as
    fewer ids held than listed."""
    owner1, owner2 = [-1] * M.dim1, [-1] * M.dim2
    for idx, p in enumerate(parts):
        for v in p.sources:
            owner1[v] = idx
        for v in p.sinks:
            owner2[v] = idx
    if (M.dim1 - owner1.count(-1) != sum(len(p.sources) for p in parts)
            or M.dim2 - owner2.count(-1) != sum(len(p.sinks) for p in parts)):
        return None
    return owner1, owner2


def _partition_mismatch(M, owner1, owner2):
    """The detail of the first arrow with a nonzero entry from a source in
    a part to a sink outside it, or None (see verify_witness)."""
    for k, m in enumerate(M.maps):
        for i, row in m._rows.items():
            own = owner2[i]
            for j in row:
                o = owner1[j]
                if o >= 0 and o != own:
                    return f"arrow {k} does not intertwine with the embeddings"
    return None


# -- shared monomial machinery ---------------------------------------------------


def _closure_sinks(adj, kept_sources):
    """Sorted vertex ids of the sinks the given sources hit."""
    return sorted({w for j in kept_sources for w in adj[j]})


def monomial_submodule(M: KroneckerModule, kept_sources) -> MonomialPart:
    """The MonomialPart of M on the kept sources and every sink they hit,
    its arrow-closed span, sources and sinks in ascending order. Refuses a
    source outside 0..dim1-1 or given twice."""
    src = sorted(kept_sources)
    bad = next((v for v in src if not 0 <= v < M.dim1), None)
    if bad is not None:
        raise ShapeError(f"selection index {bad} outside 0..{M.dim1 - 1}")
    twice = next((a for a, b in zip(src, src[1:]) if a == b), None)
    if twice is not None:
        raise ShapeError(f"source {twice} given twice")
    return MonomialPart(M, src, [v - M.dim1 for v in _closure_sinks(build_gamma(M), src)])


def whole_module_witness(M: KroneckerModule, eps, l_eps, producer, **notes) -> Witness:
    part = MonomialPart(M, list(range(M.dim1)), list(range(M.dim2)))
    nd = dict(producer=producer, whole_module=True, removed=0,
              removed_fraction=Fraction(0))
    nd.update(notes)
    return Witness(M, eps, Fraction(l_eps), [part], nd)


# -- Thm-style witness producers (d = 2) -----------------------------------------


def witness_for(M: KroneckerModule, eps: Fraction, *, l_override: int | None = None) -> Witness:
    """The producers' witness for M, a d = 2 module of a shape that
    classify_standard names or a d >= 3 tree module of nonzero defect.

    For d = 2, classifies M once and runs the drop-rule chain
    (_drop_rule_chain) at depth 0 for P, 1 for R_poly and R_mono and 2 for
    Q. For d >= 3, builds M's adjacency list once: a tree of positive
    defect, the shape of theta_post, goes to the sink fragmenter, and a
    tree of negative defect, the shape of theta_pre, to the centroid
    fragmenter. l_override is the size target of the sink fragmenter and is
    refused for every other shape, as is any module of another shape.
    """
    check_eps(eps)
    if M.d >= 3:
        adj = build_gamma(M)
        tag = (None if M.defect == 0 or not is_tree(adj)
               else "theta_post" if M.defect > 0 else "theta_pre")
    else:
        kind = classify_standard(M)
        tag = kind and kind[0]
    if tag is None:
        raise ValidationError("unsupported module shape for the witness producers")
    if l_override is not None and tag != "theta_post":
        raise ValidationError(f"l_override sets the size target of theta_post modules only, "
                              f"not of {tag}")
    if tag == "theta_post":
        return _sink_witness(M, adj, eps, l_override)
    if tag == "theta_pre":
        return _centroid_witness(M, adj, eps)
    return _drop_rule_chain(M, eps, _CHAIN_DEPTH[tag])


def witness_preprojective_2k(n: int, eps: Fraction) -> Witness:
    """Drop-every-K-th witness for the standard preprojective P_n over Q: the
    chain at depth 0."""
    check_eps(eps)
    return _drop_rule_chain(build_P(n), eps)


def witness_regular_2k(R: KroneckerModule, eps: Fraction) -> Witness:
    """Witness for a regular canonical module via its codimension-1
    submodule: the chain at depth 1."""
    check_eps(eps)
    kind = classify_standard(R)
    if kind is None or kind[0] not in ("R_poly", "R_mono"):
        raise ValidationError("expected a regular canonical module (identity + companion)")
    return _drop_rule_chain(R, eps, 1)


def witness_postinjective_2k(Qm: KroneckerModule, eps: Fraction) -> Witness:
    """Witness for a standard postinjective Q_n via the kernel of theta: Q_n -> I(1):
    the chain at depth 2.

    theta sends source 0 to the injective I(1) and every other vector to 0,
    so its kernel is the monomial submodule on sources 1..n: R_mono(n) with
    the selection embeddings (a lemma the tests check).
    """
    check_eps(eps)
    kind = classify_standard(Qm)
    if kind is None or kind[0] != "Q":
        raise ValidationError("expected a standard postinjective module")
    return _drop_rule_chain(Qm, eps, 2)


_CHAIN_DEPTH = {"P": 0, "R_poly": 1, "R_mono": 1, "Q": 2}


def _drop_rule_chain(M: KroneckerModule, eps: Fraction, depth: int = 0) -> Witness:
    """The d = 2 producers' witness for M in the standard shape of its
    depth: 0 for P_n (either orientation), 1 for R_poly and R_mono, 2 for Q_n.

    The paper nests codimension-1 submodules down to the zigzag: R's on
    sources 0..n-2; for Q_n the kernel R_mono(n) of theta: Q_n -> I(1) on
    sources 1..n, then its submodule on sources 1..n-1. Each step keeps
    every sink, and every step's size target is T = 2^depth/eps + 3. The
    chain keeps the first of M and the nested source lists, with their
    closure sinks, of dimension at most T; if none qualifies, the drop rule
    at eps/2^depth runs on the last list (M's own sources at depth 0). This
    is the nested construction of tests/oracles.py on M's adjacency list
    alone, with no submodule built and nothing re-checked: verify_witness
    decides the witness.
    """
    producer = ("preprojective_2k", "regular_2k", "postinjective_2k")[depth]
    T = 2 ** depth / eps + 3
    if Fraction(M.dim) <= T:
        return whole_module_witness(M, eps, T, producer)
    n = M.dim1
    nested = ([], [range(n - 1)], [range(1, n), range(1, n - 1)])[depth]
    adj = build_gamma(M)
    sources = range(n)  # the last list when nothing is nested
    for sources in nested:
        snk = _closure_sinks(adj, sources)
        if len(sources) + len(snk) <= T:
            kept = list(sources)
            break
    else:
        kept, drops = _zigzag_kept(sources, eps / 2 ** depth)
        snk = _closure_sinks(adj, kept)
    removed = M.dim - len(kept) - len(snk)
    # each nested step has codimension 1 in the one above it
    step = dict(dropped_sources=drops) if depth == 0 else dict(codim=1, inner_eps=eps / 2)
    notes = dict(producer=producer, **step, removed=removed,
                 removed_fraction=Fraction(removed, M.dim))
    if depth == 2:
        notes["kernel_blocks"] = [f"R_mono({M.dim2})"]
    return Witness(M, eps, T, _monomial_parts(M, components(adj, kept + snk)), notes)


def _zigzag_kept(sources, eps):
    """The zigzag's drop rule at eps on the source ids of a module in
    standard preprojective shape, in order: (kept sources, dropped
    sources), both in order.

    K = ceil(1/(2 eps)) + 1 and L = 1/eps + 3; every K-th source is
    dropped, and when K divides their number and 2K + 1 > L the last drop
    is shifted by one, so no sink is orphaned and the tail part stays
    below L.
    """
    K = math.ceil(Fraction(1, 2) / eps) + 1
    n = len(sources)
    j, r = divmod(n, K)
    drops = {i * K - 1 for i in range(1, j + 1) if i * K < n}
    if r == 0 and Fraction(2 * K + 1) > 1 / eps + 3:
        drops.add(n - 2)
    return ([s for c, s in enumerate(sources) if c not in drops],
            [sources[c] for c in sorted(drops)])


# -- combinators ------------------------------------------------------------------


def combinator_direct_sum(witnesses, *, eps: Fraction | None = None, d: int | None = None,
                          field=None) -> Witness:
    """Block-diagonal witness for the direct sum of the witnessed modules.

    Every witness must be at eps, when it is given, or else at the first
    witness's eps; the empty sum needs eps. The empty sum is the zero
    module with d arrows over field, d = 2 over Q unless given; a nonempty
    sum takes both from its modules. modules.direct_sum refuses
    modules over different fields or arrow counts. Each witness's parts
    are carried by _transported through its block, the MonomialPart of the
    sum on the block's id ranges, so monomial parts stay monomial with
    their ids offset. Whether the sum meets the dimension bound is for
    verify_witness to decide (it holds when every inner witness meets it
    on its own module).
    """
    if not witnesses:
        if eps is None:
            raise ValidationError("empty direct sum needs an explicit eps")
        check_eps(eps)
        zero = direct_sum([], d=d, field=field)
        return Witness(zero, eps, Fraction(0), [], dict(producer="direct_sum"))
    eps = witnesses[0].eps if eps is None else eps
    if any(w.eps != eps for w in witnesses):
        raise ValidationError("direct sum combinator requires a shared eps")
    M = direct_sum([w.module for w in witnesses])
    parts = []
    off1 = off2 = 0
    for w in witnesses:
        N = w.module
        parts += _transported(M, w.parts, MonomialPart(M, range(off1, off1 + N.dim1),
                                                       range(off2, off2 + N.dim2)))
        off1 += N.dim1
        off2 += N.dim2
    l_eps = max(w.l_eps for w in witnesses)
    return Witness(M, eps, l_eps, parts, dict(producer="direct_sum"))


def combinator_bounded_codim(M: KroneckerModule, sub, w: Witness, eps: Fraction) -> Witness:
    """Transport a witness w for a bounded-codimension submodule up to M.

    sub is a part of M: a MonomialPart of M, or a WitnessPart whose
    embeddings carry sub.module into M's spaces; w must be a witness for
    sub.module, else a ValidationError. Guards, each refused with a
    GuardRefusal before any part is built: at a codimension
    L = dim M - dim sub > 0, the inner tolerance is at most eps/2 and
    dim M >= 2 L / eps; and the transported dim N (the parts keep their
    dimensions) meets (1 - eps) dim M, decided exactly. A submodule larger
    than M is a ValidationError. The parts are carried through sub by
    _transported.
    """
    check_eps(eps)
    if w.module is not sub.module and w.module != sub.module:
        raise ValidationError("inner witness is not for the submodule's module")
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
    if Fraction(w.dim_n) < (1 - eps) * M.dim:
        raise GuardRefusal(
            f"transported witness has dim N = {w.dim_n} < (1 - {eps}) * {M.dim}")
    removed = M.dim - w.dim_n
    notes = dict(producer="bounded_codim", codim=L, inner_eps=w.eps, removed=removed,
                 removed_fraction=Fraction(removed, M.dim) if M.dim else Fraction(0))
    return Witness(M, eps, w.l_eps, _transported(M, w.parts, sub), notes)


def _transported(M: KroneckerModule, parts, sub) -> list:
    """The parts of a witness for sub.module, carried into M through sub, a
    MonomialPart or WitnessPart of M.

    When sub is a MonomialPart, a MonomialPart stays one, of M, with its
    ids read through sub's source and sink ids; it takes no product. Every
    other part becomes a WitnessPart whose embeddings are sub's times its
    own: one product per side and part.
    """
    by_ids = isinstance(sub, MonomialPart)
    return [MonomialPart(M, [sub.sources[j] for j in p.sources],
                         [sub.sinks[i] for i in p.sinks])
            if by_ids and isinstance(p, MonomialPart)
            else WitnessPart(p.module, sub.emb1 @ p.emb1, sub.emb2 @ p.emb2) for p in parts]


# -- fragmentation for wild theta(d) ------------------------------------------------


def _centroid_batch(n_src, c, branch, kept):
    """fragment_tree_module's batch at the centroid c that split_until
    found: c, and with a sink centroid its incoming sources, its neighbours."""
    return {c} if c < n_src else {c, *branch}


def _sink_batch(n_src, c, branch, kept):
    """The postinjective fragmenter's batch at the centroid c that
    split_until found: a sink centroid, or for a source centroid the
    neighbour sink heading its largest branch, together with the sink's
    neighbours in the piece."""
    s = c if c >= n_src else min(branch, key=lambda u: (-branch[u], u))
    return {s, *kept(s)}


def fragment_tree_module(M: KroneckerModule, eps: Fraction) -> Witness:
    """Centroid-splitting witness for a tree module with indegree at most d.

    Components above C(eps) = ceil(2 (d + 1) / eps) are split at a centroid;
    a sink centroid takes its incoming sources with it so the kept set stays
    arrow-closed. The eps budget is verified a posteriori and reported.
    """
    check_eps(eps)
    adj = build_gamma(M)
    if not is_tree(adj):
        raise PreconditionError("fragment_tree_module requires a tree coefficient quiver")
    return _centroid_witness(M, adj, eps)


def _centroid_witness(M: KroneckerModule, adj, eps: Fraction) -> Witness:
    """fragment_tree_module on a module whose adjacency list adj is a tree."""
    n = M.dim1
    indeg, _ = degree_stats(adj, n)
    if indeg > M.d:
        raise PreconditionError(f"indegree {indeg} exceeds arrow count {M.d}")
    C = math.ceil(Fraction(2 * (M.d + 1)) / eps)
    if M.dim <= C:
        return whole_module_witness(M, eps, C, "fragment_tree")

    final, removed, batch_sizes = split_until(
        adj, [list(range(M.dim))], C, partial(_centroid_batch, n))
    parts = _monomial_parts(M, sorted(final))
    notes = dict(producer="fragment_tree", removed=len(removed),
                 removed_fraction=Fraction(len(removed), M.dim),
                 splits=len(batch_sizes), max_removed_per_split=max(batch_sizes, default=0),
                 budget_met=Fraction(len(removed), M.dim) <= eps)
    return Witness(M, eps, Fraction(C), parts, notes)


# alpha = 1/2 + delta of the postinjective removal estimate, at delta = 1/8;
# the estimate needs delta in (0, 1/4)
_ALPHA = Fraction(5, 8)


def postinjective_fragment_size_bound(d: int, eps: Fraction) -> int:
    """Component size bound from the geometric-series removal estimate.

    alpha = _ALPHA = 5/8, A = 2 + (4 / ln phi) (d - 2), beta = sqrt(alpha);
    solving A n / (alpha L^(1/2) (1 - beta)) <= eps n for L gives
    L = ceil((A / (alpha (1 - beta) eps))^2). ln phi and beta are computed in
    floating point (math.log, math.sqrt), so L is an estimate of the proof
    bound, not an exact one.
    """
    alpha = float(_ALPHA)
    phi = a_sequence(d, 1).phi
    A = 2.0 + (4.0 / math.log(phi)) * (d - 2)
    beta = math.sqrt(alpha)
    return math.ceil((A / (alpha * (1.0 - beta) * float(eps))) ** 2)


def fragment_postinjective_theta(d: int, t: int, eps: Fraction, *,
                                 l_override: int | None = None) -> Witness:
    """Staged sink-removal witness for the canonical postinjective tree module
    theta_post(d, t) over Q.

    Oversized components lose a centroid sink (or, for a source centroid, the
    neighboring sink in its largest branch) together with all sources mapping
    into it, so the kept set is a monomial submodule. The component size
    target defaults to the proof-driven bound, which exceeds every desk-scale
    module; l_override exercises the staged machinery.
    """
    check_eps(eps)
    M = build_postinjective_theta(d, t)
    return _sink_witness(M, build_gamma(M), eps, l_override)


def _sink_witness(M: KroneckerModule, adj, eps: Fraction, l_override: int | None) -> Witness:
    """fragment_postinjective_theta on a module whose adjacency list adj is
    a tree."""
    L = (l_override if l_override is not None
         else postinjective_fragment_size_bound(M.d, eps))
    if L < 1:
        raise ValidationError("size bound must be >= 1")
    n = M.dim
    if n <= L:
        return whole_module_witness(M, eps, L, "fragment_postinjective",
                                    below_threshold=True, size_bound=L)
    final, removed, batch_sizes = split_until(
        adj, [list(range(n))], L, partial(_sink_batch, M.dim1))
    parts = _monomial_parts(M, sorted(final))
    notes = dict(producer="fragment_postinjective", removed=len(removed),
                 removed_fraction=Fraction(len(removed), M.dim),
                 stages=len(batch_sizes), size_bound=L, alpha=_ALPHA,
                 budget_met=Fraction(len(removed), M.dim) <= eps)
    return Witness(M, eps, Fraction(L), parts, notes)


# -- serialization -------------------------------------------------------------------


def witness_to_dict(w: Witness, report: VerifyReport | None = None) -> dict:
    parts = []
    for p in w.parts:
        if isinstance(p, MonomialPart):
            parts.append({"dims": [len(p.sources), len(p.sinks)],
                          "source_indices": p.sources, "sink_indices": p.sinks})
            continue
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

