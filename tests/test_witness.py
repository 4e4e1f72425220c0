import json
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronhf.errors import DomainError, GuardRefusal, PreconditionError, ValidationError
from kronhf.fields import QQ, PrimeField
from kronhf.matrices import Matrix, matrix_from_text, random_invertible
from kronhf.pencil import certify_pencil
from kronhf import witness as witness_mod
from kronhf.cli import main
from kronhf.modules import (KroneckerModule, PencilBlock, build_P, build_Q, build_R,
                            build_postinjective_theta, build_preprojective_theta,
                            classify_standard, direct_sum, module_from_text)
from kronhf.quiver import build_gamma, components, is_tree, split_components
from kronhf.witness import (MonomialPart, Witness, WitnessPart, combinator_bounded_codim,
                            combinator_direct_sum, fragment_postinjective_theta,
                            fragment_tree_module, monomial_submodule,
                            postinjective_fragment_size_bound, verify_witness, witness_for,
                            witness_postinjective_2k, witness_preprojective_2k,
                            witness_regular_2k, witness_to_dict, _verify_stacked,
                            _drop_rule_chain)

from oracles import kernel_module, nested_postinjective_witness, nested_regular_witness

QUARTER = Fraction(1, 4)


def test_preprojective_p7_quarter():
    w = witness_preprojective_2k(7, QUARTER)
    M = w.module
    assert sorted(p.module.dim for p in w.parts) == [3, 5, 5]
    assert w.dim_n == 13
    assert w.l_eps == Fraction(7)
    assert Fraction(w.dim_n) >= (1 - QUARTER) * 15
    assert w.notes["dropped_sources"] == [2, 5]  # e_3, e_6 zero-based
    assert verify_witness(M, w).ok


def test_preprojective_small_whole_module():
    w = witness_preprojective_2k(1, QUARTER)
    assert w.notes.get("whole_module")
    assert len(w.parts) == 1
    assert verify_witness(w.module, w).ok


def test_preprojective_half_every_second():
    w = witness_preprojective_2k(9, Fraction(1, 2))
    assert all(p.module.dim == 3 for p in w.parts)  # all parts of type P_1
    assert len(w.parts) == 5
    assert verify_witness(w.module, w).ok


def test_preprojective_rejects_bad_eps():
    with pytest.raises(DomainError):
        witness_preprojective_2k(5, Fraction(3, 2))
    with pytest.raises(DomainError):
        witness_preprojective_2k(5, Fraction(0))


def test_preprojective_divisible_case():
    # n divisible by K: the construction keeps every sink and all parts small
    for n, eps in ((12, Fraction(1, 10)), (6, Fraction(1, 3)), (8, Fraction(1, 2))):
        w = witness_preprojective_2k(n, eps)
        rep = verify_witness(w.module, w)
        assert rep.ok, rep


def test_preprojective_fuzz():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(0, 2000)
        eps = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)][rng.randrange(3)]
        w = witness_preprojective_2k(n, eps)
        rep = verify_witness(w.module, w)
        assert rep.ok, (n, eps, rep)
        assert w.notes["removed"] == w.module.dim - w.dim_n
        if not w.notes.get("whole_module") and w.module.dim1 % len(
                w.notes["dropped_sources"] or [1]) != 0:
            # away from the divisibility fallback, exactly the dropped sources
            # are missing: dim U = dim M - #dropped
            assert w.notes["removed"] == len(w.notes["dropped_sources"])


def test_regular_witness_small_and_big():
    r1 = build_R(PencilBlock("R_poly", poly=(Fraction(-1),), e=1))
    w = witness_regular_2k(r1, QUARTER)
    assert w.notes.get("whole_module")
    assert verify_witness(r1, w).ok

    r20 = build_R(PencilBlock("R_poly", poly=(Fraction(-1),), e=20))
    w = witness_regular_2k(r20, QUARTER)
    assert w.dim_n >= 30
    assert verify_witness(r20, w).ok
    # codimension of the preprojective submodule is exactly one
    assert w.notes["codim"] == 1


def test_regular_witness_monomial_kind():
    rm = build_R(PencilBlock("R_mono", 25))
    w = witness_regular_2k(rm, Fraction(1, 10))
    assert verify_witness(rm, w).ok


def test_regular_witness_rejects_non_regular():
    with pytest.raises(ValidationError):
        witness_regular_2k(build_P(3), QUARTER)


def test_postinjective_witness():
    q0 = build_Q(0)
    w = witness_postinjective_2k(q0, QUARTER)
    assert w.notes.get("whole_module") and verify_witness(q0, w).ok

    q5 = build_Q(5, PrimeField(5))
    w = witness_postinjective_2k(q5, QUARTER)
    assert verify_witness(q5, w).ok

    q50 = build_Q(50)
    w = witness_postinjective_2k(q50, Fraction(1, 10))
    rep = verify_witness(q50, w)
    assert rep.ok, rep
    assert w.notes["kernel_blocks"] == ["R_mono(50)"]


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_postinjective_kernel_of_theta_is_the_monomial_submodule(field):
    """ker(theta: Q_n -> I(1)), built as a kernel, equals the monomial
    submodule on sources 1..n that the producer takes, embeddings included."""
    target = KroneckerModule(2, field, 1, 0, [Matrix.zeros(field, 0, 1)] * 2)
    for n in (1, 2, 5, 13, 40):
        Qm = build_Q(n, field)
        theta = (Matrix.from_entries(field, 1, n + 1, [(0, 0, field.one)]),
                 Matrix.zeros(field, 0, n))
        ker, (k1, k2) = kernel_module(theta, Qm, target)
        part = monomial_submodule(Qm, range(1, n + 1))
        sub = part.module
        assert (sub, part.emb1, part.emb2) == (ker, k1, k2), n
        assert sub == build_R(PencilBlock("R_mono", n), field)


def test_postinjective_kernel_blocks_defect():
    q20 = build_Q(20)
    w = witness_postinjective_2k(q20, Fraction(1, 8))
    assert verify_witness(q20, w).ok


_R_POLY_60 = PencilBlock("R_poly", poly=(Fraction(-1),), e=60)


@pytest.mark.parametrize("M,eps,named,l_override", [
    (build_P(60), QUARTER, lambda: witness_preprojective_2k(60, QUARTER), None),
    (build_Q(80), Fraction(1, 10),
     lambda: witness_postinjective_2k(build_Q(80), Fraction(1, 10)), None),
    (build_R(_R_POLY_60), QUARTER, lambda: witness_regular_2k(build_R(_R_POLY_60), QUARTER),
     None),
    (build_R(PencilBlock("R_mono", 60), PrimeField(5)), QUARTER,
     lambda: witness_regular_2k(build_R(PencilBlock("R_mono", 60), PrimeField(5)), QUARTER),
     None),
    (build_preprojective_theta(3, 6), Fraction(1, 5),
     lambda: fragment_tree_module(build_preprojective_theta(3, 6), Fraction(1, 5)), None),
    (build_postinjective_theta(3, 6), QUARTER,
     lambda: fragment_postinjective_theta(3, 6, QUARTER, l_override=40), 40),
], ids=["P", "Q", "R_poly", "R_mono", "theta_pre", "theta_post"])
def test_witness_for_matches_the_named_producer(M, eps, named, l_override):
    w = witness_for(M, eps, l_override=l_override)
    assert witness_to_dict(w) == witness_to_dict(named())
    assert verify_witness(M, w).ok


def test_witness_for_classifies_q_once(monkeypatch):
    """The postinjective producer counts the kernel's vertices instead of
    classifying it (its shape is the lemma below)."""
    seen = []
    classify = witness_mod.classify_standard

    def counted(M):
        seen.append((M.dim1, M.dim2))
        return classify(M)

    monkeypatch.setattr(witness_mod, "classify_standard", counted)
    w = witness_for(build_Q(50), Fraction(1, 10))
    assert seen == [(51, 50)]
    assert w.notes["kernel_blocks"] == ["R_mono(50)"]


def test_witness_for_theta_post_keeps_the_module_it_was_given(monkeypatch):
    M = build_postinjective_theta(3, 9)
    built = []
    build = witness_mod.build_postinjective_theta
    monkeypatch.setattr(witness_mod, "build_postinjective_theta",
                        lambda *args: built.append(args) or build(*args))
    w = witness_for(M, QUARTER, l_override=40)
    assert built == []
    assert w.module is M
    assert w.notes["producer"] == "fragment_postinjective" and len(w.parts) > 1
    assert verify_witness(M, w).ok


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_kernel_of_theta_on_q_is_r_mono(field):
    """The lemma behind the postinjective producer's kernel_blocks note:
    the monomial submodule of Q_n on sources 1..n is literally R_mono(n)."""
    for n in range(1, 61):
        ker = monomial_submodule(build_Q(n, field), range(1, n + 1)).module
        assert classify_standard(ker) == ("R_mono", n), n


@pytest.mark.parametrize("M", [build_P(30), build_Q(30), build_R(_R_POLY_60),
                               build_preprojective_theta(3, 5)],
                         ids=["P", "Q", "R_poly", "theta_pre"])
def test_witness_for_refuses_l_override_off_theta_post(M):
    with pytest.raises(ValidationError, match="l_override sets the size target of "
                                              "theta_post modules only"):
        witness_for(M, QUARTER, l_override=40)


def test_witness_for_refuses_other_shapes():
    with pytest.raises(ValidationError, match="unsupported module shape"):
        witness_for(direct_sum([build_P(1), build_Q(1)]), QUARTER)


def _arrow_scaled(M, k, c):
    """M with arrow k multiplied by c."""
    maps = list(M.maps)
    maps[k] = maps[k].scale(c)
    return KroneckerModule(M.d, M.field, M.dim1, M.dim2, maps)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)], ids=["Q", "GF5"])
@pytest.mark.parametrize("build,eps,l_override", [
    (build_postinjective_theta, QUARTER, 40),
    (build_preprojective_theta, Fraction(1, 5), None),
], ids=["theta_post", "theta_pre"])
def test_witness_for_takes_theta_trees_with_other_coefficients(field, build, eps, l_override):
    """A d >= 3 witness needs a tree, not the literal theta module: with
    arrow 0 scaled by 2 (a diagonal change of basis away from theta), the
    producers split the same tree into the literal module's id lists."""
    literal = build(3, 6, field)
    M = _arrow_scaled(literal, 0, 2)
    assert M != literal
    w = witness_for(M, eps, l_override=l_override)
    want = witness_for(literal, eps, l_override=l_override)
    assert len(w.parts) > 1
    assert [(p.sources, p.sinks) for p in w.parts] == [(p.sources, p.sinks) for p in want.parts]
    assert w.module is M and verify_witness(M, w).ok


def _defect_zero_tree():
    """d = 3, dims 2x2: the path source 0 - sink 0 - source 1 - sink 1, one
    arrow per edge, so a tree of defect 0."""
    F = PrimeField(5)
    maps = [Matrix.from_entries(F, 2, 2, [(i, j, 1)]) for i, j in ((0, 0), (0, 1), (1, 1))]
    return KroneckerModule(3, F, 2, 2, maps)


_GAMMA_PARALLEL = Path(__file__).parent / "golden" / "gamma_parallel.mod"


def test_witness_for_refuses_d3_modules_that_are_no_tree_or_of_defect_zero():
    parallel = module_from_text(_GAMMA_PARALLEL.read_text())
    assert parallel.d == 3 and not is_tree(build_gamma(parallel))
    flat = _defect_zero_tree()
    assert flat.defect == 0 and is_tree(build_gamma(flat))
    for M in (parallel, flat):
        for l_override in (None, 40):
            with pytest.raises(ValidationError, match="unsupported module shape"):
                witness_for(M, QUARTER, l_override=l_override)


def test_witness_command_refuses_d3_modules_that_are_no_tree_or_of_defect_zero(capsys,
                                                                             tmp_path):
    flat = tmp_path / "flat.mod"
    flat.write_text(_defect_zero_tree().to_text())
    for mod in (_GAMMA_PARALLEL, flat):
        assert main(["witness", "--module", str(mod), "--eps", "1/4"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == (
            "", "error: unsupported module shape for the witness producers\n")


def test_witness_fuzz_q_and_r():
    rng = random.Random(99)
    for _ in range(15):
        n = rng.randint(0, 120)
        eps = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)][rng.randrange(3)]
        q = build_Q(n)
        assert verify_witness(q, witness_postinjective_2k(q, eps)).ok
    for _ in range(15):
        n = rng.randint(1, 120)
        eps = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)][rng.randrange(3)]
        r = build_R(PencilBlock("R_mono", n))
        assert verify_witness(r, witness_regular_2k(r, eps)).ok


def test_combinator_direct_sum():
    w1 = witness_preprojective_2k(7, QUARTER)
    w2 = witness_preprojective_2k(7, QUARTER)
    w = combinator_direct_sum([w1, w2])
    assert w.module.dim == 30
    assert w.dim_n == 26
    assert verify_witness(w.module, w).ok
    single = combinator_direct_sum([w1])
    assert single.dim_n == w1.dim_n
    empty = combinator_direct_sum([], eps=QUARTER)
    assert empty.module.dim == 0
    assert verify_witness(empty.module, empty).ok


def test_combinator_direct_sum_offsets_id_lists():
    """Monomial parts are offset as id lists, so the sum's parts stay
    monomial; their modules and embeddings, and the JSON, are those of
    offsetting the embeddings' entries."""
    ws = [witness_preprojective_2k(30, QUARTER), witness_preprojective_2k(1, QUARTER),
          witness_regular_2k(_regular(40, QQ), QUARTER)]
    w = combinator_direct_sum(ws)
    assert all(type(p) is MonomialPart and p.ambient is w.module for p in w.parts)
    parts, off1, off2 = [], 0, 0
    for x in ws:
        for p in x.parts:
            parts.append(WitnessPart(p.module, *(
                Matrix.from_entries(QQ, rows, e.cols, ((i + off, j, v) for i, j, v in e.entries()))
                for e, rows, off in ((p.emb1, w.module.dim1, off1),
                                     (p.emb2, w.module.dim2, off2)))))
        off1 += x.module.dim1
        off2 += x.module.dim2
    ref = Witness(w.module, w.eps, w.l_eps, parts, dict(w.notes))
    assert [WitnessPart(p.module, p.emb1, p.emb2) for p in w.parts] == parts
    assert json.dumps(witness_to_dict(w)) == json.dumps(witness_to_dict(ref))
    assert verify_witness(w.module, w).ok


def test_combinator_direct_sum_leaves_the_dimension_bound_to_verify_witness():
    """A sum that misses the dimension bound is returned, not raised on:
    verify_witness refuses it on clause dimension."""
    good = witness_preprojective_2k(7, QUARTER)
    short = Witness(build_P(10), QUARTER, Fraction(21), [])
    out = combinator_direct_sum([good, short])
    assert [(p.sources, p.sinks) for p in out.parts] == [(p.sources, p.sinks)
                                                         for p in good.parts]
    rep = verify_witness(out.module, out)
    assert not rep.ok and rep.clause == "dimension"


def test_combinator_direct_sum_rejects_mixed_eps():
    w1 = witness_preprojective_2k(7, QUARTER)
    w2 = witness_preprojective_2k(7, Fraction(1, 2))
    with pytest.raises(ValidationError):
        combinator_direct_sum([w1, w2])


def test_combinator_direct_sum_refuses_an_eps_other_than_the_witnesses():
    """An explicit eps must be the witnesses' shared eps; the sum is never
    returned at another eps than the one asked for."""
    ws = [witness_preprojective_2k(7, QUARTER), witness_preprojective_2k(3, QUARTER)]
    for eps in (Fraction(1, 2), Fraction(1, 10)):
        with pytest.raises(ValidationError, match="requires a shared eps"):
            combinator_direct_sum(ws, eps=eps)
        with pytest.raises(ValidationError, match="requires a shared eps"):
            combinator_direct_sum(ws[:1], eps=eps)
    w = combinator_direct_sum(ws, eps=QUARTER)
    assert w.eps == QUARTER and verify_witness(w.module, w).ok


def test_combinator_direct_sum_refuses_mixed_fields_and_arrow_counts():
    """modules.direct_sum refuses the sum, with a ValidationError."""
    w = witness_preprojective_2k(7, QUARTER)
    for other in (witness_for(build_P(7, PrimeField(5)), QUARTER),
                  fragment_tree_module(build_preprojective_theta(3, 2), QUARTER)):
        with pytest.raises(ValidationError, match="matching arrow count and field"):
            combinator_direct_sum([w, other])


def _mixed(w):
    """w with every other part, from the second on, given as a general part."""
    parts = [WitnessPart(p.module, p.emb1, p.emb2) if t % 2 else p
             for t, p in enumerate(w.parts)]
    return Witness(w.module, w.eps, w.l_eps, parts, dict(w.notes))


def _general(w):
    """w with every part given as a general part."""
    parts = [WitnessPart(p.module, p.emb1, p.emb2) for p in w.parts]
    return Witness(w.module, w.eps, w.l_eps, parts, dict(w.notes))


def test_combinators_keep_monomial_parts_of_a_mixed_list(monkeypatch):
    """Through either combinator with a MonomialPart as the submodule, a
    monomial part stays a MonomialPart of the larger module and takes no
    product, and each general part takes one product per side. The JSON is
    that of the all-general witness, and verify_witness reports as the
    stacked check does."""
    R = _regular(60, QQ)
    sub = monomial_submodule(R, range(59))
    inner = _drop_rule_chain(sub.module, Fraction(1, 20))
    ws = [witness_preprojective_2k(30, QUARTER), witness_regular_2k(_regular(40, QQ), QUARTER)]
    real = Matrix.__matmul__
    count = [0]

    def counting(a, b):
        count[0] += 1
        return real(a, b)

    for combine, inner_ws in ((combinator_direct_sum, ws),
                              (lambda ws: combinator_bounded_codim(R, sub, *ws,
                                                                   Fraction(1, 10)), [inner])):
        mixed = [_mixed(w) for w in inner_ws]
        count[0] = 0
        monkeypatch.setattr(Matrix, "__matmul__", counting)
        out = combine(mixed)
        monkeypatch.undo()
        given = [p for w in mixed for p in w.parts]
        assert len(given) > 4
        # one product per side and general part
        assert count[0] == 2 * sum(type(p) is WitnessPart for p in given)
        assert [type(p) for p in out.parts] == [type(p) for p in given]
        assert all(p.ambient is out.module for p in out.parts if type(p) is MonomialPart)
        ref = combine([_general(w) for w in inner_ws])
        assert all(type(p) is WitnessPart for p in ref.parts)
        assert json.dumps(witness_to_dict(out)) == json.dumps(witness_to_dict(ref))
        rep = verify_witness(out.module, out)
        assert rep.ok and rep == _verify_stacked(out.module, out)


def test_combinator_bounded_codim_identity_transport():
    M = build_P(10)
    w = _drop_rule_chain(M, QUARTER)
    out = combinator_bounded_codim(
        M, WitnessPart(M, Matrix.identity(QQ, 10), Matrix.identity(QQ, 11)), w, QUARTER)
    assert verify_witness(M, out).ok


def test_combinator_bounded_codim_arithmetic():
    # L=1, eps=1/4, dim M = 40, eps' = 1/8: (7/8) * 39 = 34.125 >= 30
    assert (1 - Fraction(1, 8)) * 39 >= (1 - Fraction(1, 4)) * 40


def test_combinator_bounded_codim_guard():
    # L=3, eps=1/10, dim M = 50: 50 < 2*3/(1/10) = 60 -> refusal
    M = build_P(24)  # dim 49, close enough: use dims to trip the guard
    sub = monomial_submodule(M, range(21))
    L = M.dim - sub.dim
    inner = _drop_rule_chain(sub.module, Fraction(1, 20))
    if Fraction(M.dim) < Fraction(2 * L) / Fraction(1, 10):
        with pytest.raises(GuardRefusal):
            combinator_bounded_codim(M, sub, inner, Fraction(1, 10))


def test_combinator_bounded_codim_rejects_large_inner_eps():
    M = build_P(40)
    sub = monomial_submodule(M, range(39))
    inner = _drop_rule_chain(sub.module, QUARTER)
    with pytest.raises(GuardRefusal):
        combinator_bounded_codim(M, sub, inner, QUARTER)


def _regular(n, field):
    return build_R(PencilBlock("R_poly", poly=(field.coerce(-1),), e=n), field)


_FAMILIES = (
    (_regular, witness_regular_2k, nested_regular_witness),
    (lambda n, field: build_R(PencilBlock("R_mono", n), field), witness_regular_2k,
     nested_regular_witness),
    (build_Q, witness_postinjective_2k, nested_postinjective_witness))


def _assert_matches_nested(M, eps, produce, nested):
    """produce(M, eps) and the nested construction give the same parts and
    witness_to_dict bytes, and the nested construction refuses nothing."""
    try:
        ref = nested(M, eps)
    except GuardRefusal as exc:
        pytest.fail(f"nested construction refused {M.dim1}x{M.dim2} at eps {eps}: {exc}")
    w = produce(M, eps)
    assert w.parts == ref.parts, (M, eps)
    assert json.dumps(witness_to_dict(w)) == json.dumps(witness_to_dict(ref))


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_producers_match_the_nested_construction(field):
    """The regular and postinjective producers, which compute their kept
    vertex set in the module's own ids, give the witness of the nested
    construction (each submodule built as a module, its inner witness, then
    combinator_bounded_codim), parts and JSON bytes alike. n = 4..12 hits
    the cases where an inner step keeps its whole module; at eps = 4/9 and
    n = 6 the kernel of Q_n has exactly the size target 4/eps + 3."""
    for n in [*range(1, 13), 30, 80, 300]:
        for eps in (Fraction(1, 2), QUARTER, Fraction(1, 10), Fraction(4, 9)):
            for build, produce, nested in _FAMILIES:
                _assert_matches_nested(build(n, field), eps, produce, nested)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 200), b=st.integers(2, 60), data=st.data(),
       field=st.sampled_from([QQ, PrimeField(5)]), family=st.sampled_from(_FAMILIES))
def test_producers_match_the_nested_construction_on_drawn_cases(n, b, data, field, family):
    """As above on drawn cases: eps = a/b with 1 <= a < b <= 60, n up to 200."""
    eps = Fraction(data.draw(st.integers(1, b - 1), label="a"), b)
    build, produce, nested = family
    _assert_matches_nested(build(n, field), eps, produce, nested)


@pytest.mark.parametrize("make", [lambda: _regular(300, QQ), lambda: build_Q(300)],
                         ids=["R_poly", "Q"])
def test_producers_build_each_module_once(make, monkeypatch):
    """One adjacency list of M itself, and no part module, combinator,
    submodule, product, restriction or selection."""
    M = make()
    calls = []
    for name in ("build_gamma", "combinator_bounded_codim", "monomial_submodule"):
        real = getattr(witness_mod, name)
        monkeypatch.setattr(witness_mod, name,
                            lambda *a, _n=name, _f=real: calls.append((_n, a[0])) or _f(*a))
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: calls.append("matmul"))
    monkeypatch.setattr(Matrix, "submatrix", lambda *a: calls.append("submatrix"))
    monkeypatch.setattr(Matrix, "selection", lambda *a: calls.append("selection"))
    monkeypatch.setattr(KroneckerModule, "__init__", lambda *a: calls.append("module"))
    w = witness_for(M, Fraction(1, 10))
    assert calls == [("build_gamma", M)]
    assert len(w.parts) > 1


def test_transport_of_an_inner_witness_without_parts():
    zero = direct_sum([], d=2, field=QQ)
    empty = Matrix.zeros(QQ, 0, 0)
    inner = combinator_direct_sum([], eps=Fraction(1, 8))
    out = combinator_bounded_codim(zero, WitnessPart(zero, empty, empty), inner, QUARTER)
    assert out.parts == [] and verify_witness(zero, out).ok
    # over a nonzero module the empty witness is refused on its dimension
    M = build_P(10)
    inner = Witness(M, Fraction(1, 8), Fraction(11), [])
    with pytest.raises(GuardRefusal, match="dim N = 0"):
        combinator_bounded_codim(
            M, WitnessPart(M, Matrix.identity(QQ, 10), Matrix.identity(QQ, 11)), inner, QUARTER)


def test_transport_takes_one_product_per_side(monkeypatch):
    """One product per side and general part: the inner parts are given as
    general parts, which take the product route."""
    R = _regular(500, QQ)
    sub = monomial_submodule(R, range(499))
    real = Matrix.__matmul__
    count = [0]

    def counting(a, b):
        count[0] += 1
        return real(a, b)

    seen = []
    for eps in (Fraction(1, 2), Fraction(1, 10)):
        inner = _drop_rule_chain(sub.module, eps / 2)
        inner.parts = [WitnessPart(p.module, p.emb1, p.emb2) for p in inner.parts]
        count[0] = 0
        monkeypatch.setattr(Matrix, "__matmul__", counting)
        combinator_bounded_codim(R, sub, inner, eps)
        monkeypatch.undo()
        seen.append((len(inner.parts), count[0]))
    assert seen[0][0] != seen[1][0] and min(seen)[0] > 2
    assert [c for _, c in seen] == [2 * n for n, _ in seen]


def test_combinator_bounded_codim_refuses_an_inner_witness_for_another_module():
    """P_199 on the first sources and sinks of P_200, with a witness for
    P_300 as the inner witness: refused before any part is transported,
    whichever form the submodule takes."""
    M = build_P(200)
    inner = witness_for(build_P(300), Fraction(1, 8))
    for sub in (WitnessPart(build_P(199), Matrix.selection(QQ, 200, range(199)),
                            Matrix.selection(QQ, 201, range(200))),
                MonomialPart(M, list(range(199)), list(range(200)))):
        with pytest.raises(ValidationError, match="inner witness is not for the submodule"):
            combinator_bounded_codim(M, sub, inner, QUARTER)
        # the witness for the submodule itself is carried
        w = combinator_bounded_codim(M, sub, witness_for(sub.module, Fraction(1, 8)), QUARTER)
        assert verify_witness(M, w).ok


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(0, 30), min_size=3, max_size=3),
       field=st.sampled_from([QQ, PrimeField(5)]),
       eps=st.sampled_from([Fraction(1, 2), QUARTER, Fraction(1, 10)]))
@example(sizes=[0, 0, 0], field=PrimeField(5), eps=QUARTER)
def test_component_witnesses_combine_to_a_witness_of_the_sum(sizes, field, eps):
    """The chain of ROADMAP item 6 step 1 on P_a + Q_b + R_(x-1)^c,
    block-diagonal (a size of 0 leaves its summand out; with all three out M
    is the zero module over the field, with no components):
    split_components, witness_for on each part's module,
    combinator_direct_sum, then combinator_bounded_codim at codimension 0
    with the part on the components' ids, concatenated. Every part stays a
    MonomialPart of M, and the partition check agrees with the stacked one."""
    a, b, c = sizes
    blocks = [build(n, field) for build, n in ((build_P, a), (build_Q, b), (_regular, c)) if n]
    M = direct_sum(blocks, d=2, field=field)
    comps = split_components(M)
    assert all(type(p) is MonomialPart and p.ambient is M for p in comps)
    ws = [witness_for(p.module, eps) for p in comps]
    inner = combinator_direct_sum(ws, eps=eps, d=2, field=field)
    sub = MonomialPart(M, [v for p in comps for v in p.sources],
                       [v for p in comps for v in p.sinks])
    w = combinator_bounded_codim(M, sub, inner, eps)
    assert w.notes["codim"] == 0
    assert all(type(p) is MonomialPart and p.ambient is M for p in w.parts)
    rep = verify_witness(M, w)
    assert rep.ok and rep == _verify_stacked(M, w)
    assert w.dim_n == sum(x.dim_n for x in ws)


def test_verify_witness_detects_oversized_part():
    w = witness_preprojective_2k(7, QUARTER)
    w.l_eps = Fraction(4)  # P_2 parts now exceed the bound
    rep = verify_witness(w.module, w)
    assert not rep.ok and rep.clause == "part-size"


def test_verify_witness_detects_non_closed_submodule():
    M = build_P(7)
    # drop one closure sink from the honest parts: arrow fails to intertwine
    w = witness_preprojective_2k(7, QUARTER)
    p = w.parts[0]
    bad_snk = p.emb2.is_selection()[:-1]
    bad_part = WitnessPart(
        p.module,
        p.emb1,
        Matrix.selection(QQ, M.dim2, bad_snk + [M.dim2 - 1]),
    )
    w.parts[0] = bad_part
    rep = verify_witness(M, w)
    assert not rep.ok and rep.clause == "embedding"


def test_verify_witness_detects_dimension_shortfall():
    w = witness_preprojective_2k(7, QUARTER)
    w.parts.pop()  # drop a part: dim N falls below the bound
    rep = verify_witness(w.module, w)
    assert not rep.ok and rep.clause == "dimension"


def _report(rep):
    return rep.ok, rep.clause, rep.detail


def test_verify_witness_refuses_a_different_module():
    w = witness_preprojective_2k(7, QUARTER)
    assert _report(verify_witness(build_P(8), w)) == (
        False, "embedding", "witness refers to a different module")


def test_verify_witness_refuses_embedding_shapes():
    M = build_P(7)
    w = witness_preprojective_2k(7, QUARTER)
    p = w.parts[1]
    w.parts[1] = WitnessPart(p.module, Matrix.selection(QQ, M.dim1 + 1, p.emb1.is_selection()),
                             p.emb2)
    assert _report(verify_witness(M, w)) == (
        False, "embedding", "part 1: embedding shape mismatch")
    w = witness_preprojective_2k(7, QUARTER)
    p = w.parts[2]
    w.parts[2] = WitnessPart(p.module, p.emb1,
                             Matrix.selection(QQ, M.dim2, p.emb2.is_selection()[:-1]))
    assert _report(verify_witness(M, w)) == (
        False, "embedding", "part 2: embedding/part shape mismatch")


def test_verify_witness_refuses_arrow_count_or_field():
    M = build_P(7)
    for fld, d in ((PrimeField(5), 2), (QQ, 3)):
        w = witness_preprojective_2k(7, QUARTER)
        p = w.parts[0]
        other = KroneckerModule(d, fld, p.module.dim1, p.module.dim2,
                                [Matrix.zeros(fld, p.module.dim2, p.module.dim1)] * d)
        w.parts[0] = WitnessPart(other, p.emb1, p.emb2)
        assert _report(verify_witness(M, w)) == (
            False, "embedding", "part 0: arrow count or field mismatch")


def test_verify_witness_refuses_parts_sharing_an_index():
    # the same closed part twice intertwines, but shares its source indices
    M = build_P(7)
    w = witness_preprojective_2k(7, QUARTER)
    w.parts.append(w.parts[0])
    assert _report(verify_witness(M, w)) == (
        False, "embedding", "source embeddings are dependent")
    # two sink-only parts on one sink: sources independent, sinks not
    sink = KroneckerModule(2, QQ, 0, 1, [Matrix.zeros(QQ, 1, 0)] * 2)
    part = WitnessPart(sink, Matrix.zeros(QQ, M.dim1, 0), Matrix.selection(QQ, M.dim2, [3]))
    w = witness_preprojective_2k(7, QUARTER)
    w.parts += [part, part]
    assert _report(verify_witness(M, w)) == (
        False, "embedding", "sink embeddings are dependent")


def test_fragment_tree_module_small_and_theta():
    M = build_preprojective_theta(3, 1)
    w = fragment_tree_module(M, Fraction(1, 5))
    assert w.notes.get("whole_module")
    assert verify_witness(M, w).ok

    M = build_preprojective_theta(3, 6)
    w = fragment_tree_module(M, Fraction(1, 5))
    rep = verify_witness(M, w)
    assert rep.ok, rep
    assert w.notes["removed_fraction"] <= Fraction(1, 5)
    assert all(p.module.dim <= w.l_eps for p in w.parts)
    # each split removes at most the centroid plus its incoming sources
    assert w.notes["max_removed_per_split"] <= M.d + 1


def test_fragment_tree_module_rejects_non_tree():
    r = build_R(PencilBlock("R_poly", poly=(1, 1), e=1), PrimeField(2))
    with pytest.raises(PreconditionError):
        fragment_tree_module(r, QUARTER)


def test_fragment_tree_budget_metadata():
    for t in (4, 6, 8):
        M = build_preprojective_theta(3, t)
        w = fragment_tree_module(M, QUARTER)
        assert verify_witness(M, w).ok
        assert w.notes["budget_met"]


def test_fragment_postinjective_default_bound_is_whole_module():
    L = postinjective_fragment_size_bound(3, QUARTER)
    assert L > 3571  # every d=3, t<=8 module sits below the proof bound
    w = fragment_postinjective_theta(3, 6, QUARTER)
    assert w.notes.get("whole_module") and w.notes.get("below_threshold")
    assert verify_witness(w.module, w).ok


def test_fragment_postinjective_staged_with_override():
    for t, L in ((5, 30), (6, 40), (7, 60)):
        w = fragment_postinjective_theta(3, t, QUARTER, l_override=L)
        rep = verify_witness(w.module, w)
        assert rep.ok, (t, L, rep)
        assert all(p.module.dim <= L for p in w.parts)
        assert w.notes["removed_fraction"] <= QUARTER
        assert w.notes["budget_met"]


def test_fragment_postinjective_size_target_one_splits_and_fails_the_dimension_clause():
    """At size target 1 the tree is split like at any other target, and so
    much is removed that the dimension clause fails."""
    for t in (1, 2, 3):
        w = fragment_postinjective_theta(3, t, QUARTER, l_override=1)
        assert w.l_eps == 1 and "guard_triggered" not in w.notes
        assert not w.notes.get("whole_module")
        assert all(p.dim <= 1 for p in w.parts)
        assert verify_witness(w.module, w).clause == "dimension"


def test_fragment_postinjective_parts_are_closed_submodules():
    w = fragment_postinjective_theta(3, 6, QUARTER, l_override=40)
    M = w.module
    for p in w.parts:
        for k in range(M.d):
            assert M.maps[k] @ p.emb1 == p.emb2 @ p.module.maps[k]


def test_witness_serialization_roundtrip_fields():
    w = witness_preprojective_2k(7, QUARTER)
    d = witness_to_dict(w, verify_witness(w.module, w))
    assert d["eps"] == "1/4"
    assert d["l_eps"] == "7"
    assert d["dim_n"] == 13
    assert d["verdict"]["pass"] is True
    assert all("source_indices" in p for p in d["parts"])


def test_witness_to_dict_writes_general_embeddings_as_matrix_text():
    """A witness for P_6 carried into a scrambled copy by the isomorphism of
    certify_pencil has parts with general embeddings: the JSON holds their
    matrix text, which reads back to the embeddings."""
    F5 = PrimeField(5)
    D = build_P(6, F5)
    rng = random.Random(6)
    g1, g2 = random_invertible(F5, D.dim1, rng), random_invertible(F5, D.dim2, rng)
    M = KroneckerModule(2, F5, D.dim1, D.dim2, [g2 @ m @ g1 for m in D.maps])
    blocks, F1, F2 = certify_pencil(M)
    assert blocks == Counter({PencilBlock("P", 6): 1})
    w = combinator_bounded_codim(M, WitnessPart(D, F1, F2), witness_for(D, QUARTER), QUARTER)
    assert verify_witness(M, w).ok
    parts = json.loads(json.dumps(witness_to_dict(w)))["parts"]
    assert len(parts) == len(w.parts) > 1
    for entry, p in zip(parts, w.parts):
        assert "source_indices" not in entry and "sink_indices" not in entry
        assert entry["dims"] == [p.module.dim1, p.module.dim2]
        assert matrix_from_text(entry["emb1"]) == p.emb1
        assert matrix_from_text(entry["emb2"]) == p.emb2


# -- the partition check of verify_witness against the stacked check -------------


@pytest.mark.parametrize("make", [
    lambda: witness_preprojective_2k(60, QUARTER),
    lambda: witness_postinjective_2k(build_Q(80), Fraction(1, 10)),
    lambda: witness_regular_2k(build_R(PencilBlock("R_poly", poly=(Fraction(-1),), e=60)),
                               QUARTER),
    lambda: witness_regular_2k(build_R(PencilBlock("R_mono", 60), PrimeField(5)), QUARTER),
    lambda: fragment_tree_module(build_preprojective_theta(3, 6), Fraction(1, 5)),
    lambda: fragment_postinjective_theta(3, 6, QUARTER, l_override=40),
], ids=["P", "Q", "R_poly", "R_mono", "theta_pre", "theta_post"])
def test_monomial_witnesses_verify_without_direct_sum_or_products(make, monkeypatch):
    w = make()
    assert len(w.parts) > 1

    def refuse(*args, **kwargs):
        raise AssertionError("the partition check builds no direct sum, product, "
                             "restriction, selection or module")

    monkeypatch.setattr(witness_mod, "direct_sum", refuse)
    monkeypatch.setattr(Matrix, "__matmul__", refuse)
    monkeypatch.setattr(Matrix, "submatrix", refuse)
    monkeypatch.setattr(Matrix, "selection", refuse)
    monkeypatch.setattr(KroneckerModule, "__init__", refuse)
    assert verify_witness(w.module, w).ok


_CHANGES = ["none", "unclosed", "drop_sink", "share_source", "share_sink", "repeat",
            "out_of_range", "entry", "scaled", "extra_entry"]


@st.composite
def partition_witnesses(draw):
    """(M, witness, refused): monomial parts of a random module, on id lists
    drawn for one change, and whether that change must be refused on the
    embedding clause. The change is one of

    - none: the components of a random arrow-closed vertex set;
    - unclosed: random disjoint vertex sets, closed under arrows or not;
    - drop_sink, share_source, share_sink, repeat, out_of_range: a component
      loses a sink, takes a source or sink of some component (itself
      included), repeats one of its ids, or gets an id past either end;
    - entry, scaled, extra_entry: a component becomes a general part, with
      one map entry changed, emb1 doubled, or one more entry in emb2.

    An id used twice, an id out of range and a changed map entry are
    always refused; the other changes may leave a valid witness.
    """
    field = draw(st.sampled_from([QQ, PrimeField(5)]))
    d = draw(st.integers(1, 3))
    dim1, dim2 = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    cell = st.sampled_from([0, 0, 0, 0, 1, -1, 2, Fraction(1, 2)])
    M = KroneckerModule(d, field, dim1, dim2, [
        Matrix.from_entries(field, dim2, dim1, [(i, j, draw(cell)) for i in range(dim2)
                                                for j in range(dim1)])
        for _ in range(d)])
    adj = build_gamma(M)
    kind = draw(st.sampled_from(_CHANGES))
    if kind == "unclosed":
        owner = [draw(st.integers(-1, 3)) for _ in range(dim1 + dim2)]
        comps = [[v for v, o in enumerate(owner) if o == t] for t in range(4)]
    else:
        kept = [j for j in range(dim1) if draw(st.booleans())]
        hit = {w for j in kept for w in adj[j]}
        kept += [v for v in range(dim1, dim1 + dim2) if v in hit or draw(st.booleans())]
        comps = components(adj, kept)
    lists = [([v for v in c if v < dim1], [v - dim1 for v in c if v >= dim1]) for c in comps]
    parts = [MonomialPart(M, src, snk) for src, snk in lists]
    refused = False
    if lists and kind not in ("none", "unclosed"):
        t = draw(st.integers(0, len(lists) - 1))
        src, snk = lists[t]
        u = draw(st.integers(0, len(lists) - 1))
        if kind == "drop_sink" and snk:
            del snk[draw(st.integers(0, len(snk) - 1))]
        elif kind == "share_source" and lists[u][0]:
            src.append(lists[u][0][0])
            refused = True
        elif kind == "share_sink" and lists[u][1]:
            snk.append(lists[u][1][-1])
            refused = True
        elif kind == "repeat" and src + snk:
            ids = draw(st.sampled_from([ids for ids in (src, snk) if ids]))
            ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from(ids)))
            refused = True
        elif kind == "out_of_range":
            ids, n = draw(st.sampled_from([(src, dim1), (snk, dim2)]))
            ids.insert(draw(st.integers(0, len(ids))), draw(st.sampled_from([-1, n, n + 3])))
            refused = True
        p = parts[t]
        if kind == "entry" and src and snk:
            k = draw(st.integers(0, d - 1))
            r = draw(st.integers(0, len(snk) - 1))
            c = draw(st.integers(0, len(src) - 1))
            maps = list(p.module.maps)
            ent = [e for e in maps[k].entries() if e[:2] != (r, c)]
            maps[k] = Matrix.from_entries(field, len(snk), len(src),
                                          ent + [(r, c, maps[k].entry(r, c) + 1)])
            parts[t] = WitnessPart(KroneckerModule(d, field, len(src), len(snk), maps),
                                   p.emb1, p.emb2)
            refused = True
        elif kind == "scaled":
            parts[t] = WitnessPart(p.module, p.emb1.scale(2), p.emb2)
        elif kind == "extra_entry" and snk and dim2 > 1:
            row = draw(st.integers(0, dim2 - 1).filter(lambda i: i != snk[0]))
            emb2 = Matrix.from_entries(field, dim2, len(snk),
                                       [(i, c, 1) for c, i in enumerate(snk)] + [(row, 0, 1)])
            parts[t] = WitnessPart(p.module, p.emb1, emb2)
    eps = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(1)]))
    l_eps = Fraction(draw(st.integers(0, dim1 + dim2)))
    return M, Witness(M, eps, l_eps, parts), kind, refused


@settings(max_examples=400, deadline=None)
@given(partition_witnesses())
def test_partition_route_matches_the_stacked_check(case):
    M, w, kind, refused = case
    got = _report(verify_witness(M, w))
    assert got == _report(_verify_stacked(M, w))
    if kind == "none":
        assert got[0] or got[1] in ("part-size", "dimension")
    if refused:
        assert got[1] == "embedding"
