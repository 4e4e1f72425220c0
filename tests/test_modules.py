import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kronhf import modules as modules_mod
from kronhf.errors import DomainError, ValidationError
from kronhf.fields import QQ, PrimeField
from kronhf.matrices import Matrix
from kronhf.modules import (KroneckerModule, PencilBlock, a_sequence,
                            build_P, build_Q, build_R, build_postinjective_theta,
                            build_preprojective_theta, classify_standard,
                            closed_form_a, companion_matrix, direct_sum, factor_monic,
                            hom_space, module_from_text, parse_poly, poly_power_coeffs,
                            poly_to_sympy, t_bound_check)
from kronhf.quiver import build_gamma, degree_stats, is_tree

from oracles import (classify_standard_d2, comb_power_coeffs, dense_module_text, hom_system,
                     is_homomorphism, kernel_module, per_token_module_from_text,
                     poly_by_expression, random_matrix)


def test_build_P_small():
    z = build_P(0)
    assert (z.dim1, z.dim2) == (0, 1)
    assert all(m.is_zero() for m in z.maps)
    p1 = build_P(1)
    assert p1.maps[0].to_dense() == [[1], [0]]
    assert p1.maps[1].to_dense() == [[0], [1]]
    assert p1.defect == -1


def test_build_P3_zigzag():
    M = build_P(3)
    adj = build_gamma(M)
    assert len(adj) == 7
    assert sum(map(len, adj)) == 2 * 6
    assert is_tree(adj)
    # each source carries one edge per arrow
    for k, m in enumerate(M.maps):
        assert sorted(j for _, j, _ in m.entries()) == [0, 1, 2], k


def test_build_Q_small():
    q0 = build_Q(0)
    assert (q0.dim1, q0.dim2) == (1, 0)
    q1 = build_Q(1)
    assert q1.maps[0].to_dense() == [[1, 0]]
    assert q1.maps[1].to_dense() == [[0, 1]]
    assert build_Q(5).defect == 1


def test_build_R_conventions():
    r = build_R(PencilBlock("R_poly", poly=(Fraction(-1),), e=1))
    assert r.maps[0] == Matrix.identity(QQ, 1)
    assert r.maps[1].to_dense() == [[1]]
    r2 = build_R(PencilBlock("R_poly", poly=(Fraction(1), Fraction(0)), e=1))
    assert r2.maps[1].to_dense() == [[0, -1], [1, 0]]
    rm = build_R(PencilBlock("R_mono", 2))
    assert rm.maps[1] == Matrix.identity(QQ, 2)
    assert rm.maps[0].to_dense() == [[0, 0], [1, 0]]


def _canonical_rational(c):
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def test_polynomial_coefficients_over_q_are_canonical():
    for text, want in (("(x-1)^2", (1, -2)), ("x^2 + 1/2", (Fraction(1, 2), 0)),
                       ("x^3 - 3/2*x + 4", (4, Fraction(-3, 2), 0))):
        got = parse_poly(QQ, text)
        assert got == want and all(map(_canonical_rational, got))
    factors = factor_monic(QQ, parse_poly(QQ, "(x^2 - 1/4)^2*(x - 6/3)"))
    assert factors == [((-2,), 1), ((Fraction(-1, 2),), 2), ((Fraction(1, 2),), 2)]
    assert all(_canonical_rational(c) for q, _ in factors for c in q)
    for poly in ((Fraction(-2),), (Fraction(1, 3), Fraction(0))):
        R = build_R(PencilBlock("R_poly", poly=poly, e=3))
        assert all(_canonical_rational(v) for m in R.maps for _, _, v in m.entries())


def test_build_R_rejects_reducible():
    # x^2 - 1 = (x-1)(x+1) is not a prime power base
    with pytest.raises(ValidationError):
        build_R(PencilBlock("R_poly", poly=(Fraction(-1), Fraction(0)), e=1))


def test_build_R_decides_degree_one_without_factoring(monkeypatch):
    """A degree-1 q is irreducible, so no sympy factorization is made for
    it; the constant q and a reducible q of degree 2 are still refused."""
    def refuse(field, coeffs):
        raise AssertionError("factor_monic called on a degree-1 polynomial")

    for field in (QQ, PrimeField(5)):
        monkeypatch.setattr(modules_mod, "factor_monic", refuse)
        got = build_R(PencilBlock("R_poly", poly=(field.coerce(-1),), e=4), field)
        monkeypatch.undo()
        assert got.maps[0] == Matrix.identity(field, 4)
        assert got.maps[1] == companion_matrix(field, comb_power_coeffs(field, -1, 4))
        for poly, name in (((), "1"), ((field.coerce(-1), field.zero),
                                        "x^2 - 1" if field is QQ else "x^2 + 4")):
            with pytest.raises(ValidationError, match=re.escape(f"{name} is not irreducible")):
                build_R(PencilBlock("R_poly", poly=poly, e=1), field)


def test_a_sequence_values():
    seq = a_sequence(3, 5)
    assert seq.values == [0, 1, 3, 8, 21, 55]
    assert a_sequence(4, 2).values[2] == 4
    assert abs(seq.phi * seq.psi - 1) < 1e-12
    assert abs(seq.phi + seq.psi - 3) < 1e-12
    with pytest.raises(DomainError):
        a_sequence(2, 5)


def test_a_sequence_determinant_identity():
    # a_t^2 - a_{t+1} a_{t-1} = 1, a consequence of the recurrence
    for d in (3, 4, 5):
        vals = a_sequence(d, 25).values
        for t in range(1, 25):
            assert vals[t] ** 2 - vals[t + 1] * vals[t - 1] == 1


def test_closed_form_matches_recurrence():
    for d in (3, 4, 5):
        vals = a_sequence(d, 25).values
        for t in range(26):
            cf = closed_form_a(d, t)
            if vals[t]:
                assert abs(cf - vals[t]) / vals[t] < 1e-9
            else:
                assert abs(cf) < 1e-9
    assert closed_form_a(3, 4) == pytest.approx(21.0, abs=1e-7)
    assert closed_form_a(3, 0) == 0.0


def test_ratio_converges_to_inverse_phi():
    vals = a_sequence(3, 25).values
    phi_inv = 2 / (3 + math.sqrt(5))
    assert abs(vals[24] / vals[25] - phi_inv) < 1e-6


def test_t_bound_check():
    r = t_bound_check(3, 3)
    assert r.dim == 29 and r.holds
    assert r.bound == pytest.approx(22.39, abs=0.01)
    r = t_bound_check(3, 1)
    assert r.dim == 4 and r.holds
    assert r.bound == pytest.approx(8.31, abs=0.01)
    r = t_bound_check(5, 2)
    assert r.dim == 29 and r.holds


def test_theta_builders_shapes():
    m = build_preprojective_theta(3, 1)
    assert (m.dim1, m.dim2) == (1, 3)
    cols = sorted(tuple(mp.entries()) for mp in m.maps)
    assert cols == [(((0, 0, Fraction(1)),)), (((1, 0, Fraction(1)),)), (((2, 0, Fraction(1)),))]
    q = build_postinjective_theta(3, 1)
    assert (q.dim1, q.dim2) == (3, 1)
    assert all(mp.nnz == 1 for mp in q.maps)


def test_theta_post_structure():
    for d, tmax in ((3, 8), (4, 6)):
        vals = a_sequence(d, tmax + 1).values
        for t in range(1, tmax + 1):
            m = build_postinjective_theta(d, t)
            assert (m.dim1, m.dim2) == (vals[t + 1], vals[t])
            adj = build_gamma(m)
            assert is_tree(adj)
            indeg, outdeg = degree_stats(adj, m.dim1)
            assert outdeg <= 2
            assert indeg <= (t - 1) * (d - 2) + d


def test_theta_pre_structure():
    for d, tmax in ((3, 10), (4, 6)):
        vals = a_sequence(d, tmax + 1).values
        for t in range(1, tmax + 1):
            m = build_preprojective_theta(d, t)
            assert (m.dim1, m.dim2) == (vals[t], vals[t + 1])
            adj = build_gamma(m)
            assert is_tree(adj)
            indeg, _ = degree_stats(adj, m.dim1)
            assert indeg <= d
            # at most one incoming edge per arrow label at each sink
            for mp in m.maps:
                for i in range(m.dim2):
                    assert len(list(mp.row_items(i))) <= 1


def test_hom_space_examples():
    p1 = build_P(1)
    assert len(hom_space(p1, p1)) == 1
    p0 = build_P(0)
    assert len(hom_space(p0, p1)) == 2
    assert len(hom_space(build_Q(1), build_Q(0))) >= 1


def test_hom_space_intertwines():
    rng = random.Random(5)
    mods = [build_P(2), build_Q(2), build_R(PencilBlock("R_mono", 2))]
    for X in mods:
        for Y in mods:
            for f, g in hom_space(X, Y):
                assert is_homomorphism((f, g), X, Y)


@st.composite
def hom_pairs(draw):
    """(X, Y) over Q or GF(2), GF(3), GF(5): for d = 2 a direct sum of
    canonical blocks with P_0 and Q_0 among them, which pins every g column
    but those of P_0; for d = 2 and d = 3 also random sparse modules, whose
    pins have coefficients other than 1 and leave some columns free."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(5)]))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))

    def random_module(d):
        dim1, dim2 = draw(st.integers(0, 4)), draw(st.integers(0, 4))
        maps = []
        for _ in range(d):
            dense = random_matrix(field, dim2, dim1, rng, span=2)
            keep = [(i, j, v) for i, j, v in dense.entries() if rng.random() < 0.4]
            maps.append(Matrix.from_entries(field, dim2, dim1, keep))
        return KroneckerModule(d, field, dim1, dim2, maps)

    if draw(st.booleans()):
        d = draw(st.sampled_from([2, 3]))
        return random_module(d), random_module(d)
    one = (-1,) if field.char == 0 else (field.q - 1,)
    pool = ([build_P(n, field) for n in range(3)] + [build_Q(n, field) for n in range(3)]
            + [build_R(PencilBlock("R_mono", 2), field),
               build_R(PencilBlock("R_poly", poly=one, e=2), field)])
    X = direct_sum(draw(st.lists(st.sampled_from(pool), max_size=3)), d=2, field=field)
    Y = direct_sum(draw(st.lists(st.sampled_from(pool), max_size=3)), d=2, field=field)
    return X, Y


def _flat(X, Y, f, g):
    """A hom pair as one row vector in the unknowns of hom_system."""
    nf = Y.dim1 * X.dim1
    ent = [(0, i * X.dim1 + j, v) for i, j, v in f.entries()]
    ent += [(0, nf + i * X.dim2 + j, v) for i, j, v in g.entries()]
    return Matrix.from_entries(X.field, 1, nf + Y.dim2 * X.dim2, ent)


@settings(max_examples=150, deadline=None)
@given(hom_pairs())
def test_presolved_hom_space_matches_the_plain_hom_system(case):
    X, Y = case
    pairs = hom_space(X, Y)
    assert len(pairs) == hom_system(X, Y).kernel_basis().cols
    assert all(is_homomorphism(pair, X, Y) for pair in pairs)
    if pairs:
        assert Matrix.vstack([_flat(X, Y, f, g) for f, g in pairs]).rank() == len(pairs)


def test_kernel_module_zero_and_identity():
    p1 = build_P(1)
    z = (Matrix.zeros(QQ, 1, 1), Matrix.zeros(QQ, 2, 2))
    ker, _ = kernel_module(z, p1, p1)
    assert (ker.dim1, ker.dim2) == (1, 2)
    ident = (Matrix.identity(QQ, 1), Matrix.identity(QQ, 2))
    ker, _ = kernel_module(ident, p1, p1)
    assert ker.dim == 0


def test_kernel_module_rejects_non_hom():
    p1 = build_P(1)
    bad = (Matrix.identity(QQ, 1), Matrix.zeros(QQ, 2, 2))
    with pytest.raises(ValidationError):
        kernel_module(bad, p1, p1)


def test_kernel_of_theta_into_injective_has_low_defect():
    from kronhf.pencil import decompose_pencil

    q2 = build_Q(2)
    target = build_Q(0)
    theta = (Matrix.from_entries(QQ, 1, 3, [(0, 0, 1)]), Matrix.zeros(QQ, 0, 2))
    assert is_homomorphism(theta, q2, target)
    ker, _ = kernel_module(theta, q2, target)
    blocks = decompose_pencil(ker)
    assert all(b.defect <= 0 for b in blocks)


def test_direct_sum_dims_and_defect():
    assert direct_sum([]).dim == 0
    # each of d and field keeps its own default on the empty sum
    z = direct_sum([], d=3)
    assert (z.d, z.field, len(z.maps)) == (3, QQ, 3)
    z = direct_sum([], field=PrimeField(5))
    assert (z.d, z.field) == (2, PrimeField(5))
    s = direct_sum([build_P(1), build_P(1)])
    assert (s.dim1, s.dim2) == (2, 4)
    mix = direct_sum([build_P(1), build_Q(2), build_R(PencilBlock("R_mono", 3))])
    assert mix.defect == -1 + 1 + 0


def test_defect_additive_random():
    rng = random.Random(2)
    pool = [build_P(1), build_P(3), build_Q(0), build_Q(2),
            build_R(PencilBlock("R_mono", 2))]
    for _ in range(30):
        picks = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 4))]
        assert direct_sum(picks).defect == sum(m.defect for m in picks)


def test_module_text_roundtrip():
    for M in (build_P(3), build_Q(2, PrimeField(5)),
              build_R(PencilBlock("R_poly", poly=(Fraction(1), Fraction(0)), e=1)),
              build_P(0), build_Q(0), direct_sum([])):
        assert module_from_text(M.to_text()) == M


TEXT_FIELDS = (QQ, PrimeField(2), PrimeField(3), PrimeField(5))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_module_text_matches_the_dense_writer_and_per_token_reader(data):
    fld = data.draw(st.sampled_from(TEXT_FIELDS))
    d = data.draw(st.integers(1, 3))
    d1, d2 = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    density = data.draw(st.sampled_from((0.0, 0.2, 1.0)))
    maps = [random_matrix(fld, d2, d1, rng) for _ in range(d)]
    maps = [Matrix.from_entries(fld, d2, d1, [e for e in m.entries() if rng.random() < density])
            for m in maps]
    M = KroneckerModule(d, fld, d1, d2, maps)
    text = M.to_text()
    assert text == dense_module_text(M)
    assert module_from_text(text) == M
    assert per_token_module_from_text(text) == M


P1_TEXT = ("kronecker d=2 field=rational dims=1x2\n"
           "field rational\n2 1\n1\n0\nfield rational\n2 1\n0\n1\n")


def test_module_text_with_tokens_after_the_last_arrow_is_refused():
    assert module_from_text(P1_TEXT) == build_P(1)
    extra = P1_TEXT + "field rational\n2 1\n5\n5\n"
    assert per_token_module_from_text(extra) == build_P(1)    # the third block was dropped
    with pytest.raises(ValidationError,
                       match="^module text has 6 tokens after its 2 arrow matrices$"):
        module_from_text(extra)
    with pytest.raises(ValidationError, match="^module text has 1 tokens after"):
        module_from_text(P1_TEXT + "7\n")


@pytest.mark.parametrize("field", TEXT_FIELDS, ids=repr)
def test_poly_power_coeffs_matches_the_comb_formula(field):
    for a in (0, 1, -1, 2):
        for e in [*range(301), 2000]:
            assert poly_power_coeffs(field, (a,), e) == comb_power_coeffs(field, a, e), (a, e)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_poly_to_sympy_matches_the_expression_built_poly(data):
    field = data.draw(st.sampled_from([QQ, PrimeField(5)]))
    if field.char:
        coeff = st.integers(0, 4)
    else:
        coeff = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
    coeffs = tuple(map(field.coerce, data.draw(st.lists(coeff, max_size=6))))
    got, want = poly_to_sympy(field, coeffs), poly_by_expression(field, coeffs)
    assert got == want and repr(got) == repr(want)
    assert (got.domain, got.gens) == (want.domain, want.gens)


def test_classify_standard():
    assert classify_standard(build_P(4)) == ("P", 4)
    assert classify_standard(build_Q(3)) == ("Q", 3)
    assert classify_standard(build_R(PencilBlock("R_mono", 5))) == ("R_mono", 5)
    kind = classify_standard(build_R(PencilBlock("R_poly", poly=(Fraction(1), Fraction(0)), e=1)))
    assert kind == ("R_poly", (Fraction(1), Fraction(0)))
    assert classify_standard(build_postinjective_theta(3, 2)) is None
    assert classify_standard(build_preprojective_theta(3, 2)) is None
    assert classify_standard(build_P(0)) == ("P", 0)
    assert classify_standard(build_Q(0)) == ("Q", 0)
    assert classify_standard(direct_sum([])) is None
    assert classify_standard(build_R(PencilBlock("R_mono", 1))) == ("R_mono", 1)


def test_classify_standard_builds_no_theta_module(monkeypatch):
    """classify_standard names d = 2 shapes only: a d >= 3 module is None
    without a theta module built or an a-sequence taken."""
    mods = [build(d, t, fld) for build in (build_postinjective_theta, build_preprojective_theta)
            for d, t in ((3, 1), (3, 4), (4, 3)) for fld in (QQ, PrimeField(5))]

    def refuse(*args):
        raise AssertionError("classify_standard built a theta module")

    for name in ("build_postinjective_theta", "build_preprojective_theta", "a_sequence"):
        monkeypatch.setattr(modules_mod, name, refuse)
    assert [classify_standard(M) for M in mods] == [None] * len(mods)


_CELLS = [0, 0, 1, -1, 2, Fraction(1, 2)]


@st.composite
def near_canonical_d2(draw):
    """(module, mutation): P_n, Q_n, R_poly, R_mono or a zero module (of
    small dims, so P_0 and Q_0 too), then one entry of one map changed,
    added or removed, or the two maps swapped, or nothing."""
    field = draw(st.sampled_from([QQ, PrimeField(5)]))
    kind = draw(st.sampled_from(["P", "Q", "R_poly", "R_mono", "zero"]))
    n = draw(st.integers(0 if kind in ("P", "Q") else 1, 7))
    if kind == "P":
        M = build_P(n, field)
    elif kind == "Q":
        M = build_Q(n, field)
    elif kind == "R_mono":
        M = build_R(PencilBlock("R_mono", n), field)
    elif kind == "R_poly":
        coeffs = draw(st.lists(st.sampled_from(_CELLS), min_size=n, max_size=n))
        M = KroneckerModule(2, field, n, n,
                            [Matrix.identity(field, n), companion_matrix(field, coeffs)])
    else:
        d1, d2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        M = KroneckerModule(2, field, d1, d2, [Matrix.zeros(field, d2, d1)] * 2)
    mutation = draw(st.sampled_from(["none", "change", "add", "remove", "swap"]))
    if mutation == "swap":
        return KroneckerModule(2, field, M.dim1, M.dim2, M.maps[::-1]), mutation
    k = draw(st.integers(0, 1))
    ent = {(i, j): v for i, j, v in M.maps[k].entries()}
    if mutation in ("change", "remove") and ent:
        at = draw(st.sampled_from(sorted(ent)))
        if mutation == "remove":
            del ent[at]
        else:
            v = field.coerce(draw(st.sampled_from(_CELLS[2:])))
            assume(v != ent[at])
            ent[at] = v
    elif mutation == "add":
        free = [(i, j) for i in range(M.dim2) for j in range(M.dim1) if (i, j) not in ent]
        if free:
            ent[draw(st.sampled_from(free))] = field.coerce(draw(st.sampled_from(_CELLS[2:])))
    maps = list(M.maps)
    maps[k] = Matrix.from_entries(field, M.dim2, M.dim1, [(i, j, v) for (i, j), v in ent.items()])
    return KroneckerModule(2, field, M.dim1, M.dim2, maps), mutation


@settings(max_examples=500, deadline=None)
@given(near_canonical_d2())
def test_classify_standard_matches_build_and_compare(case):
    """classify_standard reads the d = 2 shapes off the row dicts; the
    oracle builds each candidate and compares."""
    M, _ = case
    assert classify_standard(M) == classify_standard_d2(M)


@pytest.mark.parametrize("field", [QQ, PrimeField(5)])
def test_classify_standard_matches_build_and_compare_on_every_one_entry_change(field):
    """Every single entry of either map of the shapes up to n = 4 set to
    each of 0, 1, -1 and 2, against the oracle."""
    cells = [field.coerce(v) for v in (0, 1, -1, 2)]
    shapes = []
    for n in range(5):
        shapes += [build_P(n, field), build_Q(n, field)]
        if n:
            shapes.append(build_R(PencilBlock("R_mono", n), field))
            for coeffs in ((0,) * n, (1,) + (0,) * (n - 1), (2,) * n):
                shapes.append(KroneckerModule(2, field, n, n, [
                    Matrix.identity(field, n), companion_matrix(field, coeffs)]))
    for M in shapes:
        for k in range(2):
            ent = {(i, j): v for i, j, v in M.maps[k].entries()}
            for i in range(M.dim2):
                for j in range(M.dim1):
                    for v in cells:
                        changed = dict(ent)
                        changed[i, j] = v
                        maps = list(M.maps)
                        maps[k] = Matrix.from_entries(field, M.dim2, M.dim1,
                                                      [(r, c, x) for (r, c), x in changed.items()])
                        N = KroneckerModule(2, field, M.dim1, M.dim2, maps)
                        assert classify_standard(N) == classify_standard_d2(N), (N, k, i, j, v)
