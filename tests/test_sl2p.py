import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronhf.errors import DomainError, ValidationError
from kronhf.fields import QQ, PrimeField
from kronhf.matrices import Matrix
from kronhf.modules import KroneckerModule, hom_dimension
from kronhf.sl2p import (ProjPoint, SL2pElement, adjoint_generators,
                         adjoint_rep, commutant_dimension, gen_s, gen_t,
                         identity_element, irreducible_rep, is_irreducible,
                         kazhdan_estimate, kazhdan_lower_bound,
                         kazhdan_upper_bound, mobius, orthogonal_rep,
                         permutation_rep, restricted_rep,
                         theta3_counterexample_module)

# transcribed ground truth: the explicit matrices of the construction
RHO3_S = [[0, -1, 1], [1, -1, 1], [0, 0, 1]]
RHO3_T = [[0, 0, -1], [0, -1, 0], [-1, 0, 0]]
RHO5_T = [
    [0, 0, 0, 0, -1],
    [0, 0, 0, -1, 0],
    [0, -1, 1, -1, 0],
    [0, -1, 0, 0, 0],
    [-1, 0, 0, 0, 0],
]
RHO7_T = [
    [0, 0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 0, -1, 0],
    [0, 0, -1, 1, 0, -1, 0],
    [0, -1, 0, 1, 0, -1, 0],
    [0, -1, 0, 1, -1, 0, 0],
    [0, -1, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0],
]
RHO11_T = [
    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, -1],
    [0, 0, 0, 0, 0, 0, 0, 0, 0, -1, 0],
    [0, 0, 0, 0, -1, 1, 0, 0, 0, -1, 0],
    [0, 0, 0, 0, -1, 1, -1, 1, 0, -1, 0],
    [0, 0, 0, 0, -1, 1, -1, 0, 1, -1, 0],
    [0, -1, 1, 0, -1, 1, -1, 0, 1, -1, 0],
    [0, -1, 1, 0, -1, 1, -1, 0, 0, 0, 0],
    [0, -1, 0, 1, -1, 1, -1, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 1, -1, 0, 0, 0, 0],
    [0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [-1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
]


def _rho_s_expected(p):
    """General form: subdiagonal ones, -1 column before last, last column ones."""
    m = [[0] * p for _ in range(p)]
    for i in range(p - 2):
        m[i + 1][i] = 1
    for i in range(p - 1):
        m[i][p - 2] = -1
    for i in range(p):
        m[i][p - 1] = 1
    return m


def _as_int(mat: Matrix):
    return [[int(mat.entry(i, j)) for j in range(mat.cols)] for i in range(mat.rows)]


def test_mobius_conventions():
    e = identity_element(5)
    for v in [0, 1, 4, None]:
        z = ProjPoint(5, v)
        assert mobius(e, z) == z
    t3 = gen_t(3)
    assert mobius(t3, ProjPoint(3, 0)) == ProjPoint(3, None)
    s5 = gen_s(5)
    assert mobius(s5, ProjPoint(5, 1)) == ProjPoint(5, 2)
    assert mobius(s5, ProjPoint(5, None)) == ProjPoint(5, None)


def test_sl2p_element_validation():
    with pytest.raises(ValidationError):
        SL2pElement(5, 1, 0, 0, 2)  # det 2
    with pytest.raises(ValidationError):
        SL2pElement(4, 1, 0, 0, 1)  # composite p


def test_permutation_rep_identity_and_t():
    assert permutation_rep(identity_element(3)) == Matrix.identity(QQ, 4)
    pt = permutation_rep(gen_t(3))
    # t swaps (0, inf) and (1, 2)
    expected = Matrix.selection(QQ, 4, [3, 2, 1, 0])
    assert pt == expected


def test_permutation_rep_homomorphism_random():
    rng = random.Random(13)
    for p in (3, 5, 7):
        elems = []
        while len(elems) < 10:
            a, b, c = rng.randrange(p), rng.randrange(p), rng.randrange(p)
            # solve for d with ad - bc = 1 when a invertible
            if a % p:
                d = (1 + b * c) * pow(a, -1, p) % p
                elems.append(SL2pElement(p, a, b, c, d))
        for _ in range(50):
            g, h = rng.choice(elems), rng.choice(elems)
            assert permutation_rep(g * h) == permutation_rep(g) @ permutation_rep(h)


def test_restricted_rep_matches_printed_matrices():
    assert _as_int(restricted_rep(gen_s(3))) == RHO3_S
    assert _as_int(restricted_rep(gen_t(3))) == RHO3_T
    assert _as_int(restricted_rep(gen_t(5))) == RHO5_T
    assert _as_int(restricted_rep(gen_t(7))) == RHO7_T
    assert _as_int(restricted_rep(gen_t(11))) == RHO11_T


def test_restricted_rep_s_general_form():
    for p in (3, 5, 7, 11, 13):
        assert _as_int(restricted_rep(gen_s(p))) == _rho_s_expected(p)


def test_restricted_rep_homomorphism_exact():
    rng = random.Random(21)
    for p in (3, 5, 7, 11, 13):
        elems = [gen_s(p), gen_t(p), gen_s(p) * gen_t(p)]
        for _ in range(20):
            g, h = rng.choice(elems), rng.choice(elems)
            assert restricted_rep(g * h) == restricted_rep(g) @ restricted_rep(h)


def test_rep_orders_and_symmetry():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        rep = irreducible_rep(p)  # raises internally if any invariant fails
        assert rep.mat_t @ rep.mat_t == Matrix.identity(QQ, p)


def test_irreducibility_examples():
    one = [Matrix.from_dense(QQ, [[1]])]
    assert is_irreducible(one)
    # the permutation rep fixes the all-ones vector: commutant is bigger
    perm = [permutation_rep(gen_s(3)), permutation_rep(gen_t(3))]
    assert not is_irreducible(perm)
    for p in (3, 5, 7):
        assert commutant_dimension([permutation_rep(gen_s(p)), permutation_rep(gen_t(p))]) == 2
    for p in (3, 5, 7, 11, 13):
        rep = irreducible_rep(p)
        assert is_irreducible([rep.mat_s, rep.mat_t])


def _commutant_oracle(dense_mats):
    """n^2 - rank over Q of the stacked kron(I, m^T) - kron(m, I), in sympy."""
    n = len(dense_mats[0])
    eye = sympy.eye(n)
    blocks = []
    for rows in dense_mats:
        m = sympy.Matrix(rows)
        blocks.append(sympy.kronecker_product(eye, m.T) - sympy.kronecker_product(m, eye))
    return n * n - sympy.Matrix.vstack(*blocks).rank()


@st.composite
def integer_tuples(draw):
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, 3))
    mats = [draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                          min_size=n, max_size=n)) for _ in range(r)]
    split = draw(st.integers(0, n - 1))
    if split:  # block diagonal: reducible, the commutant has dimension >= 2
        for m in mats:
            for i in range(n):
                for j in range(n):
                    if (i < split) != (j < split):
                        m[i][j] = 0
    return mats


@settings(max_examples=120, deadline=None)
@given(integer_tuples())
def test_commutant_dimension_matches_kron_oracle(dense_mats):
    mats = [Matrix.from_dense(QQ, m) for m in dense_mats]
    assert commutant_dimension(mats) == _commutant_oracle(dense_mats)


def test_commutant_recomputes_over_q_when_the_screen_overcounts():
    big = 2 ** 31 - 1
    screen = PrimeField(big)
    # diag(0, 2^31 - 1) is the zero matrix mod 2^31 - 1: everything commutes there
    reduced = KroneckerModule(2, screen, 2, 2, [Matrix.identity(screen, 2),
                                                Matrix.zeros(screen, 2, 2)])
    assert hom_dimension(reduced, reduced) == 4
    assert commutant_dimension([Matrix.from_dense(QQ, [[0, 0], [0, big]])]) == 2


def test_irreducible_rep_rejects_composite():
    with pytest.raises(DomainError):
        irreducible_rep(4)


def test_orthogonal_rep_is_orthogonal():
    for p in (3, 5, 7):
        for g in (gen_s(p), gen_t(p)):
            r = orthogonal_rep(g)
            assert np.max(np.abs(r @ r.T - np.eye(p))) < 1e-10


def test_adjoint_rep_identity_and_trace():
    p = 3
    ident = adjoint_rep(np.eye(p))
    assert np.max(np.abs(ident - np.eye(p * p - 1))) < 1e-10
    rng = np.random.default_rng(5)
    r = orthogonal_rep(gen_s(p))
    for _ in range(50):
        t = rng.standard_normal((p, p))
        t -= np.trace(t) / p * np.eye(p)
        img = r @ t @ np.linalg.inv(r)
        assert abs(np.trace(img)) < 1e-9


def test_adjoint_rep_rejects_non_orthogonal():
    with pytest.raises(ValidationError):
        adjoint_rep(np.diag([2.0, 1.0, 1.0]))


def test_adjoint_homomorphism_and_orthogonality():
    for p in (3, 5):
        a_s = adjoint_rep(orthogonal_rep(gen_s(p)))
        a_t = adjoint_rep(orthogonal_rep(gen_t(p)))
        a_st = adjoint_rep(orthogonal_rep(gen_s(p) * gen_t(p)))
        assert np.max(np.abs(a_s @ a_t - a_st)) < 1e-9


def test_adjoint_has_no_fixed_vector_p3():
    a_s, a_t = adjoint_generators(3)
    m = a_s.shape[0]
    stacked = np.vstack([a_s - np.eye(m), a_t - np.eye(m)])
    assert np.linalg.matrix_rank(stacked, tol=1e-8) == m


def test_kazhdan_lower_bound_cases():
    assert kazhdan_lower_bound([np.eye(3)]) == pytest.approx(0.0, abs=1e-12)
    assert kazhdan_lower_bound([-np.eye(1)]) == pytest.approx(2.0, abs=1e-12)
    # common fixed vector forces zero: permutation rep fixes all-ones
    perms = []
    for g in (gen_s(3), gen_t(3)):
        m = np.zeros((4, 4))
        for i, j, v in permutation_rep(g).entries():
            m[i, j] = float(v)
        perms.append(m)
    assert kazhdan_lower_bound(perms) == pytest.approx(0.0, abs=1e-8)


def test_kazhdan_upper_bound_cases():
    assert kazhdan_upper_bound([np.eye(2)], trials=5, seed=1) == pytest.approx(0.0, abs=1e-12)
    assert kazhdan_upper_bound([-np.eye(1)], trials=5, seed=1) == pytest.approx(2.0, abs=1e-12)


def reference_upper_bound(gens, trials, seed):
    """The descent with one objective call per move: the oracle for kazhdan_upper_bound."""
    mats = [np.asarray(g, dtype=float) - np.eye(g.shape[0]) for g in gens]
    n = mats[0].shape[0]

    def objective(v):
        return max(float(np.linalg.norm(m @ v)) for m in mats)

    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(trials):
        v = rng.standard_normal(n)
        v /= np.linalg.norm(v)
        val = objective(v)
        step = 0.5
        while step > 1e-3:
            improved = False
            for i in range(n):
                for sgn in (1.0, -1.0):
                    cand = v.copy()
                    cand[i] += sgn * step
                    cand /= np.linalg.norm(cand)
                    cv = objective(cand)
                    if cv < val - 1e-12:
                        v, val = cand, cv
                        improved = True
            if not improved:
                step /= 2.0
        best = min(best, val)
    return best


@st.composite
def generator_lists(draw):
    """Orthogonal (QR of Gaussians), permutation, general real or nearly scalar matrices.

    Nearly scalar generators make the objective almost flat, so many moves
    lower it by about the 1e-12 the descent asks for, at every scale.
    """
    n = draw(st.integers(1, 14))
    r = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["orthogonal", "permutation", "general", "nearly scalar"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "orthogonal":
        return [np.linalg.qr(rng.standard_normal((n, n)))[0] for _ in range(r)]
    if kind == "permutation":
        return [np.eye(n)[rng.permutation(n)] for _ in range(r)]
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e10]))
    if kind == "general":
        return [scale * rng.standard_normal((n, n)) for _ in range(r)]
    spread = draw(st.sampled_from([1e-15, 1e-13, 1e-12]))
    return [np.diag(scale * (1.0 + spread * rng.standard_normal(n))) for _ in range(r)]


@settings(max_examples=150, deadline=None)
@given(generator_lists(), st.integers(1, 3), st.integers(0, 2 ** 64 - 1))
# rounding noise alone lowers the objective here; the screen must still admit those moves
@example(gens=[1e10 * np.eye(2)] * 2, trials=1, seed=1)
def test_upper_bound_matches_reference_descent(gens, trials, seed):
    assert kazhdan_upper_bound(gens, trials, seed) == reference_upper_bound(gens, trials, seed)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_upper_bound_matches_reference_on_adjoint_generators(p):
    gens = adjoint_generators(p)
    for seed in (0, 1, 2, 903, 2 ** 32 - 1):
        assert kazhdan_upper_bound(gens, 1, seed) == reference_upper_bound(gens, 1, seed)


def test_kazhdan_bracket_p3():
    est = kazhdan_estimate(3, trials=40, seed=7)
    assert est.lower > 0
    assert est.lower <= est.upper + 1e-8
    assert est.upper <= 2.0 + 1e-9
    assert est.alpha == pytest.approx(est.lower ** 2 / 12.0)


def test_kazhdan_rejects_non_orthogonal():
    with pytest.raises(ValidationError):
        kazhdan_lower_bound([np.diag([2.0, 1.0])])


def test_kazhdan_bounds_reject_generators_of_mixed_or_non_square_shape():
    for gens in ([np.eye(2), np.eye(3)], [np.ones((2, 3))], [np.ones(3)],
                 [np.zeros((0, 0))], []):
        for bound in (kazhdan_lower_bound, kazhdan_upper_bound):
            with pytest.raises(ValidationError):
                bound(gens)


def test_theta3_module():
    M = theta3_counterexample_module(3)
    assert (M.d, M.dim1, M.dim2) == (3, 3, 3)
    assert M.maps[0] == Matrix.identity(QQ, 3)
    assert _as_int(M.maps[1]) == RHO3_S
    assert _as_int(M.maps[2]) == RHO3_T
    for p in (3, 5, 7):
        M = theta3_counterexample_module(p)
        for m in M.maps:
            assert m.rank() == p
        from kronhf.matrices import column_space_dim_of_stack

        assert column_space_dim_of_stack(list(M.maps)) == p


def test_theta3_finite_reduction():
    F2 = PrimeField(2)
    M = theta3_counterexample_module(3, F2)
    assert M.field == F2
    assert all(all(v in (0, 1) for _, _, v in m.entries()) for m in M.maps)
