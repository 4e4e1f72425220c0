import itertools
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronhf import sl2p
from kronhf.errors import DomainError, ValidationError
from kronhf.fields import QQ, PrimeField
from kronhf.matrices import Matrix
from kronhf.modules import PresolvedHom
from kronhf.sl2p import (SL2pElement, adjoint_generators, adjoint_rep,
                         commutant_dimension, gen_s, gen_t, irreducible_rep,
                         is_irreducible, kazhdan_estimate, kazhdan_lower_bound,
                         kazhdan_upper_bound, orthogonal_rep, point_permutation,
                         restricted_rep, theta3_counterexample_module)

from oracles import permutation_rep

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


def _homogeneous_permutation(g):
    """point_permutation by homogeneous coordinates: (x : y) -> (a x + b y : c x + d y),
    with z as (z : 1) and infinity as (1 : 0)."""
    p = g.p
    out = []
    for x, y in [(z, 1) for z in range(p)] + [(1, 0)]:
        u, v = (g.a * x + g.b * y) % p, (g.c * x + g.d * y) % p
        out.append(p if v == 0 else u * pow(v, -1, p) % p)
    return out


def test_mobius_conventions():
    assert point_permutation(SL2pElement(5, 1, 0, 0, 1)) == list(range(6))
    assert point_permutation(gen_t(3))[0] == 3  # z -> -1/z sends 0 to infinity
    s5 = point_permutation(gen_s(5))  # z -> z + 1 fixes infinity
    assert s5[1] == 2 and s5[5] == 5
    for p in (2, 3, 5, 7):
        for a, b, c, d in itertools.product(range(p), repeat=4):
            if (a * d - b * c) % p == 1:
                g = SL2pElement(p, a, b, c, d)
                assert point_permutation(g) == _homogeneous_permutation(g)


def test_sl2p_element_validation():
    with pytest.raises(ValidationError):
        SL2pElement(5, 1, 0, 0, 2)  # det 2
    with pytest.raises(ValidationError):
        SL2pElement(4, 1, 0, 0, 1)  # composite p


def test_permutation_rep_identity_and_t():
    assert permutation_rep(SL2pElement(3, 1, 0, 0, 1)) == Matrix.identity(QQ, 4)
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
    for p in (3, 5, 7, 11, 13, 17):
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


def _first_block(draw, b):
    """A b x b diagonal block of the first matrix: random, the companion
    matrix of a random monic polynomial (nonderogatory), or triangular with
    one repeated eigenvalue (derogatory or a single Jordan block)."""
    entries = st.integers(-2, 2)
    kind = draw(st.sampled_from(["random", "companion", "repeated"]))
    if kind == "random":
        return draw(st.lists(st.lists(entries, min_size=b, max_size=b), min_size=b, max_size=b))
    m = [[0] * b for _ in range(b)]
    if kind == "companion":
        for i in range(b - 1):
            m[i + 1][i] = 1
        for i in range(b):
            m[i][b - 1] = draw(entries)
    else:
        lam = draw(entries)
        for i in range(b):
            m[i][i] = lam
            for j in range(i + 1, b):
                m[i][j] = draw(entries)
    return m


@st.composite
def integer_tuples(draw):
    n = draw(st.integers(1, 4))
    r = draw(st.integers(1, 3))
    split = draw(st.integers(0, n - 1))
    blocks = [(0, split), (split, n)] if split else [(0, n)]
    first = [[0] * n for _ in range(n)]
    for lo, hi in blocks:
        for i, row in enumerate(_first_block(draw, hi - lo)):
            first[lo + i][lo:hi] = row
    mats = [first] + [draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                                    min_size=n, max_size=n)) for _ in range(r - 1)]
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


def test_commutant_routes_by_the_rank_of_the_krylov_matrix(monkeypatch):
    solves = []

    def recording(X, Y):
        solves.append(PresolvedHom(X, Y))
        return solves[-1]

    monkeypatch.setattr(sl2p, "PresolvedHom", recording)
    # the all-ones vector is cyclic for rho_p(s): the Krylov route decides
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        rep = irreducible_rep(p)
        assert commutant_dimension([rep.mat_s, rep.mat_t]) == 1
    assert solves == []
    # the permutation action of s fixes infinity and cycles the other p
    # points, so the eigenvalue 1 is repeated and s is derogatory
    for p in (3, 5, 7):
        assert commutant_dimension([permutation_rep(gen_s(p)), permutation_rep(gen_t(p))]) == 2
        assert [(h.X.field, h.kernel.cols) for h in solves] == [(QQ, 2)]
        solves.clear()
    # nonderogatory with two eigenvalues, and no other generator: the
    # commutant is the polynomials in s, of dimension 2
    assert commutant_dimension([Matrix.from_dense(QQ, [[0, 0], [0, 2 ** 31 - 1]])]) == 2
    assert solves == []


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


def test_adjoint_generators_are_built_once_and_read_only():
    gens = adjoint_generators(5)
    assert adjoint_generators(5) is gens
    fresh = [adjoint_rep(orthogonal_rep(gen_s(5))), adjoint_rep(orthogonal_rep(gen_t(5)))]
    assert all(np.array_equal(g, f) for g, f in zip(gens, fresh))
    with pytest.raises(ValueError):
        gens[0][0, 0] = 0.0


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


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_upper_bound_matches_reference_on_adjoint_generators(p):
    gens = adjoint_generators(p)
    # n = 120 and 168 at p = 11 and 13, where the reference takes up to 0.6 s a seed
    for seed in (0, 1, 2, 903, 2 ** 32 - 1) if p <= 7 else (0, 903):
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


def test_kazhdan_bounds_and_adjoint_rep_reject_non_finite_entries():
    # a NaN compares False with any tolerance, so an orthogonality check written
    # as `deviation > tol` would let these through
    for bad in (np.full((2, 2), np.nan), np.diag([1.0, np.nan]), np.diag([np.inf, 1.0]),
                np.diag([-np.inf, 1.0])):
        for gens in ([bad], [np.eye(2), bad]):
            for bound in (kazhdan_lower_bound, kazhdan_upper_bound):
                with pytest.raises(ValidationError, match="finite"):
                    bound(gens)
        with pytest.raises(ValidationError, match="finite"):
            adjoint_rep(bad)


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
