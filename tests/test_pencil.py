import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kronhf.errors import CertificateError, PreconditionError, ValidationError
from kronhf.fields import QQ, PrimeField
from kronhf.matrices import Matrix, random_invertible
from kronhf import modules, pencil
from kronhf.cli import main
from kronhf.modules import (KroneckerModule, PencilBlock, build_P, build_Q,
                            build_R, direct_sum)
from kronhf.pencil import (_chain_lengths, _colspace, _complete_basis, _intersect,
                           _isomorphism, _peel, _postinjective_source_space, _preimage,
                           _xchain, block_module, certify_pencil, decompose_pencil,
                           reassemble)


F2, F3, F5 = PrimeField(2), PrimeField(3), PrimeField(5)


def _scramble(M, rng):
    g1 = random_invertible(M.field, M.dim1, rng)
    g2 = random_invertible(M.field, M.dim2, rng)
    return KroneckerModule(2, M.field, M.dim1, M.dim2,
                           [g2 @ m @ g1 for m in M.maps])


def test_decompose_canonical_fastpaths():
    assert decompose_pencil(build_P(2)) == Counter({PencilBlock("P", 2): 1})
    assert decompose_pencil(build_Q(4)) == Counter({PencilBlock("Q", 4): 1})
    rm = build_R(PencilBlock("R_mono", 3))
    assert decompose_pencil(rm) == Counter({PencilBlock("R_mono", 3): 1})


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "GF5"])
def test_decompose_zero_module(field, tmp_path, capsys):
    """The zero module has no blocks, and the 0 x 0 identities certify it;
    kronhf decompose says so and exits 0."""
    M = direct_sum([], field=field)
    assert decompose_pencil(M) == Counter()
    blocks, *iso = certify_pencil(M)
    assert blocks == Counter()
    assert iso == [Matrix.identity(field, 0)] * 2
    path = tmp_path / "zero.mod"
    path.write_text(M.to_text())
    assert main(["decompose", "--module", str(path)]) == 0
    assert capsys.readouterr().out == "zero module\n"


def test_decompose_identity_pair_splits():
    M = KroneckerModule(2, QQ, 2, 2, [Matrix.identity(QQ, 2)] * 2)
    blocks = decompose_pencil(M)
    assert blocks == Counter({PencilBlock("R_poly", poly=(Fraction(-1),), e=1): 2})


def test_decompose_companion_splits_by_factor():
    # (x-1)(x-2) companion against the identity
    psi = Matrix.from_dense(QQ, [[0, -2], [1, 3]])
    M = KroneckerModule(2, QQ, 2, 2, [Matrix.identity(QQ, 2), psi])
    blocks = decompose_pencil(M)
    assert blocks == Counter({
        PencilBlock("R_poly", poly=(Fraction(-1),), e=1): 1,
        PencilBlock("R_poly", poly=(Fraction(-2),), e=1): 1,
    })


def test_decompose_scrambled_p1_q1_over_f5():
    rng = random.Random(42)
    M = _scramble(direct_sum([build_P(1), build_Q(1)], d=2, field=F5), rng)
    blocks = decompose_pencil(M)
    assert blocks == Counter({PencilBlock("P", 1): 1, PencilBlock("Q", 1): 1})


def test_decompose_requires_two_arrows():
    from kronhf.modules import build_postinjective_theta

    with pytest.raises(PreconditionError):
        decompose_pencil(build_postinjective_theta(3, 1))


def _random_blocks(field, rng, max_blocks=4):
    pool = []
    pool += [PencilBlock("P", n) for n in range(0, 4)]
    pool += [PencilBlock("Q", n) for n in range(0, 4)]
    pool += [PencilBlock("R_mono", n) for n in range(1, 4)]
    if field.char == 0:
        polys = [(Fraction(-1),), (Fraction(2),), (Fraction(1), Fraction(0))]
    else:
        polys = [(1,), ((field.q - 1),), (1, 1) if field.q == 2 else (2, 0)]
    for q in polys:
        for e in (1, 2):
            pool.append(PencilBlock("R_poly", poly=q, e=e))
    picks = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, max_blocks))]
    return Counter(picks)


def _poly_ok(field, block):
    if block.kind != "R_poly":
        return True
    from kronhf.modules import factor_monic

    factors = factor_monic(field, block.poly)
    return len(factors) == 1 and factors[0][1] == 1


def test_decompose_roundtrip_200_random():
    rng = random.Random(20240809)
    done = 0
    for trial in range(400):
        field = F5 if done % 2 == 0 else QQ
        blocks = _random_blocks(field, rng)
        if not all(_poly_ok(field, b) for b in blocks):
            continue
        M = direct_sum([block_module(b, field) for b in sorted(
            blocks.elements(), key=lambda b: (b.kind, b.n, b.e, b.poly))],
            d=2, field=field)
        if M.dim == 0 or M.dim > 26:
            continue
        sc = _scramble(M, rng)
        assert decompose_pencil(sc) == blocks
        done += 1
        if done >= 200:
            break
    assert done >= 200


def test_decomposed_polynomials_over_q_are_canonical():
    blocks = Counter({PencilBlock("R_poly", poly=(Fraction(-1, 2),), e=1): 1,
                      PencilBlock("R_poly", poly=(Fraction(1), Fraction(0)), e=2): 1,
                      PencilBlock("R_poly", poly=(Fraction(3),), e=1): 1,
                      PencilBlock("P", 1): 1})
    M = direct_sum([block_module(b, QQ) for b in blocks], d=2, field=QQ)
    got = decompose_pencil(_scramble(M, random.Random(3)))
    assert got == blocks
    for b in got:
        assert all(type(c) is int or (type(c) is Fraction and c.denominator > 1)
                   for c in b.poly)


def test_certificate_separates_eigenvalue_content():
    b1 = PencilBlock("R_poly", poly=(Fraction(-1),), e=1)
    b2 = PencilBlock("R_poly", poly=(Fraction(-2),), e=1)
    r1 = build_R(b1)
    assert certify_pencil(r1)[0] == Counter({b1: 1})
    with pytest.raises(CertificateError):
        _isomorphism(r1, Counter({b2: 1}))
    # dims separate P from Q even though every pencil point has full rank
    assert build_P(2).dim_vector() != build_Q(2).dim_vector()


def _reference_peel(M, U1):
    """The peel as a restrict and a quotient with a solve each per map, the
    two stages it replaced: U2.solve(m U1) on the submodule, then the
    bottom-right block of F2.solve(m F1) on the quotient."""
    if U1.cols == 0:
        return Counter(), M
    A, B = M.maps
    U2 = _colspace(Matrix.hstack([A @ U1, B @ U1]))
    sub = [U2.solve(m @ U1) for m in M.maps]
    F1 = _complete_basis(U1, M.dim1)
    F2 = _complete_basis(U2, M.dim2)
    rows, cols = range(U2.cols, M.dim2), range(U1.cols, M.dim1)
    quot = [F2.solve(m @ F1).submatrix(rows, cols) for m in M.maps]
    return (_chain_lengths(*sub),
            KroneckerModule(2, M.field, len(cols), len(rows), quot))


@st.composite
def scrambled_with_q0(draw):
    """A scrambled direct sum of Q_0, whose images vanish, and up to four
    random blocks, over Q or GF(5)."""
    field = draw(st.sampled_from([QQ, F5]))
    pool = ([PencilBlock("P", n) for n in range(3)] + [PencilBlock("Q", n) for n in range(3)]
            + [PencilBlock("R_mono", n) for n in (1, 2)]
            + [PencilBlock("R_poly", poly=(-1,), e=e) for e in (1, 2)]
            + [PencilBlock("R_poly", poly=(2, 0) if field.char else (1, 0), e=1)])
    picks = draw(st.lists(st.sampled_from(pool), max_size=4))
    D = direct_sum([build_Q(0, field)] + [block_module(b, field) for b in picks])
    return _scramble(D, random.Random(draw(st.integers(0, 2 ** 16))))


@settings(max_examples=40, deadline=None)
@given(scrambled_with_q0())
def test_peel_matches_restrict_and_quotient_at_every_stage(M):
    # the Q peel, the P peel on the transposed quotient, the R_mono peel
    stages = [(False, _postinjective_source_space), (True, _postinjective_source_space),
              (True, lambda X: _xchain(*X.maps)[-1])]
    rest = M
    for stage, (flip, source) in enumerate(stages):
        if flip:
            rest = rest.transpose()
        U1 = source(rest)
        lengths, quotient = _peel(rest, U1)
        assert (lengths, quotient) == _reference_peel(rest, U1), stage
        rest = quotient


# irreducible q per field, x first: R_poly(x^e) is where X*(b, a) is not zero
_IRREDUCIBLE = {0: [(0,), (-1,), (1, 0)], 2: [(0,), (1,), (1, 1)],
                3: [(0,), (2,), (1, 0)], 5: [(0,), (1,), (2, 0)]}


@st.composite
def scrambled_blocks(draw, fields):
    """(block multiset, scrambled direct sum) of up to five blocks, with
    R_mono and R_poly(x^e) among them."""
    field = draw(st.sampled_from(fields))
    pool = ([PencilBlock("P", n) for n in range(4)] + [PencilBlock("Q", n) for n in range(4)]
            + [PencilBlock("R_mono", n) for n in (1, 2, 3)]
            + [PencilBlock("R_poly", poly=q, e=e)
               for q in _IRREDUCIBLE[field.char] for e in (1, 2, 3) if len(q) * e <= 4])
    picks = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
    D = direct_sum([block_module(b, field) for b in picks], d=2, field=field)
    return Counter(picks), _scramble(D, random.Random(draw(st.integers(0, 2 ** 16))))


def _reference_source_space(M):
    """The Q source space by search: S = ker b on X*(a, b), grown by
    preimage_b(a S) on X*(a, b) until it stops."""
    A, B = M.maps
    xstab = _xchain(A, B)[-1]
    S = _intersect(B.kernel_basis(), xstab)
    while S.cols:
        grown = _colspace(Matrix.hstack([S, _intersect(_preimage(B, A @ S), xstab)]))
        if grown.cols == S.cols:
            break
        S = grown
    return S


@settings(max_examples=100, deadline=None)
@given(scrambled_blocks([QQ, F2, F3, F5]))
def test_source_space_matches_the_search_on_the_q_and_p_stages(case):
    _, M = case
    for stage in ("Q", "P"):
        got, want = _postinjective_source_space(M), _reference_source_space(M)
        assert got.cols == want.cols == Matrix.hstack([got, want]).rank(), stage
        M = _peel(M, got)[1].transpose()


@settings(max_examples=100, deadline=None)
@given(scrambled_blocks([F2, F3]))
def test_decompose_roundtrip_over_gf2_and_gf3(case):
    blocks, M = case
    assert decompose_pencil(M) == blocks


# each claim below has the rank profile of the true block at every point a
# rank-profile check would sample, and no isomorphism
@pytest.mark.parametrize("field, true_poly, claimed_poly", [
    (QQ, (Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))),   # x^2+2 for x^2+1
    (QQ, (Fraction(-7),), (Fraction(-9),)),                         # x-9 for x-7
    (PrimeField(101), (3,), (5,)),                                  # x+5 for x+3
])
def test_certificate_rejects_a_wrong_multiset(field, true_poly, claimed_poly):
    true = Counter({PencilBlock("R_poly", poly=true_poly, e=1): 1})
    claimed = Counter({PencilBlock("R_poly", poly=claimed_poly, e=1): 1})
    M = _scramble(reassemble(true, field), random.Random(1))
    with pytest.raises(CertificateError):
        _isomorphism(M, claimed)
    assert certify_pencil(M)[0] == true


def _is_certificate(M, blocks, F1, F2):
    D = reassemble(blocks, M.field)
    return (F1.rows == F1.cols == M.dim1 == F1.rank()
            and F2.rows == F2.cols == M.dim2 == F2.rank()
            and all(m @ F1 == F2 @ dm for m, dm in zip(M.maps, D.maps)))


@st.composite
def scrambled_with_repeats(draw):
    """(block multiset, scrambled direct sum) of up to six blocks over Q,
    GF(2), GF(3) or GF(5), some of them repeated."""
    field = draw(st.sampled_from([QQ, F2, F3, F5]))
    pool = ([PencilBlock("P", n) for n in range(3)] + [PencilBlock("Q", n) for n in range(3)]
            + [PencilBlock("R_mono", n) for n in (1, 2)]
            + [PencilBlock("R_poly", poly=q, e=e)
               for q in _IRREDUCIBLE[field.char] for e in (1, 2) if len(q) * e <= 2])
    kinds = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4))
    picks = kinds + draw(st.lists(st.sampled_from(kinds), max_size=6 - len(kinds)))
    D = direct_sum([block_module(b, field) for b in picks], d=2, field=field)
    return Counter(picks), _scramble(D, random.Random(draw(st.integers(0, 2 ** 16))))


@settings(max_examples=60, deadline=None)
@given(scrambled_with_repeats())
def test_certify_pencil_returns_an_isomorphism(case):
    blocks, M = case
    got, F1, F2 = certify_pencil(M)
    assert got == blocks
    assert _is_certificate(M, got, F1, F2)


def test_integral_q_scramble_keeps_chains_homs_and_certificate_on_ints():
    """On a Q scramble with integral maps the Wong chains, the Hom kernels
    and the drawn (F1, F2) hold only ints: the span callers take the
    integral kernel, not the Fractions of the rref basis."""
    D = direct_sum([build_P(3), build_Q(3), build_R(PencilBlock("R_mono", 3)),
                    build_R(PencilBlock("R_poly", poly=(Fraction(-1),), e=3))])
    M = _scramble(D, random.Random(36))
    A, B = M.maps
    assert A._integral() and B._integral()
    chains = _xchain(A, B) + _xchain(B, A)
    assert all(X._integral() for X in chains)
    assert any(not X.kernel_basis()._integral() for X in (A, B, A @ chains[0]))
    blocks, F1, F2 = certify_pencil(M)
    for b in blocks:
        assert modules.PresolvedHom(block_module(b, QQ), M).kernel._integral()
    assert F1._integral() and F2._integral()


def test_canonical_shapes_are_their_own_certificate():
    two = Matrix.from_dense(QQ, [[0, -2], [1, 3]])   # (x-1)(x-2), two factors
    for M in (build_P(3), build_Q(2), build_R(PencilBlock("R_mono", 3)),
              build_R(PencilBlock("R_poly", poly=(Fraction(-1),), e=3)),
              KroneckerModule(2, QQ, 2, 2, [Matrix.identity(QQ, 2), two])):
        blocks, F1, F2 = certify_pencil(M)
        assert _is_certificate(M, blocks, F1, F2)
        literal = len(blocks) == 1
        assert (F1 == Matrix.identity(QQ, M.dim1)) == literal


def test_reassemble_does_not_refactor_polynomials(monkeypatch):
    calls = []

    def counting(field, coeffs):
        calls.append(coeffs)
        return factor_monic(field, coeffs)

    factor_monic = modules.factor_monic
    monkeypatch.setattr(modules, "factor_monic", counting)
    monkeypatch.setattr(pencil, "factor_monic", counting)
    blocks = Counter({PencilBlock("R_poly", poly=(Fraction(1), Fraction(0)), e=2): 1,
                      PencilBlock("R_poly", poly=(Fraction(-1),), e=1): 2,
                      PencilBlock("P", 1): 1})
    D = reassemble(blocks, QQ)
    assert calls == [] and D.dim1 == 7
    # build_R still checks what a caller passes in
    with pytest.raises(ValidationError):
        build_R(PencilBlock("R_poly", poly=(Fraction(-1), Fraction(0)), e=1))   # x^2 - 1
    assert calls == [(Fraction(-1), Fraction(0))]


@pytest.mark.parametrize("blocks", [
    Counter({PencilBlock("Q", 2): 2, PencilBlock("Q", 1): 2}),
    Counter({PencilBlock("P", 2): 2, PencilBlock("P", 1): 2}),
    Counter({PencilBlock("R_mono", 2): 2, PencilBlock("R_mono", 1): 2}),
    Counter({PencilBlock("R_poly", poly=(1,), e=2): 2, PencilBlock("R_poly", poly=(1,), e=1): 2}),
], ids=["Q", "P", "R_mono", "R_poly"])
def test_draw_order_certifies_repeated_blocks_of_two_sizes_over_gf2(blocks):
    # over GF(2) the draw for a pair of equal blocks is singular 5 times in
    # 8; with Q_1 before Q_2, P_2 before P_1 and the longer block of a tube
    # first, a failed draw renews the summand at fault (reversing any of
    # the three orders runs out of draws on some of these scrambles)
    D = reassemble(blocks, F2)
    for seed in range(20):
        M = _scramble(D, random.Random(seed))
        assert _is_certificate(M, blocks, *_isomorphism(M, blocks))


@pytest.mark.parametrize("field, blocks", [
    (F2, Counter({PencilBlock("Q", 1): 2, PencilBlock("Q", 2): 2,
                  PencilBlock("R_poly", poly=(1,), e=1): 3})),
    (QQ, Counter({PencilBlock("P", 3): 3, PencilBlock("Q", 2): 3, PencilBlock("R_mono", 2): 2})),
], ids=["GF2", "Q"])
def test_isomorphism_solves_hom_once_per_distinct_block(monkeypatch, field, blocks):
    built = []

    def recording(X, Y):
        built.append(X)
        return modules.PresolvedHom(X, Y)

    monkeypatch.setattr(pencil, "PresolvedHom", recording)
    M = _scramble(reassemble(blocks, field), random.Random(5))
    iso = _isomorphism(M, blocks)
    assert len(built) == len(blocks)
    assert _is_certificate(M, blocks, *iso)


def test_empty_hom_names_the_first_summand_in_layout_order():
    # Hom(R, P) = 0 for every regular block R, and P_0 + R_mono(1) + R_(x-1)
    # has the dims of P_2
    M = _scramble(build_P(2), random.Random(2))
    claimed = Counter({PencilBlock("P", 0): 1, PencilBlock("R_mono", 1): 1,
                       PencilBlock("R_poly", poly=(-1,), e=1): 1})
    with pytest.raises(CertificateError) as info:
        _isomorphism(M, claimed)
    assert str(info.value) == "Hom(R_mono(1), M) = 0, so M is not the sum of the claimed blocks"
