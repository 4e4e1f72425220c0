import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kronhf.errors import DomainError, GuardRefusal
from kronhf.fields import QQ, PrimeField
from kronhf.matrices import Matrix, column_space_dim_of_stack
from kronhf.modules import KroneckerModule, build_P
from kronhf.sl2p import theta3_counterexample_module
from kronhf.expander import (ExpanderCandidate, _PackedImages, _stacked_image_dim,
                             check_exhaustive, check_sampled_rational,
                             empirical_best_epsilon, gaussian_binomial, nonhf_epsilon_bound,
                             refute_witness, weak_nonhf_epsilon_bound)
from kronhf.witness import MonomialPart, Witness, WitnessPart, verify_witness

from oracles import image_dim

F2 = PrimeField(2)
HALF = Fraction(1, 2)


def enumerate_subspaces(field: PrimeField, n: int, k: int):
    """Canonical k x n RREF generator matrices, lexicographic in
    (pivot columns, free entries). The oracle of the order check_exhaustive
    walks."""
    q = field.q
    for pivots in combinations(range(n), k):
        pivset = set(pivots)
        free = [(i, c) for i in range(k) for c in range(pivots[i] + 1, n)
                if c not in pivset]
        for code in range(q ** len(free)):
            ent = [(i, p, field.one) for i, p in enumerate(pivots)]
            rem = code
            for slot in reversed(range(len(free))):
                rem, v = divmod(rem, q)
                if v:
                    i, c = free[slot]
                    ent.append((i, c, v))
            yield Matrix.from_entries(field, k, n, ent)


def _cand(field, mats, eta, alpha):
    mats = [Matrix.from_dense(field, m) for m in mats]
    return ExpanderCandidate(field, mats[0].rows, mats, eta, alpha)


def test_gaussian_binomial_values():
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 5) == 31
    assert gaussian_binomial(3, 3, 7) == 1


def test_enumerate_subspaces_counts():
    for n, k, q in ((2, 1, 2), (3, 1, 2), (3, 2, 2), (4, 2, 2), (3, 1, 3), (3, 2, 3)):
        field = PrimeField(q)
        mats = list(enumerate_subspaces(field, n, k))
        assert len(mats) == gaussian_binomial(n, k, q)
        # canonical: all distinct and full rank
        seen = {tuple(sorted(m.entries())) for m in mats}
        assert len(seen) == len(mats)
        assert all(m.rank() == k for m in mats)


def test_check_exhaustive_identity_refuted():
    c = _cand(F2, [[[1, 0], [0, 1]], [[1, 0], [0, 1]]], HALF, Fraction(1, 100))
    rep = check_exhaustive(c)
    assert rep.verdict == "refuted"
    assert rep.witness is not None
    # the witness re-verifies: its image sum has the failing ratio
    wt = rep.witness.transpose()
    dim = column_space_dim_of_stack([m @ wt for m in c.maps])
    assert Fraction(dim, rep.witness.rows) == rep.worst_ratio


def test_check_exhaustive_swap_refuted_at_fixed_line():
    c = _cand(F2, [[[1, 0], [0, 1]], [[0, 1], [1, 0]]], HALF, Fraction(1))
    rep = check_exhaustive(c)
    assert rep.verdict == "refuted"
    # the fixed line of the swap is spanned by (1, 1)
    assert sorted(j for _, j, _ in rep.witness.entries()) == [0, 1]


def test_check_exhaustive_proved():
    c = _cand(F2, [[[1, 0], [0, 1]], [[0, 1], [1, 1]]], HALF, Fraction(1))
    rep = check_exhaustive(c)
    assert rep.verdict == "proved"
    assert rep.subspaces_checked == gaussian_binomial(2, 1, 2)
    assert rep.worst_ratio >= 2


def test_check_exhaustive_counts_match_gaussian():
    F3 = PrimeField(3)
    mats = [Matrix.identity(F3, 4), Matrix.from_dense(F3, [[0, 1, 0, 0], [0, 0, 1, 0],
                                                           [0, 0, 0, 1], [1, 1, 0, 0]])]
    c = ExpanderCandidate(F3, 4, mats, HALF, Fraction(1, 10))
    rep = check_exhaustive(c)
    expected = gaussian_binomial(4, 1, 3) + gaussian_binomial(4, 2, 3)
    if rep.verdict == "proved":
        assert rep.subspaces_checked == expected
    assert rep.notes["expected_total"] == expected


def test_check_exhaustive_guard():
    F5 = PrimeField(5)
    mats = [Matrix.identity(F5, 8)] * 2
    c = ExpanderCandidate(F5, 8, mats, Fraction(1, 2), Fraction(1))
    with pytest.raises(GuardRefusal):
        check_exhaustive(c, guard=100)


def test_check_exhaustive_monotone():
    rng = random.Random(8)
    proved = 0
    for _ in range(60):
        n = rng.randint(2, 3)
        mats = [Matrix.from_dense(F2, [[rng.randrange(2) for _ in range(n)]
                                       for _ in range(n)]) for _ in range(2)]
        c = ExpanderCandidate(F2, n, mats, HALF, Fraction(1))
        rep = check_exhaustive(c)
        if rep.verdict != "proved":
            continue
        proved += 1
        for eta2, alpha2 in ((Fraction(1, 3), Fraction(1)), (HALF, Fraction(1, 2))):
            c2 = ExpanderCandidate(F2, n, mats, eta2, alpha2)
            assert check_exhaustive(c2).verdict == "proved"
        if proved >= 5:
            break
    assert proved >= 1


def _reference_exhaustive(c):
    """The exhaustive check as one Matrix elimination per enumerated subspace."""
    kmax = int(c.eta * c.n)
    total = sum(gaussian_binomial(c.n, k, c.field.q) for k in range(1, kmax + 1))
    checked = 0
    worst = None
    for k in range(1, kmax + 1):
        for W in enumerate_subspaces(c.field, c.n, k):
            checked += 1
            ratio = Fraction(image_dim(c, W), k)
            if worst is None or ratio < worst:
                worst = ratio
            if ratio < 1 + c.alpha:
                return "refuted", checked, ratio, W, total
    return "proved", checked, worst, None, total


# caps a full reference walk at a few hundred Matrix eliminations per example
ORACLE_MAX_SUBSPACES = 800


@st.composite
def small_candidates(draw):
    q = draw(st.sampled_from([2, 3, 5, 7]))
    # n <= 5 with every line under the cap: F_7^5 has 2801 lines, so n <= 4 over GF(7)
    n = draw(st.integers(1, max(n for n in range(1, 6)
                                if gaussian_binomial(n, 1, q) <= ORACLE_MAX_SUBSPACES)))
    field = PrimeField(q)
    maps = [Matrix.from_dense(field, draw(st.lists(
        st.lists(st.integers(0, q - 1), min_size=n, max_size=n), min_size=n, max_size=n)))
        for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        # the shape of theta(3): with the identity among the maps fewer draws
        # refute at the first line, so more walks reach k >= 2, where the
        # exhaustive walk skips subtrees by its bound
        maps[0] = Matrix.identity(field, n)
    kcap = max(k for k in range(1, n + 1) if sum(
        gaussian_binomial(n, j, q) for j in range(1, k + 1)) <= ORACLE_MAX_SUBSPACES)
    eta = Fraction(draw(st.integers(1, kcap)), n)
    # dim sum T_i(W) / dim W is at most the number of maps; random maps often
    # have a line with ratio 1 or less, so small alphas are needed for proofs
    alpha = draw(st.sampled_from([Fraction(1, 100), Fraction(1, 3), HALF, Fraction(1),
                                  Fraction(2)]))
    return ExpanderCandidate(field, n, maps, eta, alpha)


def _outcome(rep):
    return (rep.verdict, rep.subspaces_checked, rep.worst_ratio, rep.witness,
            rep.notes["expected_total"])


# refuted by W = <(0,1,0,1), (0,0,1,0)> with dim sum T_i(W) = 2; the images of
# its first row span 2 dims, and every earlier 2-dim W has at least 3, so a
# walk that skipped subtrees whose prefix reaches least - 1 would miss it
# and prove
BOUND_EDGE = _cand(F2, [[[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
                        [[0, 0, 0, 0], [0, 1, 0, 1], [1, 0, 0, 0], [0, 0, 1, 0]],
                        [[1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0]]],
                   HALF, Fraction(1, 100))


# proved over GF(5); at k = 2 a prefix with least - base = 1 and base >= need
# is decided by span tests, one of which finds an option whose images all vanish
SPAN_PROOF = _cand(PrimeField(5), [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                   [[3, 2, 0], [3, 4, 4], [3, 2, 1]],
                                   [[3, 2, 2], [3, 3, 3], [2, 4, 1]]],
                   Fraction(2, 3), Fraction(1, 3))

# refuted over GF(7) by the seventh option of a last row at k = 2 with
# least - base = 1 and base < need: the span test finds that an option's
# images vanish, and the first such option is the failing W
SLACK_ONE_REFUTATION = _cand(PrimeField(7), [[[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                                             [[3, 2, 2], [0, 3, 2], [0, 5, 6]],
                                             [[5, 2, 3], [0, 4, 2], [5, 4, 5]]],
                             Fraction(2, 3), Fraction(1, 3))

# refuted over GF(2) at subspace 59 with ratio 1, by a k = 3 prefix of one row
# with least - base = 1 and base < need: span tests on rows 1 and 2 both pass,
# and the failing W takes each row's first vanishing option
MIDDLE_ROW_REFUTATION = _cand(F2, [[[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                                   [[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 1, 1, 0]],
                                   [[0, 1, 1, 0], [0, 1, 1, 1], [0, 0, 1, 0], [1, 0, 1, 0]]],
                              Fraction(3, 4), Fraction(1, 3))


@settings(max_examples=300, deadline=None)
@given(small_candidates())
@example(BOUND_EDGE)
@example(SPAN_PROOF)
@example(SLACK_ONE_REFUTATION)
@example(MIDDLE_ROW_REFUTATION)
def test_check_exhaustive_matches_reference_loop(c):
    assert _outcome(check_exhaustive(c)) == _reference_exhaustive(c)


def _recorded_walk(monkeypatch, c):
    """check_exhaustive(c), with the echelons, as ("echelon", cap, rows), and
    the span tests, as ("spans", result), in the order the walk ran them."""
    events = []
    echelon, spans = _PackedImages.echelon, _PackedImages.spans

    def recording_echelon(self, images, cap):
        rows = echelon(self, images, cap)
        events.append(("echelon", cap, len(rows)))
        return rows

    def recording_spans(self, vectors, target):
        events.append(("spans", spans(self, vectors, target)))
        return events[-1][1]

    with monkeypatch.context() as m:
        m.setattr(_PackedImages, "echelon", recording_echelon)
        m.setattr(_PackedImages, "spans", recording_spans)
        return check_exhaustive(c), events


def _span_tests(events):
    return [e[1] for e in events if e[0] == "spans"]


def _after_last_echelon(events):
    """The span tests run after the walk's last echelon."""
    last = max(i for i, e in enumerate(events) if e[0] == "echelon")
    return _span_tests(events[last + 1:])


def test_examples_take_the_slack_one_paths(monkeypatch):
    rep, events = _recorded_walk(monkeypatch, SPAN_PROOF)
    assert rep.verdict == "proved" and True in _span_tests(events)
    # the failing W is found by the rule on the last row: one span test, and
    # no echelon after it
    rep, events = _recorded_walk(monkeypatch, SLACK_ONE_REFUTATION)
    assert rep.verdict == "refuted" and _after_last_echelon(events) == [True]


def test_middle_row_refutation_takes_the_rule_at_row_1(monkeypatch):
    rep, events = _recorded_walk(monkeypatch, MIDDLE_ROW_REFUTATION)
    assert (rep.verdict, rep.subspaces_checked, rep.worst_ratio, rep.witness.rows) == (
        "refuted", 59, 1, 3)
    # one passing span test for each of rows 1 and 2, and no echelon after them
    assert _after_last_echelon(events) == [True, True]


def _bench_shaped_candidate(seed):
    """Three random 6 x 6 maps over GF(2) at eta = 1/2, alpha = 1/10, redrawn
    until every line has images of dimension at least 2, as the bench's
    'prove' slots draw them."""
    rng = random.Random(seed)
    while True:
        maps = [Matrix.from_dense(F2, [[rng.randrange(2) for _ in range(6)] for _ in range(6)])
                for _ in range(3)]
        if check_exhaustive(ExpanderCandidate(F2, 6, maps, Fraction(1, 6), Fraction(1))
                            ).verdict == "proved":
            return ExpanderCandidate(F2, 6, maps, HALF, Fraction(1, 10))


def test_span_tests_run_on_a_bench_shaped_candidate(monkeypatch):
    """Its 2109-subspace proof runs 68 span tests on the rows below prefixes
    with least - base = 1, 3 of which find an option whose images all vanish."""
    c = _bench_shaped_candidate(3)
    rep, events = _recorded_walk(monkeypatch, c)
    assert _outcome(rep) == _reference_exhaustive(c)
    span_tests = _span_tests(events)
    assert (len(span_tests), span_tests.count(True)) == (68, 3)


@st.composite
def packed_vectors(draw):
    """A _PackedImages for q <= 7, n <= 4 and d <= 3, up to 3 step vectors of
    d * n entries, and a target that is sometimes minus a combination of them."""
    q = draw(st.sampled_from([2, 3, 5, 7]))
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    field = PrimeField(q)
    packed = _PackedImages(ExpanderCandidate(field, n, [Matrix.zeros(field, n, n)] * d,
                                             HALF, HALF))
    vector = st.lists(st.integers(0, q - 1), min_size=n * d, max_size=n * d)
    steps = draw(st.lists(vector, max_size=3))
    if steps and draw(st.booleans()):
        digits = draw(st.lists(st.integers(0, q - 1), min_size=len(steps),
                               max_size=len(steps)))
        target = [-sum(f * v[s] for f, v in zip(digits, steps)) % q for s in range(n * d)]
    else:
        target = draw(vector)
    return packed, steps, target


def _pack(packed, entries):
    B = packed.entry.bit_length()
    return sum(e << (s * B) for s, e in enumerate(entries))


@settings(max_examples=300, deadline=None)
@given(packed_vectors(), st.data())
def test_packed_add_and_scale_match_entrywise_arithmetic(case, data):
    """add and scale on packed values are the entrywise sum and multiple mod
    q, at packed.entry.bit_length() bits per entry (one bit over GF(2))."""
    packed, steps, target = case
    q = packed.q
    assert (packed.entry == 1) == (q == 2)
    a = steps[0] if steps else target
    assert packed.add(_pack(packed, a), _pack(packed, target)) == _pack(
        packed, [(x + y) % q for x, y in zip(a, target)])
    f = data.draw(st.integers(1, q - 1))
    assert packed.scale(_pack(packed, target), f) == _pack(packed, [f * x % q for x in target])


@settings(max_examples=300, deadline=None)
@given(packed_vectors())
def test_span_test_matches_brute_force_over_digit_vectors(case):
    packed, steps, target = case
    q = packed.q
    vanishes = any(all((t + sum(f * v[s] for f, v in zip(digits, steps))) % q == 0
                       for s, t in enumerate(target))
                   for digits in product(range(q), repeat=len(steps)))
    assert packed.spans([_pack(packed, v) for v in steps], _pack(packed, target)) == vanishes


@settings(max_examples=300, deadline=None)
@given(packed_vectors())
def test_capped_echelon_holds_min_of_cap_and_rank_rows(case):
    packed, _, target = case
    n, d = packed.n, len(packed.offsets)
    images = _pack(packed, target)
    rank = Matrix.from_dense(PrimeField(packed.q),
                             [target[j * n:(j + 1) * n] for j in range(d)]).rank()
    assert len(packed.echelon(images, d + 1)) == rank
    for cap in range(1, d + 1):
        assert len(packed.echelon(images, cap)) == min(cap, rank)


def _theta3_mod(p, q):
    return ExpanderCandidate.from_module(theta3_counterexample_module(p, PrimeField(q)),
                                         HALF, HALF)


@pytest.mark.parametrize("p, q", [(5, 2), (5, 3), (3, 5), (3, 7)])
def test_check_exhaustive_matches_reference_on_theta3_reductions(p, q):
    c = _theta3_mod(p, q)
    assert _outcome(check_exhaustive(c)) == _reference_exhaustive(c)


def _echelon_count(monkeypatch, c):
    """check_exhaustive(c) and the number of echelons its walk runs."""
    rep, events = _recorded_walk(monkeypatch, c)
    return rep, sum(e[0] == "echelon" for e in events)


def test_check_exhaustive_bound_skips_most_echelons(monkeypatch):
    """theta(3) mod 7 at p = 5: without the bound the walk runs 144385 echelons
    for its 142851 subspaces; with it, 5021."""
    rep, calls = _echelon_count(monkeypatch, _theta3_mod(5, 7))
    assert (rep.verdict, rep.worst_ratio, rep.subspaces_checked) == (
        "proved", Fraction(3, 2), 142851)
    assert calls < rep.subspaces_checked // 10


def test_decided_prefixes_skip_the_slack_one_rows(monkeypatch):
    """theta(3) mod 3 at p = 7, alpha = 1/3: a walk that enumerates every
    option of a middle row with least - base = 1 runs 59730 echelons; one
    that decides such a prefix by a span test per row below it runs 8953."""
    c = ExpanderCandidate.from_module(theta3_counterexample_module(7, PrimeField(3)),
                                      HALF, Fraction(1, 3))
    rep, calls = _echelon_count(monkeypatch, c)
    assert (rep.verdict, rep.worst_ratio, rep.subspaces_checked) == (
        "proved", Fraction(4, 3), 1026327)
    assert calls < 20000


def test_checks_pass_vacuously_when_eta_n_below_one():
    """eta * n < 1 leaves no subspace to test; the sampled check used to test lines."""
    F3 = PrimeField(3)
    exh = check_exhaustive(ExpanderCandidate(F3, 1, [Matrix.identity(F3, 1)], HALF, HALF))
    smp = check_sampled_rational(
        ExpanderCandidate(QQ, 1, [Matrix.identity(QQ, 1)], HALF, HALF), trials=10)
    assert (exh.verdict, smp.verdict) == ("proved", "sampled-pass")
    for rep in (exh, smp):
        assert rep.subspaces_checked == 0
        assert rep.worst_ratio is None and rep.witness is None


def test_check_sampled_identity_refuted_immediately():
    c = ExpanderCandidate(QQ, 2, [Matrix.identity(QQ, 2)], HALF, Fraction(1, 10))
    rep = check_sampled_rational(c, trials=10, seed=3)
    assert rep.verdict == "refuted"
    assert rep.subspaces_checked == 1


def test_check_sampled_nilpotent_pair_refuted():
    # T1 T2 = T2 T1 = T1^2 = T2^2 = 0 with T1 != 0: a line in im T1 dies
    t1 = Matrix.from_dense(QQ, [[0, 1], [0, 0]])
    t2 = Matrix.zeros(QQ, 2, 2)
    c = ExpanderCandidate(QQ, 2, [t1, t2], HALF, Fraction(1, 10))
    w = Matrix.from_dense(QQ, [[1, 0]])  # the line im T1
    assert column_space_dim_of_stack([m @ w.transpose() for m in c.maps]) == 0
    rep = check_sampled_rational(c, trials=200, seed=11)
    assert rep.verdict == "refuted"


def test_check_sampled_theta3_passes():
    M = theta3_counterexample_module(5)
    c = ExpanderCandidate.from_module(M, HALF, Fraction(1, 100))
    rep = check_sampled_rational(c, trials=2000, seed=7)
    assert rep.verdict == "sampled-pass"
    assert rep.worst_ratio is not None and rep.worst_ratio > 1


@st.composite
def image_dim_inputs(draw):
    """W and the maps over Q (rational entries) or GF(q); W is k x n with k up
    to n + 1, and sometimes has its last row a multiple of the first (or
    zero), so it need not have rank k; some maps are zero."""
    field = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(3), PrimeField(7)]))
    values = (st.fractions(-4, 4, max_denominator=3) if field == QQ
              else st.integers(0, field.q - 1))
    n = draw(st.integers(1, 6))
    k = draw(st.integers(1, n + 1))

    def dense(rows):
        return draw(st.lists(st.lists(values, min_size=n, max_size=n),
                             min_size=rows, max_size=rows))

    W = dense(k)
    if draw(st.booleans()):
        f = draw(values)
        W[-1] = [f * x for x in W[0]] if k > 1 else [0] * n
    maps = [Matrix.zeros(field, n, n) if draw(st.booleans()) else
            Matrix.from_dense(field, dense(n)) for _ in range(draw(st.integers(1, 3)))]
    return ExpanderCandidate(field, n, maps, Fraction(1), Fraction(1)), Matrix.from_dense(field, W)


@settings(max_examples=300, deadline=None)
@given(image_dim_inputs())
def test_stacked_image_dim_matches_column_stack_reference(case):
    c, W = case
    assert _stacked_image_dim(W, [m.transpose() for m in c.maps]) == image_dim(c, W)


def _reference_sampled(c, trials, seed, max_entry=9):
    """The sampled check with the column-stack image dimension of the oracles,
    on the same draws: the reference of check_sampled_rational's reports."""
    rng = random.Random(seed)
    kmax = int(c.eta * c.n)
    worst = None
    for trial in range(trials):
        k = 1 + trial % kmax
        while True:
            W = Matrix.from_dense(c.field, [[rng.randint(-max_entry, max_entry)
                                             for _ in range(c.n)] for _ in range(k)])
            if W.rank() == k:
                break
        ratio = Fraction(image_dim(c, W), k)
        worst = ratio if worst is None else min(worst, ratio)
        if ratio < 1 + c.alpha:
            return "refuted", ratio, W, trial + 1
    return "sampled-pass", worst, None, trials


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.lists(st.lists(st.integers(-2, 2), min_size=25, max_size=25),
                                   min_size=1, max_size=3),
       st.sampled_from([Fraction(1, 10), Fraction(1, 2), Fraction(1)]), st.integers(0, 2 ** 32))
def test_check_sampled_matches_reference_loop(n, flat_maps, alpha, seed):
    maps = [Matrix.from_dense(QQ, [flat[i * 5:i * 5 + n] for i in range(n)])
            for flat in flat_maps]
    c = ExpanderCandidate(QQ, n, maps, HALF, alpha)
    rep = check_sampled_rational(c, trials=12, seed=seed)
    assert (rep.verdict, rep.worst_ratio, rep.witness,
            rep.subspaces_checked) == _reference_sampled(c, 12, seed)


def test_proved_candidates_expand_monomial_submodules():
    """A proved (eta, alpha) certificate transfers to arrow-closed submodules."""
    rng = random.Random(15)
    checked = 0
    for _ in range(40):
        n = rng.randint(2, 3)
        mats = [Matrix.from_dense(F2, [[rng.randrange(2) for _ in range(n)]
                                       for _ in range(n)]) for _ in range(2)]
        c = ExpanderCandidate(F2, n, mats, HALF, Fraction(1, 2))
        if check_exhaustive(c).verdict != "proved":
            continue
        checked += 1
        for k in range(1, int(HALF * n) + 1):
            for W in enumerate_subspaces(F2, n, k):
                wt = W.transpose()
                img = column_space_dim_of_stack([m @ wt for m in mats])
                assert Fraction(img) >= (1 + Fraction(1, 2)) * k
        if checked >= 3:
            break
    assert checked >= 1


def test_bounds_exact_values():
    assert nonhf_epsilon_bound(Fraction(1)) == Fraction(1, 4)
    assert nonhf_epsilon_bound(Fraction(1, 12)) == Fraction(1, 26)
    assert weak_nonhf_epsilon_bound(Fraction(1)) == Fraction(1, 10)
    assert weak_nonhf_epsilon_bound(Fraction(3)) == Fraction(1, 6)
    with pytest.raises(DomainError):
        nonhf_epsilon_bound(Fraction(0))
    with pytest.raises(DomainError):
        weak_nonhf_epsilon_bound(Fraction(-1))


def test_bounds_weak_below_strong_random():
    rng = random.Random(4)
    for _ in range(50):
        alpha = Fraction(rng.randint(1, 50), rng.randint(1, 50))
        assert weak_nonhf_epsilon_bound(alpha) < nonhf_epsilon_bound(alpha)
        assert nonhf_epsilon_bound(alpha) > 0


def _theta3_f2_expander_module():
    """(id, id, [[0,1],[1,1]]) over F_2: a proved (1/2, 1) expander triple."""
    b = Matrix.from_dense(F2, [[0, 1], [1, 1]])
    i2 = Matrix.identity(F2, 2)
    return KroneckerModule(3, F2, 2, 2, [i2, i2.copy(), b])


def test_refute_witness_inconclusive_whole_module():
    M = _theta3_f2_expander_module()
    part = WitnessPart(M, Matrix.identity(F2, 2), Matrix.identity(F2, 2))
    w = Witness(M, Fraction(1, 8), Fraction(4), [part])
    rep = refute_witness(M, w, HALF, Fraction(1))
    assert rep.verdict == "inconclusive"


def test_refute_witness_rejects_non_submodule():
    M = _theta3_f2_expander_module()
    # claim span{e1} at both vertices: not closed under the third map
    part_mod = KroneckerModule(3, F2, 1, 1, [Matrix.identity(F2, 1)] * 3)
    sel = Matrix.selection(F2, 2, [0])
    w = Witness(M, Fraction(1, 8), Fraction(2), [WitnessPart(part_mod, sel, sel)])
    rep = refute_witness(M, w, HALF, Fraction(1))
    assert rep.verdict == "not-a-submodule"


def test_refute_witness_exhaustive_over_line_parts():
    """Any line-sized claimed witness on the proved expander is contradicted."""
    M = _theta3_f2_expander_module()
    verdicts = set()
    for W in enumerate_subspaces(F2, 2, 1):
        src = W.transpose()  # 2 x 1
        images = [m @ src for m in M.maps]
        snk_dim = column_space_dim_of_stack(images)
        snk = Matrix.hstack(images)
        _, piv = snk.rref()
        emb2 = snk.submatrix(range(2), piv)
        maps = [emb2.solve(m @ src) for m in M.maps]
        part = WitnessPart(KroneckerModule(3, F2, 1, snk_dim, maps), src, emb2)
        w = Witness(M, Fraction(1, 8), Fraction(3), [part])
        rep = refute_witness(M, w, HALF, Fraction(1))
        verdicts.add(rep.verdict)
        # a single line-part cannot reach (1 - 1/8) * 4 dims, so the witness
        # is invalid; parts all expand, so no counterexample ever appears
        assert rep.verdict in ("witness-invalid", "inconclusive")
    assert "witness-invalid" in verdicts


def test_refute_witness_contradiction_on_forged_eps():
    # two independent line parts cover all dims only if they overlap; build an
    # honestly-verifying witness at a large eps, then forge a small eps claim
    M = _theta3_f2_expander_module()
    src = Matrix.selection(F2, 2, [0])
    images = [m @ src for m in M.maps]
    snk = Matrix.hstack(images)
    _, piv = snk.rref()
    emb2 = snk.submatrix(range(2), piv)
    maps = [emb2.solve(m @ src) for m in M.maps]
    part = WitnessPart(KroneckerModule(3, F2, 1, emb2.cols, maps), src, emb2)
    w = Witness(M, Fraction(1, 8), Fraction(3), [part])
    assert not verify_witness(M, w).ok  # the forged eps cannot actually verify
    rep = refute_witness(M, w, HALF, Fraction(1))
    assert rep.verdict == "witness-invalid"


def test_refute_witness_reports_a_part_that_fails_to_expand():
    """On (I, I, I) over GF(2) the line <e_0> has images of dimension 1 <
    (1 + 1) * 1: the verdict carries the part's index and its source basis."""
    i2 = Matrix.identity(F2, 2)
    M = KroneckerModule(3, F2, 2, 2, [i2, i2.copy(), i2.copy()])
    part = MonomialPart(M, [0], [0])
    rep = refute_witness(M, Witness(M, Fraction(1, 8), Fraction(2), [part]), HALF, Fraction(1))
    assert rep.verdict == "expander-counterexample"
    assert rep.part_index == 0
    assert rep.counterexample == part.emb1


def test_refute_witness_builds_no_part_module():
    """Monomial witnesses reach each of the four verdicts with their details,
    and refute_witness reads every part's source dim off its embedding: no
    part restricts the arrow matrices to build its module."""
    M = _theta3_f2_expander_module()
    i2 = Matrix.identity(F2, 2)
    flat = KroneckerModule(3, F2, 2, 2, [i2, i2.copy(), i2.copy()])
    cases = [
        (M, [0, 1], [0, 1], "inconclusive", "part 0 has source dim 2 > eta * n"),
        (M, [0], [0], "not-a-submodule",
         "part 0: sum of T_i(P(1)) is not contained in P(2)"),
        (flat, [0], [0], "expander-counterexample",
         "part 0: dim sum T_i(W) = 1 < (1 + 1) * 1"),
        (M, [1], [0, 1], "witness-invalid", "part-size: part 0 has dim 3 > l_eps 2"),
    ]
    for N, sources, sinks, verdict, detail in cases:
        part = MonomialPart(N, sources, sinks)
        rep = refute_witness(N, Witness(N, Fraction(1, 8), Fraction(2), [part]),
                             HALF, Fraction(1))
        assert (rep.verdict, rep.detail) == (verdict, detail)
        assert "module" not in part.__dict__


REFUTATION_VERDICTS = ("inconclusive", "not-a-submodule", "expander-counterexample",
                       "witness-invalid")


@st.composite
def claimed_witnesses(draw):
    """(M, w, eta, alpha): a random square module over GF(2) or GF(3) with
    n <= 4 and d <= 3, and a claimed witness whose parts are a random
    partition of some of its source and sink ids."""
    field = PrimeField(draw(st.sampled_from([2, 3])))
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    maps = [Matrix.from_dense(field, draw(st.lists(
        st.lists(st.integers(0, field.q - 1), min_size=n, max_size=n),
        min_size=n, max_size=n))) for _ in range(d)]
    M = KroneckerModule(d, field, n, n, maps)
    # each id goes to one of k parts, or to None (left out)
    k = draw(st.integers(1, 2 * n))
    owner = st.one_of(st.none(), st.integers(0, k - 1))
    src = draw(st.lists(owner, min_size=n, max_size=n))
    snk = draw(st.lists(owner, min_size=n, max_size=n))
    parts = [MonomialPart(M, [i for i in range(n) if src[i] == j],
                          [i for i in range(n) if snk[i] == j]) for j in range(k)]
    parts = [p for p in parts if p.dim]
    eps = Fraction(draw(st.integers(0, 7)), 16)
    w = Witness(M, eps, Fraction(draw(st.integers(1, 2 * n))), parts)
    eta = Fraction(draw(st.integers(1, 4)), 4)
    alpha = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    return M, w, eta, alpha


@settings(max_examples=200, deadline=None)
@given(claimed_witnesses())
def test_refute_witness_returns_one_of_its_four_verdicts(case):
    """A witness that verifies with every part expanding and eps below the
    bound cannot exist, so refute_witness never raises its AssertionError."""
    M, w, eta, alpha = case
    rep = refute_witness(M, w, eta, alpha)
    assert rep.verdict in REFUTATION_VERDICTS
    if rep.verdict == "expander-counterexample":
        assert rep.counterexample == w.parts[rep.part_index].emb1


def test_empirical_best_epsilon_p7():
    M = build_P(7)
    rep = empirical_best_epsilon(M, 7)
    assert rep.eps <= Fraction(2, 15)
    assert not rep.partial


def test_empirical_best_epsilon_zero_module():
    from kronhf.modules import direct_sum

    rep = empirical_best_epsilon(direct_sum([]), 4)
    assert rep.eps == 0


def test_empirical_best_epsilon_budget():
    M = build_P(12)
    rep = empirical_best_epsilon(M, 5, budget=3)
    assert rep.partial


def test_empirical_vs_bounds_consistency_theta3_f2():
    """If the reduction is a certified expander, no small-eps witness exists."""
    M = theta3_counterexample_module(3, F2)
    c = ExpanderCandidate.from_module(M, HALF, Fraction(1, 2))
    rep = check_exhaustive(c)
    best = empirical_best_epsilon(M, 1)  # parts below eta * n = 1.5 means dim 1
    if rep.verdict == "proved":
        assert best.eps >= nonhf_epsilon_bound(Fraction(1, 2))
