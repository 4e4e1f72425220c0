"""The four benchmark workloads: seeded inputs, one op each, answer checks.

Inputs are built as a pool of passes. A pass is a fixed template of slots
(field and dimension, family and size class, prime), so every seed yields
the same mix of work and differs only in the random content of each slot.
The timed loop walks the pool in order and wraps around when it runs out.

Ops call the library entry points that the kronhf CLI commands call,
through module attributes looked up at call time, so the tracer can wrap
them from outside the package.
"""

from __future__ import annotations

import hashlib
import importlib.resources
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from kronhf import expander, modules, pencil, sl2p, witness
from kronhf.fields import QQ, PrimeField
from kronhf.matrices import Matrix, random_invertible

import checks

F5 = PrimeField(5)


@dataclass(frozen=True)
class Workload:
    name: str
    pass_len: int         # ops in one pass of the slot template
    tail_pct: int         # percentile reported as op_ms_tail
    uses_sympy: bool      # whether set-up pays the lazy sympy import
    inputs: Callable      # seed -> list of inputs
    op: Callable          # input -> result
    check: Callable       # (input, result, pool index, seed, reference) -> reason | None
    verdict: Callable     # result -> short verdict label, to report the mix measured


# -- pencil: scrambled block multisets over Q and GF(5) --------------------------

PENCIL_SLOTS = [(QQ, d) for d in range(6, 17)] + [(F5, d) for d in range(6, 19)]
PENCIL_PASSES = 8


@dataclass
class PencilInput:
    M: modules.KroneckerModule
    built: Counter


def _block_pool(field):
    """The block pool of the pencil roundtrip tests."""
    PB = modules.PencilBlock
    pool = [PB("P", n) for n in range(4)] + [PB("Q", n) for n in range(4)]
    pool += [PB("R_mono", n) for n in range(1, 4)]
    if field.char == 0:
        polys = [(Fraction(-1),), (Fraction(2),), (Fraction(1), Fraction(0))]
    else:
        polys = [(1,), (field.q - 1,), (2, 0)]
    pool += [PB("R_poly", poly=q, e=e) for q in polys for e in (1, 2)]
    return pool


def _blocks_of_dim(field, dim, rng):
    """Random multiset of 1 to 4 pool blocks whose total dimension is dim."""
    pool = _block_pool(field)
    while True:
        picks = [pool[rng.randrange(len(pool))] for _ in range(rng.randint(1, 4))]
        if sum(b.dim_vector().total for b in picks) == dim:
            return Counter(picks)


def pencil_inputs(seed):
    rng = random.Random(f"pencil:{seed}")
    out = []
    for _ in range(PENCIL_PASSES):
        slots = list(PENCIL_SLOTS)
        rng.shuffle(slots)
        for field, dim in slots:
            built = _blocks_of_dim(field, dim, rng)
            D = pencil.reassemble(built, field)
            g1 = random_invertible(field, D.dim1, rng)
            g2 = random_invertible(field, D.dim2, rng)
            M = modules.KroneckerModule(2, field, D.dim1, D.dim2,
                                        [g2 @ m @ g1 for m in D.maps])
            out.append(PencilInput(M, built))
    return out


def pencil_op(inp):
    blocks = pencil.decompose_pencil(inp.M)
    D = pencil.reassemble(blocks, inp.M.field)
    return blocks, len(modules.hom_space(D, inp.M)), len(modules.hom_space(D, D))


def pencil_check(inp, result, index, seed, ref):
    return checks.check_pencil(inp.built, *result)


# -- expander: exhaustive checks of random d = 3 candidates -----------------------

EXPANDER_FIELDS = {2: (6, Fraction(1, 2)), 3: (5, Fraction(2, 5))}   # q -> (n, eta)
EXPANDER_ALPHA = {(2, "prove"): Fraction(1, 10), (3, "prove"): Fraction(1, 2),
                  (2, "refute"): Fraction(1), (3, "refute"): Fraction(1)}
EXPANDER_SLOTS = [(2, "prove")] * 3 + [(3, "prove")] * 3 + [(2, "refute"), (3, "refute")]
EXPANDER_PASSES = 3


@dataclass
class ExpanderInput:
    q: int
    n: int
    eta: Fraction
    alpha: Fraction
    dense: list           # the three maps as row-major integer lists
    cand: expander.ExpanderCandidate


def _all_vectors(n, q):
    for code in range(1, q ** n):
        yield [code // q ** i % q for i in range(n)]


def _expander_candidate(q, aim, rng):
    """Three random n x n maps; a 'prove' slot redraws maps that fail at k = 1,
    which no alpha > 0 can pass, so its verdict is a full enumeration."""
    n, eta = EXPANDER_FIELDS[q]
    while True:
        dense = [[[rng.randrange(q) for _ in range(n)] for _ in range(n)] for _ in range(3)]
        if aim == "refute" or all(checks.image_dim_mod(dense, [v], q) >= 2
                                  for v in _all_vectors(n, q)):
            break
    field = PrimeField(q)
    alpha = EXPANDER_ALPHA[(q, aim)]
    cand = expander.ExpanderCandidate(field, n, [Matrix.from_dense(field, m) for m in dense],
                                      eta, alpha)
    return ExpanderInput(q, n, eta, alpha, dense, cand)


def expander_inputs(seed):
    rng = random.Random(f"expander:{seed}")
    out = []
    for _ in range(EXPANDER_PASSES):
        slots = list(EXPANDER_SLOTS)
        rng.shuffle(slots)
        out.extend(_expander_candidate(q, aim, rng) for q, aim in slots)
    return out


def expander_op(inp):
    rep = expander.check_exhaustive(inp.cand)
    W = None if rep.witness is None else [[int(x) for x in row] for row in rep.witness.to_dense()]
    return rep.verdict, rep.subspaces_checked, W


def expander_check(inp, result, index, seed, ref):
    pinned = ref["expander_seed0"][index] if seed == 0 else None
    return checks.check_expander(inp, *result, pinned=pinned)


# -- witness: produce and verify over the standard families -----------------------

WITNESS_SIZES = {"small": range(475, 526, 5), "medium": range(975, 1026, 5),
                 "large": range(1950, 2001, 5)}
WITNESS_CLASS_EPS = (("large", Fraction(1, 2)), ("medium", Fraction(1, 4)),
                     ("small", Fraction(1, 10)))
# one eps per theta slot, so every seed measures the same mix; together they
# cover each eps, and theta_post(3, 7) at 1/10 is the designed dimension failure
THETA_SLOTS = (("theta_pre", (3, 6), Fraction(1, 10)), ("theta_pre", (3, 7), Fraction(1, 2)),
               ("theta_pre", (3, 8), Fraction(1, 4)), ("theta_pre", (4, 5), Fraction(1, 10)),
               ("theta_pre", (4, 6), Fraction(1, 2)), ("theta_post", (3, 5), Fraction(1, 2)),
               ("theta_post", (3, 6), Fraction(1, 4)), ("theta_post", (3, 7), Fraction(1, 10)))
L_OVERRIDE = 40       # small enough that theta_post at eps 1/10 fails the dimension clause
WITNESS_PASSES = 3


@dataclass
class WitnessInput:
    key: str
    family: str
    param: object         # n, or (d, t) for the theta families
    eps: Fraction
    M: modules.KroneckerModule


def witness_key(family, param, eps):
    p = f"{param[0]},{param[1]}" if isinstance(param, tuple) else str(param)
    return f"{family}:{p}:{eps}"


def witness_cases():
    """Every (family, param, eps) a seed can draw, for recording expectations."""
    for fam in ("P", "Q", "R"):
        for cls, eps in WITNESS_CLASS_EPS:
            for n in WITNESS_SIZES[cls]:
                yield fam, n, eps
    yield from THETA_SLOTS


def witness_module(family, param):
    if family == "P":
        return modules.build_P(param)
    if family == "Q":
        return modules.build_Q(param)
    if family == "R":
        # from the factored form: the sweep command factors the expanded
        # (x-1)^n with sympy, which takes 32 s at n = 1000 on a 2-vCPU Xeon
        return modules.build_R(modules.PencilBlock("R_poly", poly=(Fraction(-1),), e=param))
    if family == "theta_pre":
        return modules.build_preprojective_theta(*param)
    return modules.build_postinjective_theta(*param)


def witness_inputs(seed):
    rng = random.Random(f"witness:{seed}")
    built = {}
    out = []
    for _ in range(WITNESS_PASSES):
        slots = [(fam, rng.choice(WITNESS_SIZES[cls]), eps)
                 for fam in ("P", "Q", "R") for cls, eps in WITNESS_CLASS_EPS]
        slots += THETA_SLOTS
        rng.shuffle(slots)
        for fam, param, eps in slots:
            if (fam, param) not in built:
                built[(fam, param)] = witness_module(fam, param)
            out.append(WitnessInput(witness_key(fam, param, eps), fam, param, eps,
                                    built[(fam, param)]))
    return out


def witness_op(inp):
    fam, eps = inp.family, inp.eps
    if fam == "P":
        w = witness.witness_preprojective_2k(inp.param, eps)
    elif fam == "Q":
        w = witness.witness_postinjective_2k(inp.M, eps)
    elif fam == "R":
        w = witness.witness_regular_2k(inp.M, eps)
    elif fam == "theta_pre":
        w = witness.fragment_tree_module(inp.M, eps)
    else:
        w = witness.fragment_postinjective_theta(*inp.param, eps, l_override=L_OVERRIDE)
    rep = witness.verify_witness(inp.M, w)
    return rep.ok, rep.clause, [p.module.dim for p in w.parts]


def dims_digest(dims):
    return hashlib.sha256(json.dumps(dims).encode()).hexdigest()


def witness_check(inp, result, index, seed, ref):
    ok, clause, dims = result
    return checks.check_witness(ref["witness"].get(inp.key), ok, clause, dims_digest(dims))


# -- sl2p: representation checks, Kazhdan bracket, sampled expansion --------------

SL2P_TRIALS = {5: 3, 7: 2, 11: 1}     # upper-bound restarts per op
SL2P_SLOTS = (5, 7, 11, 5, 7, 11)
SL2P_PASSES = 64
SAMPLED_TRIALS = 20
SAMPLED_ETA = Fraction(1, 2)
SAMPLED_ALPHA = Fraction(1, 2)


@dataclass
class Sl2pInput:
    p: int
    kazhdan_seed: int
    sample_seed: int
    fixture: str


def sl2p_inputs(seed):
    rng = random.Random(f"sl2p:{seed}")
    root = importlib.resources.files("kronhf")
    fixtures = {p: root.joinpath(f"fixtures/rho_{p}.txt").read_text(encoding="utf-8")
                for p in SL2P_TRIALS}
    out = []
    for _ in range(SL2P_PASSES):
        slots = list(SL2P_SLOTS)
        rng.shuffle(slots)
        out.extend(Sl2pInput(p, rng.randrange(2 ** 32), rng.randrange(2 ** 32), fixtures[p])
                   for p in slots)
    return out


def sl2p_op(inp):
    p = inp.p
    rep = sl2p.irreducible_rep(p)
    fixture_ok = sl2p.rep_dump_text(p) == inp.fixture
    irreducible = sl2p.is_irreducible([rep.mat_s, rep.mat_t])
    est = sl2p.kazhdan_estimate(p, trials=SL2P_TRIALS[p], seed=inp.kazhdan_seed)
    cand = expander.ExpanderCandidate.from_module(
        sl2p.theta3_counterexample_module(p), SAMPLED_ETA, SAMPLED_ALPHA)
    sampled = expander.check_sampled_rational(cand, SAMPLED_TRIALS, seed=inp.sample_seed)
    return fixture_ok, irreducible, est.lower, est.upper, sampled.verdict


def sl2p_check(inp, result, index, seed, ref):
    return checks.check_sl2p(ref["sl2p_lower"][str(inp.p)], *result)


WORKLOADS = {w.name: w for w in (
    Workload("pencil", len(PENCIL_SLOTS), 95, True, pencil_inputs, pencil_op, pencil_check,
             lambda r: "decomposed"),
    Workload("expander", len(EXPANDER_SLOTS), 90, False, expander_inputs, expander_op,
             expander_check, lambda r: r[0]),
    Workload("witness", 3 * len(WITNESS_CLASS_EPS) + len(THETA_SLOTS), 80,
             True, witness_inputs, witness_op, witness_check,
             lambda r: "pass" if r[0] else f"fail:{r[1]}"),
    Workload("sl2p", len(SL2P_SLOTS), 85, False, sl2p_inputs, sl2p_op, sl2p_check,
             lambda r: r[4]),
)}
