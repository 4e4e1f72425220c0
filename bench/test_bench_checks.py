"""Self-test of the benchmark: each answer check must flag a known wrong answer,
and a short run must print every metric that BENCHMARK.json names."""

import json
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from kronhf.fields import QQ, PrimeField
from kronhf.modules import PencilBlock, build_R, hom_space
from kronhf.pencil import reassemble

import checks
import workloads

ROOT = Path(__file__).resolve().parents[1]
REF = json.loads((ROOT / "bench" / "reference.json").read_text(encoding="utf-8"))


def _hom_counts(blocks, M):
    D = reassemble(blocks, M.field)
    return len(hom_space(D, M)), len(hom_space(D, D))


# the rank-profile certificate inside decompose_pencil accepts each claim below
@pytest.mark.parametrize("field, true_poly, claimed_poly", [
    (QQ, (Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))),   # x^2+2 for x^2+1
    (QQ, (Fraction(-7),), (Fraction(-9),)),                         # x-9 for x-7
    (PrimeField(101), (3,), (5,)),                                  # x+5 for x+3
])
def test_pencil_check_flags_rank_profile_false_accepts(field, true_poly, claimed_poly):
    built = Counter({PencilBlock("R_poly", poly=true_poly, e=1): 1})
    claimed = Counter({PencilBlock("R_poly", poly=claimed_poly, e=1): 1})
    M = build_R(next(iter(built)), field)
    hom_dm, hom_dd = _hom_counts(claimed, M)
    assert hom_dm == 0 and hom_dd >= 1
    assert checks.check_pencil(built, claimed, hom_dm, hom_dd) is not None
    # the Hom clause alone catches it, even against a wrong expectation
    assert checks.check_pencil(claimed, claimed, hom_dm, hom_dd) is not None
    assert checks.check_pencil(built, built, *_hom_counts(built, M)) is None


def _first_pinned(verdict):
    inputs = workloads.expander_inputs(0)
    index = next(i for i, r in enumerate(REF["expander_seed0"]) if r[0] == verdict)
    return inputs[index], REF["expander_seed0"][index]


def test_expander_check_flags_corrupted_refuting_w():
    inp, (verdict, checked, W) = _first_pinned("refuted")
    assert checks.check_expander(inp, verdict, checked, W, pinned=[verdict, checked, W]) is None
    # rank-deficient W
    assert checks.check_expander(inp, verdict, checked, W + [W[0]]) is not None
    # a full-rank W that expands: change one entry until the image grows enough
    k, q = len(W), inp.q
    corrupted = None
    for r in range(k):
        for c in range(inp.n):
            bad = [row[:] for row in W]
            bad[r][c] = (bad[r][c] + 1) % q
            if (checks.rank_mod(bad, q) == k
                    and checks.image_dim_mod(inp.dense, bad, q) >= (1 + inp.alpha) * k):
                corrupted = bad
                break
        if corrupted:
            break
    assert corrupted is not None
    assert checks.check_expander(inp, verdict, checked, corrupted) is not None
    assert checks.check_expander(inp, verdict, checked + 1, W, pinned=[verdict, checked, W])


def test_expander_check_counts_proofs():
    inp, (verdict, checked, W) = _first_pinned("proved")
    assert checked == checks.subspace_total(inp.n, int(inp.eta * inp.n), inp.q)
    assert checks.check_expander(inp, verdict, checked, W) is None
    assert checks.check_expander(inp, verdict, checked - 1, W) is not None
    assert checks.subspace_total(6, 3, 2) == 63 + 651 + 1395
    assert checks.subspace_total(5, 2, 3) == 121 + 1210


def test_witness_check_flags_changed_parts():
    key = workloads.witness_key("P", 500, Fraction(1, 10))
    inp = workloads.WitnessInput(key, "P", 500, Fraction(1, 10), workloads.witness_module("P", 500))
    ok, clause, dims = workloads.witness_op(inp)
    expected = REF["witness"][key]
    assert checks.check_witness(expected, ok, clause, workloads.dims_digest(dims)) is None
    assert checks.check_witness(expected, ok, clause, workloads.dims_digest(dims[1:])) is not None
    assert checks.check_witness(expected, False, "dimension", workloads.dims_digest(dims))
    # theta_post under the size override fails at eps 1/10 by design, and that is the answer
    post = REF["witness"][workloads.witness_key("theta_post", (3, 7), Fraction(1, 10))]
    assert (post["ok"], post["clause"]) == (False, "dimension")


def test_sl2p_check_flags_each_clause():
    lower = REF["sl2p_lower"]["7"]
    good = (True, True, lower, lower + 0.1, "sampled-pass")
    assert checks.check_sl2p(lower, *good) is None
    for bad in ((False,) + good[1:], (True, False) + good[2:],
                (True, True, lower + 1e-6, lower + 0.1, "sampled-pass"),
                (True, True, lower, lower - 0.1, "sampled-pass"),
                good[:4] + ("refuted",)):
        assert checks.check_sl2p(lower, *bad) is not None


def test_run_prints_every_named_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, *spec["command"][1:], "--workload", "expander", "--seed", "0",
             "--seconds", "0.5", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
