"""Walk through the tame (d = 2) witness constructions.

For every tolerance eps the three canonical families admit submodules of
fraction at least 1 - eps that split into parts of bounded size. This script
builds the witnesses, shows the bookkeeping, and re-checks everything with
the independent verifier.
"""

from fractions import Fraction

from kronhf.modules import PencilBlock, build_P, build_Q, build_R
from kronhf.witness import (verify_witness, witness_postinjective_2k,
                            witness_preprojective_2k, witness_regular_2k)

print("=" * 70)
print("Preprojective P_7 at eps = 1/4: drop every third source generator")
print("=" * 70)
w = witness_preprojective_2k(7, Fraction(1, 4))
print(f"dropped source indices (zero-based): {w.notes['dropped_sources']}")
print(f"parts: {[p.dim for p in w.parts]}  (dims at most L = {w.l_eps})")
print(f"dim N = {w.dim_n} >= (3/4) * {w.module.dim} = {Fraction(3, 4) * w.module.dim}")
print(f"verifier: {verify_witness(w.module, w)}")

print()
print("A sweep over the three families and three tolerances:")
print(f"{'module':<10} {'eps':>5} {'dim':>6} {'dim N':>6} {'parts':>6} {'L_eps':>6} verdict")
for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 10)):
    for name, M, producer in (
        ("P_50", build_P(50), witness_preprojective_2k),
        ("Q_50", build_Q(50), witness_postinjective_2k),
        ("R_50", build_R(PencilBlock("R_poly", poly=(Fraction(-1),), e=50)),
         witness_regular_2k),
    ):
        w = producer(50, eps) if name == "P_50" else producer(M, eps)
        ok = verify_witness(w.module, w).ok
        print(f"{name:<10} {str(eps):>5} {w.module.dim:>6} {w.dim_n:>6} "
              f"{len(w.parts):>6} {str(w.l_eps):>6} {'pass' if ok else 'FAIL'}")

