"""Kronecker canonical form: scramble a direct sum, recover the blocks.

Any d = 2 module splits into preprojective, postinjective and regular
blocks. The decomposition engine peels the postinjective part by kernel
chains, the preprojective part on the transpose, and classifies the regular
core by primary decomposition; the result is certified by an isomorphism
from the direct sum of the recovered blocks onto the module, checked in
exact arithmetic.
"""

import random
from fractions import Fraction

from kronhf.fields import QQ, PrimeField
from kronhf.matrices import random_invertible
from kronhf.modules import KroneckerModule, PencilBlock, direct_sum
from kronhf.pencil import block_module, decompose_pencil

rng = random.Random(2024)

recipes = [
    (QQ, [PencilBlock("P", 2), PencilBlock("Q", 1)]),
    (QQ, [PencilBlock("R_poly", poly=(Fraction(-1),), e=2),
          PencilBlock("R_poly", poly=(Fraction(1), Fraction(0)), e=1),
          PencilBlock("P", 0)]),
    (QQ, [PencilBlock("R_mono", 3), PencilBlock("Q", 2), PencilBlock("Q", 0)]),
    (PrimeField(5), [PencilBlock("P", 1), PencilBlock("P", 1),
                     PencilBlock("R_poly", poly=(4,), e=2)]),
    (PrimeField(5), [PencilBlock("Q", 3), PencilBlock("R_mono", 2)]),
]

for field, blocks in recipes:
    M = direct_sum([block_module(b, field) for b in blocks], d=2, field=field)
    g1 = random_invertible(field, M.dim1, rng)
    g2 = random_invertible(field, M.dim2, rng)
    scrambled = KroneckerModule(2, field, M.dim1, M.dim2,
                                [g2 @ m @ g1 for m in M.maps])
    recovered = decompose_pencil(scrambled)
    names = sorted(b.describe() for b in recovered.elements())
    expect = sorted(b.describe() for b in blocks)
    status = "ok" if names == expect else "MISMATCH"
    print(f"[{field!r:>7}] {' + '.join(expect):<55} -> {status}")

print()
print("defect bookkeeping: blocks of defect -1 (P), 0 (regular), +1 (Q)")
for field, blocks in recipes:
    total = sum(b.defect for b in blocks)
    M = direct_sum([block_module(b, field) for b in blocks], d=2, field=field)
    print(f"  {' + '.join(sorted(b.describe() for b in blocks)):<55} "
          f"defect {M.defect:+d} = sum {total:+d}")
