"""Fragment the wild-quiver tree modules.

The d-arrow preprojective and postinjective tree modules fragment into
bounded components after removing a small fraction of basis vectors. The
preprojective side splits at centroids directly; the postinjective side
removes centroid sinks together with the sources mapping into them, so the
kept set stays a monomial submodule.
"""

from fractions import Fraction

from kronhf.modules import a_sequence, build_postinjective_theta, build_preprojective_theta
from kronhf.quiver import build_gamma, degree_stats, is_tree
from kronhf.witness import (fragment_postinjective_theta, fragment_tree_module,
                            postinjective_fragment_size_bound, verify_witness)

d = 3
print("dimension sequence a_t for d = 3:", a_sequence(d, 10).values)
print()

print("tree structure of the canonical modules")
print(f"{'module':<18} {'dims':>12} {'tree':>6} {'indeg':>6} {'outdeg':>7}")
for t in range(1, 7):
    for name, M in ((f"pre (t={t})", build_preprojective_theta(d, t)),
                    (f"post (t={t})", build_postinjective_theta(d, t))):
        g = build_gamma(M)
        i, o = degree_stats(g, M.dim1)
        print(f"{name:<18} {f'{M.dim1}x{M.dim2}':>12} {str(is_tree(g)):>6} "
              f"{i:>6} {o:>7}")

print()
print("centroid fragmentation of preprojectives at eps = 1/4")
print(f"{'t':>3} {'dim':>7} {'removed':>8} {'fraction':>10} {'parts':>6} {'C(eps)':>7} verdict")
eps = Fraction(1, 4)
for t in range(2, 11):
    M = build_preprojective_theta(d, t)
    w = fragment_tree_module(M, eps)
    ok = verify_witness(M, w).ok
    print(f"{t:>3} {M.dim:>7} {w.notes['removed']:>8} "
          f"{str(w.notes['removed_fraction']):>10} {len(w.parts):>6} "
          f"{str(w.l_eps):>7} {'pass' if ok else 'FAIL'}")

print()
L = postinjective_fragment_size_bound(d, eps)
print(f"postinjective size bound from the geometric-series estimate: L = {L}")
print("every desk-scale module sits below it, so the default witness is the")
print("whole module; an explicit override exercises the staged removal:")
print(f"{'t':>3} {'dim':>6} {'L':>5} {'removed':>8} {'fraction':>10} {'stages':>7} verdict")
for t, L_o in ((4, 20), (5, 30), (6, 40), (7, 60), (8, 90)):
    w = fragment_postinjective_theta(d, t, eps, l_override=L_o)
    ok = verify_witness(w.module, w).ok
    print(f"{t:>3} {w.module.dim:>6} {L_o:>5} {w.notes['removed']:>8} "
          f"{str(w.notes['removed_fraction']):>10} {w.notes['stages']:>7} "
          f"{'pass' if ok else 'FAIL'}")
