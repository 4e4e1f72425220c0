"""Outputs pinned byte for byte.

The Q files in tests/golden/ were written while every Q entry was held as a
Fraction. Integral entries are now plain ints; str, == and hash agree
between 3 and Fraction(3), so the text format and the JSON reports must
not change. The GF(5) decomposition was written before the pencil stages
became one peel each. The witness_theta3, witness_postinj and witness_q300
files and the best-eps pins were recorded while the coefficient quiver keyed
its vertices by (layer, index) tuples. Each test rebuilds its output and
compares it with the file.
"""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from kronhf.cli import main
from kronhf.expander import empirical_best_epsilon
from kronhf.fields import QQ, PrimeField
from kronhf.matrices import Matrix, random_invertible
from kronhf.modules import (KroneckerModule, PencilBlock, build_P, build_Q,
                            build_R, build_preprojective_theta, direct_sum)
from kronhf.witness import (fragment_postinjective_theta, fragment_tree_module,
                            verify_witness, witness_postinjective_2k,
                            witness_to_dict)

from oracles import random_matrix

GOLDEN = Path(__file__).parent / "golden"


def q_kernel_text():
    """The text of a hand-written mixed matrix and of kernel results on
    random ones: products, sums, scalings, rref, kernel and solve."""
    mixed = Matrix.from_dense(QQ, [[Fraction(1, 2), 3, 0, Fraction(-7, 3)],
                                   [Fraction(4, 2), -1, Fraction(5, 6), Fraction(9, 3)],
                                   [0, 0, Fraction(-1, 1), Fraction(12, 8)]])
    rng = random.Random(2024)
    a = random_matrix(QQ, 5, 6, rng)
    b = random_matrix(QQ, 6, 4, rng)
    g = random_invertible(QQ, 5, rng)
    outs = [mixed, mixed.scale(2), mixed.scale(Fraction(-3, 4)), mixed + mixed,
            mixed - mixed.scale(Fraction(1, 2)), mixed.rref()[0],
            mixed.kernel_basis(),
            a, b, g, a @ b, a + a.scale(Fraction(1, 3)), a - a, -a, a.rref()[0],
            a.kernel_basis(), g.solve(a), g @ g.solve(a)]
    return "".join(m.to_text() for m in outs)


def scrambled_module():
    """P_2 + Q_1 + R_(x-1)^2 + R_(x^2+1) + R_mono(2) over Q under random
    changes of basis, one of them scaled so that the maps hold fractions."""
    blocks = [build_P(2), build_Q(1), build_R(PencilBlock("R_poly", poly=(-1,), e=2)),
              build_R(PencilBlock("R_poly", poly=(1, 0), e=1)),
              build_R(PencilBlock("R_mono", 2))]
    D = direct_sum(blocks)
    rng = random.Random(9)
    g1 = random_invertible(QQ, D.dim1, rng)
    g2 = random_invertible(QQ, D.dim2, rng).scale(Fraction(2, 3))
    return KroneckerModule(2, QQ, D.dim1, D.dim2, [g2 @ m @ g1 for m in D.maps])


def scrambled_gf5_module():
    """P_1 + P_3 + Q_0 + Q_2 + R_(x^2+2)^2 + R_(x+2) + R_mono(3) + R_mono(1)
    over GF(5) under random changes of basis."""
    F5 = PrimeField(5)
    blocks = [build_P(1, F5), build_P(3, F5), build_Q(0, F5), build_Q(2, F5),
              build_R(PencilBlock("R_poly", poly=(2, 0), e=2), F5),
              build_R(PencilBlock("R_poly", poly=(-3,), e=1), F5),
              build_R(PencilBlock("R_mono", 3), F5), build_R(PencilBlock("R_mono", 1), F5)]
    D = direct_sum(blocks)
    rng = random.Random(11)
    g1 = random_invertible(F5, D.dim1, rng)
    g2 = random_invertible(F5, D.dim2, rng)
    return KroneckerModule(2, F5, D.dim1, D.dim2, [g2 @ m @ g1 for m in D.maps])


def scrambled_dim98_module():
    """P_12 + Q_12 + R_mono(12) + R_(x-1)^12 over GF(5) (dims 49x49) under
    random changes of basis: the timing case of ROADMAP item 10. CI
    decomposes it; here only its text is pinned."""
    F5 = PrimeField(5)
    blocks = [build_P(12, F5), build_Q(12, F5), build_R(PencilBlock("R_mono", 12), F5),
              build_R(PencilBlock("R_poly", poly=(-1,), e=12), F5)]
    D = direct_sum(blocks)
    rng = random.Random(12)
    g1 = random_invertible(F5, D.dim1, rng)
    g2 = random_invertible(F5, D.dim2, rng)
    return KroneckerModule(2, F5, D.dim1, D.dim2, [g2 @ m @ g1 for m in D.maps])


def cli_json(capsys, module_path, *argv):
    """The --json report of a CLI run with its module path and wall time
    replaced by fixed tokens."""
    assert main([*argv, "--module", str(module_path), "--json"]) == 0
    out = capsys.readouterr().out.replace(str(module_path), "MODULE")
    return re.sub(r'"wall_ms": [0-9.e+-]+', '"wall_ms": 0', out)


def test_q_kernel_text_is_unchanged():
    assert q_kernel_text() == (GOLDEN / "q_kernel.txt").read_text()


def test_decompose_json_on_a_scrambled_q_module_is_unchanged(capsys, tmp_path):
    text = scrambled_module().to_text()
    assert text == (GOLDEN / "scrambled_q.mod").read_text()
    path = tmp_path / "m.mod"
    path.write_text(text)
    assert cli_json(capsys, path, "decompose") == (GOLDEN / "decompose.json").read_text()


def test_decompose_json_on_a_scrambled_gf5_module_is_unchanged(capsys, tmp_path):
    text = scrambled_gf5_module().to_text()
    assert text == (GOLDEN / "scrambled_gf5.mod").read_text()
    path = tmp_path / "m.mod"
    path.write_text(text)
    assert cli_json(capsys, path, "decompose") == (GOLDEN / "decompose_gf5.json").read_text()


def test_scrambled_dim98_module_text_is_unchanged():
    assert scrambled_dim98_module().to_text() == (GOLDEN / "scrambled_gf5_dim98.mod").read_text()


def test_witness_json_on_r_x_minus_1_to_the_40_is_unchanged(capsys, tmp_path):
    path = tmp_path / "r.mod"
    assert main(["build", "R", "--poly", "(x-1)^40", "--out", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text() == (GOLDEN / "r40.mod").read_text()
    got = cli_json(capsys, path, "witness", "--eps", "1/4")
    assert got == (GOLDEN / "witness_r40.json").read_text()


# witness producers that run the graph layer: centroid splitting on a
# theta(3) tree, the staged sink removal whose kept set misses the dimension
# bound (a designed failure), and the zigzag drop under Q_300's combinators
WITNESS_GOLDENS = {
    "witness_theta3_t6.json":
        lambda: fragment_tree_module(build_preprojective_theta(3, 6), Fraction(1, 10)),
    "witness_postinj_theta3_t7_l40.json":
        lambda: fragment_postinjective_theta(3, 7, Fraction(1, 10), l_override=40),
    "witness_q300.json":
        lambda: witness_postinjective_2k(build_Q(300), Fraction(1, 4)),
}


def witness_json(name):
    """witness_to_dict of a golden's witness, verify report included."""
    w = WITNESS_GOLDENS[name]()
    report = verify_witness(w.module, w)
    return json.dumps(witness_to_dict(w, report), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(WITNESS_GOLDENS))
def test_graph_layer_witness_json_is_unchanged(name):
    assert witness_json(name) == (GOLDEN / name).read_text()


def test_empirical_best_epsilon_is_pinned():
    p7 = empirical_best_epsilon(build_P(7), 7)
    assert (p7.eps, p7.kept_sources, p7.partial) == (
        Fraction(1, 15), [0, 1, 2, 4, 5, 6], False)
    theta = empirical_best_epsilon(build_preprojective_theta(3, 3), 7)
    assert (theta.eps, theta.kept_sources, theta.partial) == (
        Fraction(3, 29), [0, 2, 4, 5, 7], False)
