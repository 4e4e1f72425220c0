"""Kronecker quiver modules: constructors, dimension sequences, hom spaces.

A module for the d-arrow Kronecker quiver (vertices 1 -> 2) is a pair of
spaces with d linear maps, each of shape dim2 x dim1. Defect is dim1 - dim2,
so the wide standard modules Q_n carry defect +1 and the tall P_n defect -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, PreconditionError, ShapeError, ValidationError
from .fields import QQ, field_from_label
from .matrices import Matrix, matrix_from_text


@dataclass(frozen=True)
class DimVector:
    d1: int
    d2: int

    @property
    def defect(self) -> int:
        return self.d1 - self.d2

    @property
    def total(self) -> int:
        return self.d1 + self.d2


class KroneckerModule:
    __slots__ = ("d", "field", "dim1", "dim2", "maps")

    def __init__(self, d, field, dim1, dim2, maps):
        if d < 1:
            raise ValidationError("need at least one arrow")
        if len(maps) != d:
            raise ValidationError(f"expected {d} maps, got {len(maps)}")
        for m in maps:
            if m.field != field:
                raise ValidationError("map field mismatch")
            if (m.rows, m.cols) != (dim2, dim1):
                raise ShapeError(f"map shape {m.rows}x{m.cols}, expected {dim2}x{dim1}")
        self.d = d
        self.field = field
        self.dim1 = dim1
        self.dim2 = dim2
        self.maps = tuple(maps)

    @property
    def dim(self) -> int:
        return self.dim1 + self.dim2

    def dim_vector(self) -> DimVector:
        return DimVector(self.dim1, self.dim2)

    @property
    def defect(self) -> int:
        return self.dim1 - self.dim2

    def map(self, k) -> Matrix:
        return self.maps[k]

    def transpose(self) -> "KroneckerModule":
        """Vector-space dual; swaps the two vertices and transposes each map."""
        return KroneckerModule(self.d, self.field, self.dim2, self.dim1,
                               [m.transpose() for m in self.maps])

    def __eq__(self, other):
        return (
            isinstance(other, KroneckerModule)
            and self.d == other.d
            and self.field == other.field
            and (self.dim1, self.dim2) == (other.dim1, other.dim2)
            and self.maps == other.maps
        )

    def __repr__(self):
        return f"KroneckerModule(d={self.d}, {self.field!r}, dims={self.dim1}x{self.dim2})"

    def to_text(self) -> str:
        head = f"kronecker d={self.d} field={self.field.label} dims={self.dim1}x{self.dim2}\n"
        return head + "".join(m.to_text() for m in self.maps)


def module_from_text(text: str) -> KroneckerModule:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("kronecker "):
        raise ValidationError("module text must start with a 'kronecker' header")
    fields = dict(tok.split("=", 1) for tok in lines[0].split()[1:])
    d = int(fields["d"])
    fld = field_from_label(fields["field"])
    d1, d2 = (int(x) for x in fields["dims"].split("x"))
    toks = "\n".join(lines[1:]).split()
    maps = []
    pos = 0
    for _ in range(d):
        if pos + 4 > len(toks) or toks[pos] != "field":
            raise ValidationError("malformed matrix block in module text")
        count = int(toks[pos + 2]) * int(toks[pos + 3])
        maps.append(matrix_from_text(" ".join(toks[pos:pos + 4 + count])))
        pos += 4 + count
    return KroneckerModule(d, fld, d1, d2, maps)


def direct_sum(mods, *, d=None, field=None) -> KroneckerModule:
    if not mods:
        if d is None or field is None:
            d, field = 2, QQ
        return KroneckerModule(d, field, 0, 0, [Matrix.zeros(field, 0, 0)] * d)
    d0, f0 = mods[0].d, mods[0].field
    for m in mods:
        if m.d != d0 or m.field != f0:
            raise ValidationError("direct sum requires matching arrow count and field")
    dim1 = sum(m.dim1 for m in mods)
    dim2 = sum(m.dim2 for m in mods)
    maps = []
    for k in range(d0):
        ent = []
        r_off = c_off = 0
        for m in mods:
            for i, j, v in m.maps[k].entries():
                ent.append((i + r_off, j + c_off, v))
            r_off += m.dim2
            c_off += m.dim1
        maps.append(Matrix.from_entries(f0, dim2, dim1, ent))
    return KroneckerModule(d0, f0, dim1, dim2, maps)


# -- dimension sequence ------------------------------------------------------


@dataclass
class SequenceA:
    d: int
    values: list
    phi: float
    psi: float


def a_sequence(d: int, T: int) -> SequenceA:
    """Exact values a_0..a_T of a_{t+1} = d*a_t - a_{t-1}, a_0 = 0, a_1 = 1."""
    if d < 3:
        raise DomainError("closed form needs d >= 3 (d^2 > 4)")
    if T < 1:
        raise DomainError("need T >= 1")
    vals = [0, 1]
    for _ in range(T - 1):
        vals.append(d * vals[-1] - vals[-2])
    root = math.sqrt(d * d - 4)
    return SequenceA(d, vals, (d + root) / 2.0, (d - root) / 2.0)


def closed_form_a(d: int, t: int) -> float:
    if d < 3:
        raise DomainError("closed form needs d >= 3")
    if t < 0:
        raise DomainError("t >= 0")
    root = math.sqrt(d * d - 4)
    phi = (d + root) / 2.0
    psi = (d - root) / 2.0
    return (phi ** t - psi ** t) / root


@dataclass
class TBound:
    dim: int
    bound: float
    holds: bool


def t_bound_check(d: int, t: int) -> TBound:
    """Checks t <= (4 / ln phi) * sqrt(a_{t+1} + a_t).

    The comparison shaves a conservative relative margin off the float bound
    so a pass is certain despite rounding.
    """
    seq = a_sequence(d, t + 1)
    dim = seq.values[t + 1] + seq.values[t]
    if dim < 3:
        raise PreconditionError(f"dim {dim} < 3")
    bound = (4.0 / math.log(seq.phi)) * math.sqrt(dim)
    conservative = bound * (1 - 1e-9) - 1e-9
    return TBound(dim, bound, t <= conservative)


# -- pencil blocks and polynomials -------------------------------------------


@dataclass(frozen=True)
class PencilBlock:
    """One indecomposable of the 2-Kronecker classification.

    kind 'P' and 'Q' carry the index n; 'R_mono' the nilpotency degree n;
    'R_poly' a monic irreducible q (coefficient tuple, low to high, without
    the leading 1) and the power e.
    """

    kind: str
    n: int = 0
    poly: tuple = ()
    e: int = 0

    def dim_vector(self) -> DimVector:
        if self.kind == "P":
            return DimVector(self.n, self.n + 1)
        if self.kind == "Q":
            return DimVector(self.n + 1, self.n)
        if self.kind == "R_mono":
            return DimVector(self.n, self.n)
        if self.kind == "R_poly":
            n = len(self.poly) * self.e
            return DimVector(n, n)
        raise ValidationError(f"unknown block kind {self.kind}")

    @property
    def defect(self) -> int:
        return self.dim_vector().defect

    def describe(self) -> str:
        if self.kind == "P":
            return f"P_{self.n}"
        if self.kind == "Q":
            return f"Q_{self.n}"
        if self.kind == "R_mono":
            return f"R_mono({self.n})"
        return f"R_poly(({poly_to_str(self.poly)})^{self.e})"


def poly_to_str(coeffs) -> str:
    """Monic polynomial display from low-order coefficients (leading 1 implied)."""
    deg = len(coeffs)
    parts = []
    for k in range(deg, -1, -1):
        c = coeffs[k] if k < deg else 1
        if not c:
            continue
        x = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
        mag = abs(c)
        body = x if (mag == 1 and x) else (f"{mag}*{x}" if x else str(mag))
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts) if parts else "0"


def companion_matrix(field, coeffs) -> Matrix:
    """Frobenius companion of the monic polynomial x^n + c_{n-1} x^{n-1} + ... + c_0."""
    n = len(coeffs)
    ent = [(i + 1, i, field.one) for i in range(n - 1)]
    for i, c in enumerate(coeffs):
        c = field.coerce(c)
        if c:
            ent.append((i, n - 1, field.neg(c)))
    return Matrix.from_entries(field, n, n, ent)


def poly_to_sympy(field, coeffs):
    """sympy Poly of the monic polynomial with given low-order coefficients."""
    import sympy

    x = sympy.Symbol("x")
    if field.char == 0:
        expr = x ** len(coeffs) + sum(sympy.Rational(c) * x ** k for k, c in enumerate(coeffs))
        return sympy.Poly(expr, x, domain=sympy.QQ)
    expr = x ** len(coeffs) + sum(int(c) * x ** k for k, c in enumerate(coeffs))
    return sympy.Poly(expr, x, modulus=field.char)


def sympy_to_coeffs(field, poly) -> tuple:
    """Low-order coefficient tuple of a monic sympy Poly, leading 1 dropped."""
    all_c = list(reversed(poly.monic().all_coeffs()))  # low to high
    out = []
    for c in all_c[:-1]:
        if field.char == 0:
            out.append(Fraction(str(c)))
        else:
            out.append(int(c) % field.char)
    return tuple(out)


def factor_monic(field, coeffs):
    """Irreducible factorization [(q_coeffs, multiplicity)] of a monic polynomial."""
    poly = poly_to_sympy(field, coeffs)
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        fac = fac.monic()
        out.append((sympy_to_coeffs(field, fac), int(mult)))
    out.sort()
    return out


def prime_power_parts(field, coeffs):
    """(q, e) if the monic polynomial is a power of a single monic irreducible."""
    factors = factor_monic(field, coeffs)
    if len(factors) != 1:
        raise ValidationError(
            f"polynomial {poly_to_str(coeffs)} is not a power of a single irreducible")
    return factors[0]


def parse_poly(field, text: str) -> tuple:
    """Parse a monic polynomial in x, e.g. '(x-1)^2' or 'x^2+1', to low-order coeffs."""
    import sympy

    x = sympy.Symbol("x")
    try:
        expr = sympy.sympify(text.replace("^", "**"), locals={"x": x})
        poly = sympy.Poly(sympy.expand(expr), x)
    except (sympy.SympifyError, sympy.PolynomialError) as exc:
        raise ValidationError(f"cannot parse polynomial {text!r}") from exc
    all_c = list(reversed(poly.all_coeffs()))
    lead = all_c[-1]
    if lead != 1:
        raise ValidationError("polynomial must be monic")
    out = []
    for c in all_c[:-1]:
        if field.char == 0:
            out.append(Fraction(str(c)))
        else:
            if not c.is_integer:
                raise ValidationError("integer coefficients required over a prime field")
            out.append(int(c) % field.char)
    return tuple(out)


# -- standard d = 2 modules --------------------------------------------------


def build_P(n: int, field=QQ) -> KroneckerModule:
    """Preprojective P_n: dims (n, n+1), maps [id; 0] and [0; id]."""
    if n < 0:
        raise DomainError("n >= 0")
    a = Matrix.from_entries(field, n + 1, n, ((i, i, field.one) for i in range(n)))
    b = Matrix.from_entries(field, n + 1, n, ((i + 1, i, field.one) for i in range(n)))
    return KroneckerModule(2, field, n, n + 1, [a, b])


def build_Q(n: int, field=QQ) -> KroneckerModule:
    """Postinjective Q_n: dims (n+1, n), maps [id 0] and [0 id]."""
    if n < 0:
        raise DomainError("n >= 0")
    a = Matrix.from_entries(field, n, n + 1, ((i, i, field.one) for i in range(n)))
    b = Matrix.from_entries(field, n, n + 1, ((i, i + 1, field.one) for i in range(n)))
    return KroneckerModule(2, field, n + 1, n, [a, b])


def build_R(block: PencilBlock, field=QQ) -> KroneckerModule:
    """Regular indecomposable: identity paired with a companion matrix.

    R_poly(q^e) has the identity first; R_mono(n) has it second, with the
    other map the companion of the monomial x^n.
    """
    if block.kind == "R_mono":
        if block.n < 1:
            raise ValidationError("monomial degree >= 1")
        phi = companion_matrix(field, (field.zero,) * block.n)
        return KroneckerModule(2, field, block.n, block.n, [phi, Matrix.identity(field, block.n)])
    if block.kind == "R_poly":
        q, e = block.poly, block.e
        if e < 1:
            raise ValidationError("power e >= 1")
        full = poly_power_coeffs(field, q, e)
        factors = factor_monic(field, q)
        if len(factors) != 1 or factors[0][1] != 1:
            raise ValidationError(f"{poly_to_str(q)} is not irreducible")
        psi = companion_matrix(field, full)
        n = len(full)
        return KroneckerModule(2, field, n, n, [Matrix.identity(field, n), psi])
    raise ValidationError(f"{block.kind} is not a regular kind")


def poly_power_coeffs(field, q, e) -> tuple:
    """Low-order coefficients of (x^deg + q)^e, monic, leading 1 dropped."""
    if len(q) == 1:
        # (x + a)^e by the binomial theorem; the convolution below would be
        # quadratic in e, which hurts at four-digit powers
        a = field.coerce(q[0])
        powers = [field.one]
        for _ in range(e):
            powers.append(field.mul(powers[-1], a))
        return tuple(field.mul(field.coerce(math.comb(e, k)), powers[e - k])
                     for k in range(e))
    cur = [field.one]
    base = [field.coerce(c) for c in list(q) + [field.one]]
    for _ in range(e):
        nxt = [field.zero] * (len(cur) + len(base) - 1)
        for i, a in enumerate(cur):
            if not a:
                continue
            for j, b in enumerate(base):
                if b:
                    nxt[i + j] = field.add(nxt[i + j], field.mul(a, b))
        cur = nxt
    assert cur[-1] == field.one
    return tuple(cur[:-1])


# -- wild theta(d) tree modules ----------------------------------------------


def build_postinjective_theta(d: int, t: int, field=QQ) -> KroneckerModule:
    """Postinjective-shaped tree module of dims (a_{t+1}, a_t).

    Canonical leveled layout: arrows 1..d-1 are shifted identity blocks (one 1
    per row, pairwise disjoint columns); the last arrow concatenates zero
    columns, a shifted copy of E(a_t) and, per level j = 2..t, d-2 identity
    blocks E(a_{j-1}). The coefficient quiver is a tree with outdegree <= 2
    and indegree exactly (t-1)(d-2) + d at the first sink.
    """
    if d < 3:
        raise DomainError("wild case needs d >= 3")
    if t < 1:
        raise DomainError("t >= 1")
    a = a_sequence(d, t + 1).values
    n_snk, n_src = a[t], a[t + 1]
    one = field.one
    maps = []
    for i in range(d - 1):
        off = i * n_snk
        maps.append(Matrix.from_entries(
            field, n_snk, n_src, ((r, off + r, one) for r in range(n_snk))))
    ent = []
    base = (d - 2) * n_snk
    for r in range(n_snk - 1):
        ent.append((r, base + r + 1, one))
    ent.append((n_snk - 1, (d - 1) * n_snk, one))
    col = (d - 1) * n_snk + 1
    for j in range(1, t):
        for _ in range(d - 2):
            for r in range(a[j]):
                ent.append((r, col + r, one))
            col += a[j]
    assert col == n_src, (col, n_src)
    maps.append(Matrix.from_entries(field, n_snk, n_src, ent))
    return KroneckerModule(d, field, n_src, n_snk, maps)


def build_preprojective_theta(d: int, t: int, field=QQ) -> KroneckerModule:
    """Preprojective-shaped tree module of dims (a_t, a_{t+1}).

    Transpose-dual of the postinjective layout: per arrow, every sink basis
    vector receives at most one edge, so the indegree is at most d (in fact
    at most 2).
    """
    return build_postinjective_theta(d, t, field).transpose()


# -- hom spaces and kernels ---------------------------------------------------


def hom_space(X: KroneckerModule, Y: KroneckerModule):
    """Basis of Hom(X, Y) as pairs (f, g) with g X(k) = Y(k) f for all arrows."""
    if X.d != Y.d or X.field != Y.field:
        raise ValidationError("hom space needs matching arrow count and field")
    fld = X.field
    nf = Y.dim1 * X.dim1
    ng = Y.dim2 * X.dim2

    def fvar(l, j):  # f[l, j]
        return l * X.dim1 + j

    def gvar(i, m):  # g[i, m]
        return nf + i * X.dim2 + m

    nrows = X.d * Y.dim2 * X.dim1
    rows = [dict() for _ in range(nrows)]

    def ridx(k, i, j):
        return (k * Y.dim2 + i) * X.dim1 + j

    for k in range(X.d):
        for m, j, v in X.maps[k].entries():
            for i in range(Y.dim2):
                r = rows[ridx(k, i, j)]
                var = gvar(i, m)
                nv = fld.add(r.get(var, fld.zero), v)
                if nv:
                    r[var] = nv
                else:
                    r.pop(var, None)
        for i, l, w in Y.maps[k].entries():
            for j in range(X.dim1):
                r = rows[ridx(k, i, j)]
                var = fvar(l, j)
                nv = fld.sub(r.get(var, fld.zero), w)
                if nv:
                    r[var] = nv
                else:
                    r.pop(var, None)
    system = Matrix._build(fld, nrows, nf + ng, rows)
    ker = system.kernel_basis()
    out = []
    for t in range(ker.cols):
        fent, gent = [], []
        for var, row in ker._rows.items():
            v = row.get(t)
            if not v:
                continue
            if var < nf:
                fent.append((var // X.dim1, var % X.dim1, v))
            else:
                w = var - nf
                gent.append((w // X.dim2, w % X.dim2, v))
        f = Matrix.from_entries(fld, Y.dim1, X.dim1, fent)
        g = Matrix.from_entries(fld, Y.dim2, X.dim2, gent)
        out.append((f, g))
    return out


def is_homomorphism(theta, X: KroneckerModule, Y: KroneckerModule) -> bool:
    f, g = theta
    return all(g @ X.maps[k] == Y.maps[k] @ f for k in range(X.d))


def kernel_module(theta, X: KroneckerModule, Y: KroneckerModule):
    """Kernel submodule of a homomorphism, with its embedding into X."""
    if not is_homomorphism(theta, X, Y):
        raise ValidationError("theta does not intertwine the arrow maps")
    f, g = theta
    k1 = f.kernel_basis()
    k2 = g.kernel_basis()
    maps = []
    for k in range(X.d):
        image = X.maps[k] @ k1
        maps.append(k2.solve(image))
    sub = KroneckerModule(X.d, X.field, k1.cols, k2.cols, maps)
    return sub, (k1, k2)


# -- structural classification -------------------------------------------------


def classify_standard(M: KroneckerModule):
    """Recognize the literal canonical shapes produced by the builders.

    Returns ('P', n), ('Q', n), ('R_poly', coeffs), ('R_mono', n),
    ('theta_post', t), ('theta_pre', t) or None. Matching is exact on the
    matrices, not up to isomorphism.
    """
    fld = M.field
    if M.d == 2:
        n = min(M.dim1, M.dim2)
        if M.dim2 == M.dim1 + 1 and M == build_P(M.dim1, fld):
            return ("P", M.dim1)
        if M.dim1 == M.dim2 + 1 and M == build_Q(M.dim2, fld):
            return ("Q", M.dim2)
        if M.dim1 == M.dim2 and n >= 1:
            ident = Matrix.identity(fld, n)
            if M.maps[0] == ident and _is_companion(M.maps[1]):
                return ("R_poly", _companion_coeffs(M.maps[1]))
            if M.maps[1] == ident and M.maps[0] == companion_matrix(fld, (fld.zero,) * n):
                return ("R_mono", n)
        return None
    if M.d >= 3:
        for t in range(1, 64):
            a = a_sequence(M.d, t + 1).values
            if a[t + 1] > max(M.dim1, M.dim2):
                break
            if (M.dim1, M.dim2) == (a[t + 1], a[t]) and M == build_postinjective_theta(M.d, t, fld):
                return ("theta_post", t)
            if (M.dim1, M.dim2) == (a[t], a[t + 1]) and M == build_preprojective_theta(M.d, t, fld):
                return ("theta_pre", t)
    return None


def _is_companion(m: Matrix) -> bool:
    n = m.rows
    if n == 0 or m.cols != n:
        return False
    for i in range(n):
        for j, v in m.row_items(i):
            if j == n - 1:
                continue
            if i != j + 1 or v != m.field.one:
                return False
    for i in range(n - 1):
        if m.entry(i + 1, i) != m.field.one:
            return False
    return True


def _companion_coeffs(m: Matrix) -> tuple:
    fld = m.field
    return tuple(fld.neg(m.entry(i, m.rows - 1)) for i in range(m.rows))
