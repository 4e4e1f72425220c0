"""Kronecker quiver modules: constructors, dimension sequences, hom spaces.

A module for the d-arrow Kronecker quiver (vertices 1 -> 2) is a pair of
spaces with d linear maps, each of shape dim2 x dim1. Defect is dim1 - dim2,
so the wide standard modules Q_n carry defect +1 and the tall P_n defect -1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, PreconditionError, ShapeError, ValidationError
from .fields import QQ, field_from_label, rational
from .matrices import Matrix, read_matrix_block


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
    """The module that to_text wrote. The text is split into tokens once, and
    the d arrow blocks are read from that list; tokens after the last block
    are refused."""
    end = text.find("\n")
    first = (text if end < 0 else text[:end]).splitlines()
    head = first[0] if first else ""
    if not head.startswith("kronecker "):
        raise ValidationError("module text must start with a 'kronecker' header")
    try:
        fields = dict(tok.split("=", 1) for tok in head.split()[1:])
        d = int(fields["d"])
        d1, d2 = (int(x) for x in fields["dims"].split("x"))
        label = fields["field"]
    except (KeyError, ValueError):
        raise ValidationError(f"malformed module header {head!r}: expected "
                              "'kronecker d=<d> field=<label> dims=<d1>x<d2>'") from None
    fld = field_from_label(label)
    toks = text.split()
    pos = len(head.split())
    maps = []
    for _ in range(d):
        m, pos = read_matrix_block(toks, pos, "module text")
        maps.append(m)
    M = KroneckerModule(d, fld, d1, d2, maps)
    if pos != len(toks):
        raise ValidationError(f"module text has {len(toks) - pos} tokens after its "
                              f"{d} arrow matrices")
    return M


def direct_sum(mods, *, d=None, field=None) -> KroneckerModule:
    if not mods:
        d = 2 if d is None else d
        field = QQ if field is None else field
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
    """Low-order coefficient tuple of a monic sympy Poly, leading 1 dropped.

    Each coefficient must be rational, and an integer over a prime field."""
    out = []
    for c in reversed(poly.monic().all_coeffs()[1:]):
        if not c.is_Rational:
            raise ValidationError(f"coefficient {c} is not rational")
        if field.char and c.q != 1:
            raise ValidationError("integer coefficients required over a prime field")
        out.append(field.coerce(rational(int(c.p), int(c.q))))
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
        if not isinstance(expr, sympy.Expr):      # '1,0,1' is a Tuple, '[x]' a list
            raise ValidationError(f"cannot parse polynomial {text!r}")
        poly = sympy.Poly(sympy.expand(expr), x)
    except (sympy.SympifyError, sympy.PolynomialError) as exc:
        raise ValidationError(f"cannot parse polynomial {text!r}") from exc
    if poly.LC() != 1:
        raise ValidationError("polynomial must be monic")
    return sympy_to_coeffs(field, poly)


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


def build_R(block: PencilBlock, field=QQ, *, check=True) -> KroneckerModule:
    """Regular indecomposable: identity paired with a companion matrix.

    R_poly(q^e) has the identity first; R_mono(n) has it second, with the
    other map the companion of the monomial x^n. With check, q must be
    irreducible: a degree-1 q is, and any other q takes a sympy
    factorization; callers whose q comes from factor_monic pass check=False.
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
        if check and len(q) != 1:
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
        # quadratic in e, which hurts at four-digit powers. The binomials come
        # from C(e, k+1) = C(e, k) (e - k) / (k + 1), exact in ints, one
        # multiply and one divide by a small int each
        a = field.coerce(q[0])
        powers = [field.one]
        for _ in range(e):
            powers.append(field.mul(powers[-1], a))
        out = []
        c = 1
        for k in range(e):
            out.append(field.mul(field.coerce(c), powers[e - k]))
            c = c * (e - k) // (k + 1)
        return tuple(out)
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


# -- hom spaces ---------------------------------------------------------------


class PresolvedHom:
    """Hom(X, Y) from the Hom system with the pinned g columns solved first.

    A column j of an arrow matrix X(k) whose only nonzero is c, in row m,
    turns the equations of that column into g[:, m] = c^-1 Y(k) f[:, j].
    Each sink column m is pinned by the first such (k, j), arrows then
    columns ascending, and is substituted into the equations of every other
    column. For a direct sum of canonical blocks every g column but those of
    P_0 is pinned, so the kernel is taken over about half the unknowns and
    half the equations of the plain Hom system, which has an unknown for
    every entry of f and g.

    The unknowns of the reduced system are f[l, j] in column-major order,
    then g[i, m] for the unpinned columns m (self.free) in row-major order.
    The equations of a canonical block chain f[:, j] to f[:, j + 1], so in
    column-major order the elimination mostly stays in a band of two
    columns of f; the row-major order of the plain Hom system fills in the
    whole block. This numbering stays inside the class: the columns of
    self.kernel are a basis of the solutions, a caller takes combinations
    of them (self.kernel @ C), and pairs() turns such columns into pairs
    (f, g). The pencil certificate builds one per distinct summand B of
    its block sum D, for Hom(B, M).
    """

    def __init__(self, X: KroneckerModule, Y: KroneckerModule):
        if X.d != Y.d or X.field != Y.field:
            raise ValidationError("hom space needs matching arrow count and field")
        fld = X.field
        self.X, self.Y = X, Y
        cols = [mp.transpose()._rows for mp in X.maps]
        pins = {}                          # m -> (k, j, c^-1)
        for k, ck in enumerate(cols):
            for j in sorted(ck):
                if len(ck[j]) == 1:
                    (m, c), = ck[j].items()
                    if m not in pins:
                        pins[m] = (k, j, fld.inv(c))
        self.free = [m for m in range(X.dim2) if m not in pins]
        # per arrow, its pins as (m, c^-1); per source column j, (arrow, pin index)
        self._pins = [[] for _ in range(X.d)]
        self._by_col = {}
        for m, (k, j, cinv) in sorted(pins.items(), key=lambda it: it[1][:2]):
            self._by_col.setdefault(j, []).append((k, len(self._pins[k])))
            self._pins[k].append((m, cinv))
        self._nf = nf = Y.dim1 * X.dim1
        ng = len(self.free)
        gpos = {m: s for s, m in enumerate(self.free)}
        used = {(k, j) for k, j, _ in pins.values()}
        yrows = [mp._rows for mp in Y.maps]
        rows = []
        for k, ck in enumerate(cols):
            for j in range(X.dim1):
                if (k, j) in used:
                    continue
                col = ck.get(j, {})
                # -Y(k) f[:, j], plus X(k)[m, j] c^-1 Y(k') f[:, j'] per pinned m
                fterms = [(k, j, fld.neg(fld.one))] + [
                    (pins[m][0], pins[m][1], fld.mul(v, pins[m][2]))
                    for m, v in col.items() if m in pins]
                gterms = [(gpos[m], v) for m, v in col.items() if m not in pins]
                for i in range(Y.dim2):
                    acc = {}
                    for kk, jj, a in fterms:
                        for l, w in yrows[kk].get(i, {}).items():
                            var = jj * Y.dim1 + l
                            acc[var] = acc.get(var, 0) + a * w
                    r = {var: v for var, s in acc.items() if (v := fld.coerce(s))}
                    for s, v in gterms:
                        r[nf + i * ng + s] = v
                    rows.append(r)
        self.kernel = Matrix._build(fld, len(rows), nf + Y.dim2 * ng, rows).kernel_basis()

    def pairs(self, V=None):
        """The pair (f, g) of each column of V, in the reduced unknowns
        (default: the kernel basis).

        One pass over the rows of V places f and the unpinned g columns and
        stacks, per arrow k, the f columns that pin a g column; the pinned g
        columns of every pair then come from one product Y(k) @ stack.
        """
        X, Y = self.X, self.Y
        V = self.kernel if V is None else V
        fld, T, nf, ng = X.field, V.cols, self._nf, len(self.free)
        fr = [{} for _ in range(T)]
        gr = [{} for _ in range(T)]
        stacks = [{} for _ in range(X.d)]
        for var, row in V._rows.items():
            if var < nf:
                j, l = divmod(var, Y.dim1)
                targets = self._by_col.get(j, ())
                for t, v in row.items():
                    fr[t].setdefault(l, {})[j] = v
                    for k, p in targets:
                        stacks[k].setdefault(l, {})[p * T + t] = v
            else:
                i, s = divmod(var - nf, ng)
                m = self.free[s]
                for t, v in row.items():
                    gr[t].setdefault(i, {})[m] = v
        for k, pk in enumerate(self._pins):
            if not pk:
                continue
            G = Y.maps[k] @ Matrix(fld, Y.dim1, len(pk) * T, stacks[k])
            for i, row in G._rows.items():
                for col, v in row.items():
                    p, t = divmod(col, T)
                    m, cinv = pk[p]
                    gr[t].setdefault(i, {})[m] = v if cinv == fld.one else fld.mul(v, cinv)
        return [(Matrix(fld, Y.dim1, X.dim1, f), Matrix(fld, Y.dim2, X.dim2, g))
                for f, g in zip(fr, gr)]


def hom_space(X: KroneckerModule, Y: KroneckerModule):
    """Basis of Hom(X, Y) as pairs (f, g) with g X(k) = Y(k) f for all arrows,
    from the presolved system (PresolvedHom)."""
    return PresolvedHom(X, Y).pairs()


# -- structural classification -------------------------------------------------


def classify_standard(M: KroneckerModule):
    """Recognize the literal canonical d = 2 shapes produced by the builders.

    Returns ('P', n), ('Q', n), ('R_poly', coeffs), ('R_mono', n) or None,
    and None for every module with d != 2. Matching is exact on the
    matrices, not up to isomorphism. The two maps' row dicts are read once
    and no reference module is built: every map of P_n, Q_n and R_mono(n),
    and the identity of R_poly, is a band of ones (_is_band), and the other
    map of R_poly is a companion matrix.
    """
    if M.d != 2:
        return None
    one = M.field.one
    a, b = M.maps[0]._rows, M.maps[1]._rows
    n1, n2 = M.dim1, M.dim2
    if n2 == n1 + 1:
        if _is_band(a, 0, n1, 0, one) and _is_band(b, 1, n1, -1, one):
            return ("P", n1)
    elif n1 == n2 + 1:
        if _is_band(a, 0, n2, 0, one) and _is_band(b, 0, n2, 1, one):
            return ("Q", n2)
    elif n1 == n2 >= 1:
        if _is_band(a, 0, n1, 0, one) and _is_companion(M.maps[1]):
            return ("R_poly", _companion_coeffs(M.maps[1]))
        if _is_band(b, 0, n1, 0, one) and _is_band(a, 1, n1 - 1, -1, one):
            return ("R_mono", n1)
    return None


def _is_band(rows, first, count, shift, one) -> bool:
    """Whether the row dicts rows are exactly {r: {r + shift: one}} for the
    count rows r = first, first + 1, ...: no other row, and no other entry
    in these."""
    if len(rows) != count:
        return False
    for r in range(first, first + count):
        row = rows.get(r)
        if row is None or len(row) != 1 or row.get(r + shift) != one:
            return False
    return True


def _is_companion(m: Matrix) -> bool:
    """Whether m is square and, outside its last column, exactly the
    subdiagonal of ones: in one pass over the rows, every entry off the
    last column is a one on the subdiagonal, and there are n - 1 of them."""
    n = m.rows
    if n == 0 or m.cols != n:
        return False
    one, last = m.field.one, n - 1
    count = 0
    for i, row in m._rows.items():
        for j, v in row.items():
            if j != last:
                if j != i - 1 or v != one:
                    return False
                count += 1
    return count == n - 1


def _companion_coeffs(m: Matrix) -> tuple:
    fld = m.field
    return tuple(fld.neg(m.entry(i, m.rows - 1)) for i in range(m.rows))
