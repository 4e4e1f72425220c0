"""Dense-interface exact matrices over Q or F_q, stored sparsely.

Only nonzero entries are kept (a dict of nonempty row dicts), which keeps
the structured modules of this project (shift, selection and companion
patterns) linear in their size while presenting an ordinary dense row-major
contract, including the text file format. Elimination, products, sums and
scalings run on plain ints: reduced mod q over F_q, and over Q integer
numerators over a shared denominator. Over Q every stored entry is in the
canonical form of kronhf.fields: an int when integral, else a Fraction with
denominator above 1, so entry() may return an int. Each entry the kernel
builds from a numerator and a denominator goes through fields.rational; an
integral matrix stays a matrix of ints through products, sums and
scalings, with no Fraction built.
"""

from __future__ import annotations

from itertools import islice
from math import gcd, lcm

from .errors import ShapeError, ValidationError
from .fields import field_from_label, rational

_EMPTY = {}


class Matrix:
    # no method writes _rows after construction, so _int, the integrality
    # of the entries, is recorded on first use and stays valid
    __slots__ = ("field", "rows", "cols", "_rows", "_int")

    def __init__(self, field, rows: int, cols: int, row_dicts=None):
        """row_dicts: {row_index: {col: nonzero value}}, empty rows omitted."""
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        self.field = field
        self.rows = rows
        self.cols = cols
        self._rows = {} if row_dicts is None else row_dicts
        self._int = None

    # -- construction -----------------------------------------------------

    @staticmethod
    def _build(field, rows, cols, row_list):
        """From a full list of row dicts; prunes empties."""
        return Matrix(field, rows, cols,
                      {i: r for i, r in enumerate(row_list) if r})

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols)

    @classmethod
    def identity(cls, field, n):
        one = field.one
        return cls(field, n, n, {i: {i: one} for i in range(n)})

    @classmethod
    def from_dense(cls, field, data):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        rd = {}
        for i, r in enumerate(data):
            if len(r) != cols:
                raise ShapeError("ragged rows")
            row = {j: v for j, v in enumerate(map(field.coerce, r)) if v}
            if row:
                rd[i] = row
        return cls(field, rows, cols, rd)

    @classmethod
    def from_entries(cls, field, rows, cols, entries):
        rd = {}
        for i, j, v in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ShapeError(f"entry ({i},{j}) outside {rows}x{cols}")
            v = field.coerce(v)
            if v:
                rd.setdefault(i, {})[j] = v
        return cls(field, rows, cols, rd)

    @classmethod
    def selection(cls, field, n, indices):
        """n x len(indices) matrix whose t-th column is the unit e_{indices[t]}.

        Refuses an index outside 0..n-1; an index may repeat.
        """
        indices = list(indices)
        if indices and (min(indices) < 0 or max(indices) >= n):
            bad = next(i for i in indices if not 0 <= i < n)
            raise ShapeError(f"selection index {bad} outside 0..{n - 1}")
        rd = {}
        for t, i in enumerate(indices):
            rd.setdefault(i, {})[t] = field.one
        return cls(field, n, len(indices), rd)

    # -- access -----------------------------------------------------------

    def entry(self, i, j):
        return self._rows.get(i, _EMPTY).get(j, self.field.zero)

    def row_items(self, i):
        return self._rows.get(i, _EMPTY).items()

    def entries(self):
        for i, row in self._rows.items():
            for j, v in row.items():
                yield i, j, v

    @property
    def nnz(self):
        return sum(len(r) for r in self._rows.values())

    def is_zero(self):
        return not self._rows

    def to_dense(self):
        return [[self.entry(i, j) for j in range(self.cols)] for i in range(self.rows)]

    def copy(self):
        return Matrix(self.field, self.rows, self.cols,
                      {i: dict(r) for i, r in self._rows.items()})

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self):
        raise TypeError("Matrix is not hashable")

    def __repr__(self):
        if self.rows * self.cols <= 64:
            return f"Matrix({self.field!r}, {self.to_dense()})"
        return f"Matrix({self.field!r}, {self.rows}x{self.cols}, nnz={self.nnz})"

    # -- algebra ----------------------------------------------------------

    def _check_same_field(self, other):
        if self.field != other.field:
            raise ValidationError("field mismatch")

    def __matmul__(self, other):
        """The product, on the integer arithmetic of the elimination kernel.

        Over F_q, and over Q when both factors hold only ints, an output row
        is the integer combination of the rows of other it touches, reduced
        mod q once per output entry over F_q. Otherwise each row of other
        becomes an integer row over the lcm of its denominators (_int_row);
        an output row is their integer combination over the lcm den of the
        denominators of its terms, and each entry is rational(sum, den), or
        the sum itself when den is 1.
        """
        self._check_same_field(other)
        if self.cols != other.rows:
            raise ShapeError(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        q = self.field.char
        out = {}
        if q or (self._integral() and other._integral()):
            orows = other._rows
            for i, row in self._rows.items():
                acc = {}
                for k, v in row.items():
                    brow = orows.get(k)
                    if brow:
                        for j, w in brow.items():
                            acc[j] = acc.get(j, 0) + v * w
                if q:
                    acc = {j: r for j, s in acc.items() if (r := s % q)}
                else:
                    acc = {j: s for j, s in acc.items() if s}
                if acc:
                    out[i] = acc
        else:
            orows = {k: _int_row(r) for k, r in other._rows.items()}
            for i, row in self._rows.items():
                hits = [(v, orows[k]) for k, v in row.items() if k in orows]
                den = lcm(*[v.denominator * e for v, (_, e) in hits])
                acc = {}
                for v, (brow, e) in hits:
                    f = v.numerator * (den // (v.denominator * e))
                    for j, w in brow.items():
                        acc[j] = acc.get(j, 0) + f * w
                if den == 1:
                    acc = {j: s for j, s in acc.items() if s}
                else:
                    acc = {j: rational(s, den) for j, s in acc.items() if s}
                if acc:
                    out[i] = acc
        return Matrix(self.field, self.rows, other.cols, out)

    def _integral(self):
        """Whether every entry is an int: over Q, whether the matrix is integral."""
        if self._int is None:
            self._int = all(type(v) is int for r in self._rows.values() for v in r.values())
        return self._int

    def __add__(self, other):
        """The sum. An entry held by one side only is copied; a shared one is
        added mod q, or over Q as rational(numerator, denominator) of the
        cross-multiplied pair."""
        self._check_same_field(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeError("shape mismatch in add")
        q = self.field.char
        out = {i: dict(r) for i, r in self._rows.items()}
        for i, r2 in other._rows.items():
            row = out.setdefault(i, {})
            for j, v in r2.items():
                old = row.get(j)
                if old is None:
                    row[j] = v
                    continue
                if q:
                    nv = (old + v) % q
                else:
                    a, b = old.denominator, v.denominator
                    nv = rational(old.numerator * b + v.numerator * a, a * b)
                if nv:
                    row[j] = nv
                else:
                    del row[j]
            if not row:
                del out[i]
        return Matrix(self.field, self.rows, self.cols, out)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        fld = self.field
        c = fld.coerce(c)
        if not c:
            return Matrix.zeros(fld, self.rows, self.cols)
        q = fld.char
        if q:
            out = {i: {j: c * v % q for j, v in r.items()} for i, r in self._rows.items()}
        else:
            a, b = c.numerator, c.denominator
            out = {i: {j: rational(a * v.numerator, b * v.denominator) for j, v in r.items()}
                   for i, r in self._rows.items()}
        return Matrix(fld, self.rows, self.cols, out)

    def transpose(self):
        out = {}
        for i, row in self._rows.items():
            for j, v in row.items():
                out.setdefault(j, {})[i] = v
        return Matrix(self.field, self.cols, self.rows, out)

    @staticmethod
    def hstack(mats):
        if not mats:
            raise ShapeError("hstack of nothing")
        fld = mats[0].field
        rows = mats[0].rows
        for m in mats:
            if m.field != fld or m.rows != rows:
                raise ShapeError("hstack mismatch")
        out = {}
        off = 0
        for m in mats:
            for i, row in m._rows.items():
                dst = out.setdefault(i, {})
                for j, v in row.items():
                    dst[j + off] = v
            off += m.cols
        return Matrix(fld, rows, off, out)

    @staticmethod
    def vstack(mats):
        if not mats:
            raise ShapeError("vstack of nothing")
        fld = mats[0].field
        cols = mats[0].cols
        out = {}
        off = 0
        for m in mats:
            if m.field != fld or m.cols != cols:
                raise ShapeError("vstack mismatch")
            for i, row in m._rows.items():
                out[i + off] = dict(row)
            off += m.rows
        return Matrix(fld, off, cols, out)

    def submatrix(self, row_idx, col_idx):
        cmap = {c: t for t, c in enumerate(col_idx)}
        out = {}
        for t, i in enumerate(row_idx):
            src = self._rows.get(i)
            if not src:
                continue
            row = {}
            for j, v in src.items():
                tt = cmap.get(j)
                if tt is not None:
                    row[tt] = v
            if row:
                out[t] = row
        return Matrix(self.field, len(row_idx), len(col_idx), out)

    # -- elimination ------------------------------------------------------

    def rref(self):
        """Reduced row echelon form and pivot columns.

        The reduced row echelon form of a matrix is unique, so the result
        does not depend on which row the elimination picks as a pivot: row t
        of R has its leading 1 in column pivots[t], pivots ascend, and the
        rows past the rank are zero.
        """
        pivots, prows = _eliminate(self, reduce=True)
        if self.field.char:
            out = dict(enumerate(prows))
        else:
            out = {t: {j: rational(v, r[c]) for j, v in r.items()}
                   for t, (c, r) in enumerate(zip(pivots, prows))}
        return Matrix(self.field, self.rows, self.cols, out), pivots

    def pivot_columns(self):
        """The pivot columns of rref(), from an echelon form only: the
        columns that are not in the span of the columns to their left."""
        return _eliminate(self, reduce=False)[0]

    def is_selection(self):
        """Row indices per column if every column is a unit vector, else None.

        Duplicate row indices are possible. One scan of the entries.
        """
        seen = {}
        count = 0
        one = self.field.one
        for i, row in self._rows.items():
            for j, v in row.items():
                if v != one or j in seen:
                    return None
                seen[j] = i
                count += 1
        if count != self.cols:
            return None
        return [seen[j] for j in range(self.cols)]

    def rank(self):
        return len(self.pivot_columns())

    def kernel_basis(self):
        """Matrix whose columns are a basis of the right null space.

        Basis vectors are the standard free-variable vectors of the rref,
        ordered by ascending free column; they satisfy m @ v = 0 exactly.
        """
        R, pivots = self.rref()
        pivset = set(pivots)
        free = [c for c in range(self.cols) if c not in pivset]
        fld = self.field
        out = {}
        for t, fcol in enumerate(free):
            out.setdefault(fcol, {})[t] = fld.one
            for i, p in enumerate(pivots):
                coef = R._rows.get(i, _EMPTY).get(fcol)
                if coef:
                    out.setdefault(p, {})[t] = fld.neg(coef)
        return Matrix(fld, self.cols, len(free), out)

    def solve(self, b: "Matrix") -> "Matrix":
        """A particular solution X of self @ X = b (free variables zero)."""
        self._check_same_field(b)
        if b.rows != self.rows:
            raise ShapeError("rhs row mismatch")
        aug = Matrix.hstack([self, b])
        R, pivots = aug.rref()
        if pivots and pivots[-1] >= self.cols:
            raise ValidationError("inconsistent linear system")
        out = {}
        for i, p in enumerate(pivots):
            for j, v in R._rows.get(i, _EMPTY).items():
                if j >= self.cols:
                    out.setdefault(p, {})[j - self.cols] = v
        return Matrix(self.field, self.cols, b.cols, out)

    # -- text format --------------------------------------------------------

    def to_text(self) -> str:
        """The dense text form: a 'field <label>' line, a '<rows> <cols>' line,
        then one line of cols tokens per row. Only the stored entries are
        formatted; every other token is '0', and an empty row is one
        prebuilt string."""
        fmt = self.field.fmt
        zero_row = " ".join(["0"] * self.cols)
        lines = [f"field {self.field.label}", f"{self.rows} {self.cols}"]
        for i in range(self.rows):
            row = self._rows.get(i)
            if row:
                toks = ["0"] * self.cols
                for j, v in row.items():
                    toks[j] = fmt(v)
                lines.append(" ".join(toks))
            else:
                lines.append(zero_row)
        return "\n".join(lines) + "\n"


def _int_row(row):
    """A row of rationals as (integer row, d): the row times d, the lcm of its
    denominators. A row of ints is returned as it is, with d = 1; callers
    must not change it."""
    d = lcm(*[v.denominator for v in row.values()])
    if d == 1:
        return row, 1
    return {j: v.numerator * (d // v.denominator) for j, v in row.items()}, d


def _integer_row(row):
    """A row of rationals as the primitive integer row spanning the same line,
    in a new dict that the caller may change."""
    out, d = _int_row(row)
    g = gcd(*out.values())
    if g != 1:
        return {j: v // g for j, v in out.items()}
    return dict(out) if d == 1 else out


def _clear(ri, i, prow, c, q, holders):
    """Clear column c of row i (dict ri, in place) with the pivot row prow.

    Over F_q prow has a leading 1 and the update is ri - f prow mod q. Over Q
    both rows are primitive integer rows; the update is
    (pv/g) ri - (f/g) prow with g = gcd(pv, f), and the content of the
    result is divided out. Keeps holders in step; returns whether ri is
    nonzero.
    """
    if q:
        f = ri[c]
        for j, v in prow.items():
            old = ri.get(j)
            if old is None:
                ri[j] = -f * v % q
                holders[j].add(i)
            else:
                nv = (old - f * v) % q
                if nv:
                    ri[j] = nv
                else:
                    del ri[j]
                    holders[j].discard(i)
        return bool(ri)
    pv, f = prow[c], ri[c]
    g = gcd(pv, f)
    a, b = pv // g, f // g
    if a != 1:
        for j in ri:
            ri[j] *= a
    for j, v in prow.items():
        old = ri.get(j)
        if old is None:
            ri[j] = -b * v
            holders[j].add(i)
        else:
            nv = old - b * v
            if nv:
                ri[j] = nv
            else:
                del ri[j]
                holders[j].discard(i)
    if not ri:
        return False
    g = gcd(*ri.values())
    if g != 1:
        for j in ri:
            ri[j] //= g
    return True


def _eliminate(m, reduce):
    """The elimination kernel behind rref() and pivot_columns().

    Sparse rows, columns left to right. A column index (column -> rows
    nonzero in it) means each pivot search and update touches only the rows
    that hold the pivot column; rows are never swapped, and the sparsest
    candidate becomes the pivot. Over F_q the arithmetic is inline mod q and
    pivot rows are scaled to a leading 1; over Q every row is kept as a
    primitive integer row (see _clear).

    The forward pass clears each pivot column from the rows not yet used as
    pivots, which gives an echelon form and the pivot columns. With reduce,
    a backward pass then clears each pivot column, last first, from the
    pivot rows above it. Returns the pivot columns, ascending, and the row
    of each.
    """
    q = m.field.char
    if q:
        rows = {i: dict(r) for i, r in m._rows.items()}
    else:
        rows = {i: _integer_row(r) for i, r in m._rows.items()}
    holders = {}
    for i, r in rows.items():
        for j in r:
            holders.setdefault(j, set()).add(i)
    pivots, pids = [], []
    used = set()
    left = len(rows)            # nonzero rows not yet used as pivots
    for c in range(m.cols):
        if not left:
            break
        hold = holders.get(c)
        if not hold:
            continue
        cands = [i for i in hold if i not in used]
        if not cands:
            continue
        pr = cands[0] if len(cands) == 1 else min(cands, key=lambda i: len(rows[i]))
        used.add(pr)
        left -= 1
        prow = rows[pr]
        pv = prow[c]
        if q and pv != 1:
            inv = pow(pv, -1, q)
            for j in prow:
                prow[j] = prow[j] * inv % q
        for i in cands:
            if i != pr and not _clear(rows[i], i, prow, c, q, holders):
                del rows[i]
                left -= 1
        pivots.append(c)
        pids.append(pr)
    if reduce:
        # every other row is zero now; last pivot first, so each pivot row is
        # already clear of the later pivot columns when it is used
        for c, pr in zip(reversed(pivots), reversed(pids)):
            prow = rows[pr]
            for i in [i for i in holders[c] if i != pr]:
                _clear(rows[i], i, prow, c, q, holders)
    return pivots, [rows[i] for i in pids]


def matrix_from_text(text: str) -> Matrix:
    tokens = text.split()
    if len(tokens) < 4 or tokens[0] != "field":
        raise ValidationError("matrix text must start with a 'field' line")
    m, end = read_matrix_block(tokens, 0, "matrix text")
    if end != len(tokens):
        raise ValidationError(f"expected {m.rows * m.cols} entries, got {len(tokens) - 4}")
    return m


def read_matrix_block(tokens, pos, where):
    """The matrix whose to_text tokens start at tokens[pos], and the position
    after its last entry; where names the text in the error messages.

    Only tokens other than '0' go through field.parse, which refuses the
    same tokens it always has ('0.0', '1/0', ...); '-0', '00' and '0/7'
    parse to zero and give no stored entry.
    """
    if (pos + 4 > len(tokens) or tokens[pos] != "field"
            or not (tokens[pos + 2].isdecimal() and tokens[pos + 3].isdecimal())):
        raise ValidationError(f"malformed matrix block in {where}")
    fld = field_from_label(tokens[pos + 1])
    rows, cols = int(tokens[pos + 2]), int(tokens[pos + 3])
    start = pos + 4
    end = start + rows * cols
    if end > len(tokens):
        raise ValidationError(f"expected {rows * cols} entries, got {len(tokens) - start}")
    parse = fld.parse
    rd = {}
    for k, tok in [(k, tok) for k, tok in enumerate(islice(tokens, start, end)) if tok != "0"]:
        v = parse(tok)
        if v:
            i, j = divmod(k, cols)
            rd.setdefault(i, {})[j] = v
    return Matrix(fld, rows, cols, rd), end


def column_space_dim_of_stack(mats) -> int:
    """Dimension of the sum of the column spaces of the given matrices."""
    if not mats:
        return 0
    fld = mats[0].field
    rows = mats[0].rows
    for m in mats:
        if m.field != fld:
            raise ValidationError("field mismatch in image stack")
        if m.rows != rows:
            raise ShapeError("ambient dimension mismatch in image stack")
    return Matrix.hstack(mats).rank()


def random_invertible(field, n, rng):
    """Product of random unitriangular factors and a permutation; always
    invertible. Over Q the factors' entries lie in -3..3."""
    lo_ent = [(i, i, field.one) for i in range(n)]
    up_ent = [(i, i, field.one) for i in range(n)]
    for i in range(n):
        for j in range(i):
            if field.char == 0:
                a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            else:
                a, b = rng.randrange(field.q), rng.randrange(field.q)
            if a:
                lo_ent.append((i, j, a))
            if b:
                up_ent.append((j, i, b))
    lo = Matrix.from_entries(field, n, n, lo_ent)
    up = Matrix.from_entries(field, n, n, up_ent)
    perm = list(range(n))
    rng.shuffle(perm)
    p = Matrix.selection(field, n, perm)
    return p @ lo @ up

