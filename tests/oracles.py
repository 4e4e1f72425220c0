"""Plain reference implementations that the tests compare the library against.

None of these is called by the library: hom_system is the Hom system
without presolve, kernel_module builds a kernel submodule through
kernel_basis and solve, and random_matrix draws the random matrices of
several tests and of the matrix golden, whose text depends on its exact
sequence of rng calls.
"""

from kronhf.errors import ValidationError
from kronhf.fields import rational
from kronhf.matrices import Matrix
from kronhf.modules import KroneckerModule, is_homomorphism


def hom_system(X: KroneckerModule, Y: KroneckerModule) -> Matrix:
    """The linear system g X(k) = Y(k) f for all arrows k, in the unknowns
    f[l, j] (first Y.dim1 * X.dim1 columns) and then g[i, m], each matrix
    in row-major order."""
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
    return Matrix._build(fld, nrows, nf + ng, rows)


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


def random_matrix(field, rows, cols, rng, span=5):
    ent = []
    for i in range(rows):
        for j in range(cols):
            if field.char == 0:
                v = rational(rng.randint(-span, span), rng.randint(1, 3))
            else:
                v = rng.randrange(field.q)
            if v:
                ent.append((i, j, v))
    return Matrix.from_entries(field, rows, cols, ent)
