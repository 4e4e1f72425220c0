"""Exact scalar arithmetic: the rationals and prime fields F_q.

A rational is held in one canonical form: a plain ``int`` when it is
integral, otherwise a ``fractions.Fraction`` in lowest terms with a
denominator above 1; a ``Fraction(n, 1)`` is never produced. ``rational``
builds that form from a numerator and a denominator, and every value the
field Q returns is in it. Since ``3 == Fraction(3)``, their hashes agree and
both print as ``3``, the form changes no comparison and no printed output.
Prime-field elements are plain ints in ``[0, q)``. Field objects bundle the
arithmetic so matrix code stays field-agnostic.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError, ValidationError

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def rational(n: int, d: int):
    """The rational n/d in canonical form: the int n // d when d divides n,
    else a Fraction in lowest terms."""
    if d == 1:
        return n
    q, r = divmod(n, d)
    return Fraction(n, d) if r else q


class RationalField:
    """The field Q. Singleton; use the module-level ``QQ``. Elements are in
    the canonical form of the module docstring."""

    char = 0
    label = "rational"
    zero = 0
    one = 1

    def coerce(self, x):
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            return x.numerator if x.denominator == 1 else x
        if isinstance(x, int):
            return int(x)
        raise ValidationError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return self.coerce(a + b)

    def sub(self, a, b):
        return self.coerce(a - b)

    def mul(self, a, b):
        return self.coerce(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return rational(a.denominator, a.numerator)

    def parse(self, token: str):
        return self.coerce(parse_rational(token))

    def fmt(self, a) -> str:
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rational-field")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """The prime field F_q; elements are ints in [0, q)."""

    def __init__(self, q: int):
        if not isinstance(q, int) or not is_prime(q):
            raise ValidationError(f"{q} is not prime")
        self.q = q
        self.char = q
        self.label = str(q)
        self.zero = 0
        self.one = 1

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.q
        if isinstance(x, Fraction):
            if x.denominator % self.q == 0:
                raise ValidationError(f"denominator of {x} vanishes mod {self.q}")
            return x.numerator * pow(x.denominator, -1, self.q) % self.q
        raise ValidationError(f"cannot coerce {x!r} into F_{self.q}")

    def add(self, a, b):
        return (a + b) % self.q

    def sub(self, a, b):
        return (a - b) % self.q

    def mul(self, a, b):
        return (a * b) % self.q

    def neg(self, a):
        return (-a) % self.q

    def inv(self, a):
        if a % self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.q)

    def parse(self, token: str):
        if "/" in token:
            raise ValidationError(f"prime-field entry {token!r} must be an integer")
        return parse_rational(token).numerator % self.q

    def fmt(self, a) -> str:
        return str(a % self.q)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self):
        return hash(("prime-field", self.q))

    def __repr__(self):
        return f"GF({self.q})"


QQ = RationalField()


def field_from_label(label: str):
    """Inverse of ``field.label``, as used in the text file formats."""
    if label == "rational":
        return QQ
    if label.isdigit():
        return PrimeField(int(label))
    raise ValidationError(f"unknown field label {label!r}")


def parse_rational(token: str) -> Fraction:
    """Exact rational from a 'p/q' or integer string; float syntax rejected."""
    if not isinstance(token, str):
        raise ValidationError("rationals must be given as strings like '1/4'")
    if "." in token or "e" in token.lower():
        raise ValidationError(f"{token!r} is not an exact rational literal")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad rational literal {token!r}") from exc


def check_eps(eps: Fraction) -> Fraction:
    """Validate a hyperfiniteness tolerance: 0 < eps < 1, exact."""
    if not isinstance(eps, Fraction):
        raise DomainError("eps must be an exact Fraction")
    if not (0 < eps < 1):
        raise DomainError(f"eps must lie in (0, 1), got {eps}")
    return eps
