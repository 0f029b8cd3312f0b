"""Exact scalar arithmetic over the rationals or a prime field.

Every computation in this package is exact.  Rational scalars are
``fractions.Fraction`` (arbitrary-precision), prime-field scalars are plain
ints reduced to ``range(p)``.  An :class:`ExactField` bundles the arithmetic
so the linear algebra layer never has to branch on the scalar kind.

The integer form.  A kernel that sums products of scalars sums them as ints
n over one denominator D, the lcm of the scalars' ``denominator`` (an int's
is 1, so D is 1 over F_p).  ``residue(n)`` is n mod p over F_p and n over Q,
0 iff n / D is 0; ``ratio(n, den)`` is the scalar n / den, for den prime to p.

Scalars are read (``parse``) from JSON ints or from strings of one grammar:
an optional sign and ASCII digits, and over Q also one ``/`` followed by
ASCII digits.
"""

from __future__ import annotations

import re
from fractions import Fraction

_INTEGER = re.compile(r"[+-]?[0-9]+")
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/(0*[1-9][0-9]*))?")  # no zero denominator


class FieldError(ValueError):
    pass


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster 2015).  The first 12 are not enough: 318665857834031151167461 is a
# strong pseudoprime to each.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Whether ``p`` is prime, by deterministic Miller-Rabin; FieldError for
    ``p`` at or above ``_MR_LIMIT``, where these bases do not decide it."""
    if p >= _MR_LIMIT:
        raise FieldError(f"characteristic {p} is too large: primes below {_MR_LIMIT} are supported")
    if p < 2:
        return False
    for b in _MR_BASES:
        if p % b == 0:
            return p == b
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class ExactField:
    """The rationals (characteristic 0) or F_p (characteristic p prime).

    Scalars are Fraction for the rationals and int in [0, p) for F_p.
    """

    def __init__(self, characteristic: int = 0):
        if characteristic != 0 and not _is_prime(characteristic):
            raise FieldError(f"characteristic must be 0 or a prime, got {characteristic}")
        self.characteristic = characteristic

    # -- element constructors ------------------------------------------

    @property
    def zero(self):
        return Fraction(0) if self.characteristic == 0 else 0

    @property
    def one(self):
        return Fraction(1) if self.characteristic == 0 else 1

    def of_int(self, n: int):
        if self.characteristic == 0:
            return Fraction(n)
        return n % self.characteristic

    def coerce(self, a):
        """``a`` as a scalar of this field: ints become Fractions over Q and are
        reduced mod p over F_p; floats, bools and anything else are rejected."""
        if isinstance(a, int) and not isinstance(a, bool):
            return self.of_int(a)
        if isinstance(a, Fraction) and self.characteristic == 0:
            return a
        raise FieldError(f"not an exact scalar of {self!r}: {a!r}")

    def parse(self, text):
        """Parse a scalar from its file representation: a JSON int, or a
        string of the module docstring's grammar (``"3"``, ``"-2/5"`` over
        Q), reduced mod p over F_p.  No floats anywhere."""
        p = self.characteristic
        if isinstance(text, int) and not isinstance(text, bool):
            return self.of_int(text)
        m = (_INTEGER if p else _RATIONAL).fullmatch(text) if isinstance(text, str) else None
        if m is None:
            raise FieldError(f"bad {'prime-field' if p else 'rational'} scalar {text!r}")
        return int(text) % p if p else Fraction(int(m[1]), int(m[2] or 1))

    def unparse(self, a):
        if self.characteristic == 0:
            return str(a)
        return int(a)

    # -- arithmetic -----------------------------------------------------

    def add(self, a, b):
        if self.characteristic == 0:
            return a + b
        return (a + b) % self.characteristic

    def mul(self, a, b):
        if self.characteristic == 0:
            return a * b
        return (a * b) % self.characteristic

    def neg(self, a):
        if self.characteristic == 0:
            return -a
        return (-a) % self.characteristic

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.characteristic == 0:
            return 1 / Fraction(a)
        return pow(a, self.characteristic - 2, self.characteristic)

    def residue(self, n: int) -> int:
        """n mod p over F_p, n over Q: 0 iff n / D is 0 (the integer form)."""
        p = self.characteristic
        return n % p if p else n

    def ratio(self, n: int, den: int):
        """The scalar n / den of ints, ``den`` prime to p over F_p."""
        p = self.characteristic
        return n * pow(den, -1, p) % p if p else Fraction(n, den)

    def is_zero(self, a) -> bool:
        return a == 0

    def add_scaled(self, acc: dict, vec: dict, coeff=None) -> None:
        """acc += coeff * vec (acc += vec without a coeff) on sparse vectors,
        dicts label -> scalar, dropping every coordinate that becomes zero."""
        for lab, c in vec.items():
            v = self.add(acc.get(lab, 0), c if coeff is None else self.mul(coeff, c))
            if v == 0:
                acc.pop(lab, None)
            else:
                acc[lab] = v

    # -- identity -------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, ExactField) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("ExactField", self.characteristic))

    def __repr__(self):
        if self.characteristic == 0:
            return "ExactField(Q)"
        return f"ExactField(F_{self.characteristic})"


QQ = ExactField(0)


def GF(p: int) -> ExactField:
    return ExactField(p)
