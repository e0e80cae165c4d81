"""Exact arithmetic in cyclotomic fields Q(zeta_L), plus univariate polynomials over them.

A CycNum is an element of Q(zeta_L) stored as a rational coefficient vector
modulo the L-th cyclotomic polynomial Phi_L.  Working modulo Phi_L (rather
than x^L - 1) keeps the carrier a field, so equality of values is equality of
canonical coefficient vectors after lifting both operands into the compound
field Q(zeta_lcm).  All coefficients are arbitrary-precision Fractions; this
module never touches floating point.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd


def _lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


_F0 = Fraction(0)


# ---------------------------------------------------------------------------
# Integer polynomial helpers (dense lists, lowest degree first).

def _int_poly_divmod(num: list[int], den: list[int]) -> tuple[list[int], list[int]]:
    # den is monic; exact division over Z.
    num = list(num)
    q = [0] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den) and any(num):
        while num and num[-1] == 0:
            num.pop()
        if len(num) < len(den):
            break
        shift = len(num) - len(den)
        lead = num[-1]
        q[shift] = lead
        for i, c in enumerate(den):
            num[shift + i] -= lead * c
    while num and num[-1] == 0:
        num.pop()
    return q, num


def _divisors(n: int) -> list[int]:
    return [e for e in range(1, n + 1) if n % e == 0]


@lru_cache(maxsize=None)
def cyclotomic_int_coeffs(L: int) -> tuple[int, ...]:
    """Coefficients of Phi_L (lowest degree first, integer, monic).

    Computed by dividing x^L - 1 by the product of Phi_e over proper
    divisors e of L.
    """
    if L < 1:
        raise ValueError("order must be a positive integer")
    if L == 1:
        return (-1, 1)
    num = [0] * (L + 1)
    num[0], num[L] = -1, 1
    den = [1]
    for e in _divisors(L)[:-1]:
        phi_e = cyclotomic_int_coeffs(e)
        new = [0] * (len(den) + len(phi_e) - 1)
        for i, a in enumerate(den):
            if a:
                for j, b in enumerate(phi_e):
                    new[i + j] += a * b
        den = new
    q, r = _int_poly_divmod(num, den)
    if r:
        raise AssertionError("cyclotomic division left a remainder")
    return tuple(q)


def phi_degree(L: int) -> int:
    """Degree of Phi_L, i.e. Euler's totient of L."""
    return len(cyclotomic_int_coeffs(L)) - 1


def _reduce_mod_phi(coeffs: list[Fraction], L: int) -> tuple[Fraction, ...]:
    """Reduce a zeta_L coefficient vector modulo Phi_L; pad to length phi(L)."""
    mod = cyclotomic_int_coeffs(L)
    deg = len(mod) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = Fraction(0)
            for j in range(deg):
                coeffs[i - deg + j] -= c * mod[j]
    out = coeffs[:deg]
    out += [Fraction(0)] * (deg - len(out))
    return tuple(out)


# ---------------------------------------------------------------------------
# Rational-coefficient polynomial helpers for base-field inversion.

def _frac_poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _frac_poly_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b):
        coef = a[-1] * inv_lead
        shift = len(a) - len(b)
        q[shift] = coef
        for i, c in enumerate(b):
            a[shift + i] -= coef * c
        _frac_poly_trim(a)
        if not a:
            break
    return q, a


def _frac_poly_inverse_mod(p: list[Fraction], mod: list[Fraction]) -> list[Fraction]:
    """Inverse of p modulo mod over Q (mod irreducible, p nonzero mod mod)."""
    r0, r1 = list(mod), _frac_poly_trim(list(p))
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while r1:
        q, r = _frac_poly_divmod(r0, r1)
        s = list(s0)
        s += [Fraction(0)] * (len(q) + len(s1) - 1 - len(s))
        for i, qc in enumerate(q):
            if qc:
                for j, sc in enumerate(s1):
                    s[i + j] -= qc * sc
        r0, r1 = r1, _frac_poly_trim(r)
        s0, s1 = s1, _frac_poly_trim(s)
    if len(r0) != 1:
        raise ZeroDivisionError("element is not invertible")
    inv = 1 / r0[0]
    return [c * inv for c in s0]


# ---------------------------------------------------------------------------


class CycNum:
    """An element of the cyclotomic field Q(zeta_L)."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 1:
            raise ValueError("order must be a positive integer")
        deg = phi_degree(order)
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > deg:
            vec = list(_reduce_mod_phi(vec, order))
        vec += [Fraction(0)] * (deg - len(vec))
        self.order = order
        self.coeffs = tuple(vec)

    @classmethod
    def _raw(cls, order: int, coeffs: tuple) -> "CycNum":
        # trusted constructor: coeffs is already a reduced tuple of Fractions
        self = object.__new__(cls)
        self.order = order
        self.coeffs = coeffs
        return self

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycNum":
        vec = [Fraction(value)] + [Fraction(0)] * (phi_degree(order) - 1)
        return cls(order, vec)

    @classmethod
    def zero(cls) -> "CycNum":
        return cls.from_rational(0)

    @classmethod
    def one(cls) -> "CycNum":
        return cls.from_rational(1)

    @classmethod
    def root_of_unity(cls, k: int, d: int) -> "CycNum":
        """The value e^(2*pi*i*k/d), i.e. zeta_d^k."""
        if d < 1:
            raise ValueError("d must be a positive integer")
        k %= d
        vec = [Fraction(0)] * (k + 1)
        vec[k] = Fraction(1)
        return cls(d, vec)

    # -- lifting ------------------------------------------------------

    def lift(self, order: int) -> "CycNum":
        """Re-express this value inside Q(zeta_order); self.order must divide order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError("can only lift to a multiple of the current order")
        step = order // self.order
        vec = [Fraction(0)] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            vec[i * step] = c
        return CycNum(order, vec)

    def _pair(self, other: "CycNum") -> tuple["CycNum", "CycNum"]:
        L = _lcm(self.order, other.order)
        return self.lift(L), other.lift(L)

    @staticmethod
    def _coerce(value) -> "CycNum":
        if isinstance(value, CycNum):
            return value
        if isinstance(value, (int, Fraction)):
            return CycNum.from_rational(value)
        raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other) -> "CycNum":
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._pair(other)
        return CycNum._raw(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self) -> "CycNum":
        return CycNum._raw(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "CycNum":
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "CycNum":
        return self._coerce(other) - self

    def __mul__(self, other) -> "CycNum":
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        if other.order == 1:
            s = other.coeffs[0]
            return CycNum._raw(self.order, tuple(c * s for c in self.coeffs))
        if self.order == 1:
            s = self.coeffs[0]
            return CycNum._raw(other.order, tuple(c * s for c in other.coeffs))
        a, b = self._pair(other)
        out = [_F0] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        out[i + j] += x * y
        return CycNum._raw(a.order, _reduce_mod_phi(out, a.order))

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        mod = [Fraction(c) for c in cyclotomic_int_coeffs(self.order)]
        inv = _frac_poly_inverse_mod(list(self.coeffs), mod)
        return CycNum(self.order, inv)

    def __truediv__(self, other) -> "CycNum":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other) -> "CycNum":
        return self._coerce(other) * self.inverse()

    def __pow__(self, exponent: int) -> "CycNum":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycNum.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conjugate(self) -> "CycNum":
        """Complex conjugation, zeta |-> zeta^(L-1)."""
        L = self.order
        vec = [Fraction(0)] * L
        for i, c in enumerate(self.coeffs):
            vec[(L - i) % L] += c
        return CycNum(L, vec)

    # -- predicates / conversions --------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return self.coeffs[0]

    def to_complex(self) -> complex:
        L = self.order
        total = 0j
        for i, c in enumerate(self.coeffs):
            if c:
                total += float(c) * cmath.exp(2j * cmath.pi * i / L)
        return total

    def __eq__(self, other) -> bool:
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # equality spans orders; these are not dict keys

    # -- serialization --------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "CycNum":
        return cls(int(obj["order"]), [Fraction(int(n), int(d)) for n, d in obj["coeffs"]])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(f"z{self.order}^{i}")
            else:
                parts.append(f"{c}*z{self.order}^{i}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"CycNum({self})"


ZERO = CycNum.zero()
ONE = CycNum.one()


@lru_cache(maxsize=4096)
def embed(k: int, d: int) -> CycNum:
    """Index-to-value map: domain index k becomes the root of unity e^(2*pi*i*k/d)."""
    return CycNum.root_of_unity(k % d, d)


# ---------------------------------------------------------------------------


class UniPoly:
    """Univariate polynomial with CycNum coefficients, lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        vec = [CycNum._coerce(c) for c in coeffs]
        while vec and vec[-1].is_zero():
            vec.pop()
        self.coeffs = tuple(vec)

    @classmethod
    def constant(cls, c) -> "UniPoly":
        return cls([c])

    @classmethod
    def x(cls) -> "UniPoly":
        return cls([0, 1])

    @classmethod
    def x_pow_minus_one(cls, d: int) -> "UniPoly":
        vec = [CycNum.from_rational(-1)] + [ZERO] * (d - 1) + [ONE]
        return cls(vec)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def leading(self) -> CycNum:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other) -> "UniPoly":
        if isinstance(other, (CycNum, int, Fraction)):
            s = CycNum._coerce(other)
            return UniPoly([c * s for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return UniPoly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if not x.is_zero():
                for j, y in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + x * y
        return UniPoly(out)

    __rmul__ = __mul__

    def scale(self, s) -> "UniPoly":
        return self * CycNum._coerce(s)

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [ZERO] * max(len(rem) - len(other.coeffs) + 1, 0)
        inv_lead = other.leading().inverse()
        dlen = len(other.coeffs)
        while len(rem) >= dlen:
            coef = rem[-1] * inv_lead
            shift = len(rem) - dlen
            quo[shift] = coef
            for i, c in enumerate(other.coeffs):
                rem[shift + i] = rem[shift + i] - coef * c
            while rem and rem[-1].is_zero():
                rem.pop()
            if not rem:
                break
        return UniPoly(quo), UniPoly(rem)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self * self.leading().inverse()

    def eval(self, point) -> CycNum:
        point = CycNum._coerce(point)
        acc = ZERO
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return len(self.coeffs) == len(other.coeffs) and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def to_obj(self) -> dict:
        return {"coeffs": [c.to_obj() for c in self.coeffs]}

    @classmethod
    def from_obj(cls, obj: dict) -> "UniPoly":
        return cls([CycNum.from_obj(c) for c in obj["coeffs"]])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"({c})*x^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero())

    def __repr__(self) -> str:
        return f"UniPoly({self})"


def cyclotomic_polynomial(L: int) -> UniPoly:
    """Phi_L as a UniPoly with rational coefficients."""
    return UniPoly([CycNum.from_rational(c) for c in cyclotomic_int_coeffs(L)])


def poly_ext_gcd(p: UniPoly, m: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Extended Euclid over Q(zeta): returns monic g and u, v with u*p + v*m = g."""
    if p.is_zero() and m.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    r0, r1 = p, m
    u0, u1 = UniPoly.constant(1), UniPoly()
    v0, v1 = UniPoly(), UniPoly.constant(1)
    while not r1.is_zero():
        q, r = r0.divmod(r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    lead_inv = r0.leading().inverse()
    return r0 * lead_inv, u0 * lead_inv, v0 * lead_inv
