"""Exact arithmetic in cyclotomic fields Q(zeta_L), plus univariate polynomials over them.

A CycNum is an element of Q(zeta_L) stored as num/den: `num` is an integer
coefficient vector of length phi(L) modulo the L-th cyclotomic polynomial
Phi_L, and `den` is one positive integer with gcd(den, *num) == 1.  Working
modulo Phi_L (rather than x^L - 1) keeps the carrier a field, and the lowest
terms make the pair canonical: equal values at one order have equal fields,
so equality is field equality after lifting both operands into Q(zeta_lcm).
`coeffs` is the same vector as Fractions, and the wire format
(`{"order": L, "coeffs": [[num, den], ...]}`) is written from it, unchanged.
This module never touches floating point except in `to_complex`.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .csp_core import _int, _list, _object


# ---------------------------------------------------------------------------
# Integer polynomial helpers (dense lists, lowest degree first).

def _int_poly_divmod(num: list[int], den) -> tuple[list[int], list[int]]:
    """Quotient and remainder of num by the monic integer sequence den,
    exactly over Z; the remainder has min(len(num), deg den) entries."""
    rem = list(num)
    n = len(den) - 1
    q = [0] * max(len(rem) - n, 0)
    for shift in range(len(q) - 1, -1, -1):
        lead = rem[shift + n]
        if lead:
            q[shift] = lead
            for i in range(n):
                if den[i]:
                    rem[shift + i] -= lead * den[i]
    return q, rem[:n]


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
    if any(r):
        raise AssertionError("cyclotomic division left a remainder")
    return tuple(q)


def phi_degree(L: int) -> int:
    """Degree of Phi_L, i.e. Euler's totient of L."""
    return len(cyclotomic_int_coeffs(L)) - 1


# ---------------------------------------------------------------------------


class CycNum:
    """An element of the cyclotomic field Q(zeta_L), as num/den."""

    __slots__ = ("order", "num", "den")

    def __init__(self, order: int, coeffs):
        vals = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in vals))
        self._set(order, [c.numerator * (den // c.denominator) for c in vals], den)

    def _set(self, order: int, num: list[int], den: int) -> "CycNum":
        # reduce num modulo Phi_order and bring num/den to lowest terms
        phi = cyclotomic_int_coeffs(order)
        deg = len(phi) - 1
        if len(num) > deg:
            num = _int_poly_divmod(num, phi)[1]
        else:
            num = num + [0] * (deg - len(num))
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        self.order = order
        self.num = tuple(num)
        self.den = den
        return self

    @classmethod
    def _of(cls, order: int, num: list[int], den: int) -> "CycNum":
        return object.__new__(cls)._set(order, num, den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficient vector modulo Phi_order, as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycNum":
        return cls(order, [value])

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
        return cls(d, [0] * (k % d) + [1])

    # -- Galois index maps ----------------------------------------------

    def _substitute(self, k: int, order: int) -> "CycNum":
        """zeta_self.order^i |-> zeta_order^(i*k): a lift when
        k = order / self.order, a Galois automorphism when order = self.order
        and k is a unit mod order."""
        vec = [0] * order
        for i, c in enumerate(self.num):
            if c:
                vec[i * k % order] += c
        return CycNum._of(order, vec, self.den)

    def lift(self, order: int) -> "CycNum":
        """Re-express this value inside Q(zeta_order); self.order must divide order."""
        if order == self.order:
            return self
        if order % self.order != 0:
            raise ValueError("can only lift to a multiple of the current order")
        return self._substitute(order // self.order, order)

    def conjugate(self) -> "CycNum":
        """Complex conjugation, zeta |-> zeta^(L-1)."""
        return self._substitute(self.order - 1, self.order)

    def inverse(self) -> "CycNum":
        """1/self as the product of the other Galois conjugates over the
        rational norm, at self.order."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero in Q(zeta)")
        L = self.order
        others = CycNum.from_rational(1, L)
        for k in range(2, L):
            if gcd(k, L) == 1:
                others = others * self._substitute(k, L)
        norm = self * others
        return others * Fraction(norm.den, norm.num[0])

    def _pair(self, other: "CycNum") -> tuple["CycNum", "CycNum"]:
        L = lcm(self.order, other.order)
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
        den = lcm(a.den, b.den)
        sa, sb = den // a.den, den // b.den
        return CycNum._of(a.order, [x * sa + y * sb for x, y in zip(a.num, b.num)], den)

    __radd__ = __add__

    def __neg__(self) -> "CycNum":
        return CycNum._of(self.order, [-c for c in self.num], self.den)

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
        if self.order == 1:
            self, other = other, self
        if other.order == 1:
            s = other.num[0]
            return CycNum._of(self.order, [c * s for c in self.num], self.den * other.den)
        a, b = self._pair(other)
        out = [0] * (len(a.num) + len(b.num) - 1)
        for i, x in enumerate(a.num):
            if x:
                for j, y in enumerate(b.num):
                    if y:
                        out[i + j] += x * y
        return CycNum._of(a.order, out, a.den * b.den)

    __rmul__ = __mul__

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

    # -- predicates / conversions --------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("value is not rational")
        return Fraction(self.num[0], self.den)

    def to_complex(self) -> complex:
        L = self.order
        total = 0j
        for i, c in enumerate(self.num):
            if c:
                total += c / self.den * cmath.exp(2j * cmath.pi * i / L)
        return total

    def __eq__(self, other) -> bool:
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        a, b = self._pair(other)
        return a.num == b.num and a.den == b.den

    __hash__ = None  # equality spans orders; these are not dict keys

    # -- serialization --------------------------------------------------

    def to_obj(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs],
        }

    @classmethod
    def from_obj(cls, obj: dict) -> "CycNum":
        coeffs = []
        for pair in _list(_object(obj, "a field element")["coeffs"], "coeffs"):
            num, den = _list(pair, "a coefficient")
            if _int(den, "a denominator") == 0:
                raise ValueError("coefficient denominator is zero")
            coeffs.append(Fraction(_int(num, "a numerator"), den))
        return cls(_int(obj["order"], "order"), coeffs)

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
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, x in enumerate(self.coeffs):
            if not x.is_zero():
                for j, y in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + x * y
        return UniPoly(out)

    __rmul__ = __mul__

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
        return cls([CycNum.from_obj(c) for c in _list(_object(obj, "q")["coeffs"], "coeffs")])

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"({c})*x^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero())

    def __repr__(self) -> str:
        return f"UniPoly({self})"


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
