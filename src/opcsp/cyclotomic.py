"""Exact arithmetic in cyclotomic fields Q(zeta_L), plus univariate polynomials over them.

A CycNum is an element of Q(zeta_L) stored as num/den: `num` is an integer
coefficient vector of length phi(L) modulo the L-th cyclotomic polynomial
Phi_L, and `den` is one positive integer with gcd(den, *num) == 1.  Working
modulo Phi_L (rather than x^L - 1) keeps the carrier a field, and the lowest
terms make the pair canonical: equal values at one order have equal fields,
so equality is field equality after lifting both operands into Q(zeta_lcm).
`to_obj` writes the wire format `{"order": L, "coeffs": [[num, den], ...]}`
from num/den, each pair in lowest terms, at the order the value was computed
at (so a rational value computed in Q(zeta_4) is written at order 4).
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

    def _pairs(self) -> list[list[int]]:
        # each coefficient num[i] / den as [numerator, denominator], in lowest terms
        return [[c // (g := gcd(c, self.den)), self.den // g] for c in self.num]

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
        return {"order": self.order, "coeffs": self._pairs()}

    @classmethod
    def from_obj(cls, obj: dict) -> "CycNum":
        # the [num, den] pairs over their common denominator, with no Fraction
        coeffs = _list(_object(obj, "a field element", ("order", "coeffs"))["coeffs"], "coeffs")
        pairs = [_list(pair, "a coefficient", 2) for pair in coeffs]
        den = lcm(*(_int(k, "a denominator") for _, k in pairs))  # 0 if any is 0
        if den == 0:
            raise ValueError("coefficient denominator is zero")
        num = [_int(n, "a numerator") * (den // k) for n, k in pairs]
        return cls._of(_int(obj["order"], "order", 1), num, den)

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        for i, (n, k) in enumerate(self._pairs()):
            if n:
                c = str(n) if k == 1 else f"{n}/{k}"
                z = f"z{self.order}^{i}"
                parts.append(c if i == 0 else z if n == k == 1 else f"{c}*{z}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"CycNum({self})"


ZERO = CycNum.zero()
ONE = CycNum.one()


@lru_cache(maxsize=4096)
def embed(k: int, d: int) -> CycNum:
    """Index-to-value map: domain index k becomes the root of unity e^(2*pi*i*k/d)."""
    return CycNum.root_of_unity(k % d, d)


@lru_cache(maxsize=64)
def _roots(L: int) -> dict:
    # num of +-zeta_L^k -> (k, sign); where -zeta_L^k is also a zeta_L^j, the sign is +1
    table = {(-embed(k, L)).num: (k, -1) for k in range(L)}
    table.update((embed(k, L).num, (k, 1)) for k in range(L))
    return table


def root_index(p: CycNum) -> tuple[int, int, int]:
    """The inverse of `embed`: (L, k, sign) with p = sign * zeta_L^k and
    L = p.order.  Raises ValueError when p is not +-zeta_L^k at its own order."""
    found = _roots(p.order).get(p.num) if p.den == 1 else None
    if found is None:
        raise ValueError(f"{p} is not +-z{p.order}^k for any k")
    return (p.order, *found)


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

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

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

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        return " + ".join(f"({c})*x^{i}" for i, c in enumerate(self.coeffs) if not c.is_zero())

    def __repr__(self) -> str:
        return f"UniPoly({self})"




# ---------------------------------------------------------------------------
# Row kernel: UniPoly arithmetic on plain integer rows at one order.


@lru_cache(maxsize=None)
def _descent(o: int, L: int) -> list:
    """A left inverse of the lift Q(zeta_o) -> Q(zeta_L) on rows (o divides L),
    as Fraction rows: applied to the order-L row of a value of Q(zeta_o), it
    gives the value's row at order o.  Gauss-Jordan on [A | I], where the
    columns of A are the lifted basis zeta_o^i."""
    cols = [CycNum.root_of_unity(i * (L // o), L).num for i in range(len(cyclotomic_int_coeffs(o)) - 1)]
    k, n = len(cols), len(cols[0])
    rows = [[Fraction(col[r]) for col in cols] + [Fraction(int(r == s)) for s in range(n)] for r in range(n)]
    for j in range(k):
        p = next(r for r in range(j, n) if rows[r][j])
        rows[j], rows[p] = rows[p], rows[j]
        rows[j] = [x / rows[j][j] for x in rows[j]]
        for r in range(n):
            f = rows[r][j]
            if r != j and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[j])]
    return [row[k:] for row in rows[:k]]


class _Rows:
    """UniPoly's steps on integer rows in Q(zeta_L), for one L.

    A coefficient is (tag, row, den): the value row/den over zeta_L^0 ..
    zeta_L^(phi(L)-1), reduced modulo Phi_L and in lowest terms, and `tag`,
    the order CycNum arithmetic would have computed it at: the lcm of its
    operands' tags, and 1 for a slot nothing writes (so a tag-1 value is
    rational).  A polynomial is a list of coefficients, lowest degree first,
    with no trailing zero.  Each method repeats the UniPoly or CycNum step it
    names one for one, so values, zero tests, lengths and tags equal those of
    the CycNum computation, and `poly_out` gives its bytes."""

    def __init__(self, L: int):
        phi = cyclotomic_int_coeffs(L)
        self.L, self.deg = L, len(phi) - 1
        self.low = [(i, c) for i, c in enumerate(phi[:-1]) if c]
        self.zero = (1, (0,) * self.deg, 1)
        self.one = (1, (1,) + (0,) * (self.deg - 1), 1)

    def _reduce(self, num: list) -> list:
        L, deg = self.L, self.deg
        for top in range(L, len(num)):  # zeta_L^L = 1
            num[top - L] += num[top]
        del num[L:]
        for top in range(len(num) - 1, deg - 1, -1):
            lead = num[top]
            if lead:
                for i, c in self.low:
                    num[top - deg + i] -= lead * c
        del num[deg:]
        return num

    @staticmethod
    def _lowest(tag: int, num: list, den: int) -> tuple:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
        return tag, num, den

    # -- coefficients: CycNum's +, -, * and inverse --------------------

    def add(self, a, b, sign: int = 1) -> tuple:
        (ta, ra, da), (tb, rb, db) = a, b
        tag = ta if ta == tb else lcm(ta, tb)
        if not any(rb):
            return tag, ra, da
        if sign < 0:
            rb = [-c for c in rb]
        if not any(ra):
            return tag, rb, db
        if da == db:
            return self._lowest(tag, [x + y for x, y in zip(ra, rb)], da)
        den = lcm(da, db)
        sa, sb = den // da, den // db
        return self._lowest(tag, [x * sa + y * sb for x, y in zip(ra, rb)], den)

    def mul(self, a, b) -> tuple:
        (ta, ra, da), (tb, rb, db) = a, b
        if ta == 1:
            s = ra[0]
            return self._lowest(tb, [c * s for c in rb], da * db)
        if tb == 1:
            s = rb[0]
            return self._lowest(ta, [c * s for c in ra], da * db)
        tag = ta if ta == tb else lcm(ta, tb)
        num = [0] * (2 * self.deg - 1)
        for i, x in enumerate(ra):
            if x:
                for j, y in enumerate(rb, i):
                    num[j] += x * y
        return self._lowest(tag, self._reduce(num), da * db)

    def inverse(self, a) -> tuple:
        """CycNum.inverse at order L, keeping the tag (a rational is a scalar)."""
        t, r, den = a
        if not any(r[1:]):
            return t, [den if r[0] > 0 else -den] + [0] * (self.deg - 1), abs(r[0])
        inv = CycNum._of(self.L, list(r), den).inverse()
        return t, inv.num, inv.den

    # -- polynomials ----------------------------------------------------

    @staticmethod
    def strip(p: list) -> list:
        while p and not any(p[-1][1]):
            p.pop()
        return p

    def add_poly(self, p: list, q: list, sign: int = 1) -> list:
        """UniPoly.__add__, or __sub__ (add the negation) for sign -1."""
        out = [self.add(x, y, sign) for x, y in zip(p, q)]
        if len(p) >= len(q):
            out += p[len(q):]
        else:
            out += q[len(p):] if sign > 0 else [(t, [-c for c in r], den) for t, r, den in q[len(p):]]
        return self.strip(out)

    def mul_poly(self, p: list, q: list) -> list:
        """UniPoly.__mul__: every slot starts as the order-1 zero, and zero
        left-hand coefficients are skipped."""
        out = [self.zero] * (len(p) + len(q) - 1)
        for i, x in enumerate(p):
            if any(x[1]):
                for j, y in enumerate(q, i):
                    out[j] = self.add(out[j], self.mul(x, y))
        return self.strip(out)

    def divmod(self, a: list, b: list) -> tuple[list, list]:
        """UniPoly.divmod by a nonzero b: its leading coefficient is inverted
        once, each step writes one quotient slot (unwritten slots stay the
        order-1 zero), and the loop stops on an empty remainder."""
        rem = list(a)
        quo = [self.zero] * max(len(a) - len(b) + 1, 0)
        inv = self.inverse(b[-1])
        n = len(b) - 1
        while len(rem) > n:
            shift = len(rem) - 1 - n
            coef = quo[shift] = self.mul(rem.pop(), inv)  # the top slot cancels exactly
            for i, c in enumerate(b[:-1], shift):
                rem[i] = self.add(rem[i], self.mul(coef, c), -1)
            self.strip(rem)
        return quo, rem

    # -- conversion -----------------------------------------------------

    def poly_in(self, p: UniPoly) -> list:
        return [(c.order, c.lift(self.L).num, c.den) for c in p.coeffs]

    def poly_out(self, p: list) -> UniPoly:
        return UniPoly([
            CycNum._of(t, list(r), den) if t == self.L else CycNum._of(1, [r[0]], den) if t == 1
            else CycNum(t, [sum(x * y for x, y in zip(b, r)) / den for b in _descent(t, self.L)])
            for t, r, den in p
        ])


def poly_ext_gcd(p: UniPoly, m: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Extended Euclid over Q(zeta): returns monic g and u, v with u*p + v*m = g.

    Runs on integer rows at the lcm of the coefficients' orders (`_Rows`),
    with UniPoly's steps, so every coefficient comes out at the order UniPoly
    arithmetic gives it."""
    if p.is_zero() and m.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    F = _Rows(lcm(1, *(c.order for c in p.coeffs + m.coeffs)))
    r0, r1 = F.poly_in(p), F.poly_in(m)
    u0, u1 = [F.one], []
    v0, v1 = [], [F.one]
    while r1:
        q, r = F.divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, F.add_poly(u0, F.mul_poly(q, u1), -1)
        v0, v1 = v1, F.add_poly(v0, F.mul_poly(q, v1), -1)
    inv = F.inverse(r0[-1])
    return tuple(F.poly_out(F.strip([F.mul(c, inv) for c in x])) for x in (r0, u0, v0))
