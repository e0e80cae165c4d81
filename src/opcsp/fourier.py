"""Polynomial encodings of relations and propagation rules over roots of unity.

A MultiPoly represents a function on U_d^n: exponents are reduced mod d per
variable, which is sound both for evaluation at roots of unity and for
substitution of normal operators of order d.  Coefficients are exact CycNum
values; the certificate machinery consumes these polynomials, so nothing here
may round.

`MultiPoly.eval` evaluates only at roots of unity: each coordinate must be
+-zeta_L^k at its own order L (`cyclotomic.root_index`), and any other value,
such as 0, 2, 1/2 or 1 - zeta_3, raises ValueError.  The value is the one
field multiplication and addition would give, at the same order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm
from operator import mul

from .csp_core import Relation
from .cyclotomic import ONE, ZERO, CycNum, UniPoly, _Rows, embed, poly_ext_gcd, root_index


class MultiPoly:
    """Multivariate polynomial over Q(zeta), exponents reduced mod d."""

    __slots__ = ("d", "vars", "terms")

    def __init__(self, d: int, variables, terms):
        self.d = d
        self.vars = tuple(variables)
        clean: dict[tuple, CycNum] = {}
        for exps, coeff in terms.items():
            exps = tuple(e % d for e in exps)
            if len(exps) != len(self.vars):
                raise ValueError("exponent vector length must match variable count")
            coeff = CycNum._coerce(coeff)
            if exps in clean:
                coeff = clean[exps] + coeff
            if coeff.is_zero():
                clean.pop(exps, None)
            else:
                clean[exps] = coeff
        self.terms = clean

    @classmethod
    def constant(cls, value, d: int, variables) -> "MultiPoly":
        variables = tuple(variables)
        return cls(d, variables, {(0,) * len(variables): value})

    @classmethod
    def from_unipoly(cls, p: UniPoly, position: int, d: int, variables) -> "MultiPoly":
        variables = tuple(variables)
        terms: dict[tuple, CycNum] = {}
        for e, c in enumerate(p.coeffs):
            if c.is_zero():
                continue
            exps = [0] * len(variables)
            exps[position] = e % d
            key = tuple(exps)
            terms[key] = terms.get(key, ZERO) + c
        return cls(d, variables, terms)

    def _check_compatible(self, other: "MultiPoly"):
        if self.d != other.d or self.vars != other.vars:
            raise ValueError("polynomials must share domain size and variable list")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_compatible(other)
        terms = dict(self.terms)
        for exps, c in other.terms.items():
            terms[exps] = terms.get(exps, ZERO) + c
        return MultiPoly(self.d, self.vars, terms)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.d, self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other) -> "MultiPoly":
        if isinstance(other, (int, Fraction, CycNum)):
            s = CycNum._coerce(other)
            return MultiPoly(self.d, self.vars, {e: c * s for e, c in self.terms.items()})
        self._check_compatible(other)
        terms: dict[tuple, CycNum] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple((a + b) % self.d for a, b in zip(e1, e2))
                acc = terms.get(key, ZERO) + c1 * c2
                terms[key] = acc
        return MultiPoly(self.d, self.vars, terms)

    __rmul__ = __mul__

    def eval(self, point) -> CycNum:
        """The value at a point whose coordinates are +-zeta_L^k, as one sum
        in Z[x]/(x^M - 1) reduced once modulo Phi_M.  M is the lcm of the
        coefficients' orders and of the orders of the coordinates some term
        raises to a nonzero power: a term's coefficient row is rotated by the
        index of its monomial and added in, scaled to the common denominator."""
        roots = [root_index(CycNum._coerce(p)) for p in point]
        if len(roots) != len(self.vars):
            raise ValueError("point length must match variable count")
        used = [L for (L, _, _), column in zip(roots, zip(*self.terms)) if any(column)]
        M = lcm(1, *{c.order for c in self.terms.values()}, *used)
        den = lcm(1, *{c.den for c in self.terms.values()})
        # zeta_L^k = zeta_M^(k*M/L); where L does not divide M, no term raises the coordinate
        units = [k * (M // L) for L, k, _ in roots]
        negated = [int(s < 0) for _, _, s in roots]
        acc = [0] * M
        for exps, coeff in self.terms.items():
            shift = sum(map(mul, exps, units))
            scale = den // coeff.den
            if sum(map(mul, exps, negated)) & 1:
                scale = -scale
            step = M // coeff.order
            for i, c in enumerate(coeff.num):
                if c:
                    acc[(shift + i * step) % M] += scale * c
        return CycNum._of(M, acc, den)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        if self.d != other.d or self.vars != other.vars:
            return False
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[e] == other.terms[e] for e in self.terms)

    __hash__ = None

    def sorted_terms(self) -> list[tuple[tuple, CycNum]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def format_terms(self) -> str:
        if self.is_zero():
            return "0"
        lines = [f"({','.join(map(str, e))}): {c}" for e, c in self.sorted_terms()]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"MultiPoly(d={self.d}, vars={self.vars}, {dict(self.sorted_terms())})"


def default_vars(r: int) -> tuple:
    return tuple(f"x{i}" for i in range(r))


DFT_GUARD = 10 ** 6


def circle_idft(table, n: int, r: int, order: int) -> dict:
    """Normalized inverse DFT on (Z_n)^r with values in Q(zeta_order), n | order.

    `table` maps points a to integer vectors read as sum_i c_i zeta_order^i
    (zero-padded; absent points are zero).  Returns, for every b in (Z_n)^r
    in lexicographic order, the coefficient sum_a table[a] zeta_n^(-a.b) / n^r
    as a CycNum of order `order`, zeros included.  The sums are exact numpy
    arrays of Python ints, one axis at a time; a power of zeta_order is a
    cyclic shift of a vector.  A table of more than DFT_GUARD entries, or of
    rank r >= DFT_GUARD.bit_length(), is refused before n^r is computed.
    """
    if r >= DFT_GUARD.bit_length() or n ** r * order > DFT_GUARD:
        raise ValueError(f"inverse DFT table of {n}^{r} x {order} entries is above the guard")
    import numpy as np

    den = n ** r
    step = order // n
    hat = np.zeros((n,) * r + (order,), dtype=object)  # Python ints: exact
    for a, vec in table.items():
        hat[a][: len(vec)] = vec
    for axis in range(r):
        src = np.moveaxis(hat, axis, 0)
        out = np.zeros_like(src)
        for b, x in product(range(n), repeat=2):
            out[b] += np.roll(src[x], -x * b * step % order, axis=-1)
        hat = np.moveaxis(out, 0, axis)
    zero = CycNum._of(order, [0], 1)
    rows = hat.reshape(-1, order).tolist()
    return {
        b: CycNum._of(order, row, den) if any(row) else zero
        for b, row in zip(product(range(n), repeat=r), rows)
    }


def relation_polynomial(rel: Relation, variables=None) -> MultiPoly:
    """The unique per-variable-degree-<d polynomial taking lambda_0 on the
    relation's tuples and lambda_1 off them: (1 - lambda_1) times the
    normalized inverse DFT of the indicator, plus lambda_1 at the origin, so
    evaluation reproduces the values exactly.
    """
    d, r = rel.d, rel.arity
    coeffs = circle_idft({t: [1] for t in rel.tuples}, d, r, d)
    variables = default_vars(r) if variables is None else tuple(variables)
    if len(variables) != r:
        raise ValueError("variable list must match relation arity")
    lam1 = embed(1, d)
    scale = ONE - lam1
    terms = {b: c * scale for b, c in coeffs.items() if not c.is_zero()}
    origin = (0,) * r
    terms[origin] = terms.get(origin, ZERO) + lam1
    return MultiPoly(d, variables, terms)


def dom_polynomial(S, d: int) -> UniPoly:
    """Membership polynomial of S inside U_d: the product of (lambda_k - x)
    over k in S, plus one.  Its value is 1 exactly on the elements of S."""
    F = _Rows(d)
    return F.poly_out(_dom_rows(F, S))


def _dom_rows(F: _Rows, S) -> list:
    S = sorted(set(S))
    for k in S:
        if not 0 <= k < F.L:
            raise ValueError(f"set element {k} outside 0..{F.L - 1}")
    p = _root_rows(F, S)
    if len(S) % 2:
        p = F.add_poly([], p, -1)
    return F.add_poly(p, [F.one])


def complement(S, d: int) -> frozenset:
    return frozenset(range(d)) - frozenset(S)


def rule_polynomial(S, rel: Relation, S2, i: int, j: int, variables=None) -> MultiPoly:
    """Product encoding of the propagation rule (x_i in S) and rel -> (x_j in S2).

    Vanishes on every point of U_d^r precisely when the rule is sound, i.e.
    S2 covers every j-th coordinate of a tuple of rel whose i-th coordinate
    lies in S.
    """
    d, r = rel.d, rel.arity
    if i == j:
        raise ValueError("source and target positions must differ")
    if not (0 <= i < r and 0 <= j < r):
        raise ValueError("position out of range")
    variables = default_vars(r) if variables is None else tuple(variables)
    one = MultiPoly.constant(1, d, variables)
    lam1 = MultiPoly.constant(embed(1, d), d, variables)
    left = MultiPoly.from_unipoly(dom_polynomial(complement(S, d), d), i, d, variables) - one
    mid = relation_polynomial(rel, variables) - lam1
    right = MultiPoly.from_unipoly(dom_polynomial(S2, d), j, d, variables) - one
    return left * mid * right


def root_product(S, d: int) -> UniPoly:
    """The monic product of (x - lambda_k) over k in S (empty product is 1)."""
    F = _Rows(d)
    return F.poly_out(_root_rows(F, S))


def _root_rows(F: _Rows, S) -> list:
    # p * (x - lambda_k) for each k, on the rows of F = _Rows(d), with the
    # orders UniPoly arithmetic gives: lambda_k at order d, x and 1 at order 1
    p = [F.one]
    for k in sorted(set(S)):
        p = F.mul_poly(p, [(F.L, [-c for c in embed(k, F.L).num], 1), F.one])
    return p


def _inverse_mod_circle(p: UniPoly, d: int) -> tuple[UniPoly, CycNum]:
    """Witness (q, c) with p*q = c modulo x^d - 1 and c nonzero."""
    m = UniPoly([-1] + [0] * (d - 1) + [1])
    if p.is_zero():
        raise ValueError("zero polynomial has no inverse modulo x^d - 1")
    if p.degree == 0:
        return UniPoly.constant(1), p.coeffs[0]
    g, u, _ = poly_ext_gcd(p, m)
    if g.degree != 0:
        raise ValueError("polynomial shares a root of unity with x^d - 1")
    return u, ONE


def dom_gap_inverse(S, d: int) -> tuple[UniPoly, CycNum]:
    """For proper nonempty S, invert prod_{k in S}(x - lambda_k) minus
    prod_{k not in S}(x - lambda_k) modulo x^d - 1: returns (q, c) with
    p*q = c mod (x^d - 1), c nonzero, all exact."""
    S = frozenset(S)
    if not S or S == frozenset(range(d)):
        raise ValueError("S must be a proper nonempty subset of the domain")
    F = _Rows(d)
    p = F.add_poly(_root_rows(F, S), _root_rows(F, complement(S, d)), -1)
    return _inverse_mod_circle(F.poly_out(p), d)


def dom_difference_inverse(S, d: int) -> tuple[UniPoly, CycNum]:
    """Witness (q, c) inverting dom_polynomial(S) - dom_polynomial(complement)
    modulo x^d - 1.  This is the difference that appears when two adjacent
    chain identities are joined, and it has no roots in U_d for any S, so the
    witness always exists."""
    F = _Rows(d)
    p = F.add_poly(_dom_rows(F, S), _dom_rows(F, complement(S, d)), -1)
    return _inverse_mod_circle(F.poly_out(p), d)
