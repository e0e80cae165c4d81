"""Polynomial encodings of relations and propagation rules over roots of unity.

A MultiPoly represents a function on U_d^n: exponents are reduced mod d per
variable, which is sound both for evaluation at roots of unity and for
substitution of normal operators of order d.  Coefficients are exact CycNum
values; the certificate machinery consumes these polynomials, so nothing here
may round.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .csp_core import Relation
from .cyclotomic import ONE, ZERO, CycNum, UniPoly, embed, poly_ext_gcd


class MultiPoly:
    """Multivariate polynomial over Q(zeta), exponents reduced mod d."""

    __slots__ = ("d", "vars", "terms")

    def __init__(self, d: int, variables, terms=None):
        self.d = d
        self.vars = tuple(variables)
        clean: dict[tuple, CycNum] = {}
        for exps, coeff in (terms or {}).items():
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
        point = [CycNum._coerce(p) for p in point]
        if len(point) != len(self.vars):
            raise ValueError("point length must match variable count")
        top = [0] * len(point)
        for exps in self.terms:
            for j, e in enumerate(exps):
                if e > top[j]:
                    top[j] = e
        powers = []
        for val, m in zip(point, top):
            row = [ONE]
            for _ in range(m):
                row.append(row[-1] * val)
            powers.append(row)
        total = ZERO
        for exps, coeff in self.terms.items():
            term = coeff
            for j, e in enumerate(exps):
                if e:
                    term = term * powers[j][e]
            total = total + term
        return total

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


def relation_polynomial(rel: Relation, variables=None) -> MultiPoly:
    """The unique per-variable-degree-<d polynomial taking lambda_0 on the
    relation's tuples and lambda_1 off them.

    Coefficients come from the inverse discrete Fourier transform on (Z_d)^r
    with 1/d^r normalization, so evaluation reproduces the indicator exactly.
    """
    d, r = rel.d, rel.arity
    variables = default_vars(r) if variables is None else tuple(variables)
    if len(variables) != r:
        raise ValueError("variable list must match relation arity")
    lam1 = embed(1, d)
    scale = CycNum.from_rational(Fraction(1, d ** r)) * (ONE - lam1)
    tuples = sorted(rel.tuples)
    terms: dict[tuple, CycNum] = {}
    for b in product(range(d), repeat=r):
        counts = [0] * d
        for a in tuples:
            dot = sum(x * y for x, y in zip(a, b)) % d
            counts[-dot % d] += 1
        acc = CycNum(d, counts)
        coeff = scale * acc
        if b == (0,) * r:
            coeff = coeff + lam1
        if not coeff.is_zero():
            terms[b] = coeff
    return MultiPoly(d, variables, terms)


def dom_polynomial(S, d: int) -> UniPoly:
    """Membership polynomial of S inside U_d: the product of (lambda_k - x)
    over k in S, plus one.  Its value is 1 exactly on the elements of S."""
    p = UniPoly.constant(1)
    x = UniPoly.x()
    for k in sorted(set(S)):
        if not 0 <= k < d:
            raise ValueError(f"set element {k} outside 0..{d - 1}")
        p = p * (UniPoly.constant(embed(k, d)) - x)
    return p + UniPoly.constant(1)


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
    p = UniPoly.constant(1)
    x = UniPoly.x()
    for k in sorted(set(S)):
        p = p * (x - UniPoly.constant(embed(k, d)))
    return p


def _inverse_mod_circle(p: UniPoly, d: int) -> tuple[UniPoly, CycNum]:
    """Witness (q, c) with p*q = c modulo x^d - 1 and c nonzero."""
    m = UniPoly.x_pow_minus_one(d)
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
    p = root_product(S, d) - root_product(complement(S, d), d)
    return _inverse_mod_circle(p, d)


def dom_difference_inverse(S, d: int) -> tuple[UniPoly, CycNum]:
    """Witness (q, c) inverting dom_polynomial(S) - dom_polynomial(complement)
    modulo x^d - 1.  This is the difference that appears when two adjacent
    chain identities are joined, and it has no roots in U_d for any S, so the
    witness always exists."""
    p = dom_polynomial(S, d) - dom_polynomial(complement(S, d), d)
    return _inverse_mod_circle(p, d)
