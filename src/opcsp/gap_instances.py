"""Generators for concrete instances: the magic square, its 4-dimensional
Pauli operator solution, linear-equation instances over Z_p, and the bundled
bounded-width fixture languages used throughout the test corpora.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

from .csp_core import Instance, Language, Relation, make_instance

ZSUM_GUARD = 10 ** 8


def parity_relation(d2_rhs: int) -> Relation:
    """Ternary relation over d=2: index sum congruent to d2_rhs mod 2.

    With the encoding k <-> (-1)^k this is the multiplicative constraint
    x*y*z = +1 (rhs 0) or x*y*z = -1 (rhs 1).
    """
    tuples = frozenset(t for t in product(range(2), repeat=3) if sum(t) % 2 == d2_rhs)
    return Relation(3, 2, tuples)


def magic_square() -> Instance:
    """The nine-variable, six-constraint square: rows and the first two
    columns multiply to +1, the last column to -1.  Unsatisfiable classically,
    satisfiable by 4x4 operators (see pauli_fixture)."""
    variables = [f"x{i}" for i in range(1, 10)]
    constraints = [
        (("x1", "x2", "x3"), "Rplus"),
        (("x4", "x5", "x6"), "Rplus"),
        (("x7", "x8", "x9"), "Rplus"),
        (("x1", "x4", "x7"), "Rplus"),
        (("x2", "x5", "x8"), "Rplus"),
        (("x3", "x6", "x9"), "Rminus"),
    ]
    relations = {"Rplus": parity_relation(0), "Rminus": parity_relation(1)}
    return make_instance(2, variables, constraints, relations)


def pauli_fixture() -> dict:
    """Dimension-4 operator assignment for the magic square built from Pauli
    tensor products.  Returned as a plain dict variable -> 4x4 complex array."""
    import numpy as np

    I2 = np.eye(2, dtype=complex)
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    Z = np.array([[1, 0], [0, -1]], dtype=complex)
    kron = np.kron
    return {
        "x1": kron(Z, I2),
        "x2": kron(I2, Z),
        "x3": kron(Z, Z),
        "x4": kron(I2, X),
        "x5": kron(X, I2),
        "x6": kron(X, X),
        "x7": kron(Z, X),
        "x8": kron(X, Z),
        "x9": kron(Y, Y),
    }


# ---------------------------------------------------------------------------
# Linear systems over Z_p


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    k = 2
    while k * k <= p:
        if p % k == 0:
            return False
        k += 1
    return True


@dataclass(frozen=True)
class LinearSystem:
    """Equations sum(coeff_i * x_i) = rhs over Z_p, p prime; p is refused
    first if `zero_sum_relation(p)`, which the encoder needs, is above the
    guard."""

    p: int
    equations: tuple  # of (variable index tuple, coefficient tuple, rhs)

    def __post_init__(self):
        _check_zero_sum_guard(self.p)  # before the trial division, slow for large p
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")
        eqs = []
        for vs, cs, rhs in self.equations:
            vs = tuple(int(v) for v in vs)
            cs = tuple(int(c) % self.p for c in cs)
            if len(vs) != len(cs):
                raise ValueError("coefficient list length must match variable list")
            eqs.append((vs, cs, int(rhs) % self.p))
        object.__setattr__(self, "equations", tuple(eqs))

    def num_variables(self) -> int:
        top = -1
        for vs, _, _ in self.equations:
            top = max(top, max(vs, default=-1))
        return top + 1


def sum3_relation(p: int, a: int) -> Relation:
    """x + y + z = a over Z_p."""
    tuples = frozenset(
        (x, y, (a - x - y) % p) for x in range(p) for y in range(p)
    )
    return Relation(3, p, tuples)


def _check_zero_sum_guard(p: int):
    if p > 1 and (p + 1) * math.log(p) > math.log(ZSUM_GUARD):  # logs, not a huge power
        raise ValueError(f"zero-sum relation over Z_{p} has {p}^{p + 1} tuples, above the guard")


def zero_sum_relation(p: int) -> Relation:
    """x_1 + ... + x_{p+2} = 0 over Z_p: p^(p+1) tuples, refused above ZSUM_GUARD."""
    _check_zero_sum_guard(p)
    r = p + 2
    tuples = frozenset(
        t + ((-sum(t)) % p,) for t in product(range(p), repeat=r - 1)
    )
    return Relation(r, p, tuples)


def linear_language(p: int) -> Language:
    zsum = zero_sum_relation(p)  # first, so that its guard runs before any relation is built
    rels = {f"sum3_{a}": sum3_relation(p, a) for a in range(p)}
    rels["zsum"] = zsum
    return Language(p, rels)


def linear_system_instance(sys: LinearSystem) -> Instance:
    """Encode a linear system over Z_p as a CSP over the ternary sum
    relations and the (p+2)-ary zero-sum relation.

    Coefficients c > 1 become c repetitions of the variable; an equation
    longer than p + 2 is rejected, an empty one with rhs 0 dropped, and p + 2
    terms summing to 0 are one `zsum` constraint.  Any other equation is
    padded to three terms with one variable forced to 0 and folded through
    auxiliary partial sums into `sum3_*` constraints; the projection of the
    solution set onto the original variables equals the Z_p solution set.
    """
    p = sys.p
    lang = linear_language(p)
    variables = [f"x{i}" for i in range(sys.num_variables())]
    constraints: list[tuple] = []
    aux_counter = [0]

    def fresh(tag: str) -> str:
        name = f"_{tag}{aux_counter[0]}"
        aux_counter[0] += 1
        variables.append(name)
        return name

    def neg_pair(u: str, w: str):
        # u + w = 0, realized as u + w + p*t = 0 with a free padding variable
        t = fresh("t")
        constraints.append(((u, w) + (t,) * p, "zsum"))

    def forced_zero() -> str:
        z, u, w = fresh("z"), fresh("n"), fresh("n")
        neg_pair(u, w)
        constraints.append(((z, u, w), "sum3_0"))
        return z

    for vs, cs, rhs in sys.equations:
        occ: list[str] = []
        for v, c in zip(vs, cs):
            occ.extend([f"x{v}"] * c)
        if len(occ) > p + 2:
            raise ValueError(
                f"equation expands to {len(occ)} occurrences, above the limit {p + 2}"
            )
        if not occ and rhs == 0:
            continue
        if len(occ) == p + 2 and rhs == 0:
            constraints.append((tuple(occ), "zsum"))
            continue
        if len(occ) < 3:
            occ += [forced_zero()] * (3 - len(occ))
        # fold a running partial sum c_j = occ_0 + ... + occ_j
        running = occ[0]
        for i in range(1, len(occ) - 2):
            m, nxt = fresh("m"), fresh("s")
            constraints.append(((running, occ[i], m), "sum3_0"))  # m = -(running + occ_i)
            neg_pair(m, nxt)  # nxt = -m
            running = nxt
        constraints.append(((running, occ[-2], occ[-1]), f"sum3_{rhs}"))

    return make_instance(p, variables, constraints, dict(lang.relations))


def parse_linear_system(text: str, p: int) -> LinearSystem:
    """One equation per line, e.g. "x1 + x2 + x3 = 1"; repetition encodes
    coefficients.  Variable indices are assigned by first appearance."""
    names: dict[str, int] = {}
    equations = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: missing '='")
        lhs, rhs = line.split("=", 1)
        try:
            b = int(rhs.strip())
        except ValueError as exc:
            raise ValueError(f"line {lineno}: right-hand side must be an integer") from exc
        counts: dict[int, int] = {}
        for term in lhs.split("+"):
            tok = term.strip()
            if not tok:
                raise ValueError(f"line {lineno}: empty term")
            if tok not in names:
                names[tok] = len(names)
            idx = names[tok]
            counts[idx] = counts.get(idx, 0) + 1
        vs = tuple(sorted(counts))
        cs = tuple(counts[v] for v in vs)
        equations.append((vs, cs, b))
    return LinearSystem(p, tuple(equations))


# ---------------------------------------------------------------------------
# Bundled bounded-width fixture languages


def two_clause_language() -> Language:
    """Boolean implications, two-literal clauses, and the two unary pins."""
    rels = {
        "imp": Relation(2, 2, frozenset({(0, 0), (0, 1), (1, 1)})),
        "pmi": Relation(2, 2, frozenset({(0, 0), (1, 0), (1, 1)})),
        "or": Relation(2, 2, frozenset({(0, 1), (1, 0), (1, 1)})),
        "nand": Relation(2, 2, frozenset({(0, 0), (0, 1), (1, 0)})),
        "is0": Relation(1, 2, frozenset({(0,)})),
        "is1": Relation(1, 2, frozenset({(1,)})),
    }
    return Language(2, rels)


def horn_language() -> Language:
    """Horn-style ternary clauses over the Boolean domain plus unary pins."""
    full3 = set(product(range(2), repeat=3))
    rels = {
        "head3": Relation(3, 2, frozenset(full3 - {(1, 1, 0)})),  # a and b imply c
        "nall3": Relation(3, 2, frozenset(full3 - {(1, 1, 1)})),  # not all three
        "is0": Relation(1, 2, frozenset({(0,)})),
        "is1": Relation(1, 2, frozenset({(1,)})),
    }
    return Language(2, rels)


def shift_language(d: int = 3) -> Language:
    """Cyclic-shift edges and unary lists over a d-element domain.  All
    relations are preserved by the dual discriminator, so the language has
    bounded width."""
    rels = {
        "eq": Relation(2, d, frozenset((k, k) for k in range(d))),
    }
    for s in range(1, d):
        rels[f"shift{s}"] = Relation(2, d, frozenset((k, (k + s) % d) for k in range(d)))
    for subset in range(1, 2 ** d - 1):
        members = tuple(k for k in range(d) if subset >> k & 1)
        rels["u" + "".join(map(str, members))] = Relation(
            1, d, frozenset((k,) for k in members)
        )
    return Language(d, rels)
