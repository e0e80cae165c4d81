"""Reference computations the benchmark checks opcsp's outputs against.

Nothing here imports opcsp.  Exact values arrive through the documented wire
format (`{"order": L, "coeffs": [[num, den], ...]}`), relations as tuple sets,
and operators as numpy arrays, so a fault in opcsp cannot hide behind the
same fault in its checker.

Every check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import cmath
import itertools
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Linear algebra over Z_p


def linear_equation_of(tuples, arity: int, p: int):
    """The rhs b when `tuples` is exactly {t in Z_p^arity : sum(t) = b mod p},
    else None."""
    tuples = set(tuples)
    if len(tuples) != p ** (arity - 1):
        return None
    sums = {sum(t) % p for t in tuples}
    if len(sums) != 1:
        return None
    (b,) = sums
    # p^(arity-1) distinct tuples that all have the same sum are all of them
    return b


def solve_mod_p(equations, nvars: int, p: int):
    """Gaussian elimination mod a prime p.

    `equations` holds (coefficient list of length nvars, rhs).  Returns
    (particular solution, null-space basis), or None when the system has no
    solution.
    """
    rows = [[c % p for c in coeffs] + [rhs % p] for coeffs, rhs in equations]
    pivots = []
    r = 0
    for col in range(nvars):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    if any(row[-1] and not any(row[:-1]) for row in rows):
        return None
    particular = [0] * nvars
    for i, col in enumerate(pivots):
        particular[col] = rows[i][-1]
    free = [c for c in range(nvars) if c not in pivots]
    basis = []
    for f in free:
        vec = [0] * nvars
        vec[f] = 1
        for i, col in enumerate(pivots):
            vec[col] = (-rows[i][f]) % p
        basis.append(vec)
    return particular, basis


def random_solution(solution_space, p: int, rng) -> list:
    particular, basis = solution_space
    out = list(particular)
    for vec in basis:
        k = rng.randrange(p)
        out = [(x + k * y) % p for x, y in zip(out, vec)]
    return out


def residuals_mod_p(equations, values, p: int) -> list:
    """Indices of the equations the values violate."""
    return [
        i for i, (coeffs, rhs) in enumerate(equations)
        if sum(c * x for c, x in zip(coeffs, values)) % p != rhs % p
    ]


# ---------------------------------------------------------------------------
# Exact and float values from the wire format


def cyclotomic_coeffs(L: int) -> list:
    """Integer coefficients of the L-th cyclotomic polynomial, lowest first."""
    num = [-1] + [0] * (L - 1) + [1]
    for e in range(1, L):
        if L % e == 0:
            num = _exact_div(num, cyclotomic_coeffs(e))
    return num


def _exact_div(num: list, den: list) -> list:
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for shift in range(len(q) - 1, -1, -1):
        lead = num[shift + len(den) - 1] // den[-1]
        q[shift] = lead
        for i, c in enumerate(den):
            num[shift + i] -= lead * c
    if any(num):
        raise ArithmeticError("inexact division")
    return q


def root_power_exact(k: int, L: int) -> list:
    """zeta_L^k reduced modulo Phi_L, as Fractions over the basis 1..zeta^(phi-1)."""
    phi = cyclotomic_coeffs(L)
    deg = len(phi) - 1
    vec = [Fraction(0)] * max(k % L + 1, deg)
    vec[k % L] = Fraction(1)
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            vec[i] = Fraction(0)
            for j in range(deg):
                vec[i - deg + j] -= c * phi[j]
    return vec[:deg]


def wire_exact(obj) -> tuple:
    return int(obj["order"]), [Fraction(int(n), int(d)) for n, d in obj["coeffs"]]


def wire_complex(obj) -> complex:
    L, coeffs = wire_exact(obj)
    return sum(
        complex(float(c)) * cmath.exp(2j * cmath.pi * i / L)
        for i, c in enumerate(coeffs) if c
    )


def wire_is_zero(obj) -> bool:
    return not any(wire_exact(obj)[1])


def roots(d: int) -> np.ndarray:
    return np.exp(2j * np.pi * np.arange(d) / d)


# ---------------------------------------------------------------------------
# Checks, one per kind of output


def check_relation_values(terms_wire, d: int, arity: int, tuples) -> list:
    """Float check that a polynomial, given as {exponents: wire coefficient},
    is lambda_0 = 1 on the relation's tuples and lambda_1 = zeta_d off them."""
    points = np.array(list(itertools.product(range(d), repeat=arity)), dtype=np.int64)
    values = np.zeros(len(points), dtype=complex)
    for exps, coeff in terms_wire.items():
        phase = (points @ np.array(exps, dtype=np.int64)) % d
        values += wire_complex(coeff) * roots(d)[phase]
    member = np.array([tuple(t) in tuples for t in points.tolist()])
    expected = np.where(member, 1.0 + 0j, roots(d)[1 % d])
    err = float(np.max(np.abs(values - expected))) if len(points) else 0.0
    if not err < 1e-9:
        return [f"polynomial misses the indicator by {err:.3e} in floats"]
    return []


def check_point_value(value_wire, d: int, member: bool) -> list:
    """Exact check of one evaluation: zeta_d^0 on members, zeta_d^1 off them."""
    L, coeffs = wire_exact(value_wire)
    k = 0 if member else 1
    if L != d or coeffs != root_power_exact(k, d):
        return [f"value at a {'member' if member else 'non-member'} point is not zeta_{d}^{k}"]
    return []


def membership_value(S, d: int, x: complex) -> complex:
    """Value of prod_{k in S} (zeta_d^k - x) + 1 at x."""
    out = 1 + 0j
    for k in S:
        out *= roots(d)[k] - x
    return out + 1


def check_inverse_witness(S, d: int, q_wire, c_wire) -> list:
    """p(w) * q(w) = c != 0 at every d-th root of unity w, where
    p = dom(S) - dom(complement of S) is built here from its definition."""
    problems = []
    if wire_is_zero(c_wire):
        problems.append("witness constant is zero")
    comp = [k for k in range(d) if k not in S]
    q = [wire_complex(c) for c in q_wire["coeffs"]]
    c = wire_complex(c_wire)
    for w in roots(d):
        p = membership_value(S, d, w) - membership_value(comp, d, w)
        qv = sum(ci * w ** i for i, ci in enumerate(q))
        if abs(p * qv - c) > 1e-8 * max(1.0, abs(c), abs(p * qv)):
            problems.append(f"p*q != c at a root of unity (|p*q - c| = {abs(p * qv - c):.3e})")
            break
    return problems


def check_survives(domains, solution: dict) -> list:
    """Every value of a known solution must survive propagation."""
    lost = sorted(v for v, a in solution.items() if a not in domains.get(v, ()))
    if lost:
        return [f"propagation removed solution values of {', '.join(lost[:3])}"]
    return []


def check_unitary_diagonalizes(U, mats, tol: float = 1e-7) -> list:
    """U unitary and U A U* diagonal for each A, within tol times the scale."""
    U = np.asarray(U)
    n = U.shape[0]
    problems = []
    if np.linalg.norm(U @ U.conj().T - np.eye(n)) > tol * n:
        problems.append("U is not unitary")
    for i, A in enumerate(mats):
        D = U @ A @ U.conj().T
        off = D - np.diag(np.diag(D))
        if np.linalg.norm(off) > tol * max(1.0, float(np.linalg.norm(A))):
            problems.append(f"U A_{i} U* is not diagonal")
            break
    return problems


def check_operator_spectrum(mats, d: int, tol: float = 1e-7) -> list:
    """Operators carried into a d-element domain must have order d."""
    for v, M in mats.items():
        n = M.shape[0]
        if np.linalg.norm(np.linalg.matrix_power(M, d) - np.eye(n)) > tol * n:
            return [f"transported operator {v} does not have order {d}"]
    return []


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diag(R) / np.abs(np.diag(R)))
