"""Finite-dimensional operator assignments: normality and order checks,
polynomial evaluation on commuting matrices, verification reports,
simultaneous diagonalization of commuting normal families, and diagonal
embeddings of classical solutions.

Exact CycNum coefficients cross into complex doubles only here.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .csp_core import (Instance, InstanceFormatError, Relation, _int, _list, _object, _real,
                       read_document, write_document)
from .cyclotomic import UniPoly, embed
from .fourier import MultiPoly, relation_polynomial

DEFAULT_TOL = 1e-8


def _as_matrix(A) -> np.ndarray:
    M = np.asarray(A, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("operator must be a square matrix")
    return M


def root_value(k: int, d: int) -> complex:
    return complex(np.exp(2j * np.pi * (k % d) / d))


def fro(A: np.ndarray) -> float:
    return float(np.linalg.norm(A, "fro"))


def check_normal_order(A, d: int) -> tuple[float, float]:
    """Frobenius residuals (|AA* - A*A|, |A^d - I|)."""
    M = _as_matrix(A)
    normality = fro(M @ M.conj().T - M.conj().T @ M)
    order = fro(np.linalg.matrix_power(M, d) - np.eye(M.shape[0]))
    return normality, order


def commutator_norm(A, B) -> float:
    M, N = _as_matrix(A), _as_matrix(B)
    return fro(M @ N - N @ M)


def eval_multipoly_matrix(poly: MultiPoly, mats) -> np.ndarray:
    """Evaluate a polynomial at a tuple of (pairwise commuting) matrices."""
    terms = tuple((exps, coeff.to_complex()) for exps, coeff in poly.terms.items())
    return _eval_terms(terms, len(poly.vars), mats)


def _eval_terms(terms: tuple, arity: int, mats) -> np.ndarray:
    """Sum of coeff * prod_j mats[j]^exps[j] over (exps, complex coeff) terms."""
    mats = [_as_matrix(M) for M in mats]
    if len(mats) != arity:
        raise ValueError("matrix tuple length must match variable count")
    if mats:
        n = mats[0].shape[0]
        if any(M.shape[0] != n for M in mats):
            raise ValueError("matrices must share one dimension")
    else:
        n = 1
    top = [0] * len(mats)
    for exps, _ in terms:
        for j, e in enumerate(exps):
            top[j] = max(top[j], e)
    powers = []  # powers[j][e - 1] is mats[j]^e
    for M, m in zip(mats, top):
        row = [M]
        for _ in range(m - 1):
            row.append(row[-1] @ M)
        powers.append(row)
    out = np.zeros((n, n), dtype=complex)
    for exps, coeff in terms:
        term = None
        for j, e in enumerate(exps):
            if e:
                term = coeff * powers[j][e - 1] if term is None else term @ powers[j][e - 1]
        if term is None:  # a constant term
            out.flat[:: n + 1] += coeff
        else:
            out += term
    return out


def apply_unipoly_matrix(p: UniPoly, A) -> np.ndarray:
    """Horner evaluation of a univariate polynomial at a matrix."""
    M = _as_matrix(A)
    n = M.shape[0]
    out = np.zeros((n, n), dtype=complex)
    for c in reversed(p.coeffs):
        out = out @ M + c.to_complex() * np.eye(n)
    return out


# ---------------------------------------------------------------------------
# Operator assignments


@dataclass
class OperatorAssignment:
    dim: int
    assign: dict  # variable -> ndarray (dim x dim)

    def __post_init__(self):
        fixed = {}
        for v, M in self.assign.items():
            M = _as_matrix(M)
            if M.shape[0] != self.dim:
                raise ValueError(f"operator for {v!r} has dimension {M.shape[0]}, expected {self.dim}")
            fixed[v] = M
        self.assign = fixed

    def __getitem__(self, var: str) -> np.ndarray:
        return self.assign[var]

    def map(self, fn) -> "OperatorAssignment":
        out = {v: _as_matrix(fn(M)) for v, M in self.assign.items()}
        dim = next(iter(out.values())).shape[0] if out else self.dim
        return OperatorAssignment(dim, out)


def embed_classical(solutions, d: int) -> OperatorAssignment:
    """Diagonal direct-sum embedding of classical solutions: variable v gets
    diag over the solutions of the root of unity indexed by s(v)."""
    solutions = list(solutions)
    if not solutions:
        raise ValueError("need at least one classical solution")
    keys = set(solutions[0])
    for s in solutions[1:]:
        if set(s) != keys:
            raise ValueError("solutions must share one variable set")
    assign = {}
    for v in sorted(keys):
        diag = [root_value(s[v], d) for s in solutions]
        assign[v] = np.diag(diag)
    return OperatorAssignment(len(solutions), assign)


def operator_assignment_to_obj(A: OperatorAssignment) -> dict:
    return {
        "dim": A.dim,
        "assign": {
            v: [[[float(x.real), float(x.imag)] for x in row] for row in M]
            for v, M in sorted(A.assign.items())
        },
    }


def operator_assignment_to_json(A: OperatorAssignment) -> str:
    return write_document(operator_assignment_to_obj(A))


def operator_assignment_from_obj(obj) -> OperatorAssignment:
    """Read an assignment document: an object with an integer `dim` >= 1 and
    an `assign` object mapping each variable to `dim` rows of `dim`
    [re, im] number pairs.  NaN and inf entries are read as they are, for
    verification to report; any other shape raises ValueError."""
    try:
        dim = _int(_object(obj, "top level", ("dim", "assign"))["dim"], "dim", 1)
        assign = {}
        for v, rows in _object(obj["assign"], "assign").items():
            what = f"operator for {v!r}"
            pair, part = f"an entry of the {what}", f"a part of an entry of the {what}"
            assign[v] = np.array([
                [complex(*(_real(y, part) for y in _list(x, pair, 2)))
                 for x in _list(row, what, dim)]
                for row in _list(rows, what, dim)
            ])
    except InstanceFormatError as exc:
        raise ValueError(f"operator document: {exc}") from None
    return OperatorAssignment(dim, assign)


def operator_assignment_from_json(text: str) -> OperatorAssignment:
    return operator_assignment_from_obj(read_document(text))


# ---------------------------------------------------------------------------
# Verification


@dataclass
class VerificationReport:
    tol: float
    checks: list = field(default_factory=list)  # (report line, ((label, residual), ...))

    @property
    def worst_offender(self) -> tuple[str, float]:
        """The largest residual and its label; the first NaN or inf outranks
        every finite residual."""
        label, worst = "none", 0.0
        for _, residuals in self.checks:
            for name, r in residuals:
                if not math.isfinite(r):
                    return name, r
                if r > worst:
                    label, worst = name, r
        return label, worst

    @property
    def max_residual(self) -> float:
        return self.worst_offender[1]

    @property
    def verdict(self) -> str:
        return "SATISFYING" if self.max_residual <= self.tol else "VIOLATING"

    def lines(self) -> list[str]:
        label, worst = self.worst_offender
        return [
            f"tol: {self.tol:g}",
            *(line for line, _ in self.checks),
            f"worst: {label} {worst:.3e}",
            f"verdict: {self.verdict}",
        ]


def verify_assignment(inst: Instance, A: OperatorAssignment, tol: float = DEFAULT_TOL) -> VerificationReport:
    """Check an operator assignment against an instance: per-variable
    normality and order, pairwise commutation inside every constraint scope,
    and the characteristic polynomial of every constraint evaluating to the
    identity."""
    report = VerificationReport(tol=tol)
    for v in inst.variables:
        if v not in A.assign:
            raise KeyError(f"assignment is missing variable {v!r}")
        a, b = check_normal_order(A[v], inst.d)
        report.checks.append((f"normal {v} {a:.3e} {b:.3e}",
                              ((f"normality {v}", a), (f"order {v}", b))))
    for ci, c in enumerate(inst.constraints):
        for u, w in combinations(c.scope, 2):
            r = commutator_norm(A[u], A[w])
            report.checks.append((f"commute c{ci} {u} {w} {r:.3e}", ((f"commutation c{ci} {u},{w}", r),)))
    for ci, c in enumerate(inst.constraints):
        rel = inst.language[c.rel]
        r = fro(_eval_terms(_relation_terms(rel), rel.arity, [A[v] for v in c.scope]) - np.eye(A.dim))
        report.checks.append((f"poly c{ci} {r:.3e}", ((f"polynomial c{ci}", r),)))
    return report


# Relation -> its relation polynomial as immutable (exponents, complex
# coefficient) terms; an entry lives as long as its relation.
_RELATION_TERMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _relation_terms(rel: Relation) -> tuple:
    terms = _RELATION_TERMS.get(rel)
    if terms is None:
        poly = relation_polynomial(rel)
        terms = tuple((exps, coeff.to_complex()) for exps, coeff in poly.terms.items())
        _RELATION_TERMS[rel] = terms
    return terms


# ---------------------------------------------------------------------------
# Simultaneous diagonalization


def _hermitian_parts(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    H = (M + M.conj().T) / 2
    K = (M - M.conj().T) / (2j)
    return H, K


def _cluster(values: np.ndarray, tol: float) -> list[np.ndarray]:
    order = np.argsort(values)
    groups = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] <= tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return [np.array(g) for g in groups]


def simultaneous_diagonalize(mats, tol: float = DEFAULT_TOL, seed: int = 0):
    """Common eigenbasis of pairwise commuting normal matrices.

    Returns (U, diags) with U unitary, U A_i U^-1 = diags_i.  Splits the
    space into blocks on the eigenvalues of a random real combination of the
    Hermitian and anti-Hermitian parts; a generic combination already
    separates distinct joint eigenvalue tuples.  If U then fails the final
    check below, which happens only when the combination's eigenvalues
    collide, every block is split further on the eigenvalues of each part in
    turn.

    With s = max(1, max_i |A_i|_F), raises ValueError if an input holds NaN
    or inf, if an input is not normal within tol*s^2, or unless U diagonalizes
    every input within tol*s, |U A_i U^-1 - diags_i|_F <= tol*s: that is how
    a family that does not commute shows.
    """
    mats = [_as_matrix(M) for M in mats]
    if not mats:
        raise ValueError("need at least one matrix")
    n = mats[0].shape[0]
    for i, M in enumerate(mats):
        if M.shape[0] != n:
            raise ValueError("matrices must share one dimension")
        if not np.isfinite(M).all():
            raise ValueError(f"matrix {i} has a NaN or inf entry")
    scale = max(1.0, max(fro(M) for M in mats))
    for i, M in enumerate(mats):
        # `not <=`, so that a residual that overflows to NaN fails too
        if not fro(M @ M.conj().T - M.conj().T @ M) <= tol * scale * scale:
            raise ValueError(f"matrix {i} is not normal within tolerance")

    herms = [P for M in mats for P in _hermitian_parts(M)]  # H_0, K_0, H_1, K_1, ...
    rng = np.random.default_rng(seed)
    mix = sum(float(c) * H for c, H in zip(rng.standard_normal(len(herms)), herms))

    basis = np.eye(n, dtype=complex)

    def refine(blocks: list, H: np.ndarray) -> list:
        out, tol_h = [], max(tol, 1e-12) * max(1.0, fro(H))
        for blk in blocks:
            if len(blk) == 1:
                out.append(blk)
                continue
            sub = basis[:, blk]
            B = sub.conj().T @ H @ sub
            B = (B + B.conj().T) / 2
            w, W = np.linalg.eigh(B)
            basis[:, blk] = sub @ W
            out.extend(blk[g] for g in _cluster(w, tol_h))
        return out

    def split(T: np.ndarray) -> tuple[np.ndarray, float]:
        """T's diagonal as a matrix, and the norm of the rest (zeroed in T)."""
        D = np.diag(np.diag(T))
        np.fill_diagonal(T, 0)
        return D, fro(T)

    blocks = refine([np.arange(n)], mix)
    splits = [split(basis.conj().T @ M @ basis) for M in mats]
    if not all(off <= tol * scale for _, off in splits):
        for H in herms:
            blocks = refine(blocks, H)
        splits = [split(basis.conj().T @ M @ basis) for M in mats]
    for i, (_, off) in enumerate(splits):
        if not off <= tol * scale:
            raise ValueError(f"matrix {i} does not commute with the others within tolerance")
    return basis.conj().T, [D for D, _ in splits]


# ---------------------------------------------------------------------------
# Randomized implication probe


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    phases = np.diag(R).copy()
    phases /= np.abs(phases)
    return Q * phases


def operator_implication_probe(
    premises,
    conclusion: MultiPoly,
    trials: int = 50,
    n: int = 4,
    tol: float = DEFAULT_TOL,
    seed: int = 0,
) -> bool:
    """Sample fully commuting normal order-d tuples and test that whenever the
    premise polynomials vanish, the conclusion does as well.

    The tuples are random unitary conjugations of diagonal root-of-unity
    matrices whose diagonal slots are drawn from the premise-satisfying subset
    of U_d^r, so every trial exercises the implication.  Raises when the
    implication already fails over U_d itself.
    """
    premises = list(premises)
    if premises:
        d = premises[0].d
        variables = premises[0].vars
        for q in premises + [conclusion]:
            if q.d != d or q.vars != variables:
                raise ValueError("premises and conclusion must share domain and variables")
    else:
        d, variables = conclusion.d, conclusion.vars
    r = len(variables)
    satisfying = []
    for point in product(range(d), repeat=r):
        cyc_point = [embed(k, d) for k in point]
        if all(q.eval(cyc_point).is_zero() for q in premises):
            if not conclusion.eval(cyc_point).is_zero():
                raise ValueError(
                    f"implication fails over U_d at point {point}; probe not applicable"
                )
            satisfying.append(point)
    if not satisfying:
        return True  # premises unsatisfiable over U_d: nothing to sample
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        slots = [satisfying[rng.integers(len(satisfying))] for _ in range(n)]
        U = random_unitary(n, rng)
        mats = []
        for j in range(r):
            D = np.diag([root_value(slot[j], d) for slot in slots])
            mats.append(U @ D @ U.conj().T)
        if any(fro(eval_multipoly_matrix(q, mats)) > tol for q in premises):
            return False  # construction failed to satisfy premises: treat as probe failure
        if fro(eval_multipoly_matrix(conclusion, mats)) > 10 * tol:
            return False
    return True
