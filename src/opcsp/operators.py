"""Finite-dimensional operator assignments: normality and order checks,
polynomial evaluation on commuting matrices, verification reports,
simultaneous diagonalization of commuting normal families, and diagonal
embeddings of classical solutions.

Exact CycNum coefficients cross into complex doubles only here.
"""

from __future__ import annotations

import json
import math
import sys
import weakref
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .csp_core import Instance, Relation, _positive_int
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
    powers = []
    for M, m in zip(mats, top):
        row = [np.eye(n, dtype=complex)]
        for _ in range(m):
            row.append(row[-1] @ M)
        powers.append(row)
    out = np.zeros((n, n), dtype=complex)
    for exps, coeff in terms:
        term = np.eye(n, dtype=complex) * coeff
        for j, e in enumerate(exps):
            if e:
                term = term @ powers[j][e]
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
    return json.dumps(operator_assignment_to_obj(A), sort_keys=True, indent=1)


def operator_assignment_from_obj(obj) -> OperatorAssignment:
    """Read an assignment document: an object with an integer `dim` >= 1 and
    an `assign` object mapping each variable to `dim` rows of `dim`
    [re, im] number pairs.  NaN and inf entries are read as they are, for
    verification to report; any other shape raises ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("operator document must be an object")
    dim = obj.get("dim")
    if not _positive_int(dim):
        raise ValueError(f"operator document: dim must be an integer >= 1, got {dim!r}")
    if not isinstance(obj.get("assign"), dict):
        raise ValueError("operator document: assign must be an object")
    assign = {}
    for v, rows in obj["assign"].items():
        if not _pair_matrix(rows, dim):
            raise ValueError(
                f"operator for {v!r} must be a {dim}x{dim} matrix of [re, im] number pairs"
            )
        assign[v] = np.array([[complex(re, im) for re, im in row] for row in rows])
    return OperatorAssignment(dim, assign)


def _pair_matrix(rows, dim: int) -> bool:
    """Whether `rows` is `dim` lists of `dim` [re, im] pairs of floats or of
    ints within the float range (a larger int would overflow in complex())."""

    def sized(x, length: int) -> bool:
        return isinstance(x, list) and len(x) == length

    def number(y) -> bool:
        return type(y) is float or (type(y) is int and abs(y) <= sys.float_info.max)

    def pair(x) -> bool:
        return sized(x, 2) and all(map(number, x))

    return sized(rows, dim) and all(sized(row, dim) and all(map(pair, row)) for row in rows)


def operator_assignment_from_json(text: str) -> OperatorAssignment:
    return operator_assignment_from_obj(json.loads(text))


# ---------------------------------------------------------------------------
# Verification


@dataclass
class VerificationReport:
    tol: float
    normality: list = field(default_factory=list)  # (var, normality res, order res)
    commutation: list = field(default_factory=list)  # (constraint idx, u, w, res)
    polynomial: list = field(default_factory=list)  # (constraint idx, res)

    def _residuals(self):
        """(label, residual) for every check, in report order."""
        for v, a, b in self.normality:
            yield f"normality {v}", a
            yield f"order {v}", b
        for ci, u, w, r in self.commutation:
            yield f"commutation c{ci} {u},{w}", r
        for ci, r in self.polynomial:
            yield f"polynomial c{ci}", r

    @property
    def worst_offender(self) -> tuple[str, float]:
        """The largest residual and its label; the first NaN or inf outranks
        every finite residual."""
        label, worst = "none", 0.0
        for name, r in self._residuals():
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
        out = [f"tol: {self.tol:g}"]
        for v, a, b in self.normality:
            out.append(f"normal {v} {a:.3e} {b:.3e}")
        for ci, u, w, r in self.commutation:
            out.append(f"commute c{ci} {u} {w} {r:.3e}")
        for ci, r in self.polynomial:
            out.append(f"poly c{ci} {r:.3e}")
        label, worst = self.worst_offender
        out.append(f"worst: {label} {worst:.3e}")
        out.append(f"verdict: {self.verdict}")
        return out


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
        report.normality.append((v, a, b))
    for ci, c in enumerate(inst.constraints):
        mats = [A[v] for v in c.scope]
        for i in range(len(c.scope)):
            for j in range(i + 1, len(c.scope)):
                res = commutator_norm(mats[i], mats[j])
                report.commutation.append((ci, c.scope[i], c.scope[j], res))
        rel = inst.language[c.rel]
        value = _eval_terms(_relation_terms(rel), rel.arity, mats)
        report.polynomial.append((ci, fro(value - np.eye(A.dim))))
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
    separates distinct joint eigenvalue tuples.  Then tests each block of
    size > 1 against every input matrix: where U A_i U^-1 restricted to the
    block is scalar within half the clustering tolerance of A_i's parts, no
    part can split the block.  Only blocks that fail this test, which happens
    when the combination's eigenvalues collide, are split further on the
    eigenvalues of each part in turn.
    Raises if the inputs fail commutation or normality beyond tol, or hold
    NaN or inf.
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
    bound = tol * scale * scale
    for i, M in enumerate(mats):
        # `not <=`, so that a residual that overflows to NaN fails too
        if not fro(M @ M.conj().T - M.conj().T @ M) <= bound:
            raise ValueError(f"matrix {i} is not normal within tolerance")
        for j in range(i + 1, len(mats)):
            if not commutator_norm(M, mats[j]) <= bound:
                raise ValueError(f"matrices {i} and {j} do not commute within tolerance")

    herms: list[np.ndarray] = []
    for M in mats:
        H, K = _hermitian_parts(M)
        herms.append(H)
        herms.append(K)
    rng = np.random.default_rng(seed)
    mix = sum(float(c) * H for c, H in zip(rng.standard_normal(len(herms)), herms))

    def ctol(H: np.ndarray) -> float:
        return max(tol, 1e-12) * max(1.0, fro(H))

    basis = np.eye(n, dtype=complex)

    def refine(blocks: list, H: np.ndarray) -> list:
        out, tol_h = [], ctol(H)
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

    blocks = refine([np.arange(n)], mix)
    # A_i compressed to a block is C_H + i C_K, the compressions of its parts,
    # and |C - tr(C)/k I| >= |C_H - tr(C_H)/k I| >= g / sqrt(2) for an
    # eigenvalue gap g of C_H (likewise C_K).  So within half the smaller part
    # tolerance, no gap exceeds it, and refining on a part would not split.
    U = basis.conj().T
    diags, failed = [], []
    pending = [blk for blk in blocks if len(blk) > 1]
    for M, H, K in zip(mats, herms[0::2], herms[1::2]):
        half = min(ctol(H), ctol(K)) / 2
        T = U @ M @ basis
        scalar = []
        for blk in pending:
            C = T[np.ix_(blk, blk)]
            C[np.diag_indices(len(blk))] -= np.trace(C) / len(blk)
            (scalar if fro(C) <= half else failed).append(blk)
        pending = scalar
        diags.append(np.diag(np.diag(T)))
    if failed:
        for H in herms:
            failed = refine(failed, H)
        U = basis.conj().T
        diags = [np.diag(np.diag(U @ M @ basis)) for M in mats]
    return U, diags


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
