"""Matrix-side checks: normal order, polynomial evaluation, verification,
simultaneous diagonalization, and the randomized implication probe."""

import json
from collections import Counter

import numpy as np
import pytest

from opcsp import operators
from opcsp.csp_core import Relation, make_instance
from opcsp.cyclotomic import CycNum, UniPoly, embed
from opcsp.fourier import MultiPoly
from opcsp.operators import (
    OperatorAssignment,
    apply_unipoly_matrix,
    check_normal_order,
    embed_classical,
    eval_multipoly_matrix,
    fro,
    operator_assignment_from_json,
    operator_assignment_from_obj,
    operator_assignment_to_json,
    operator_assignment_to_obj,
    operator_implication_probe,
    random_unitary,
    simultaneous_diagonalize,
    verify_assignment,
)
from opcsp.gap_instances import (
    linear_system_instance,
    magic_square,
    parse_linear_system,
    pauli_fixture,
)

from helpers import iter_solutions

Z = np.array([[1, 0], [0, -1]], dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def test_check_normal_order_examples():
    assert check_normal_order(np.diag([1, -1]), 2) == (0.0, 0.0)
    lam = np.exp(1j * np.pi)
    res = check_normal_order(lam * np.eye(3), 2)
    assert res[0] == 0.0 and res[1] < 1e-12
    nilpotent = np.array([[0, 1], [0, 0]], dtype=complex)
    normality, _ = check_normal_order(nilpotent, 2)
    assert abs(normality - np.sqrt(2)) < 1e-12


def test_check_normal_order_rejects_non_square():
    with pytest.raises(ValueError):
        check_normal_order(np.ones((2, 3)), 2)


def test_eval_multipoly_matrix_examples():
    poly = MultiPoly(2, ("x", "y", "z"), {(1, 1, 1): 1})
    mats = [np.diag([1, -1]), np.diag([-1, 1]), np.diag([-1, -1])]
    assert fro(eval_multipoly_matrix(poly, mats) - np.eye(2)) < 1e-12
    const = MultiPoly.constant(1, 2, ("x",))
    assert fro(eval_multipoly_matrix(const, [X]) - np.eye(2)) < 1e-12
    pair = MultiPoly(2, ("x", "y"), {(1, 1): 1})
    got = eval_multipoly_matrix(pair, [np.kron(Z, I2), np.kron(I2, Z)])
    assert fro(got - np.diag([1, -1, -1, 1])) < 1e-12


def test_verify_assignment_pauli_fixture_satisfying():
    inst = magic_square()
    fixture = OperatorAssignment(4, pauli_fixture())
    report = verify_assignment(inst, fixture, tol=1e-8)
    assert report.verdict == "SATISFYING"
    assert report.max_residual < 1e-9


def test_verify_assignment_identity_violates():
    inst = magic_square()
    ident = OperatorAssignment(4, {v: np.eye(4) for v in inst.variables})
    report = verify_assignment(inst, ident, tol=1e-8)
    assert report.verdict == "VIOLATING"
    # the odd-parity constraint evaluates to -I, so its residual is |I - (-I)|
    worst_label, worst = report.worst_offender
    assert worst_label.startswith("polynomial")
    assert abs(worst - fro(2 * np.eye(4))) < 1e-12


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_verify_assignment_non_finite_entry_violates(entry):
    mats = {v: M.copy() for v, M in pauli_fixture().items()}
    mats["x5"][0, 0] = entry
    rep = verify_assignment(magic_square(), OperatorAssignment(4, mats))
    assert rep.verdict == "VIOLATING"
    label, worst = rep.worst_offender
    assert label == "normality x5" and not np.isfinite(worst)
    assert not np.isfinite(rep.max_residual)


def test_verify_missing_variable_raises():
    inst = magic_square()
    partial = OperatorAssignment(2, {"x1": Z})
    with pytest.raises(KeyError):
        verify_assignment(inst, partial)


def test_embed_classical_round_trips_to_satisfying():
    inst = make_instance(
        2, ["x", "y"], [(("x", "y"), "neq")], {"neq": [(0, 1), (1, 0)]}
    )
    sols = [{"x": 0, "y": 1}, {"x": 1, "y": 0}]
    assignment = embed_classical(sols, 2)
    assert assignment.dim == 2
    report = verify_assignment(inst, assignment)
    assert report.verdict == "SATISFYING"
    single = embed_classical(sols[:1], 2)
    assert verify_assignment(inst, single).verdict == "SATISFYING"


def test_embed_classical_mismatched_instance_violates():
    inst = make_instance(2, ["x", "y"], [(("x", "y"), "eq")], {"eq": [(0, 0), (1, 1)]})
    wrong = embed_classical([{"x": 0, "y": 1}], 2)
    assert verify_assignment(inst, wrong).verdict == "VIOLATING"


def test_embed_classical_empty_raises():
    with pytest.raises(ValueError):
        embed_classical([], 2)


def test_diagonal_verification_matches_classical_validation():
    import random
    from itertools import product as iproduct

    from opcsp.csp_core import validate_assignment

    rng = random.Random(17)
    for _ in range(100):
        d = rng.choice([2, 3])
        nvars = rng.randint(2, 4)
        variables = [f"v{i}" for i in range(nvars)]
        universe = list(iproduct(range(d), repeat=2))
        rel = Relation(2, d, frozenset(rng.sample(universe, rng.randint(1, len(universe)))))
        ncons = rng.randint(1, 3)
        constraints = [
            (tuple(rng.sample(variables, 2)), "r") for _ in range(ncons)
        ]
        inst = make_instance(d, variables, constraints, {"r": rel})
        dim = rng.randint(1, 4)
        slots = [{v: rng.randrange(d) for v in variables} for _ in range(dim)]
        assignment = OperatorAssignment(
            dim,
            {
                v: np.diag([np.exp(2j * np.pi * s[v] / d) for s in slots])
                for v in variables
            },
        )
        report = verify_assignment(inst, assignment)
        classical = all(validate_assignment(inst, s) for s in slots)
        assert (report.verdict == "SATISFYING") == classical


def test_apply_unipoly_identity_and_interpolant():
    p = UniPoly.x()
    A = np.array([[1, 2], [3, 4]], dtype=complex)
    assert fro(apply_unipoly_matrix(p, A) - A) < 1e-12
    # interpolant sending 1 -> 1 and -1 -> i
    from fractions import Fraction

    half = CycNum.from_rational(Fraction(1, 2))
    i = embed(1, 4)
    interp = UniPoly([half * (1 + i), half * (1 - i)])
    got = apply_unipoly_matrix(interp, np.diag([1, -1]))
    assert fro(got - np.diag([1, 1j])) < 1e-12
    # squaring a self-inverse diagonal gives the identity
    assert fro(apply_unipoly_matrix(UniPoly([0, 0, 1]), Z) - np.eye(2)) < 1e-12


def test_apply_unipoly_commutes_with_conjugation():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        U = random_unitary(n, rng)
        A = np.diag(np.exp(2j * np.pi * rng.integers(0, 4, n) / 4))
        A = U @ A @ U.conj().T
        p = UniPoly([CycNum.from_rational(int(c)) for c in rng.integers(-3, 4, 4)])
        V = random_unitary(n, rng)
        left = V @ apply_unipoly_matrix(p, A) @ V.conj().T
        right = apply_unipoly_matrix(p, V @ A @ V.conj().T)
        assert fro(left - right) <= 1e-8 * max(1.0, fro(left))


def test_simultaneous_diagonalize_diagonal_inputs():
    mats = [np.diag([1, -1, 1, -1]), np.diag([1, 1, -1, -1])]
    U, diags = simultaneous_diagonalize(mats)
    for M, D in zip(mats, diags):
        assert fro(U @ M @ U.conj().T - D) < 1e-10
        assert fro(D - np.diag(np.diag(D))) < 1e-10


def test_simultaneous_diagonalize_pair_of_equal_x():
    U, diags = simultaneous_diagonalize([X, X])
    for D in diags:
        assert np.allclose(np.sort(np.diag(D).real), [-1.0, 1.0], atol=1e-10)
        assert fro(U @ X @ U.conj().T - D) < 1e-10


def test_simultaneous_diagonalize_random_commuting_families():
    rng = np.random.default_rng(42)
    for trial in range(100):
        n = int(rng.integers(2, 17))
        k = int(rng.integers(1, 5))
        U = random_unitary(n, rng)
        mats = []
        for _ in range(k):
            # few distinct eigenvalues force degenerate blocks
            eigs = rng.choice([1, -1, 1j, -1j, 0.5 + 0.5j], size=n)
            mats.append(U @ np.diag(eigs) @ U.conj().T)
        W, diags = simultaneous_diagonalize(mats, seed=trial)
        scale = max(1.0, max(fro(M) for M in mats))
        for M, D in zip(mats, diags):
            assert fro(W @ M @ W.conj().T - D) <= 1e-8 * scale
            assert fro(W @ W.conj().T - np.eye(n)) <= 1e-10 * n


def test_simultaneous_diagonalize_rejects_non_commuting():
    with pytest.raises(ValueError, match="commute"):
        simultaneous_diagonalize([X, Z])


def test_simultaneous_diagonalize_rejects_a_family_it_cannot_diagonalize():
    """|[A1, A2]|_F = 1.41e-8 is within tol*s^2 = 2e-8, but no unitary
    diagonalizes both within tol*s = 1.41e-8: the best one found leaves
    residuals of 7.1e-6 and 1.4e-6."""
    A1, A2 = np.diag([1, 1 + 1e-5]), 1e-3 * X
    with pytest.raises(ValueError, match="matrix 0 does not commute with the others within tolerance"):
        simultaneous_diagonalize([A1, A2])


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_simultaneous_diagonalize_rejects_non_finite(entry):
    bad = Z.copy()
    bad[1, 1] = entry
    with pytest.raises(ValueError, match="matrix 1 has a NaN or inf entry"):
        simultaneous_diagonalize([Z, bad])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simultaneous_diagonalize_rejects_overflowing_residual():
    # finite entries whose normality residual overflows to NaN
    with pytest.raises(ValueError, match="not normal"):
        simultaneous_diagonalize([1e200 * X])


def test_simultaneous_diagonalize_splits_blocks_the_mix_joins():
    """With seed 0 the mix is sum_k c_k H_k over the parts (H_A, K_A, H_B, K_B),
    for c = default_rng(0).standard_normal(4).  A = diag(0, c2) and
    B = diag(0, -c0) are real, so K_A = K_B = 0 and the mix is 0: it leaves
    one block of size 2, on which A is not scalar.  Conjugating by a random
    unitary keeps the mix's eigenbasis from diagonalizing A by accident."""
    c = np.random.default_rng(0).standard_normal(4)
    V = random_unitary(2, np.random.default_rng(1))
    plain = [np.diag([0, c[2]]), np.diag([0, -c[0]])]
    mats = [V @ M @ V.conj().T for M in plain]
    U, diags = simultaneous_diagonalize(mats, seed=0)
    assert fro(U @ U.conj().T - I2) <= 1e-12
    for M, D, P in zip(mats, diags, plain):
        assert fro(U @ M @ U.conj().T - D) <= 1e-12
        assert np.allclose(sorted(np.diag(D).real), sorted(np.diag(P)), atol=1e-12)


def test_simultaneous_diagonalize_refines_next_to_a_joint_eigenspace():
    """As above, the mix of diag(0, c2) and diag(0, -c0) is 0 on the first two
    slots, so the fast path fails and every block of size > 1 is refined,
    including the genuine joint eigenspace of (5, 7), on which every input is
    already scalar.  The refined basis must still diagonalize both inputs."""
    c = np.random.default_rng(0).standard_normal(4)
    V = random_unitary(4, np.random.default_rng(1))
    plain = [np.diag([0, c[2], 5, 5]), np.diag([0, -c[0], 7, 7])]
    mats = [V @ M @ V.conj().T for M in plain]
    U, diags = simultaneous_diagonalize(mats, seed=0)
    assert fro(U @ U.conj().T - np.eye(4)) <= 1e-12
    scale = max(fro(M) for M in mats)
    for M, D in zip(mats, diags):
        assert fro(U @ M @ U.conj().T - D) <= 1e-12 * scale
    pairs = sorted(zip(np.diag(diags[0]).real, np.diag(diags[1]).real))
    expected = sorted([(0, 0), (c[2], -c[0]), (5, 7), (5, 7)])
    assert np.allclose(pairs, expected, atol=1e-12)


def joint_roots(diags, d: int) -> list:
    """Per eigenvector, the tuple of root indices k of its diagonal entries."""
    columns = np.array([np.diag(D) for D in diags]).T
    return [tuple(int(round(np.angle(z) * d / (2 * np.pi))) % d for z in col) for col in columns]


def test_simultaneous_diagonalize_degenerate_embedded_solutions():
    """Classical solutions drawn with repeats, embedded and conjugated as in
    the operators benchmark, leave blocks of size > 1 after the mix, which no
    part can split.  Every joint eigenvalue tuple comes back with the
    multiplicity of its solution, within tolerance of its roots of unity."""
    rng = np.random.default_rng(3)
    inst = linear_system_instance(parse_linear_system("x0 + x1 + x2 = 1\nx2 + x3 = 2\n", 3))
    solutions = list(iter_solutions(inst))
    for dim in (6, 24, 64):
        drawn = [solutions[k] for k in rng.integers(len(solutions), size=dim)]
        plain = embed_classical(drawn, 3)
        names = sorted(plain.assign)
        V = random_unitary(dim, rng)
        mats = [V @ plain[v] @ V.conj().T for v in names]
        U, diags = simultaneous_diagonalize(mats, seed=dim)
        assert fro(U @ U.conj().T - np.eye(dim)) <= 1e-10 * dim
        for M, D in zip(mats, diags):
            assert fro(U @ M @ U.conj().T - D) <= 1e-8
        joint = joint_roots(diags, 3)
        assert Counter(joint) == Counter(tuple(s[v] for v in names) for s in drawn)
        assert len(set(joint)) < dim  # some joint eigenspace has dimension > 1
        for j, point in enumerate(joint):
            for D, k in zip(diags, point):
                assert abs(D[j, j] - np.exp(2j * np.pi * k / 3)) <= 1e-8


def test_probe_single_variable_implication():
    x2_minus_1 = MultiPoly(2, ("x",), {(0,): -1})  # x^2 - 1 reduces to 1 - 1... build explicitly
    # over d=2 exponents reduce mod 2, so represent x**2 - 1 as the zero map;
    # use x - 1 implies x**2 - 1 at d=4 instead to keep the powers visible
    prem = MultiPoly(4, ("x",), {(1,): 1, (0,): -1})  # x - 1
    conc = MultiPoly(4, ("x",), {(2,): 1, (0,): -1})  # x^2 - 1
    assert operator_implication_probe([prem], conc, trials=20, n=4, seed=5)


def test_probe_whole_domain_polynomial():
    for d in (2, 3):
        poly = MultiPoly.constant(1, d, ("x",))
        x = MultiPoly(d, ("x",), {(1,): 1})
        prod = MultiPoly.constant(1, d, ("x",))
        for k in range(d):
            prod = prod * (MultiPoly.constant(embed(k, d), d, ("x",)) - x)
        assert operator_implication_probe([], prod, trials=10, n=5, seed=1)


def test_probe_rejects_failing_premise():
    prem = MultiPoly(2, ("x",), {(1,): 1, (0,): -1})  # x - 1
    bad = MultiPoly(2, ("x",), {(1,): 1, (0,): 1})  # x + 1, fails at x = 1
    with pytest.raises(ValueError, match="not applicable"):
        operator_implication_probe([prem], bad, trials=5)


def test_verify_assignment_computes_each_relation_polynomial_once(monkeypatch):
    calls = []
    original = operators.relation_polynomial

    def counting(rel):
        calls.append(rel)
        return original(rel)

    monkeypatch.setattr(operators, "relation_polynomial", counting)
    # a relation no other test builds, so that the cache starts without it
    rel = Relation(3, 3, frozenset({(0, 1, 2), (2, 1, 0), (2, 0, 1), (2, 2, 2)}))
    scopes = [(("a", "b", "c"), "r"), (("c", "b", "a"), "r")]
    inst = make_instance(3, ["a", "b", "c"], scopes, {"r": rel})
    assignment = embed_classical([{"a": 0, "b": 1, "c": 2}, {"a": 2, "b": 2, "c": 2}], 3)
    reports = [verify_assignment(inst, assignment).lines() for _ in range(3)]
    assert len(calls) == 1
    assert reports[0] == reports[1] == reports[2]
    assert reports[0][-1] == "verdict: SATISFYING"


def pauli_document() -> dict:
    return operator_assignment_to_obj(OperatorAssignment(4, pauli_fixture()))


def malformed_documents():
    """(label, document) for each shape the reader must reject."""
    yield "top level a list", []
    doc = pauli_document()
    for label, dim in (("dim null", None), ("dim true", True), ("dim 1.0", 4.0), ("dim 0", 0)):
        yield label, {**doc, "dim": dim}
    yield "assign a list", {**doc, "assign": []}
    yield "missing assign", {"dim": 4}
    x5 = doc["assign"]["x5"]

    def first(entry):
        return [[entry, *x5[0][1:]], *x5[1:]]

    for label, rows in (
        ("entry a number", first(1)),
        ("entry a triple", first([1, 0, 0])),
        ("entry holds a bool", first([True, 0])),
        ("entry holds a string", first(["1", 0])),
        ("entry beyond the float range", first([10 ** 400, 0])),
        ("short row", [x5[0], x5[1][:-1], *x5[2:]]),
        ("missing row", x5[:-1]),
        ("matrix an object", {}),
        ("empty matrix", []),
    ):
        yield label, {**doc, "assign": {**doc["assign"], "x5": rows}}


MALFORMED = dict(malformed_documents())


@pytest.mark.parametrize("label", list(MALFORMED))
def test_operator_assignment_reader_rejects_malformed_documents(label):
    document = MALFORMED[label]
    with pytest.raises(ValueError, match="operator"):
        operator_assignment_from_obj(document)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_operator_assignment_reader_keeps_non_finite_entries():
    doc = json.loads(operator_assignment_to_json(OperatorAssignment(4, pauli_fixture())).replace(
        "1.0", "NaN", 1))
    assignment = operator_assignment_from_obj(doc)
    assert np.isnan(assignment.assign[sorted(assignment.assign)[0]]).sum() == 1
    assert verify_assignment(magic_square(), assignment).verdict == "VIOLATING"


def test_operator_assignment_document_round_trip():
    fixture = OperatorAssignment(4, pauli_fixture())
    text = operator_assignment_to_json(fixture)
    again = operator_assignment_from_json(text)
    assert again.dim == 4
    for v, M in fixture.assign.items():
        assert fro(M - again[v]) < 1e-12
