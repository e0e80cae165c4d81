"""Each of the benchmark's checks flags a wrong answer and passes a right one.

    python3 -m pytest -q perfbench
"""

import random
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import algebra  # noqa: E402
import checks  # noqa: E402
import common  # noqa: E402
import linear  # noqa: E402
import operators as operators_workload  # noqa: E402
import refute  # noqa: E402
from opcsp import certificates, consistency, csp_core, fourier, gap_instances  # noqa: E402
from opcsp.consistency import SlacResult  # noqa: E402


def test_gauss_finds_solutions_and_refutes_the_magic_square():
    magic = gap_instances.magic_square()
    rows = linear.equations_of(magic, {})
    assert rows is not None
    assert checks.solve_mod_p(rows, len(magic.variables), 2) is None
    eqs = [([1, 1, 0], 1), ([0, 1, 1], 0)]
    x = checks.solve_mod_p(eqs, 3, 3)[0]
    assert checks.residuals_mod_p(eqs, x, 3) == []
    assert checks.residuals_mod_p(eqs, [(x[0] + 1) % 3, x[1], x[2]], 3) == [0]


def test_linear_equation_reader_rejects_other_relations():
    assert checks.linear_equation_of({(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)}, 3, 2) == 1
    assert checks.linear_equation_of({(0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 0)}, 3, 2) is None
    assert checks.linear_equation_of({(0, 0), (1, 1), (0, 1)}, 2, 2) is None


def test_survival_flags_a_removed_solution_value():
    solution = {"x": 1, "y": 0}
    assert checks.check_survives({"x": {0, 1}, "y": {0}}, solution) == []
    assert checks.check_survives({"x": {0}, "y": {0}}, solution)


def test_relation_polynomial_checks_flag_a_wrong_coefficient():
    rel = gap_instances.parity_relation(1)
    poly = fourier.relation_polynomial(rel)
    wire = {e: c.to_obj() for e, c in poly.terms.items()}
    assert checks.check_relation_values(wire, 2, 3, rel.tuples) == []
    exps = next(iter(wire))
    wrong = dict(wire)
    wrong[exps] = {"order": 2, "coeffs": [[7, 3]]}
    assert checks.check_relation_values(wrong, 2, 3, rel.tuples)
    assert checks.check_relation_values(wire, 2, 3, gap_instances.parity_relation(0).tuples)


def test_point_value_is_checked_exactly():
    zeta3 = {"order": 3, "coeffs": [[0, 1], [1, 1]]}
    assert checks.check_point_value(zeta3, 3, member=False) == []
    assert checks.check_point_value(zeta3, 3, member=True)
    assert checks.check_point_value({"order": 2, "coeffs": [[-1, 1]]}, 2, member=False) == []
    assert checks.check_point_value({"order": 3, "coeffs": [[0, 1], [1, 2]]}, 3, member=False)


def test_inverse_witness_check_flags_a_wrong_constant():
    S, d = frozenset({0, 2}), 5
    q, c = fourier.dom_difference_inverse(S, d)
    assert checks.check_inverse_witness(sorted(S), d, q.to_obj(), c.to_obj()) == []
    doubled = {"order": 1, "coeffs": [[2, 1]]}
    assert checks.check_inverse_witness(sorted(S), d, q.to_obj(), doubled)
    zero = {"order": 1, "coeffs": [[0, 1]]}
    assert checks.check_inverse_witness(sorted(S), d, q.to_obj(), zero)


def test_diagonalization_check_flags_non_unitary_and_non_diagonal():
    rng = np.random.default_rng(0)
    U = checks.random_unitary(4, rng)
    D = np.diag(np.exp(2j * np.pi * np.arange(4) / 4))
    A = U.conj().T @ D @ U
    assert checks.check_unitary_diagonalizes(U, [A]) == []
    assert checks.check_unitary_diagonalizes(2 * U, [A])
    assert checks.check_unitary_diagonalizes(np.eye(4), [A])


def test_spectrum_check_flags_the_wrong_order():
    Z = np.diag([1.0, -1.0]).astype(complex)
    assert checks.check_operator_spectrum({"z": Z}, 2) == []
    assert checks.check_operator_spectrum({"z": Z}, 3)


def _contradiction():
    lang = refute.language("shift", 3)
    variables, cons, _ = refute.planted("shift", 3, 8, 8, True, random.Random(5))
    return csp_core.make_instance(3, variables, cons, dict(lang.relations))


def test_refute_checks_flag_wrong_verdicts_and_lost_solutions():
    inst = _contradiction()
    case = {"inst": inst, "solution": None}
    out = refute._audit(case)()
    assert refute._check_audit(case)(out) == (True, [])
    full = SlacResult({v: frozenset(range(3)) for v in inst.variables}, True, {})
    assert refute._check_audit(case)((full, None, None))[0] is False
    planted = {"inst": inst, "solution": {v: 0 for v in inst.variables}}
    shrunk = SlacResult({v: frozenset({1}) for v in inst.variables}, True, {})
    verdict_ok, problems = refute._check_audit(planted)((shrunk, None, None))
    assert verdict_ok and problems


def test_every_tampering_is_rejected():
    inst = _contradiction()
    cert = certificates.build_certificate(inst, consistency.slac(inst))
    for how in refute.TAMPERS:
        bad = certificates.GapCertificate.from_obj(refute.tamper(cert.to_obj(), how))
        assert not certificates.check_certificate(inst, bad).accepted, how


def test_magic_square_check_flags_shrunk_domains():
    magic = gap_instances.magic_square()
    rows = linear.equations_of(magic, {})
    system = {"inst": magic, "eqs": None, "rows": rows, "space": None}
    full = SlacResult({v: frozenset({0, 1}) for v in magic.variables}, True, {})
    assert linear._check_slac(system)(full) == (True, [])
    shrunk = SlacResult({**full.domains, "x1": frozenset({0})}, True, {})
    assert linear._check_slac(system)(shrunk)[1]
    solvable = dict(system, space=([0] * 9, []))
    assert linear._check_slac(solvable)(full)[1]


def test_load_check_flags_a_different_instance():
    magic = gap_instances.magic_square()
    system = {"inst": magic}
    loaded = csp_core.load_instance(csp_core.serialize_instance(magic))
    assert linear._check_load(system)(loaded) == (True, [])
    assert linear._check_load(system)(_contradiction())[1]


def test_algebra_certificate_check_flags_a_rejection():
    inst = algebra.shift_cycle(5, random.Random(1))
    out = common.audit(inst)
    assert algebra._check_certificate(inst)(out) == (True, [])
    result, _, text = out
    rejected = certificates.CheckResult(False, ("collapse", 0), "tampered")
    assert algebra._check_certificate(inst)((result, rejected, text))[1]
    consistent = SlacResult({v: frozenset(range(5)) for v in inst.variables}, True, {})
    assert algebra._check_certificate(inst)((consistent, None, None))[0] is False


def test_operator_verdict_check_flags_a_wrong_verdict():
    magic = gap_instances.magic_square()
    good = operators_workload._verify(magic, gap_instances.pauli_fixture())()
    assert operators_workload._check_verdict("SATISFYING")(good) == (True, [])
    assert operators_workload._check_verdict("VIOLATING")(good)[0] is False
    bad = operators_workload._verify(magic, operators_workload.perturbed(
        gap_instances.pauli_fixture(), np.random.default_rng(0)))()
    assert operators_workload._check_verdict("SATISFYING")(bad)[0] is False
