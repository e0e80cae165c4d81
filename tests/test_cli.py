"""End-to-end CLI runs over temporary document files."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from opcsp.cli import dispatch
from opcsp.csp_core import brute_force_solve, load_instance, make_instance, serialize_instance
from opcsp.gap_instances import magic_square, pauli_fixture
from opcsp.operators import OperatorAssignment, operator_assignment_to_json

from helpers import replaced as _replaced, type_mutations as _type_mutations


@pytest.fixture()
def magic_path(tmp_path):
    path = tmp_path / "magic.inst"
    path.write_text(serialize_instance(magic_square()))
    return str(path)


@pytest.fixture()
def pauli_path(tmp_path):
    path = tmp_path / "pauli.ops"
    fixture = OperatorAssignment(4, pauli_fixture())
    path.write_text(operator_assignment_to_json(fixture))
    return str(path)


def unsat_two_unary(tmp_path):
    inst = make_instance(
        2, ["x"], [(("x",), "only0"), (("x",), "only1")],
        {"only0": [(0,)], "only1": [(1,)]},
    )
    path = tmp_path / "conflict.inst"
    path.write_text(serialize_instance(inst))
    return str(path)


def test_solve_magic_square(magic_path):
    result = dispatch(["solve", magic_path])
    assert result.exit_code == 1
    assert result.stdout.strip() == "UNSAT (512 assignments)"


def test_solve_satisfiable(tmp_path):
    inst = make_instance(2, ["x", "y"], [(("x", "y"), "neq")], {"neq": [(0, 1), (1, 0)]})
    path = tmp_path / "sat.inst"
    path.write_text(serialize_instance(inst))
    result = dispatch(["solve", str(path)])
    assert result.exit_code == 0
    assert result.stdout.splitlines()[0] == "SAT"
    assert "x = 0" in result.stdout


def test_solve_variable_free_instance(tmp_path):
    inst = make_instance(2, [], [], {"neq": [(0, 1), (1, 0)]})
    path = tmp_path / "empty.inst"
    path.write_text(serialize_instance(inst))
    result = dispatch(["solve", str(path)])
    assert result.exit_code == 0
    assert result.stdout == "SAT\n"
    assert result.stderr == ""


def run_module(*argv) -> subprocess.CompletedProcess:
    """`python -m opcsp.cli *argv` in a fresh process, on this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "opcsp.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_solve_deep_d1_instance(tmp_path):
    """3,000 variables over d = 1, chained by equalities: deeper than
    Python's recursion limit, so the search must hold no frame per variable."""
    variables = [f"v{i}" for i in range(3000)]
    inst = make_instance(1, variables, [(s, "eq") for s in zip(variables, variables[1:])], {"eq": [(0, 0)]})
    assert brute_force_solve(inst) == dict.fromkeys(variables, 0)
    path = tmp_path / "deep.inst"
    path.write_text(serialize_instance(inst))
    run = run_module("solve", str(path))
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == "SAT"
    assert "Traceback" not in run.stderr


def test_reduce_core_of_the_d7_empty_language(tmp_path):
    """All 7^7 maps are endomorphisms of the empty language; the core is
    found by a streaming minimum over them, not a list of them."""
    path = tmp_path / "empty7.inst"
    path.write_text(json.dumps({"d": 7, "relations": {}, "variables": ["a"], "constraints": []}))
    result = dispatch(["reduce", "core", str(path)])
    assert result.exit_code == 0, result.stderr
    assert load_instance(result.stdout) == make_instance(1, ["a"], [], {})


def test_slac_magic_square(magic_path, tmp_path):
    trace = tmp_path / "trace.json"
    result = dispatch(["slac", magic_path, "--trace", str(trace)])
    assert result.exit_code == 0
    assert result.stdout.splitlines()[0] == "SLAC-consistent; domains full"
    parsed = json.loads(trace.read_text())
    assert parsed["consistent"] is True


def test_slac_refuted(tmp_path):
    path = unsat_two_unary(tmp_path)
    result = dispatch(["slac", path])
    assert result.exit_code == 1
    assert result.stdout.startswith("SLAC-refuted")


def test_verify_ops_fixture(magic_path, pauli_path):
    result = dispatch(["verify-ops", magic_path, pauli_path])
    assert result.exit_code == 0
    assert "verdict: SATISFYING" in result.stdout


def test_verify_ops_violating(magic_path, tmp_path):
    import numpy as np

    ident = OperatorAssignment(4, {f"x{i}": np.eye(4) for i in range(1, 10)})
    path = tmp_path / "ident.ops"
    path.write_text(operator_assignment_to_json(ident))
    result = dispatch(["verify-ops", magic_path, str(path)])
    assert result.exit_code == 1
    assert "verdict: VIOLATING" in result.stdout


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_verify_ops_rejects_meaningless_tol(magic_path, pauli_path, tol):
    # inf would pass every assignment, nan or a negative bound fail every one
    result = dispatch(["verify-ops", magic_path, pauli_path, "--tol", tol])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: argument --tol:")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_verify_ops_non_finite_entry_violating(magic_path, tmp_path, entry):
    mats = {v: M.copy() for v, M in pauli_fixture().items()}
    mats["x5"][0, 0] = entry
    path = tmp_path / "poisoned.ops"
    path.write_text(operator_assignment_to_json(OperatorAssignment(4, mats)))
    result = dispatch(["verify-ops", magic_path, str(path)])
    assert result.exit_code == 1
    assert "worst: normality x5 " in result.stdout
    assert "verdict: VIOLATING" in result.stdout


def malformed_ops_documents(pauli_path):
    """The Pauli document with one field broken, by label."""
    doc = json.loads(Path(pauli_path).read_text())
    entry = json.loads(json.dumps(doc))
    entry["assign"]["x5"][0][0] = 1
    return {
        "top level a list": [],
        "assign a list": {**doc, "assign": []},
        "dim null": {**doc, "dim": None},
        "dim true": {**doc, "dim": True},
        "entry a number": entry,
    }


@pytest.mark.parametrize(
    "label", ["top level a list", "assign a list", "dim null", "dim true", "entry a number"]
)
def test_verify_ops_rejects_malformed_document(magic_path, pauli_path, tmp_path, label):
    path = tmp_path / "bad.ops"
    path.write_text(json.dumps(malformed_ops_documents(pauli_path)[label]))
    result = dispatch(["verify-ops", magic_path, str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: operator ")
    assert "Traceback" not in result.stderr


def test_audit_not_applicable(magic_path):
    result = dispatch(["audit", magic_path])
    assert result.exit_code == 2
    assert "not applicable" in result.stderr


def test_audit_build_and_check(tmp_path):
    path = unsat_two_unary(tmp_path)
    cert_path = tmp_path / "cert.json"
    result = dispatch(["audit", path, "--out", str(cert_path)])
    assert result.exit_code == 0, result.stderr
    assert "certified" in result.stderr
    # the same certificate comes out of a previously exported trace
    trace = tmp_path / "trace.json"
    assert dispatch(["slac", path, "--trace", str(trace)]).exit_code == 1
    via_trace = dispatch(["audit", path, "--trace", str(trace)])
    assert via_trace.exit_code == 0
    assert via_trace.stdout.strip() == cert_path.read_text().strip()
    check = dispatch(["audit", path, "--check", str(cert_path)])
    assert check.exit_code == 0
    assert check.stdout.strip() == "ACCEPT"
    # tamper: wrong instance
    other = tmp_path / "other.inst"
    other.write_text(serialize_instance(magic_square()))
    mismatch = dispatch(["audit", str(other), "--check", str(cert_path)])
    assert mismatch.exit_code == 1
    assert mismatch.stdout.startswith("REJECT")


def shift_cycle(tmp_path):
    """The d = 3 cycle x -> y -> x of +1 shifts, which SLAC refutes, and its
    certificate (carrying Bezout witnesses): the two file paths."""
    shift = [(k, (k + 1) % 3) for k in range(3)]
    inst = make_instance(
        3, ["x", "y"], [(("x", "y"), "shift1"), (("y", "x"), "shift1")], {"shift1": shift}
    )
    path = tmp_path / "cycle.inst"
    path.write_text(serialize_instance(inst))
    cert_path = tmp_path / "cycle.cert"
    assert dispatch(["audit", str(path), "--out", str(cert_path)]).exit_code == 0
    return path, cert_path


def test_audit_check_rejects_witness_order_not_dividing_d(tmp_path):
    """A witness coefficient whose order does not divide d is an input error
    (exit 2 with `error:`), found before any field arithmetic."""
    path, cert_path = shift_cycle(tmp_path)
    doc = json.loads(cert_path.read_text())
    witness = next(st for sec in doc["sections"] for st in sec["steps"] if "q" in st)
    witness["q"]["coeffs"][0]["order"] = 2310
    cert_path.write_text(json.dumps(doc))
    result = dispatch(["audit", str(path), "--check", str(cert_path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: witness coefficient order 2310 does not divide d = 3")
    assert result.stdout == ""


def test_audit_check_rejects_zero_denominator(tmp_path):
    """A witness coefficient with denominator 0 is an input error (exit 2 with
    `error:`), not a ZeroDivisionError traceback."""
    path, cert_path = shift_cycle(tmp_path)
    doc = json.loads(cert_path.read_text())
    witness = next(st for sec in doc["sections"] for st in sec["steps"] if "q" in st)
    witness["c"]["coeffs"] = [[1, 0]]
    cert_path.write_text(json.dumps(doc))
    result = dispatch(["audit", str(path), "--check", str(cert_path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert "denominator" in result.stderr
    assert result.stdout == ""


def test_audit_trace_rejects_zero_denominator(tmp_path):
    path = unsat_two_unary(tmp_path)
    trace = tmp_path / "trace.json"
    assert dispatch(["slac", path, "--trace", str(trace)]).exit_code == 1
    doc = json.loads(trace.read_text())
    step = doc["chains"][0]["chain"]["steps"][0]
    step["q"] = {"coeffs": [{"order": 1, "coeffs": [[1, 1]]}]}
    step["c"] = {"order": 1, "coeffs": [[1, 0]]}
    trace.write_text(json.dumps(doc))
    result = dispatch(["audit", path, "--trace", str(trace)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ")
    assert "denominator" in result.stderr
    assert result.stdout == ""


def test_audit_trace_rejects_witness_order_not_dividing_d(tmp_path):
    """A trace step's witness is read with the same order check as a
    certificate's, before any field arithmetic, although the builder then
    discards it."""
    path = unsat_two_unary(tmp_path)
    trace = tmp_path / "trace.json"
    assert dispatch(["slac", path, "--trace", str(trace)]).exit_code == 1
    doc = json.loads(trace.read_text())
    step = doc["chains"][0]["chain"]["steps"][0]
    step["q"] = {"coeffs": [{"order": 2310, "coeffs": [[1, 1]]}]}
    step["c"] = {"order": 1, "coeffs": [[1, 1]]}
    trace.write_text(json.dumps(doc))
    result = dispatch(["audit", path, "--trace", str(trace)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: witness coefficient order 2310 does not divide d = 2")
    assert result.stdout == ""


def test_audit_trace_that_does_not_replay(tmp_path):
    """A trace whose chain cites the wrong constraint is an input error (exit
    2 with `error:`), not a traceback or the REJECT code."""
    path = unsat_two_unary(tmp_path)
    trace = tmp_path / "trace.json"
    assert dispatch(["slac", path, "--trace", str(trace)]).exit_code == 1
    doc = json.loads(trace.read_text())
    step = doc["chains"][0]["chain"]["steps"][0]
    step["constraint"] = 1 - step["constraint"]
    trace.write_text(json.dumps(doc))
    result = dispatch(["audit", path, "--trace", str(trace)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: self-check failed: REJECT at section:0:step:0")
    assert result.stdout == ""


def test_audit_survives_single_field_type_mutations(tmp_path):
    """No mutated certificate or trace escapes `dispatch` as an exception.
    A mutated certificate gives REJECT (1) or an input error (2).  A mutated
    trace gives 2, or 0 with the unmutated certificate: the builder reads
    only the chains up to the first emptied variable, so a mutation of a
    later chain or of `domains` leaves the certificate as it was."""
    path, cert_path = shift_cycle(tmp_path)
    trace_path = tmp_path / "cycle.trace"
    assert dispatch(["slac", str(path), "--trace", str(trace_path)]).exit_code == 1
    built = dispatch(["audit", str(path), "--trace", str(trace_path)])
    assert built.exit_code == 0
    bad = tmp_path / "bad.json"
    for flag, doc_path in (("--check", cert_path), ("--trace", trace_path)):
        for where, value, mutated in _type_mutations(json.loads(doc_path.read_text())):
            bad.write_text(json.dumps(mutated))
            result = dispatch(["audit", str(path), flag, str(bad)])
            if result.exit_code == 1:
                assert flag == "--check" and result.stdout.startswith("REJECT"), (where, value)
            elif result.exit_code == 2:
                assert result.stderr.startswith(("error:", "not applicable:")), (where, value)
            else:
                assert flag == "--trace" and result.stdout == built.stdout, (where, value)


MALFORMED_AUDIT_DOCUMENTS = {
    "sections-number": ("--check", ("sections",), 5),
    "steps-null": ("--check", ("sections", 0, "steps"), None),
    "values-number": ("--check", ("sections", 0, "steps", 0, "values"), 3),
    "base-number": ("--check", ("collapse", 0, "base"), 1),
    "value-list": ("--check", ("sections", 0, "value"), [0]),
    "chains-number": ("--trace", ("chains",), 5),
    "domains-list": ("--trace", ("domains",), []),
}


@pytest.mark.parametrize("label", sorted(MALFORMED_AUDIT_DOCUMENTS))
def test_audit_malformed_document_exits_two(tmp_path, label):
    flag, where, value = MALFORMED_AUDIT_DOCUMENTS[label]
    path, doc_path = shift_cycle(tmp_path)
    if flag == "--trace":
        doc_path = tmp_path / "cycle.trace"
        assert dispatch(["slac", str(path), "--trace", str(doc_path)]).exit_code == 1
    doc_path.write_text(json.dumps(_replaced(json.loads(doc_path.read_text()), where, value)))
    result = dispatch(["audit", str(path), flag, str(doc_path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: malformed document"), result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("command", [
    ["audit", "--check"],
    ["audit", "--trace"],
    ["verify-ops"],
    ["reduce", "gadget", "--target", "Rplus", "--formula"],
    ["slac"],
])
def test_truncated_document_is_malformed(magic_path, tmp_path, command):
    """Every document a command reads reports broken JSON as the instance
    reader does, and so does nesting deeper than the JSON reader recurses."""
    bad = tmp_path / "bad.json"
    name = 2 if command[0] == "reduce" else 1
    argv = ["slac", str(bad)] if command == ["slac"] else command[:name] + [magic_path] + command[name:] + [str(bad)]
    for document in ('{"d": 3,', "[" * 200_000, '{"d": 3, "sections": ' + "[" * 100_000 + "]" * 100_000 + "}"):
        bad.write_text(document)
        result = dispatch(argv)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: malformed document: "), result.stderr
        assert "Traceback" not in result.stderr
        assert result.stdout == ""


def _reader_cases(tmp_path):
    """(label -> (document, argv with "BAD" where the mutated document goes)):
    the magic square through `slac`, `solve` and `poly`, and a pp-formula
    through `reduce gadget`."""
    rels = {"neq": [(0, 1), (1, 0)], "eqd": [(0, 0), (1, 1)]}
    ipath = tmp_path / "gadget.inst"
    ipath.write_text(serialize_instance(make_instance(2, ["a", "b"], [(("a", "b"), "eqd")], rels)))
    formula = {
        "arity": 2,
        "exists": 1,
        "atoms": [{"rel": "neq", "vars": [0, 2]}, {"rel": "neq", "vars": [2, 1]}],
    }
    magic = json.loads(serialize_instance(magic_square()))
    return {
        "slac": (magic, ["slac", "BAD"]),
        "solve": (magic, ["solve", "BAD"]),
        "poly": (magic, ["poly", "BAD", "--rel", "Rplus"]),
        "gadget": (
            formula, ["reduce", "gadget", str(ipath), "--formula", "BAD", "--target", "eqd"]
        ),
    }


@pytest.mark.parametrize("label", ["slac", "solve", "poly", "gadget"])
def test_document_readers_survive_single_field_type_mutations(tmp_path, label):
    """No single-field type mutation of an instance or pp-formula document
    escapes `dispatch` as an exception, and every exit code is 0, 1 or 2."""
    doc, argv = _reader_cases(tmp_path)[label]
    bad = tmp_path / "bad.json"
    argv = [str(bad) if a == "BAD" else a for a in argv]
    for where, value, mutated in _type_mutations(doc):
        bad.write_text(json.dumps(mutated))
        result = dispatch(argv)
        assert result.exit_code in (0, 1, 2), (where, value)
        if result.exit_code == 2:
            assert result.stderr.startswith("error:"), (where, value)


def _mistyped_instances():
    """(label, magic-square document) with one mistyped value as a tuple
    entry, as a variable (renamed in `variables` and in every scope), or as
    one scope entry.  A string is a well-typed name, so "0" is tried as a
    tuple entry only."""
    for value in ("0", 0.5, 1.0, True, None, [0]):
        doc = json.loads(serialize_instance(magic_square()))
        doc["relations"]["Rplus"]["tuples"][0][0] = value
        yield f"tuple entry {value!r}", doc
        if isinstance(value, str):
            continue
        doc = json.loads(serialize_instance(magic_square()))
        doc["variables"] = [value if v == "x1" else v for v in doc["variables"]]
        for c in doc["constraints"]:
            c["scope"] = [value if v == "x1" else v for v in c["scope"]]
        yield f"variable {value!r}", doc
        doc = json.loads(serialize_instance(magic_square()))
        doc["constraints"][0]["scope"][0] = value
        yield f"scope entry {value!r}", doc


MISTYPED_INSTANCES = dict(_mistyped_instances())


@pytest.mark.parametrize("label", list(MISTYPED_INSTANCES))
def test_mistyped_instance_value_exits_two(tmp_path, label):
    path = tmp_path / "bad.inst"
    path.write_text(json.dumps(MISTYPED_INSTANCES[label]))
    result = dispatch(["slac", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: malformed document"), result.stderr


def test_string_variable_names_are_read_as_they_are(tmp_path):
    doc = json.loads(serialize_instance(magic_square()))
    doc["variables"] = ["0" if v == "x1" else v for v in doc["variables"]]
    for c in doc["constraints"]:
        c["scope"] = ["0" if v == "x1" else v for v in c["scope"]]
    path = tmp_path / "renamed.inst"
    path.write_text(json.dumps(doc))
    assert load_instance(path.read_text()).variables[0] == "0"
    result = dispatch(["slac", str(path)])
    assert result.exit_code == 0
    assert "domain 0: 0 1" in result.stdout


def test_gen_linsys_refuses_a_zero_sum_relation_above_the_guard(tmp_path):
    eqs = tmp_path / "eqs.txt"
    eqs.write_text("x0 + x1 = 1\n")
    # 100000000000031, the first prime above 10^14, is refused before trial
    # division, which would take over a second
    for p in (11, 100000000000031):
        start = time.perf_counter()
        result = dispatch(["gen", "linsys", "--p", str(p), "--file", str(eqs)])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: zero-sum relation over Z_{p}"), result.stderr


def test_poly_and_verify_ops_refuse_an_inverse_dft_above_the_guard(tmp_path):
    """One tuple of arity 12 over d = 5 asks for a 5^12 x 5 table: refused
    before it is allocated."""
    variables = [f"x{i}" for i in range(12)]
    inst = make_instance(5, variables, [(tuple(variables), "r")], {"r": [(0,) * 12]})
    inst_path, ops_path = tmp_path / "wide.inst", tmp_path / "ones.ops"
    inst_path.write_text(serialize_instance(inst))
    ops = OperatorAssignment(1, {v: np.eye(1, dtype=complex) for v in variables})
    ops_path.write_text(operator_assignment_to_json(ops))
    for argv in (["poly", str(inst_path), "--rel", "r"], ["verify-ops", str(inst_path), str(ops_path)]):
        start = time.perf_counter()
        result = dispatch(argv)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2, result.stderr
        assert result.stdout == ""
        assert "inverse DFT table of 5^12 x 5 entries is above the guard" in result.stderr


def test_slac_and_reduce_refuse_a_domain_above_the_guard(tmp_path):
    """A domain size above DOMAIN_GUARD exits 2 before anything builds a
    range(d)-sized set or Phi_d."""
    huge = tmp_path / "huge.inst"
    huge.write_text(json.dumps({"d": 10 ** 9, "relations": {}, "variables": ["x"], "constraints": []}))
    small = tmp_path / "small.inst"
    small.write_text(serialize_instance(make_instance(3, ["x"], [], {})))
    cases = [
        (["slac", str(huge)], "domain size 1000000000 is above the guard 1024"),
        (["reduce", "restrict", str(small), "--image", "0,1,2", "--dto", "30030"],
         "target domain size 30030 is above the guard 1024"),
    ]
    for argv, message in cases:
        start = time.perf_counter()
        result = dispatch(argv)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ") and message in result.stderr, result.stderr


def _refused_at_once(argv, message):
    start = time.perf_counter()
    result = dispatch(argv)
    assert time.perf_counter() - start < 1.0
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ") and message in result.stderr, result.stderr


@pytest.mark.parametrize("d, tuples, exists", [(2, [[0, 1], [1, 0]], 10 ** 12), (1, [[0, 0]], 10 ** 9)])
def test_reduce_gadget_refuses_a_huge_existential_count(tmp_path, d, tuples, exists):
    """Refused before d^(2 + exists) is computed.  Over d = 1 every power is
    1, so only the exponent can refuse it before the witness search
    enumerates exists-tuples."""
    inst = {
        "d": d,
        "relations": {"R": {"arity": 2, "tuples": tuples}},
        "variables": ["a", "b"],
        "constraints": [{"rel": "R", "scope": ["a", "b"]}],
    }
    formula = {"arity": 2, "exists": exists, "atoms": [{"rel": "R", "vars": [0, 1]}]}
    ipath, fpath = tmp_path / "inst.json", tmp_path / "formula.json"
    ipath.write_text(json.dumps(inst))
    fpath.write_text(json.dumps(formula))
    argv = ["reduce", "gadget", str(ipath), "--formula", str(fpath), "--target", "R"]
    _refused_at_once(argv, "pp evaluation space exceeds the guard")


@pytest.mark.parametrize("d, arity", [(2, 10 ** 8), (2, 10 ** 12), (1, 10 ** 9)])
def test_poly_refuses_a_huge_arity(tmp_path, d, arity):
    """Refused before n^r is computed or arity-many variable names are built."""
    path = tmp_path / "wide.inst"
    doc = {"d": d, "relations": {"R": {"arity": arity, "tuples": []}}, "variables": [], "constraints": []}
    path.write_text(json.dumps(doc))
    _refused_at_once(["poly", str(path), "--rel", "R"], f"inverse DFT table of {d}^{arity} x {d} entries")


NUMBERS = st.lists(st.integers(-1, 5), max_size=4).map(lambda xs: ",".join(map(str, xs)))
TEXT = st.one_of(
    NUMBERS,
    st.lists(NUMBERS, max_size=3).map("|".join),
    st.text(alphabet="0123456789,|+=x -#\n\t\0\u00e9", max_size=24),
)


@pytest.fixture(scope="module")
def text_input_dir(tmp_path_factory):
    """A d = 3 instance for `reduce restrict` and `reduce factor`; the
    equations file of `gen linsys` is rewritten in the same directory."""
    root = tmp_path_factory.mktemp("text_inputs")
    inst = make_instance(3, ["x", "y"], [(("x", "y"), "neq")],
                         {"neq": [(a, b) for a in range(3) for b in range(3) if a != b]})
    (root / "inst.json").write_text(serialize_instance(inst))
    return root


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_text_inputs_exit_zero_one_or_two(text_input_dir, data):
    """`--image`, `--classes` and the `gen linsys` equations are read from
    free text: any text gives exit 0, 1 or 2, and `dispatch` never raises."""
    inst, eqs = str(text_input_dir / "inst.json"), text_input_dir / "eqs.txt"
    command = data.draw(st.sampled_from(["restrict", "factor", "linsys"]))
    text = data.draw(TEXT)
    if command == "restrict":
        dto = data.draw(st.integers(-2, 40))
        argv = ["reduce", "restrict", inst, "--image", text, "--dto", str(dto)]
    elif command == "factor":
        argv = ["reduce", "factor", inst, "--classes", text]
    else:
        eqs.write_text(text, encoding="utf-8")
        argv = ["gen", "linsys", "--p", str(data.draw(st.sampled_from([2, 3, 5]))), "--file", str(eqs)]
    result = dispatch(argv)
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 2:
        assert result.stderr.startswith("error: ") or result.stderr.startswith("usage: "), result.stderr


def test_poly_command(magic_path):
    result = dispatch(["poly", magic_path, "--rel", "Rminus"])
    assert result.exit_code == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "P[Rminus] d=2 arity=3"
    assert "(1,1,1): -1" in result.stdout


def test_gen_magic_square_round_trip(tmp_path):
    out = tmp_path / "magic.inst"
    result = dispatch(["gen", "magic-square", "--out", str(out)])
    assert result.exit_code == 0
    assert load_instance(out.read_text()) == magic_square()


def test_gen_linsys(tmp_path):
    eqs = tmp_path / "eqs.txt"
    eqs.write_text("x1 + x2 + x3 = 1\n")
    result = dispatch(["gen", "linsys", "--p", "2", "--file", str(eqs)])
    assert result.exit_code == 0
    inst = load_instance(result.stdout)
    assert inst.d == 2 and len(inst.constraints) == 1


def test_reduce_collapse_with_transport(tmp_path):
    inst = make_instance(
        2,
        ["x", "y"],
        [(("x", "y"), "="), (("x",), "one")],
        {"=": [(0, 0), (1, 1)], "one": [(1,)]},
    )
    path = tmp_path / "eq.inst"
    path.write_text(serialize_instance(inst))
    ops_in = tmp_path / "in.ops"
    from opcsp.operators import embed_classical

    ops_in.write_text(operator_assignment_to_json(embed_classical([{"x": 1, "y": 1}], 2)))
    out_inst = tmp_path / "out.inst"
    ops_out = tmp_path / "out.ops"
    result = dispatch(
        [
            "reduce", "collapse", str(path),
            "--out", str(out_inst),
            "--transport-ops", str(ops_in), str(ops_out),
        ]
    )
    assert result.exit_code == 0, result.stderr
    collapsed = load_instance(out_inst.read_text())
    assert collapsed.variables == ("x",)
    carried = json.loads(ops_out.read_text())
    assert set(carried["assign"]) == {"x"}


def test_reduce_restrict_cli(tmp_path):
    inst = make_instance(2, ["x", "y"], [(("x", "y"), "neq")], {"neq": [(0, 1), (1, 0)]})
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(inst))
    result = dispatch(["reduce", "restrict", str(path), "--image", "0,2", "--dto", "4"])
    assert result.exit_code == 0, result.stderr
    mapped = load_instance(result.stdout)
    assert mapped.d == 4
    assert mapped.language["neq"].tuples == frozenset({(0, 2), (2, 0)})


def test_reduce_factor_cli(tmp_path):
    inst = make_instance(2, ["x", "y"], [(("x", "y"), "eq2")], {"eq2": [(0, 0), (1, 1)]})
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(inst))
    result = dispatch(["reduce", "factor", str(path), "--classes", "0,2|1,3"])
    assert result.exit_code == 0, result.stderr
    mapped = load_instance(result.stdout)
    assert mapped.d == 4
    assert (0, 2) in mapped.language["eq2"].tuples


def test_reduce_gadget_cli(tmp_path):
    rels = {"neq": [(0, 1), (1, 0)], "eqd": [(0, 0), (1, 1)]}
    inst = make_instance(2, ["a", "b"], [(("a", "b"), "eqd")], rels)
    ipath = tmp_path / "inst.json"
    ipath.write_text(serialize_instance(inst))
    formula = {
        "arity": 2,
        "exists": 1,
        "atoms": [{"rel": "neq", "vars": [0, 2]}, {"rel": "neq", "vars": [2, 1]}],
    }
    fpath = tmp_path / "formula.json"
    fpath.write_text(json.dumps(formula))
    result = dispatch(["reduce", "gadget", str(ipath), "--formula", str(fpath), "--target", "eqd"])
    assert result.exit_code == 0, result.stderr
    mapped = load_instance(result.stdout)
    assert len(mapped.variables) == 3
    assert len(mapped.constraints) == 2


def test_reduce_gadget_transport_cli(tmp_path):
    rels = {"neq": [(0, 1), (1, 0)], "eqd": [(0, 0), (1, 1)]}
    inst = make_instance(2, ["a", "b"], [(("a", "b"), "eqd")], rels)
    ipath = tmp_path / "inst.json"
    ipath.write_text(serialize_instance(inst))
    formula = {
        "arity": 2,
        "exists": 1,
        "atoms": [{"rel": "neq", "vars": [0, 2]}, {"rel": "neq", "vars": [2, 1]}],
    }
    fpath = tmp_path / "formula.json"
    fpath.write_text(json.dumps(formula))
    from opcsp.operators import embed_classical

    ops_in = tmp_path / "in.ops"
    ops_in.write_text(
        operator_assignment_to_json(embed_classical([{"a": 0, "b": 0}, {"a": 1, "b": 1}], 2))
    )
    out_inst = tmp_path / "out.inst"
    ops_out = tmp_path / "out.ops"
    result = dispatch(
        [
            "--seed", "3",
            "reduce", "gadget", str(ipath),
            "--formula", str(fpath), "--target", "eqd",
            "--out", str(out_inst),
            "--transport-ops", str(ops_in), str(ops_out),
        ]
    )
    assert result.exit_code == 0, result.stderr
    from opcsp.operators import operator_assignment_from_json, verify_assignment

    expanded = load_instance(out_inst.read_text())
    carried = operator_assignment_from_json(ops_out.read_text())
    assert verify_assignment(expanded, carried).verdict == "SATISFYING"


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_reduce_gadget_transport_rejects_non_finite_ops(tmp_path, entry):
    rels = {"neq": [(0, 1), (1, 0)], "eqd": [(0, 0), (1, 1)]}
    ipath = tmp_path / "inst.json"
    ipath.write_text(serialize_instance(make_instance(2, ["a", "b"], [(("a", "b"), "eqd")], rels)))
    formula = {
        "arity": 2,
        "exists": 1,
        "atoms": [{"rel": "neq", "vars": [0, 2]}, {"rel": "neq", "vars": [2, 1]}],
    }
    fpath = tmp_path / "formula.json"
    fpath.write_text(json.dumps(formula))
    from opcsp.operators import embed_classical

    assignment = embed_classical([{"a": 0, "b": 0}, {"a": 1, "b": 1}], 2)
    assignment.assign["b"][1, 1] = entry
    ops_in = tmp_path / "in.ops"
    ops_in.write_text(operator_assignment_to_json(assignment))
    ops_out = tmp_path / "out.ops"
    result = dispatch(
        [
            "reduce", "gadget", str(ipath), "--formula", str(fpath), "--target", "eqd",
            "--out", str(tmp_path / "out.inst"), "--transport-ops", str(ops_in), str(ops_out),
        ]
    )
    assert result.exit_code == 2
    assert result.stderr == "error: matrix 1 has a NaN or inf entry\n"
    assert not ops_out.exists()


def test_reduce_core_cli(tmp_path):
    inst = make_instance(3, ["x"], [(("x",), "b")], {"b": [(0,), (1,)]})
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(inst))
    result = dispatch(["reduce", "core", str(path)])
    assert result.exit_code == 0, result.stderr
    mapped = load_instance(result.stdout)
    assert mapped.d == 1


def test_reduce_commgadget_and_constants_cli(tmp_path):
    from opcsp.operators import embed_classical, operator_assignment_from_json, verify_assignment

    rels = {
        "tri": [(0, 1, 0), (1, 0, 1)],
        "full": [(a, b) for a in range(2) for b in range(2)],
        "neq": [(0, 1), (1, 0)],
        "c0": [(0,)],
    }
    inst = make_instance(2, ["a", "b", "c"], [(("a", "b", "c"), "tri")], rels)
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(inst))
    result = dispatch(["reduce", "commgadget", str(path)])
    assert result.exit_code == 0, result.stderr
    padded = load_instance(result.stdout)
    assert len(padded.constraints) == 4

    const_inst = make_instance(
        2, ["a", "b"], [(("a", "b"), "neq"), (("a",), "c0")],
        {"neq": rels["neq"], "c0": rels["c0"]},
    )
    cpath = tmp_path / "const.json"
    cpath.write_text(serialize_instance(const_inst))
    ops_in = tmp_path / "c_in.ops"
    ops_in.write_text(operator_assignment_to_json(embed_classical([{"a": 0, "b": 1}], 2)))
    out_inst = tmp_path / "c_out.inst"
    ops_out = tmp_path / "c_out.ops"
    result = dispatch(
        ["reduce", "constants", str(cpath), "--out", str(out_inst),
         "--transport-ops", str(ops_in), str(ops_out)]
    )
    assert result.exit_code == 0, result.stderr
    reduced = load_instance(out_inst.read_text())
    carried = operator_assignment_from_json(ops_out.read_text())
    assert verify_assignment(reduced, carried).verdict == "SATISFYING"


def test_usage_errors_exit_two(tmp_path):
    assert dispatch(["nonsense"]).exit_code == 2
    missing = dispatch(["solve", str(tmp_path / "missing.inst")])
    assert missing.exit_code == 2
    assert "error:" in missing.stderr
    bad = tmp_path / "bad.inst"
    bad.write_text("{ not json")
    assert dispatch(["solve", str(bad)]).exit_code == 2


def test_seed_reproducibility(magic_path):
    a = dispatch(["--seed", "7", "slac", magic_path])
    b = dispatch(["--seed", "7", "slac", magic_path])
    assert a.stdout == b.stdout and a.exit_code == b.exit_code


def _first_relation(obj):
    return obj["relations"][sorted(obj["relations"])[0]]


def _d_true(obj):
    # every tuple inside {0}, so only the type of d is wrong
    obj["d"] = True
    for rel in obj["relations"].values():
        rel["tuples"] = [[0] * rel["arity"]]


DOCUMENT_MUTATIONS = {
    "d-true": _d_true,
    "relations-list": lambda obj: obj.update(relations=[]),
    "arity-string": lambda obj: _first_relation(obj).update(arity="3"),
    "arity-float": lambda obj: _first_relation(obj).update(arity=3.0),
    "arity-true": lambda obj: _first_relation(obj).update(arity=True),
    "tuples-number": lambda obj: _first_relation(obj).update(tuples=3),
    "variables-number": lambda obj: obj.update(variables=3),
    "constraints-object": lambda obj: obj.update(constraints={}),
    "scope-number": lambda obj: obj["constraints"][0].update(scope=3),
    "rel-list": lambda obj: obj["constraints"][0].update(rel=["Rminus"]),
    "tuple-arity": lambda obj: _first_relation(obj)["tuples"].append([0, 1]),
    "tuple-value": lambda obj: _first_relation(obj)["tuples"].append([0, 1, 2]),
}


@pytest.mark.parametrize("mutation", sorted(DOCUMENT_MUTATIONS))
def test_malformed_document_exits_two(tmp_path, mutation):
    obj = json.loads(serialize_instance(magic_square()))
    DOCUMENT_MUTATIONS[mutation](obj)
    path = tmp_path / "bad.inst"
    path.write_text(json.dumps(obj))
    result = dispatch(["slac", str(path)])
    assert result.exit_code == 2
    assert result.stderr.startswith("error:")


def test_module_entry_point():
    run = run_module("gen", "magic-square")
    assert run.returncode == 0, run.stderr
    assert run.stdout == serialize_instance(magic_square()) + "\n"



COLD_PATH_SCRIPT = """
import sys
from opcsp.cli import dispatch

conflict, magic, pauli, work = sys.argv[1:]
for argv, code in [
    (["gen", "magic-square", "--out", f"{work}/gen.inst"], 0),
    (["solve", conflict], 1),
    (["slac", conflict, "--trace", f"{work}/trace.json"], 1),
    (["audit", conflict, "--out", f"{work}/cert.json"], 0),
    (["audit", conflict, "--check", f"{work}/cert.json"], 0),
    (["audit", conflict, "--trace", f"{work}/trace.json"], 0),
]:
    result = dispatch(argv)
    assert result.exit_code == code, (argv, result)
assert "numpy" not in sys.modules, "a command without matrix work loaded numpy"
result = dispatch(["verify-ops", magic, pauli])
assert result.exit_code == 0 and "verdict: SATISFYING" in result.stdout, result
"""


def test_commands_without_matrix_work_leave_numpy_unloaded(tmp_path, magic_path, pauli_path):
    """gen, solve, slac and audit run in a fresh process without importing
    numpy; verify-ops, which does matrix work, still runs there afterwards."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    args = [unsat_two_unary(tmp_path), magic_path, pauli_path, str(tmp_path)]
    run = subprocess.run(
        [sys.executable, "-c", COLD_PATH_SCRIPT, *args],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )
    assert run.returncode == 0, run.stderr
