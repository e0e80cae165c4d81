"""Print one line per refutation-chain, propagation-probe, inverse-DFT,
field-arithmetic, encoder and diagonalization output, for comparing two
commits.

Covers, as SHA-256 digests:

- `CycNum.to_obj()` of seeded sums, differences, products, quotients,
  inverses, conjugates and lifts at orders 1..12, including mixed orders;
- `UniPoly.to_obj()` of the `poly_ext_gcd` results of seeded polynomial
  pairs with mixed-order coefficients;
- the `dom_difference_inverse` and `dom_gap_inverse` witnesses of every
  proper nonempty subset S of 0..d-1 for d <= 7;
- `slac_result_to_json` and `GapCertificate.to_json` on the bounded-width
  corpora, the magic square and small Z_3/Z_5 systems;
- `relation_polynomial(rel).format_terms()`, and each coefficient's `order`
  and `coeffs`, for every relation of `linear_language(2)`,
  `linear_language(3)` and the magic square and for seeded relations with
  d <= 6 and arity <= 3;
- `UniPoly.to_obj()` of `indicator_interpolant(S, d)` for every S with d <= 6;
- `UniPoly.to_obj()` of `dom_polynomial(S, d)` for every S with d <= 7;
- `serialize_instance(linear_system_instance(system))` for the systems of
  `helpers.linear_system_corpus(10, 30)` (the golden test's set) and for 30
  more seeded systems over Z_2, Z_3 and Z_5;
- the bytes of the unitary and of every diagonal that
  `simultaneous_diagonalize` returns, with seeds 0 and 5, for the Pauli
  fixture's commuting triples (each constraint scope of the magic square),
  their conjugates by three seeded random unitaries, and the `embed_classical`
  assignments of all solutions of a Z_2 and a Z_3 system, plain and
  conjugated;
- in a form that does not depend on the eigenbasis chosen inside a joint
  eigenspace, for families with repeated joint eigenvalues (seeded draws with
  repeats of Z_2 and Z_3 solutions, and the Pauli triples tensored with I_3,
  all conjugated): the sorted joint eigenvalues, rounded, with their
  multiplicities; and for an assignment that `lift_assignment` carries across
  an `eqd` gadget, the carried operators' entries, rounded, and the report
  lines of `verify_assignment` with residuals below 1e-12 printed as such;
- the interpolants that `restrict_transport`, `factor_transport` and
  `core_instance` apply on the magic square and instances derived from it,
  the mapped instance documents, and the JSON of the Pauli assignment carried
  through each transport.

It also prints, in plain text, each `linear_ac` probe that `slac` makes on the
bounded-width corpora: its verdict and its fact count, `len(result.store)`,
so that the fact count of every probe is compared, consistent ones included,
not only the facts on refutation chains.

Then it prints the `check_certificate` verdict, as `CheckResult.describe()`
text, of every single-entry mutation (`helpers.collapse_mutations`) of the
collapse script of `helpers.minimal_conflict_instance(d)` for d = 2..6, and
the `CheckResult.describe()` text of every `check_certificate` call made while
`tests/test_acceptance.py::test_criterion_2_refutations_and_certificates` and
`tests/test_certificates.py` run.  It uses only API that the refactors of the
chain path, of the DFT path and of the field representation keep, so the same
script runs on both sides of such a change:

    cd <checkout> && PYTHONPATH=src:tests python tools/chain_outputs.py > out.txt
    diff <old checkout>/out.txt <new checkout>/out.txt

Takes about ten to twenty seconds.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import sys
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from opcsp import certificates, consistency, reductions
from opcsp.certificates import build_certificate, check_certificate
from opcsp.consistency import slac, slac_result_to_json
from opcsp.csp_core import Relation, make_instance, serialize_instance
from opcsp.cyclotomic import CycNum, UniPoly, embed, poly_ext_gcd
from opcsp.fourier import (
    dom_difference_inverse,
    dom_gap_inverse,
    dom_polynomial,
    relation_polynomial,
)
from opcsp.gap_instances import (
    linear_language,
    linear_system_instance,
    magic_square,
    parse_linear_system,
    pauli_fixture,
)
from opcsp.operators import (
    OperatorAssignment,
    embed_classical,
    operator_assignment_to_json,
    random_unitary,
    simultaneous_diagonalize,
    verify_assignment,
)
from opcsp.reductions import (
    Congruence,
    PPAtom,
    PPFormula,
    UnaryMap,
    gadgetize,
    indicator_interpolant,
    lift_assignment,
)

from helpers import (
    bounded_width_corpus,
    collapse_mutations,
    linear_system_corpus,
    minimal_conflict_instance,
)

SYSTEMS = {
    "z3": (3, "x0 + x1 + x2 = 1\nx1 + x2 + x3 + x4 = 2\nx0 + x4 = 1\n"),
    "z3-unsat": (3, "x0 = 1\nx0 = 2\n"),
    "z5": (5, "x0 + x1 + x2 + x3 + x4 + x5 + x6 = 0\nx0 + x3 + x5 = 1\nx1 + x2 = 3\n"),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def corpus():
    for seed, count, max_vars in ((1234, 200, 10), (55, 40, 6), (777, 60, 6)):
        for i, inst in enumerate(bounded_width_corpus(seed, count, max_vars=max_vars)):
            yield f"bw{seed}#{i}", inst
    yield "magic", magic_square()
    for name, (p, text) in SYSTEMS.items():
        yield name, linear_system_instance(parse_linear_system(text, p))


def emit_outputs():
    probe = consistency.linear_ac
    probes = []

    def recorded(*args, **kwargs):
        result = probe(*args, **kwargs)
        probes.append((result.consistent, len(result.store)))
        return result

    for label, inst in corpus():
        probes.clear()
        consistency.linear_ac = recorded
        try:
            result = slac(inst)
        finally:
            consistency.linear_ac = probe
        cert = "-" if result.consistent else digest(build_certificate(inst, result).to_json())
        print(f"{label} slac={digest(slac_result_to_json(result))} cert={cert}")
        if label.startswith("bw"):
            for j, (consistent, facts) in enumerate(probes):
                print(f"{label} probe#{j} consistent={consistent} facts={facts}")


def dft_relations():
    for p in (2, 3):
        lang = linear_language(p)
        for name in sorted(lang.relations):
            yield f"linear{p}/{name}", lang[name]
    magic = magic_square().language
    for name in sorted(magic.relations):
        yield f"magic/{name}", magic[name]
    rng = random.Random(2024)
    for i in range(120):
        d, r = rng.randint(1, 6), rng.randint(1, 3)
        density = rng.choice((0.0, 0.2, 0.5, 0.9, 1.0))
        tuples = frozenset(t for t in product(range(d), repeat=r) if rng.random() < density)
        yield f"random#{i} d={d} r={r}", Relation(r, d, tuples)


def transported(make, inst, assignment):
    """Run one reduction and its transport, recording the interpolants that
    the transport applies."""
    mapped, transport = make(inst)
    polys = []
    original = reductions.transport_assignment

    def record(p, a):
        polys.append(p)
        return original(p, a)

    reductions.transport_assignment = record
    try:
        carried = transport(assignment)
    finally:
        reductions.transport_assignment = original
    return mapped, polys, carried


def emit_dft_outputs():
    for label, rel in dft_relations():
        poly = relation_polynomial(rel)
        terms = [[list(e), c.to_obj()] for e, c in poly.sorted_terms()]
        print(f"{label} poly={digest(poly.format_terms())} terms={digest(json.dumps(terms))}")
    for d in range(1, 7):
        for mask in range(2 ** d):
            members = [k for k in range(d) if mask >> k & 1]
            obj = indicator_interpolant(members, d).to_obj()
            print(f"indicator d={d} S={members} {digest(json.dumps(obj))}")
    magic = magic_square()
    pauli = OperatorAssignment(4, pauli_fixture())
    cases = [("core", reductions.core_instance)]
    for image, d_to in (((0, 1), 2), ((1, 0), 2), ((2, 0), 3), ((1, 3), 5), ((0, 4), 6)):
        cases.append((
            f"restrict{image}->{d_to}",
            lambda inst, pi=UnaryMap(2, d_to, image): reductions.restrict_transport(inst, pi),
        ))
    for classes in (({0, 2}, {1, 3}), ({0}, {1, 2}), ({0, 3}, {1, 2, 4}), ({1, 5}, {0, 2, 3, 4})):
        theta = Congruence(sum(map(len, classes)), classes)
        cases.append((
            f"factor{[sorted(c) for c in classes]}",
            lambda inst, theta=theta: reductions.factor_transport(inst, theta),
        ))
    for label, make in list(cases):
        mapped, polys, carried = transported(make, magic, pauli)
        print(
            f"magic {label} inst={digest(serialize_instance(mapped))} "
            f"poly={[digest(json.dumps(p.to_obj())) for p in polys]} "
            f"ops={digest(operator_assignment_to_json(carried))}"
        )
        if label != "core":
            # the core of a relabeled or pulled-back square relabels non-injectively
            _, polys, carried = transported(reductions.core_instance, mapped, carried)
            print(
                f"magic {label} core poly={[digest(json.dumps(p.to_obj())) for p in polys]} "
                f"ops={digest(operator_assignment_to_json(carried))}"
            )


def random_cycnum(rng: random.Random, order: int) -> CycNum:
    # up to `order` coefficients, so that some vectors need reducing modulo Phi_order
    size = rng.randint(1, order)
    dens = (1, 1, 2, 3, 5, 12)
    return CycNum(order, [Fraction(rng.randint(-6, 6), rng.choice(dens)) for _ in range(size)])


def random_unipoly(rng: random.Random) -> UniPoly:
    coeffs = []
    for _ in range(rng.randint(1, 6)):
        order = rng.choice((1, 2, 3, 4, 6))
        c = CycNum.from_rational(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))))
        if order > 1 and rng.random() < 0.6:
            c = c + embed(rng.randrange(order), order)
        coeffs.append(c)
    return UniPoly(coeffs)


def emit_field_outputs():
    rng = random.Random(5)
    for i in range(240):
        la = rng.randint(1, 12)
        lb = la if i % 3 == 0 else rng.randint(1, 12)
        a, b = random_cycnum(rng, la), random_cycnum(rng, lb)
        values = [a, b, a + b, a - b, a * b, a.conjugate(), a.lift(la * rng.randint(1, 3))]
        for x in (a, b):
            if not x.is_zero():
                values += [x.inverse(), a / x]
        objs = [v.to_obj() for v in values]
        print(f"field#{i} orders=({la},{lb}) {digest(json.dumps(objs))}")
    for i in range(120):
        p, m = random_unipoly(rng), random_unipoly(rng)
        if p.is_zero() and m.is_zero():
            continue
        objs = [x.to_obj() for x in poly_ext_gcd(p, m)]
        print(f"ext_gcd#{i} {digest(json.dumps(objs))}")
    for d in range(2, 8):
        for mask in range(1, 2 ** d - 1):
            members = [k for k in range(d) if mask >> k & 1]
            witnesses = (dom_difference_inverse(members, d), dom_gap_inverse(members, d))
            objs = [[q.to_obj(), c.to_obj()] for q, c in witnesses]
            print(f"witness d={d} S={members} {digest(json.dumps(objs))}")


def emit_encoder_outputs():
    for d in range(1, 8):
        for mask in range(2 ** d):
            members = [k for k in range(d) if mask >> k & 1]
            print(f"dom d={d} S={members} {digest(json.dumps(dom_polynomial(members, d).to_obj()))}")
    systems = linear_system_corpus(10, 30)
    systems += [
        (f"extra {label}", system)
        for label, system in linear_system_corpus(11, 30, primes=(2, 3, 5))
        if label.startswith("seeded")
    ]
    for label, system in systems:
        doc = serialize_instance(linear_system_instance(system))
        print(f"linsys {label} {digest(doc)}")


def classical_solutions(p: int, text: str) -> list[dict]:
    """Every solution of a small Z_p system, by enumeration."""
    system = parse_linear_system(text, p)
    out = []
    for values in product(range(p), repeat=system.num_variables()):
        if all(
            sum(c * values[v] for v, c in zip(vs, cs)) % p == rhs
            for vs, cs, rhs in system.equations
        ):
            out.append({f"x{i}": a for i, a in enumerate(values)})
    return out


def diagonalization_families():
    pauli = pauli_fixture()
    triples = [[pauli[v] for v in c.scope] for c in magic_square().constraints]
    for ci, mats in enumerate(triples):
        yield f"pauli#{ci}", mats
        for s in (1, 2, 3):
            V = random_unitary(4, np.random.default_rng(s))
            yield f"pauli#{ci} conj{s}", [V @ M @ V.conj().T for M in mats]
    for p, text in ((2, "x0 + x1 + x2 = 1\nx3 + x4 = 1\n"), (3, SYSTEMS["z3"][1])):
        assignment = embed_classical(classical_solutions(p, text), p)
        mats = [assignment[v] for v in sorted(assignment.assign)]
        yield f"classical p={p}", mats
        for s in (1, 2, 3):
            V = random_unitary(assignment.dim, np.random.default_rng(s))
            yield f"classical p={p} conj{s}", [V @ M @ V.conj().T for M in mats]


def emit_diagonalize_outputs():
    for label, mats in diagonalization_families():
        for seed in (0, 5):
            U, diags = simultaneous_diagonalize(mats, seed=seed)
            h = hashlib.sha256(U.tobytes())
            for D in diags:
                h.update(D.tobytes())
            print(f"diag {label} seed={seed} {h.hexdigest()[:16]}")


def degenerate_families():
    """Commuting families with repeated joint eigenvalues: embedded classical
    solutions drawn with repeats and the Pauli triples tensored with an
    identity, each conjugated by a seeded unitary."""
    rng = np.random.default_rng(11)
    for p, text in ((2, "x0 + x1 + x2 = 1\nx3 + x4 = 1\n"), (3, SYSTEMS["z3"][1])):
        solutions = classical_solutions(p, text)
        for dim in (12, 40):
            drawn = [solutions[k] for k in rng.integers(len(solutions), size=dim)]
            assignment = embed_classical(drawn, p)
            V = random_unitary(dim, rng)
            yield f"drawn p={p} dim={dim}", [V @ assignment[v] @ V.conj().T
                                             for v in sorted(assignment.assign)]
    pauli = pauli_fixture()
    for ci, c in enumerate(magic_square().constraints):
        V = random_unitary(12, rng)
        yield f"pauli#{ci} x3", [V @ np.kron(pauli[v], np.eye(3)) @ V.conj().T for v in c.scope]


def rounded(z: complex) -> str:
    return f"{round(z.real, 6) + 0.0:.6f}{round(z.imag, 6) + 0.0:+.6f}j"


def joint_spectrum(diags) -> list:
    """(joint eigenvalue tuple, multiplicity) pairs, sorted, with entries
    rounded to six decimals: the same for every eigenbasis of the family."""
    columns = np.array([np.diag(D) for D in diags]).T
    return sorted(Counter(tuple(map(rounded, column)) for column in columns).items())


def emit_degenerate_outputs():
    for label, mats in degenerate_families():
        for seed in (0, 5):
            _, diags = simultaneous_diagonalize(mats, seed=seed)
            print(f"spectrum {label} seed={seed} {joint_spectrum(diags)}")
    rels = {"neq": [(0, 1), (1, 0)], "eqd": [(0, 0), (1, 1)]}
    scopes = [("a", "b"), ("c", "d"), ("d", "e")]
    inst = make_instance(2, list("abcde"), [(s, "eqd") for s in scopes], rels)
    formula = PPFormula(2, 1, (PPAtom("neq", (0, 2)), PPAtom("neq", (2, 1))))
    expanded = gadgetize(inst, formula, "eqd")
    solutions = [dict(zip("abcde", (a, a, c, c, c))) for a in range(2) for c in range(2)]
    rng = np.random.default_rng(13)
    for dim in (8, 24):
        drawn = [solutions[k] for k in rng.integers(len(solutions), size=dim)]
        V = random_unitary(dim, rng)
        rotated = embed_classical(drawn, 2).map(lambda M: V @ M @ V.conj().T)
        lifted = lift_assignment(inst, formula, "eqd", expanded, rotated)
        # the carried operators depend on the eigenbasis only through the
        # projectors onto joint eigenspaces; their rounding-level residuals,
        # and so the worst of them, depend on the basis inside each space
        entries = {v: [rounded(z) for z in M.flat] for v, M in sorted(lifted.assign.items())}
        print(f"lift dim={dim} ops={digest(json.dumps(entries))}")
        for line in verify_assignment(expanded, lifted).lines():
            line = re.sub(r"\d\.\d{3}e-(1[3-9]|[2-9]\d)", "<1e-12", line)
            if line.startswith("worst:") and line.endswith("<1e-12"):
                line = "worst: <1e-12"
            print(f"lift dim={dim} {line}")


def emit_collapse_outputs():
    for d in range(2, 7):
        inst = minimal_conflict_instance(d)
        cert = build_certificate(inst, slac(inst))
        for label, script in collapse_mutations(cert.collapse, d):
            verdict = check_certificate(inst, replace(cert, collapse=script))
            print(f"collapse d={d} {label}: {verdict.describe()}")


class RecordChecks:
    """Wraps check_certificate at its module attribute before the test
    modules import it, and records every verdict."""

    def __init__(self):
        self.original = certificates.check_certificate
        self.current = "?"
        self.lines: list[str] = []
        certificates.check_certificate = self.check

    def check(self, inst, cert):
        verdict = self.original(inst, cert)
        self.lines.append(f"{self.current} {verdict.describe()}")
        return verdict

    def pytest_runtest_setup(self, item):
        self.current = item.nodeid


def main() -> int:
    emit_outputs()
    emit_dft_outputs()
    emit_field_outputs()
    emit_encoder_outputs()
    emit_diagonalize_outputs()
    emit_degenerate_outputs()
    emit_collapse_outputs()
    recorder = RecordChecks()
    with redirect_stdout(sys.stderr):  # keep pytest's report, with its timings, off stdout
        code = pytest.main(
            [
                "-q",
                "-p", "no:cacheprovider",
                "tests/test_acceptance.py::test_criterion_2_refutations_and_certificates",
                "tests/test_certificates.py",
            ],
            plugins=[recorder],
        )
    print("\n".join(recorder.lines))
    print(f"pytest exit {int(code)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
