"""Certificate compilation and the independent exact checker."""

from fractions import Fraction

import numpy as np
import pytest

from opcsp.certificates import (
    GapCertificate,
    build_certificate,
    check_certificate,
    collapse_script,
    certify,
)
from opcsp.consistency import ChainStep, RefutationChain, slac
from opcsp.csp_core import brute_force_solve, iter_solutions, make_instance
from opcsp.cyclotomic import CycNum, UniPoly
from opcsp.fourier import dom_polynomial
from opcsp.gap_instances import magic_square
from opcsp.operators import apply_unipoly_matrix, fro

from helpers import bounded_width_corpus


def minimal_conflict_instance():
    rels = {"only0": [(0,)], "only1": [(1,)]}
    return make_instance(2, ["x"], [(("x",), "only0"), (("x",), "only1")], rels)


def test_minimal_two_unary_conflict():
    inst = minimal_conflict_instance()
    result = slac(inst)
    assert not result.consistent
    cert = build_certificate(inst, result)
    assert cert.variable == "x"
    assert len(cert.sections) == 2
    assert all(len(sec.steps) == 1 for sec in cert.sections)
    # one shrink step: subtracting (x - lambda_0) from (x - lambda_1)
    assert cert.collapse == (((), 0, 1),)
    assert check_certificate(inst, cert).accepted


def test_consistent_instance_has_nothing_to_certify():
    inst = magic_square()
    result = slac(inst)
    with pytest.raises(ValueError, match="consistent"):
        build_certificate(inst, result)


def test_collapse_script_levels():
    for d in range(1, 7):
        script = collapse_script(d)
        established = {frozenset(range(d)) - {k} for k in range(d)}
        for base, r1, r2 in script:
            S = frozenset(base)
            assert S | {r1} in established and S | {r2} in established
            established.add(S)
        assert frozenset() in established


def test_certificates_accept_on_refuted_corpus():
    built = 0
    for inst in bounded_width_corpus(321, 60, max_vars=7):
        result = slac(inst)
        if result.consistent:
            continue
        cert = build_certificate(inst, result)
        verdict = check_certificate(inst, cert)
        assert verdict.accepted, verdict.describe()
        # soundness spot-check: accepted certificates only for UNSAT instances
        assert brute_force_solve(inst) is None
        built += 1
    assert built >= 20


def test_certificate_json_round_trip():
    inst = minimal_conflict_instance()
    cert, verdict = certify(inst)
    assert verdict.accepted
    again = GapCertificate.from_json(cert.to_json())
    assert again.to_json() == cert.to_json()
    assert check_certificate(inst, again).accepted


def find_cert_with_witness(corpus_seed=321, count=60):
    for inst in bounded_width_corpus(corpus_seed, count, max_vars=7):
        result = slac(inst)
        if result.consistent:
            continue
        cert = build_certificate(inst, result)
        for k, sec in enumerate(cert.sections):
            for i, st in enumerate(sec.steps):
                if st.inverse is not None:
                    return inst, cert, k, i
    raise AssertionError("corpus produced no certificate with a Bezout witness")


def _with_perturbed_witness(cert: GapCertificate, k: int, i: int) -> GapCertificate:
    sec = cert.sections[k]
    st = sec.steps[i]
    q, c = st.inverse
    coeffs = list(q.coeffs) if not q.is_zero() else [CycNum.zero()]
    coeffs[0] = coeffs[0] + CycNum.from_rational(Fraction(1, 3))
    bad_step = ChainStep(
        st.constraint, st.src_pos, st.tgt_pos, st.var, st.values, (UniPoly(coeffs), c)
    )
    steps = list(sec.steps)
    steps[i] = bad_step
    sections = list(cert.sections)
    sections[k] = RefutationChain(sec.var, sec.value, tuple(steps))
    return GapCertificate(cert.digest, cert.d, cert.variable, tuple(sections), cert.collapse)


def test_perturbed_witness_rejected():
    inst, cert, k, i = find_cert_with_witness()
    bad = _with_perturbed_witness(cert, k, i)
    verdict = check_certificate(inst, bad)
    assert not verdict.accepted
    assert "Bezout" in verdict.reason


def test_unlicensed_rule_rejected():
    inst = minimal_conflict_instance()
    cert, _ = certify(inst)
    sec = cert.sections[0]
    st = sec.steps[0]
    # cite the other unary constraint: its image set is not the recorded one
    forged_step = ChainStep(1 - st.constraint, st.src_pos, st.tgt_pos, st.var, st.values, st.inverse)
    forged = GapCertificate(
        cert.digest,
        cert.d,
        cert.variable,
        (RefutationChain(sec.var, sec.value, (forged_step,)),) + cert.sections[1:],
        cert.collapse,
    )
    verdict = check_certificate(inst, forged)
    assert not verdict.accepted
    assert verdict.location[:2] == ("section", 0)


def test_tampered_set_rejected():
    inst, cert, k, i = find_cert_with_witness()
    sec = cert.sections[k]
    st = sec.steps[i]
    tampered = ChainStep(
        st.constraint,
        st.src_pos,
        st.tgt_pos,
        st.var,
        tuple(sorted(set(st.values) | {0} if 0 not in st.values else set(st.values) - {0})),
        st.inverse,
    )
    steps = list(sec.steps)
    steps[i] = tampered
    sections = list(cert.sections)
    sections[k] = RefutationChain(sec.var, sec.value, tuple(steps))
    bad = GapCertificate(cert.digest, cert.d, cert.variable, tuple(sections), cert.collapse)
    verdict = check_certificate(inst, bad)
    assert not verdict.accepted


def test_wrong_instance_digest_rejected():
    inst = minimal_conflict_instance()
    cert, _ = certify(inst)
    other = magic_square()
    verdict = check_certificate(other, cert)
    assert not verdict.accepted and verdict.location == ("digest",)


def test_truncated_collapse_rejected():
    inst = minimal_conflict_instance()
    cert, _ = certify(inst)
    bad = GapCertificate(cert.digest, cert.d, cert.variable, cert.sections, ())
    verdict = check_certificate(inst, bad)
    assert not verdict.accepted
    assert verdict.location[0] == "collapse"


def test_chain_identities_hold_on_diagonal_models():
    """Numerical cross-check of the joined chain identities.

    For a prefix of a certified first-round chain, diagonal assignments built
    from solutions of the prefix's own constraints satisfy
    (Dom_complement(S1)(A_v1) - I) (Dom_Si(A_vi) - I) = 0.
    """
    checked = 0
    for inst in bounded_width_corpus(321, 40, max_vars=6):
        result = slac(inst)
        if result.consistent:
            continue
        # first removal happens with all domains full, so its chain only
        # depends on the constraints it cites
        (var, value), chain = next(iter(result.chains.items()))
        if len(chain.steps) < 2:
            continue
        prefix = chain.steps[:-1]
        used = sorted({st.constraint for st in prefix})
        sub = make_instance(
            inst.d,
            inst.variables,
            [(inst.constraints[ci].scope, inst.constraints[ci].rel) for ci in used],
            dict(inst.language.relations),
        )
        sols = list(iter_solutions(sub, limit=4))
        if not sols:
            continue
        from opcsp.operators import embed_classical

        assignment = embed_classical(sols, inst.d)
        pin_dom = dom_polynomial(set(range(inst.d)) - {value}, inst.d)
        eye = np.eye(assignment.dim)
        left = apply_unipoly_matrix(pin_dom, assignment[var]) - eye
        for st in prefix:
            dom_i = dom_polynomial(set(st.values), inst.d)
            right = apply_unipoly_matrix(dom_i, assignment[st.var]) - eye
            assert fro(left @ right) <= 1e-8
        checked += 1
    assert checked >= 3
