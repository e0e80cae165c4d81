"""Certificate compilation and the independent exact checker."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from opcsp.certificates import (
    GapCertificate,
    _bezout_residue,
    build_certificate,
    check_certificate,
    collapse_script,
    certify,
)
from opcsp.consistency import ChainStep, RefutationChain, slac
from opcsp.csp_core import brute_force_solve, make_instance
from opcsp.cyclotomic import CycNum, UniPoly, embed
from opcsp.fourier import complement, dom_difference_inverse, dom_polynomial, root_product
from opcsp.gap_instances import magic_square
from opcsp.operators import apply_unipoly_matrix, fro

from helpers import (
    bounded_width_corpus,
    collapse_mutations,
    iter_solutions,
    minimal_conflict_instance,
    reference_collapse_check,
)


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
    again = GapCertificate.from_json(cert.to_json(), cert.d)
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


def _with_witness(cert: GapCertificate, k: int, i: int, q: UniPoly) -> GapCertificate:
    sec = cert.sections[k]
    steps = list(sec.steps)
    steps[i] = replace(steps[i], inverse=(q, steps[i].inverse[1]))
    sections = list(cert.sections)
    sections[k] = replace(sec, steps=tuple(steps))
    return replace(cert, sections=tuple(sections))


def _with_perturbed_witness(cert: GapCertificate, k: int, i: int) -> GapCertificate:
    q, _ = cert.sections[k].steps[i].inverse
    coeffs = list(q.coeffs) if not q.is_zero() else [CycNum.zero()]
    coeffs[0] = coeffs[0] + CycNum.from_rational(Fraction(1, 3))
    return _with_witness(cert, k, i, UniPoly(coeffs))


def test_perturbed_witness_rejected():
    inst, cert, k, i = find_cert_with_witness()
    bad = _with_perturbed_witness(cert, k, i)
    verdict = check_certificate(inst, bad)
    assert not verdict.accepted
    assert "Bezout" in verdict.reason


def test_padded_witness_rejected_before_arithmetic():
    inst, cert, k, i = find_cert_with_witness()
    d = cert.d
    q, c = cert.sections[k].steps[i].inverse
    assert q.degree < d
    circle = UniPoly.x_pow_minus_one(d)
    padded = q + circle * UniPoly([CycNum.from_rational(n) for n in (3, -1, 0, 2)])
    # still a Bezout witness for the step's membership difference ...
    image = frozenset(cert.sections[k].steps[i].values)
    p = dom_polynomial(image, d) - dom_polynomial(complement(image, d), d)
    assert ((p * padded - UniPoly.constant(c)) % circle).is_zero()
    # ... but not one of bounded size
    bad = _with_witness(cert, k, i, padded)
    for candidate in (bad, GapCertificate.from_json(bad.to_json())):
        verdict = check_certificate(inst, candidate)
        assert not verdict.accepted
        assert verdict.location == ("section", k, "step", i)
        assert verdict.reason == "witness degree >= d"


def _random_cycnum(rng: random.Random, d: int) -> CycNum:
    order = rng.choice([L for L in range(1, d + 1) if d % L == 0])
    if rng.random() < 0.2:
        return CycNum.zero()
    return CycNum(order, [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(order)])


def test_bezout_fold_matches_division_by_circle():
    rng = random.Random(7)
    for d in range(2, 12):
        circle = UniPoly.x_pow_minus_one(d)
        for _ in range(12):
            p = UniPoly([_random_cycnum(rng, d) for _ in range(rng.randint(0, 2 * d))])
            q = UniPoly([_random_cycnum(rng, d) for _ in range(rng.randint(0, 2 * d))])
            c = _random_cycnum(rng, d)
            assert _bezout_residue(p, q, c, d) == (p * q - UniPoly.constant(c)) % circle
    for d in range(2, 8):
        circle = UniPoly.x_pow_minus_one(d)
        for mask in range(1, 2 ** d - 1):
            S = frozenset(k for k in range(d) if mask >> k & 1)
            p = dom_polynomial(S, d) - dom_polynomial(complement(S, d), d)
            q, c = dom_difference_inverse(S, d)
            expected = (p * q - UniPoly.constant(c)) % circle
            assert expected.is_zero()
            assert _bezout_residue(p, q, c, d) == expected
            off = c + CycNum.from_rational(1)
            assert _bezout_residue(p, q, off, d) == (p * q - UniPoly.constant(off)) % circle


def test_collapse_mutations_match_reference_loop():
    for d in range(2, 7):
        inst = minimal_conflict_instance(d)
        cert, verdict = certify(inst)
        assert verdict.accepted
        assert cert.collapse == collapse_script(d)
        for label, script in collapse_mutations(cert.collapse, d):
            verdict = check_certificate(inst, replace(cert, collapse=script))
            assert verdict.describe() == reference_collapse_check(d, script).describe(), (d, label)
            assert verdict.accepted == label.endswith("swap"), (d, label, verdict.describe())


def test_shrink_subtraction_is_an_identity():
    # the checker replays the collapse script structurally; this is the
    # identity that makes every structurally sound entry coefficient-exact
    for d in range(2, 7):
        for size in range(d - 1):
            for S in combinations(range(d), size):
                S = frozenset(S)
                rest = sorted(set(range(d)) - S)
                for r1, r2 in permutations(rest, 2):
                    lhs = root_product(S | {r1}, d) - root_product(S | {r2}, d)
                    assert lhs == root_product(S, d) * (embed(r2, d) - embed(r1, d))


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
