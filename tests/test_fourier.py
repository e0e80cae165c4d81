"""Relation polynomials, domain polynomials, and modular inverse witnesses."""

import random
from itertools import product

import pytest

from opcsp.csp_core import Relation, full_relation
from opcsp.cyclotomic import CycNum, UniPoly, embed
from opcsp.fourier import (
    MultiPoly,
    complement,
    dom_difference_inverse,
    dom_gap_inverse,
    dom_polynomial,
    relation_polynomial,
    root_product,
    rule_polynomial,
)


def poly_matches_relation(rel: Relation) -> bool:
    p = relation_polynomial(rel)
    lam0, lam1 = embed(0, rel.d), embed(1, rel.d)
    for a in product(range(rel.d), repeat=rel.arity):
        point = [embed(k, rel.d) for k in a]
        value = p.eval(point)
        expected = lam0 if a in rel else lam1
        if value != expected:
            return False
    return True


def test_parity_relation_gives_monomial():
    rel = Relation(3, 2, frozenset(t for t in product(range(2), repeat=3) if sum(t) % 2 == 0))
    p = relation_polynomial(rel)
    assert p.terms == {(1, 1, 1): CycNum.one()} or p == MultiPoly(2, p.vars, {(1, 1, 1): 1})
    assert poly_matches_relation(rel)


def test_full_relation_is_constant_one():
    rel = full_relation(2, 2)
    p = relation_polynomial(rel)
    assert p == MultiPoly.constant(1, 2, p.vars)


def test_equality_relation_d2():
    rel = Relation(2, 2, frozenset({(0, 0), (1, 1)}))
    p = relation_polynomial(rel)
    assert p == MultiPoly(2, p.vars, {(1, 1): 1})
    # mixed point evaluates to lambda_1
    assert p.eval([embed(0, 2), embed(1, 2)]) == embed(1, 2)


def test_empty_relation_is_constant_lambda1():
    rel = Relation(2, 3, frozenset())
    p = relation_polynomial(rel)
    assert p == MultiPoly.constant(embed(1, 3), 3, p.vars)


def test_round_trip_exhaustive_small_relations():
    def fingerprint(poly):
        return tuple(
            (exps, coeff.order, coeff.coeffs) for exps, coeff in poly.sorted_terms()
        )

    for d in (2, 3):
        universe = list(product(range(d), repeat=2))
        prints = set()
        for mask in range(2 ** len(universe)):
            tuples = frozenset(t for i, t in enumerate(universe) if mask >> i & 1)
            rel = Relation(2, d, tuples)
            assert poly_matches_relation(rel)
            prints.add(fingerprint(relation_polynomial(rel)))
        # uniqueness: distinct relations give distinct polynomials
        assert len(prints) == 2 ** len(universe)


def test_round_trip_random_ternary_relations():
    rng = random.Random(31337)
    for _ in range(200):
        d = rng.choice([2, 3, 4])
        universe = list(product(range(d), repeat=3))
        size = rng.randint(0, len(universe))
        rel = Relation(3, d, frozenset(rng.sample(universe, size)))
        assert poly_matches_relation(rel)


def test_dom_polynomial_values():
    dom = dom_polynomial({0}, 2)
    assert dom == UniPoly([2, -1])
    assert dom.eval(embed(0, 2)) == 1
    assert dom.eval(embed(1, 2)) == 3
    empty = dom_polynomial(set(), 2)
    assert empty == UniPoly.constant(2)
    d3 = dom_polynomial({0, 1}, 3)
    for k in range(3):
        value = d3.eval(embed(k, 3))
        assert (value == 1) == (k in {0, 1})


def test_dom_polynomial_membership_all_d_up_to_six():
    for d in range(1, 7):
        for mask in range(2 ** d):
            S = {k for k in range(d) if mask >> k & 1}
            dom = dom_polynomial(S, d)
            for k in range(d):
                assert (dom.eval(embed(k, d)) == 1) == (k in S)


def test_rule_polynomial_vanishes_for_sound_rules():
    rng = random.Random(5)
    for d in (2, 3):
        for r in (2, 3):
            universe = list(product(range(d), repeat=r))
            for _ in range(6):
                rel = Relation(r, d, frozenset(rng.sample(universe, rng.randint(1, len(universe)))))
                i, j = rng.sample(range(r), 2)
                smask = rng.randint(0, 2 ** d - 1)
                S = {k for k in range(d) if smask >> k & 1}
                image = {t[j] for t in rel.tuples if t[i] in S}
                rule = rule_polynomial(S, rel, image, i, j)
                for a in universe:
                    point = [embed(k, d) for k in a]
                    assert rule.eval(point).is_zero()


def test_rule_polynomial_detects_unsound_target():
    rel = Relation(2, 2, frozenset({(0, 1)}))
    rule = rule_polynomial({0}, rel, set(), 0, 1)  # target set misses the image {1}
    point = [embed(0, 2), embed(1, 2)]
    assert not rule.eval(point).is_zero()


def test_rule_polynomial_full_source_reduces_first_factor_to_one():
    rel = Relation(2, 2, frozenset({(0, 0), (1, 1)}))
    S = {0, 1}
    rule = rule_polynomial(S, rel, {0, 1}, 0, 1)
    one = MultiPoly.constant(1, 2, rule.vars)
    lam1 = MultiPoly.constant(embed(1, 2), 2, rule.vars)
    reduced = (relation_polynomial(rel, rule.vars) - lam1) * (
        MultiPoly.from_unipoly(dom_polynomial({0, 1}, 2), 1, 2, rule.vars) - one
    )
    assert rule == reduced


def test_rule_polynomial_symbolic_expansion_oracle():
    # independent term-by-term expansion over exponent dictionaries
    rel = Relation(2, 2, frozenset({(0, 0), (1, 1)}))
    rule = rule_polynomial({0}, rel, {1}, 0, 1)

    def to_dict(uni, pos):
        out = {}
        for e, c in enumerate(uni.coeffs):
            if not c.is_zero():
                key = [0, 0]
                key[pos] = e % 2
                out[tuple(key)] = out.get(tuple(key), CycNum.zero()) + c
        return out

    def mul(a, b):
        out = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                key = ((e1[0] + e2[0]) % 2, (e1[1] + e2[1]) % 2)
                out[key] = out.get(key, CycNum.zero()) + c1 * c2
        return {k: v for k, v in out.items() if not v.is_zero()}

    left = to_dict(dom_polynomial({1}, 2) - UniPoly.constant(1), 0)
    mid = {(1, 1): CycNum.one(), (0, 0): CycNum.one()}  # x*y - lambda_1 = x*y + 1
    right = to_dict(dom_polynomial({1}, 2) - UniPoly.constant(1), 1)
    expected = mul(mul(left, mid), right)
    assert dict(rule.sorted_terms()).keys() == expected.keys()
    for key, coeff in expected.items():
        assert rule.terms[key] == coeff


def test_dom_gap_inverse_examples():
    q, c = dom_gap_inverse({0}, 2)
    assert q == UniPoly.constant(1) and c == -2
    q4, c4 = dom_gap_inverse({0, 2}, 4)
    assert q4 == UniPoly.constant(1) and c4 == -2
    # d=3, S={0}: p = -x^2 - 2; verify the witness by exact reduction
    q3, c3 = dom_gap_inverse({0}, 3)
    p3 = root_product({0}, 3) - root_product({1, 2}, 3)
    assert p3 == UniPoly([-2, 0, -1])
    assert not c3.is_zero()
    residue = (p3 * q3 - UniPoly.constant(c3)) % UniPoly.x_pow_minus_one(3)
    assert residue.is_zero()


def test_dom_gap_inverse_guards():
    with pytest.raises(ValueError):
        dom_gap_inverse(set(), 3)
    with pytest.raises(ValueError):
        dom_gap_inverse({0, 1, 2}, 3)


def test_dom_gap_inverse_all_proper_subsets_up_to_six():
    for d in range(2, 7):
        circle = UniPoly.x_pow_minus_one(d)
        for mask in range(1, 2 ** d - 1):
            S = {k for k in range(d) if mask >> k & 1}
            q, c = dom_gap_inverse(S, d)
            assert not c.is_zero()
            p = root_product(S, d) - root_product(complement(S, d), d)
            assert ((p * q - UniPoly.constant(c)) % circle).is_zero()


def test_dom_difference_inverse_every_subset():
    for d in range(2, 6):
        circle = UniPoly.x_pow_minus_one(d)
        for mask in range(2 ** d):
            S = {k for k in range(d) if mask >> k & 1}
            q, c = dom_difference_inverse(S, d)
            assert not c.is_zero()
            p = dom_polynomial(S, d) - dom_polynomial(complement(S, d), d)
            assert ((p * q - UniPoly.constant(c)) % circle).is_zero()


def test_multipoly_eval_examples():
    rel = Relation(3, 2, frozenset(t for t in product(range(2), repeat=3) if sum(t) % 2 == 0))
    p = relation_polynomial(rel)
    assert p.eval([CycNum.one()] * 3) == 1
    const = MultiPoly.constant(1, 2, ("x", "y"))
    assert const.eval([embed(1, 2), embed(1, 2)]) == 1
    with pytest.raises(ValueError):
        const.eval([CycNum.one()])
