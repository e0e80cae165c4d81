"""Relation polynomials, domain polynomials, and modular inverse witnesses."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

from opcsp.csp_core import Relation, full_relation
from opcsp.cyclotomic import ONE, ZERO, CycNum, UniPoly, embed, poly_ext_gcd
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
from opcsp.gap_instances import linear_language, parity_relation, zero_sum_relation

from helpers import (
    poly_mod,
    reference_dom_polynomial,
    reference_eval,
    reference_ext_gcd,
    reference_root_product,
    x_pow_minus_one,
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
    rel = parity_relation(0)
    p = relation_polynomial(rel)
    assert p.terms == {(1, 1, 1): CycNum.one()} or p == MultiPoly(2, p.vars, {(1, 1, 1): 1})
    assert p.terms[(1, 1, 1)].order == 2
    assert poly_matches_relation(rel)


def test_zero_sum_relation_spectrum_is_the_diagonal():
    """The (d+2)-ary Z_d zero-sum relation (15,625 tuples for d = 5): the
    Fourier sum over a subgroup vanishes off its annihilator, the d vectors
    (j,...,j), and is |R| = d^(d+1) on it, so each coefficient is
    (1 - lambda_1)/d, plus lambda_1 at the origin, all at order d."""
    for d in (3, 5):
        p = relation_polynomial(zero_sum_relation(d))
        lam1 = embed(1, d)
        share = CycNum.from_rational(Fraction(1, d)) * (ONE - lam1)
        expected = {(j,) * (d + 2): share + lam1 if j == 0 else share for j in range(d)}
        assert set(p.terms) == set(expected)
        for b, coeff in expected.items():
            assert p.terms[b] == coeff and p.terms[b].order == d


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
            (exps, coeff.order, tuple(Fraction(c, coeff.den) for c in coeff.num))
            for exps, coeff in poly.sorted_terms()
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


def test_dom_polynomial_rejects_elements_outside_the_domain():
    with pytest.raises(ValueError, match=r"^set element 5 outside 0\.\.2$"):
        dom_polynomial({0, 5}, 3)
    with pytest.raises(ValueError, match=r"^set element -1 outside 0\.\.2$"):
        dom_polynomial({-1, 5}, 3)


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
    residue = poly_mod(p3 * q3 - UniPoly.constant(c3), x_pow_minus_one(3))
    assert residue.is_zero()


def test_dom_gap_inverse_guards():
    with pytest.raises(ValueError):
        dom_gap_inverse(set(), 3)
    with pytest.raises(ValueError):
        dom_gap_inverse({0, 1, 2}, 3)


def test_dom_gap_inverse_all_proper_subsets_up_to_six():
    for d in range(2, 7):
        circle = x_pow_minus_one(d)
        for mask in range(1, 2 ** d - 1):
            S = {k for k in range(d) if mask >> k & 1}
            q, c = dom_gap_inverse(S, d)
            assert not c.is_zero()
            p = root_product(S, d) - root_product(complement(S, d), d)
            assert poly_mod(p * q - UniPoly.constant(c), circle).is_zero()


def test_dom_difference_inverse_every_subset():
    for d in range(2, 6):
        circle = x_pow_minus_one(d)
        for mask in range(2 ** d):
            S = {k for k in range(d) if mask >> k & 1}
            q, c = dom_difference_inverse(S, d)
            assert not c.is_zero()
            p = dom_polynomial(S, d) - dom_polynomial(complement(S, d), d)
            assert poly_mod(p * q - UniPoly.constant(c), circle).is_zero()


def dft_witness(S, d: int) -> tuple:
    """The witness (q, c) of `dom_difference_inverse(S, d)` by the DFT
    formula.  Over Q(zeta_d), Q(zeta_d)[x]/(x^d - 1) is Q(zeta_d)^d, so the
    inverse q of p takes the value 1/p(zeta^k) at each root zeta^k, and its
    coefficients are q_j = sum_k zeta^(-jk) / p(zeta^k) / d.  A constant p
    keeps the witness (1, p_0), as `dom_difference_inverse` does."""
    p = dom_polynomial(S, d) - dom_polynomial(complement(S, d), d)
    if p.degree == 0:
        return UniPoly.constant(1), p.coeffs[0]
    inverses = [p.eval(embed(k, d)).inverse() for k in range(d)]
    q = [sum((v * embed(-j * k, d) for k, v in enumerate(inverses)), ZERO) * Fraction(1, d)
         for j in range(d)]
    return UniPoly(q), ONE


def test_dft_witness_equals_euclids():
    """For every proper nonempty S with d <= 7 (240 sets) the DFT-formula
    witness is the value Euclid's is.  Their wire forms can still differ:
    a rational coefficient is written at the order it was computed at."""
    count = 0
    for d in range(2, 8):
        for mask in range(1, 2 ** d - 1):
            S = {k for k in range(d) if mask >> k & 1}
            q, c = dft_witness(S, d)
            want_q, want_c = dom_difference_inverse(S, d)
            assert q == want_q and c == want_c, (d, S)
            count += 1
    assert count == 240


def proper_subsets(d: int):
    for mask in range(1, 2 ** d - 1):
        yield [k for k in range(d) if mask >> k & 1]


def reference_witness(p: UniPoly, d: int) -> tuple:
    # `_inverse_mod_circle` over the CycNum oracles
    if p.degree == 0:
        return UniPoly.constant(1), p.coeffs[0]
    return reference_ext_gcd(p, x_pow_minus_one(d))[1], ONE


def test_root_and_dom_polynomials_match_the_cycnum_oracles():
    """The row kernel writes every coefficient at the order UniPoly
    arithmetic gives it: `to_obj()` is equal, orders included, for every
    S with d <= 9."""
    for d in range(1, 10):
        for mask in range(2 ** d):
            S = [k for k in range(d) if mask >> k & 1]
            assert root_product(S, d).to_obj() == reference_root_product(S, d).to_obj(), (d, S)
            assert dom_polynomial(S, d).to_obj() == reference_dom_polynomial(S, d).to_obj(), (d, S)
    # UniPoly.__mul__ skips the zero x^1 coefficient of (x^2 - x + 1)(x + 1), so x^2 stays the order-1 zero
    assert root_product({0, 2, 4, 5}, 6).coeffs[2].to_obj() == {"order": 1, "coeffs": [[0, 1]]}


def test_witnesses_match_the_cycnum_oracles():
    """`dom_difference_inverse` for every proper S with d <= 8 and
    `dom_gap_inverse` for d <= 7 equal Euclid in CycNum arithmetic, byte
    for byte; some of these witnesses mix order-1 and order-d coefficients."""
    for d in range(2, 9):
        for S in proper_subsets(d):
            comp = complement(S, d)
            p = reference_dom_polynomial(S, d) - reference_dom_polynomial(comp, d)
            got, want = dom_difference_inverse(S, d), reference_witness(p, d)
            assert [x.to_obj() for x in got] == [x.to_obj() for x in want], (d, S)
            if d <= 7:
                p = reference_root_product(S, d) - reference_root_product(comp, d)
                got, want = dom_gap_inverse(S, d), reference_witness(p, d)
                assert [x.to_obj() for x in got] == [x.to_obj() for x in want], (d, S)
    q, c = dom_difference_inverse([0, 1], 4)
    assert [x.order for x in q.coeffs] == [1, 1, 1, 4]
    assert q.coeffs[3].to_obj() == {"order": 4, "coeffs": [[-1, 4], [1, 4]]} and c == 1


def test_ext_gcd_matches_the_cycnum_oracle_on_mixed_orders():
    """300 seeded pairs with coefficients at orders 1, 2, 3, 4 and 6.  A
    coefficient whose order is neither 1 nor the lcm L of the inputs' orders
    is brought down from the kernel's order L; some pairs need that."""
    rng = random.Random(28)

    def rand_poly():
        coeffs = []
        for _ in range(rng.randint(1, 6)):
            order = rng.choice((1, 2, 3, 4, 6))
            c = CycNum.from_rational(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))))
            if order > 1 and rng.random() < 0.6:
                c = c + embed(rng.randrange(order), order)
            coeffs.append(c)
        return UniPoly(coeffs)

    pairs = descended = 0
    while pairs < 300:
        p, m = rand_poly(), rand_poly()
        if p.is_zero() and m.is_zero():
            continue
        got = [x.to_obj() for x in poly_ext_gcd(p, m)]
        assert got == [x.to_obj() for x in reference_ext_gcd(p, m)], pairs
        L = math.lcm(1, *(c.order for c in p.coeffs + m.coeffs))
        descended += any(c["order"] not in (1, L) for x in got for c in x["coeffs"])
        pairs += 1
    assert descended > 0


def test_multipoly_eval_examples():
    rel = Relation(3, 2, frozenset(t for t in product(range(2), repeat=3) if sum(t) % 2 == 0))
    p = relation_polynomial(rel)
    assert p.eval([CycNum.one()] * 3) == 1
    const = MultiPoly.constant(1, 2, ("x", "y"))
    assert const.eval([embed(1, 2), embed(1, 2)]) == 1
    with pytest.raises(ValueError):
        const.eval([CycNum.one()])


def test_eval_matches_the_field_arithmetic_reference():
    """Index-shift evaluation writes the wire form of field arithmetic: at
    every point of the linear_language(2) and (3) relation polynomials and of
    seeded relation and rule polynomials with d <= 6, and at seeded points of
    orders 1, 3, 5, d and 2d, negated roots included, of seeded polynomials
    whose coefficients have orders 1, d, 2d and 3 and denominators."""
    rng = random.Random(24)
    polys = [relation_polynomial(lang[name]) for lang in (linear_language(2), linear_language(3))
             for name in sorted(lang.relations)]
    for _ in range(30):
        d, r = rng.randint(1, 6), rng.randint(1, 3)
        rel = Relation(r, d, frozenset(t for t in product(range(d), repeat=r) if rng.random() < 0.5))
        polys.append(relation_polynomial(rel))
        if r >= 2 and d <= 4:
            i, j = rng.sample(range(r), 2)
            S = {k for k in range(d) if rng.random() < 0.5}
            polys.append(rule_polynomial(S, rel, {t[j] for t in rel.tuples if t[i] in S}, i, j))
    points = [(poly, [embed(k, poly.d) for k in a])
              for poly in polys for a in product(range(poly.d), repeat=len(poly.vars))]
    dens = (1, 1, 2, 3, 12)
    for _ in range(80):
        d, r = rng.randint(2, 6), rng.randint(1, 3)
        terms = {}
        for _ in range(rng.randint(0, 6)):
            order = rng.choice((1, d, 2 * d, 3))
            coeffs = [Fraction(rng.randint(-4, 4), rng.choice(dens)) for _ in range(rng.randint(1, order))]
            terms[tuple(rng.randrange(d) for _ in range(r))] = CycNum(order, coeffs)
        poly = MultiPoly(d, [f"x{j}" for j in range(r)], terms)
        for _ in range(20):
            orders = [rng.choice((1, 3, 5, d, 2 * d)) for _ in range(r)]
            points.append((poly, [rng.choice((1, -1)) * embed(rng.randrange(L), L) for L in orders]))
    for poly, point in points:
        assert poly.eval(point).to_obj() == reference_eval(poly, point).to_obj(), (poly, point)
    assert len(points) > 3000


def test_eval_of_the_empty_polynomial_is_the_order_1_zero():
    empty = MultiPoly(3, ("x", "y"), {(1, 2): embed(1, 3), (4, 5): -embed(1, 3)})
    assert empty.is_zero()
    assert empty.eval([embed(1, 3), embed(5, 6)]).to_obj() == {"order": 1, "coeffs": [[0, 1]]}


@pytest.mark.parametrize("value", [0, 2, Fraction(1, 2), 1 - embed(1, 3), 1 + embed(1, 4)])
def test_eval_rejects_a_coordinate_that_is_not_a_root_of_unity(value):
    poly = MultiPoly(3, ("x", "y"), {(1, 2): 1})
    with pytest.raises(ValueError, match="is not"):
        poly.eval([embed(1, 3), value])
