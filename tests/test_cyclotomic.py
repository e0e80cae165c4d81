"""Exact cyclotomic field and polynomial algebra checks."""

from fractions import Fraction
import random

import pytest

from opcsp.cyclotomic import (
    CycNum,
    UniPoly,
    cyclotomic_polynomial,
    embed,
    phi_degree,
    poly_ext_gcd,
)


# --- independent oracle: long division over Q on plain coefficient lists ---

def frac_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def frac_poly_divmod(num, den):
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    q = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    while len(num) >= len(den):
        coef = num[-1] / den[-1]
        shift = len(num) - len(den)
        q[shift] = coef
        for i, c in enumerate(den):
            num[shift + i] -= coef * c
        while num and num[-1] == 0:
            num.pop()
        if not num:
            break
    return q, num


def as_fraction_list(p: UniPoly):
    return [c.as_fraction() for c in p.coeffs]


def test_field_ops_trivial_examples():
    z2 = embed(1, 2)
    assert z2 * z2 == 1
    z3 = embed(1, 3)
    assert z3 + z3 * z3 == -1


def test_division_inverse_of_i():
    z4 = embed(1, 4)
    inv = 1 / z4
    # oracle: the claimed inverse must multiply back to one, exactly
    assert (z4 * inv) == 1
    assert inv == z4 ** 3


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        CycNum.one() / CycNum.zero()


def test_conjugation_matches_complex_conjugate():
    for d in range(1, 9):
        for k in range(d):
            v = embed(k, d)
            assert v.conjugate() == embed(-k, d)
            assert v * v.conjugate() == 1


def test_mixed_order_arithmetic():
    # z6 = -z3^2: both sides expressed at different orders
    z6 = embed(1, 6)
    z3 = embed(1, 3)
    assert z6 == -(z3 ** 2)
    assert z6 ** 6 == 1
    assert (z6 + z3).order == 6


def test_cyclotomic_polynomial_small_cases():
    assert as_fraction_list(cyclotomic_polynomial(1)) == [-1, 1]
    assert as_fraction_list(cyclotomic_polynomial(2)) == [1, 1]


def test_cyclotomic_polynomial_order_six_against_long_division_oracle():
    # oracle: divide x^6 - 1 by Phi_1 * Phi_2 * Phi_3 with independent division
    x6m1 = [Fraction(-1), 0, 0, 0, 0, 0, Fraction(1)]
    den = frac_poly_mul(frac_poly_mul([-1, 1], [1, 1]), [1, 1, 1])
    q, r = frac_poly_divmod(x6m1, den)
    assert r == []
    assert q == [1, -1, 1]
    assert as_fraction_list(cyclotomic_polynomial(6)) == q


def test_cyclotomic_product_identity():
    # prod over divisors e of L of Phi_e equals x^L - 1, exactly, for L <= 24
    for L in range(1, 25):
        prod = UniPoly.constant(1)
        for e in range(1, L + 1):
            if L % e == 0:
                prod = prod * cyclotomic_polynomial(e)
        assert prod == UniPoly.x_pow_minus_one(L)


def test_embed_multiplicative_order():
    for d in range(1, 9):
        g = embed(1, d)
        acc = CycNum.one()
        for j in range(1, d):
            acc = acc * g
            assert acc != 1, f"zeta_{d}^{j} must differ from 1"
        assert acc * g == 1
        for k in range(d):
            assert embed(k, d) ** d == 1


def test_embed_consistency_across_orders():
    # embedding lambda_k of U_d inside Q(zeta_L) for d | L lands on zeta_L^(kL/d)
    for d in (2, 3, 4):
        for mult in (2, 3):
            L = d * mult
            for k in range(d):
                assert embed(k, d) == embed(k * (L // d), L)


def test_ext_gcd_trivial_cases():
    x = UniPoly.x()
    one = UniPoly.constant(1)
    g, u, v = poly_ext_gcd(x - one, x + one)
    assert g == one
    g2, _, _ = poly_ext_gcd(x * x - one, x - one)
    assert g2 == (x - one)


def test_ext_gcd_coprime_with_unit_circle():
    p = UniPoly([-2, 0, -1])  # -x^2 - 2, no roots among the cube roots of unity
    m = UniPoly.x_pow_minus_one(3)
    g, u, v = poly_ext_gcd(p, m)
    assert g.degree == 0 and g == UniPoly.constant(1)
    assert u * p + v * m == g


def test_ext_gcd_bezout_identity_random():
    rng = random.Random(20240615)

    def rand_poly():
        deg = rng.randint(0, 6)
        order = rng.choice([1, 1, 2, 3, 4])
        coeffs = []
        for _ in range(deg + 1):
            num = rng.randint(-4, 4)
            den = rng.choice([1, 1, 2, 3])
            base = CycNum.from_rational(Fraction(num, den))
            if order > 1 and rng.random() < 0.5:
                base = base + embed(rng.randrange(order), order)
            coeffs.append(base)
        return UniPoly(coeffs)

    checked = 0
    while checked < 500:
        p, m = rand_poly(), rand_poly()
        if p.is_zero() and m.is_zero():
            continue
        g, u, v = poly_ext_gcd(p, m)
        assert u * p + v * m == g
        if not g.is_zero():
            assert g.leading() == 1
            if not p.is_zero():
                assert (p % g).is_zero()
            if not m.is_zero():
                assert (m % g).is_zero()
        checked += 1


def test_poly_eval_examples():
    x = UniPoly.x()
    assert (x + UniPoly.constant(1)).eval(embed(1, 2)).is_zero()
    assert UniPoly.x_pow_minus_one(3).eval(embed(1, 3)).is_zero()
    # domain polynomial for {0} at d=2 is 2 - x; at lambda_0 it evaluates to 1
    dom = UniPoly([2, -1])
    assert dom.eval(embed(0, 2)) == 1
    assert dom.eval(embed(1, 2)) == 3


def test_phi_degree_matches_totient():
    totients = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 12: 4}
    for L, t in totients.items():
        assert phi_degree(L) == t


def test_serialization_round_trip():
    vals = [embed(2, 5) + CycNum.from_rational(Fraction(3, 7)), CycNum.zero(), embed(1, 8)]
    for v in vals:
        assert CycNum.from_obj(v.to_obj()) == v
    p = UniPoly([embed(1, 4), CycNum.from_rational(Fraction(-1, 2)), CycNum.one()])
    assert UniPoly.from_obj(p.to_obj()) == p
