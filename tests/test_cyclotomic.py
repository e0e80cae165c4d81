"""Exact cyclotomic field and polynomial algebra checks."""

from fractions import Fraction
import math
import random

import pytest

from opcsp.cyclotomic import (
    CycNum,
    UniPoly,
    cyclotomic_int_coeffs,
    embed,
    poly_ext_gcd,
    root_index,
)

from helpers import cyclotomic_polynomial, leading, phi_degree, poly_mod, x_pow_minus_one


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
    assert not any(c.num[1:] for c in p.coeffs)  # every coefficient rational
    return [Fraction(c.num[0], c.den) for c in p.coeffs]


def fractions(v: CycNum) -> list:
    return [Fraction(c, v.den) for c in v.num]


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
        assert prod == x_pow_minus_one(L)


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


def test_root_index_inverts_embed():
    for L in range(1, 13):
        for k in range(L):
            assert root_index(embed(k, L)) == (L, k, 1)
            order, j, sign = root_index(-embed(k, L))
            assert order == L and sign * embed(j, L) == -embed(k, L)
            # -zeta_L^k is zeta_L^(k + L/2) when L is even, and is read as such
            assert sign == (1 if L % 2 == 0 else -1)


def test_root_index_keeps_the_sign_at_orders_1_and_3():
    # lifting -1 or -zeta_3^k to order 2L would change the order of results
    assert root_index(-CycNum.one()) == (1, 0, -1)
    for k in range(3):
        assert root_index(-embed(k, 3)) == (3, k, -1)
    assert root_index(embed(1, 2).lift(4)) == (4, 2, 1)
    assert root_index(1 + embed(1, 3)) == (3, 2, -1)  # 1 + zeta_3 = -zeta_3^2


@pytest.mark.parametrize("value", [0, 2, Fraction(1, 2), 1 - embed(1, 3), 1 + embed(1, 4), embed(1, 5) * 3])
def test_root_index_rejects_values_that_are_not_roots_of_unity(value):
    with pytest.raises(ValueError, match="is not"):
        root_index(CycNum._coerce(value))


def test_ext_gcd_trivial_cases():
    x = UniPoly.x()
    one = UniPoly.constant(1)
    g, u, v = poly_ext_gcd(x - one, x + one)
    assert g == one
    g2, _, _ = poly_ext_gcd(x * x - one, x - one)
    assert g2 == (x - one)


def test_ext_gcd_coprime_with_unit_circle():
    p = UniPoly([-2, 0, -1])  # -x^2 - 2, no roots among the cube roots of unity
    m = x_pow_minus_one(3)
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
            assert leading(g) == 1
            if not p.is_zero():
                assert poly_mod(p, g).is_zero()
            if not m.is_zero():
                assert poly_mod(m, g).is_zero()
        checked += 1


def test_poly_eval_examples():
    x = UniPoly.x()
    assert (x + UniPoly.constant(1)).eval(embed(1, 2)).is_zero()
    assert x_pow_minus_one(3).eval(embed(1, 3)).is_zero()
    # domain polynomial for {0} at d=2 is 2 - x; at lambda_0 it evaluates to 1
    dom = UniPoly([2, -1])
    assert dom.eval(embed(0, 2)) == 1
    assert dom.eval(embed(1, 2)) == 3


def test_phi_degree_matches_totient():
    totients = {1: 1, 2: 1, 3: 2, 4: 2, 5: 4, 6: 2, 8: 4, 12: 4}
    for L, t in totients.items():
        assert phi_degree(L) == t


def test_first_cyclotomic_polynomial_is_x_minus_one():
    assert cyclotomic_int_coeffs(1) == (-1, 1)
    assert phi_degree(1) == 1


def test_product_with_zero_polynomial_is_zero():
    p = UniPoly([embed(1, 3), 2, Fraction(1, 2)])
    for product_ in (UniPoly() * p, p * UniPoly(), UniPoly() * UniPoly()):
        assert product_.is_zero()
        assert product_ == UniPoly()
        assert product_.degree == -1


def test_serialization_round_trip():
    vals = [embed(2, 5) + CycNum.from_rational(Fraction(3, 7)), CycNum.zero(), embed(1, 8)]
    for v in vals:
        assert CycNum.from_obj(v.to_obj()) == v
    p = UniPoly([embed(1, 4), CycNum.from_rational(Fraction(-1, 2)), CycNum.one()])
    assert UniPoly([CycNum.from_obj(c) for c in p.to_obj()["coeffs"]]) == p


def test_from_obj_matches_reading_each_pair_as_a_fraction():
    """Unreduced pairs, negative denominators and more coefficients than
    phi(order) decode to the canonical element that Fraction reading gives."""
    rng = random.Random(15)
    for _ in range(500):
        order = rng.randint(1, 12)
        pairs = []
        for _ in range(rng.randint(0, order + 3)):
            k = rng.choice((1, 1, 2, 6)) * rng.choice((1, -1))
            pairs.append([rng.randint(-9, 9) * k, rng.choice((1, 2, 3, 5, 12)) * k])
        got = CycNum.from_obj({"order": order, "coeffs": pairs})
        want = CycNum(order, [Fraction(n, d) for n, d in pairs])
        assert (got.order, got.num, got.den) == (want.order, want.num, want.den)
        assert got.to_obj() == want.to_obj()


def test_to_obj_and_str_write_each_coefficient_in_lowest_terms():
    cases = [
        (CycNum(4, [Fraction(1, 2), Fraction(-3, 4)]), [[1, 2], [-3, 4]], "1/2 + -3/4*z4^1"),
        (CycNum(3, [Fraction(2, 4), 1]), [[1, 2], [1, 1]], "1/2 + z3^1"),
        (CycNum(5, [0, 0, Fraction(6, 4)]), [[0, 1], [0, 1], [3, 2], [0, 1]], "3/2*z5^2"),
        (CycNum(6, [Fraction(-10, 6)]), [[-5, 3], [0, 1]], "-5/3"),
    ]
    for v, pairs, text in cases:
        assert v.to_obj() == {"order": v.order, "coeffs": pairs}
        assert str(v) == text


def test_from_obj_rejects_zero_denominator():
    with pytest.raises(ValueError, match="denominator is zero"):
        CycNum.from_obj({"order": 3, "coeffs": [[1, 2], [1, 0]]})
    with pytest.raises(ValueError, match="denominator is zero"):
        CycNum.from_obj({"order": 1, "coeffs": [[0, 0]]})


def test_field_against_sympy():
    """Differential check of Phi_L, sums, products and inverses against
    sympy's polynomial arithmetic over QQ (an optional test dependency)."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")

    def phi(L):
        return sympy.Poly(sympy.cyclotomic_poly(L, x), x, domain="QQ")

    def as_poly(v, L):
        # v lifted to order L: zeta_v.order^i = zeta_L^(i * L / v.order)
        step = L // v.order
        dense = [sympy.Integer(0)] * (step * (len(v.num) - 1) + 1)
        for i, c in enumerate(v.num):
            dense[i * step] = sympy.Rational(c, v.den)
        return sympy.Poly(list(reversed(dense)), x, domain="QQ")

    def as_fractions(p, L):
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
        return coeffs + [Fraction(0)] * (phi_degree(L) - len(coeffs))

    for L in range(1, 61):
        expected = reversed(sympy.Poly(sympy.cyclotomic_poly(L, x), x).all_coeffs())
        assert cyclotomic_int_coeffs(L) == tuple(int(c) for c in expected), L

    rng = random.Random(60)

    def rand_num(order):
        size = rng.randint(1, order)  # up to `order` entries, so some need reducing
        coeffs = [Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7))) for _ in range(size)]
        return CycNum(order, coeffs)

    for i in range(200):
        la = rng.randint(1, 12)
        lb = la if i % 4 == 0 else rng.randint(1, 12)
        a, b = rand_num(la), rand_num(lb)
        L = a.order * b.order // math.gcd(a.order, b.order)
        A, B, mod = as_poly(a, L), as_poly(b, L), phi(L)
        assert fractions((a + b).lift(L)) == as_fractions((A + B).rem(mod), L)
        assert fractions((a * b).lift(L)) == as_fractions((A * B).rem(mod), L)
        if not a.is_zero():
            inv = a.inverse()
            assert inv.order == a.order
            expected = sympy.invert(as_poly(a, la), phi(la))
            assert fractions(inv) == as_fractions(expected, la)
