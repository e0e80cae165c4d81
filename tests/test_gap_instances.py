"""Magic square, Pauli fixture, and linear-system encodings."""

import random
import time
from itertools import product

import numpy as np
import pytest

from opcsp.consistency import slac
from opcsp.csp_core import brute_force_solve, search_space_size
from opcsp.gap_instances import (
    LinearSystem,
    linear_system_instance,
    magic_square,
    parse_linear_system,
    pauli_fixture,
    ZSUM_GUARD,
    sum3_relation,
    zero_sum_relation,
)
from opcsp.operators import OperatorAssignment, commutator_norm, fro, verify_assignment

from helpers import iter_solutions


def test_magic_square_is_the_first_kind_gap_witness():
    inst = magic_square()
    assert search_space_size(inst) == 512
    assert brute_force_solve(inst) is None
    fixture = OperatorAssignment(4, pauli_fixture())
    report = verify_assignment(inst, fixture, tol=1e-8)
    assert report.verdict == "SATISFYING" and report.max_residual < 1e-9
    result = slac(inst)
    assert result.consistent
    assert all(vals == frozenset({0, 1}) for vals in result.domains.values())


def test_pauli_matrices_hermitian_and_involutive():
    for name, M in pauli_fixture().items():
        assert fro(M - M.conj().T) < 1e-12, name
        assert fro(M @ M - np.eye(4)) < 1e-12, name


def test_pauli_scope_pairs_commute():
    inst = magic_square()
    mats = pauli_fixture()
    for c in inst.constraints:
        for i in range(3):
            for j in range(i + 1, 3):
                assert commutator_norm(mats[c.scope[i]], mats[c.scope[j]]) < 1e-12


def test_pauli_row_and_column_products():
    m = pauli_fixture()
    eye = np.eye(4)
    for triple in (("x1", "x2", "x3"), ("x4", "x5", "x6"), ("x7", "x8", "x9"),
                   ("x1", "x4", "x7"), ("x2", "x5", "x8")):
        prod_ = m[triple[0]] @ m[triple[1]] @ m[triple[2]]
        assert fro(prod_ - eye) < 1e-12
    assert fro(m["x3"] @ m["x6"] @ m["x9"] + eye) < 1e-12


def test_sum3_relation_cardinality_per_rhs():
    for p in (2, 3, 5):
        for a in range(p):
            rel = sum3_relation(p, a)
            assert len(rel.tuples) == p * p
            for t in rel.tuples:
                assert sum(t) % p == a


def test_zero_sum_relation_even_weight_for_p2():
    rel = zero_sum_relation(2)
    assert rel.arity == 4
    assert rel.tuples == frozenset(
        t for t in product(range(2), repeat=4) if sum(t) % 2 == 0
    )


def test_zero_sum_relation_is_refused_above_the_guard():
    """p^(p+1) tuples: 7^8 is within the guard, 11^12 is refused before any
    tuple is built."""
    assert 7 ** 8 <= ZSUM_GUARD < 11 ** 12
    start = time.perf_counter()
    with pytest.raises(ValueError, match="above the guard"):
        zero_sum_relation(11)
    with pytest.raises(ValueError, match="above the guard"):
        linear_system_instance(LinearSystem(11, (((0, 1), (1, 1), 1),)))
    assert time.perf_counter() - start < 1.0


def test_single_equation_direct_encoding():
    sys = LinearSystem(2, (((0, 1, 2), (1, 1, 1), 0),))
    inst = linear_system_instance(sys)
    assert len(inst.constraints) == 1
    assert inst.constraints[0].rel == "sum3_0"


def test_magic_square_as_linear_system():
    eqs = (
        ((0, 1, 2), (1, 1, 1), 0),
        ((3, 4, 5), (1, 1, 1), 0),
        ((6, 7, 8), (1, 1, 1), 0),
        ((0, 3, 6), (1, 1, 1), 0),
        ((1, 4, 7), (1, 1, 1), 0),
        ((2, 5, 8), (1, 1, 1), 1),
    )
    inst = linear_system_instance(LinearSystem(2, eqs))
    assert len(inst.variables) == 9 and len(inst.constraints) == 6
    assert brute_force_solve(inst) is None
    square = magic_square()
    scopes = sorted(tuple(c.scope) for c in square.constraints)
    lin_scopes = sorted(
        tuple(f"x{int(v[1:]) + 1}" for v in c.scope) for c in inst.constraints
    )
    assert scopes == lin_scopes


def test_four_variable_equation_uses_zero_sum_relation():
    sys = LinearSystem(2, (((0, 1, 2, 3), (1, 1, 1, 1), 0),))
    inst = linear_system_instance(sys)
    assert len(inst.constraints) == 1
    assert inst.constraints[0].rel == "zsum"
    sols = {tuple(s[f"x{i}"] for i in range(4)) for s in iter_solutions(inst)}
    assert sols == {t for t in product(range(2), repeat=4) if sum(t) % 2 == 0}


def test_chained_equation_with_nonzero_rhs():
    # five unit occurrences with nonzero rhs at p=3 force the chain encoding
    sys = LinearSystem(3, (((0, 1, 2, 3, 4), (1, 1, 1, 1, 1), 2),))
    inst = linear_system_instance(sys)
    assert len(inst.variables) > 5  # chain variables present
    projected = set()
    for s in iter_solutions(inst):
        projected.add(tuple(s[f"x{i}"] for i in range(5)))
    expected = {t for t in product(range(3), repeat=5) if sum(t) % 3 == 2}
    assert projected == expected


def test_two_variable_and_single_variable_equations():
    sys = LinearSystem(3, (((0, 1), (1, 1), 1), ((2,), (1,), 2)))
    inst = linear_system_instance(sys)
    projected = {tuple(s[f"x{i}"] for i in range(3)) for s in iter_solutions(inst)}
    expected = {
        t for t in product(range(3), repeat=3)
        if (t[0] + t[1]) % 3 == 1 and t[2] == 2
    }
    assert projected == expected


def test_degenerate_contradictory_equation():
    # zero left-hand side with nonzero right-hand side is unsatisfiable
    sys = LinearSystem(2, (((0,), (2,), 1),))  # 2*x = 0 = 1 over Z_2
    inst = linear_system_instance(sys)
    assert brute_force_solve(inst) is None


def gaussian_solutions(sys: LinearSystem) -> set:
    """Independent oracle: enumerate Z_p assignments and check every equation."""
    n = sys.num_variables()
    out = set()
    for t in product(range(sys.p), repeat=n):
        if all(
            sum(c * t[v] for v, c in zip(vs, cs)) % sys.p == rhs
            for vs, cs, rhs in sys.equations
        ):
            out.add(t)
    return out


def test_linear_instances_match_enumeration_oracle():
    rng = random.Random(271828)
    for _ in range(100):
        p = rng.choice([2, 3, 5])
        n = rng.randint(1, 3)
        eqs = []
        for _ in range(rng.randint(1, 2)):
            vs = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
            cs = tuple(rng.randint(1, p - 1) if p > 2 else 1 for _ in vs)
            if sum(cs) > p + 2:
                continue
            eqs.append((vs, cs, rng.randrange(p)))
        if not eqs:
            continue
        sys = LinearSystem(p, tuple(eqs))
        inst = linear_system_instance(sys)
        if search_space_size(inst) > 5 * 10 ** 5:
            continue
        projected = set()
        originals = [f"x{i}" for i in range(sys.num_variables())]
        for s in iter_solutions(inst):
            projected.add(tuple(s[v] for v in originals))
        assert projected == gaussian_solutions(sys)


def test_rejects_non_prime_and_oversized():
    with pytest.raises(ValueError, match="prime"):
        LinearSystem(4, ())
    sys = LinearSystem(2, (((0, 1, 2, 3, 4), (1, 1, 1, 1, 1), 0),))
    with pytest.raises(ValueError, match="limit"):
        linear_system_instance(sys)


def test_parse_linear_system():
    sys = parse_linear_system("x1 + x2 + x3 = 1\nx1 + x1 + x2 = 0\n", 3)
    assert sys.p == 3
    assert sys.equations[0] == ((0, 1, 2), (1, 1, 1), 1)
    assert sys.equations[1] == ((0, 1), (2, 1), 0)
    with pytest.raises(ValueError, match="'='"):
        parse_linear_system("x1 + x2", 2)
