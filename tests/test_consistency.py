"""Linear propagation, singleton probing, chains, the tuple-support kernel,
and the classical AC cross-check."""

import random
import time
from dataclasses import replace

import pytest

from opcsp.certificates import check_chain, compile_chain
from opcsp.consistency import (
    extract_chain,
    full_domains,
    linear_ac,
    slac,
    slac_result_from_json,
    slac_result_to_json,
)
from opcsp.csp_core import brute_force_solve, make_instance
from opcsp.gap_instances import linear_system_instance, magic_square, parse_linear_system

from helpers import (bounded_width_corpus, full_ac, iter_solutions, linear_system_corpus,
                     reference_linear_ac)


def implication_chain_instance():
    rels = {
        "imp": [(0, 0), (0, 1), (1, 1)],
        "not1": [(0,)],
    }
    constraints = [(("x", "y"), "imp"), (("y", "z"), "imp"), (("z",), "not1")]
    return make_instance(2, ["x", "y", "z"], constraints, rels)


def test_linear_ac_three_step_refutation():
    inst = implication_chain_instance()
    result = linear_ac(inst, pin=("x", 1))
    assert not result.consistent
    chain = extract_chain(result.store, result.contradiction)
    assert chain.var == "x" and chain.value == 1
    assert len(chain.steps) == 3
    assert [s.var for s in chain.steps] == ["y", "z", "z"]
    assert [s.values for s in chain.steps] == [(1,), (1,), ()]
    assert check_chain(inst, full_domains(inst), compile_chain(chain, inst.d)).accepted


def test_linear_ac_pin_only_no_constraints():
    inst = make_instance(2, ["a", "b"], [], {"r": [(0,)]})
    result = linear_ac(inst, pin=("a", 1))
    assert result.consistent
    assert result.domains == {"a": frozenset({1}), "b": frozenset({0, 1})}


def test_linear_ac_rejects_bad_pin():
    inst = make_instance(2, ["a", "b"], [], {"r": [(0,)]})
    with pytest.raises(ValueError, match="unknown pinned variable"):
        linear_ac(inst, pin=("c", 0))
    for value in (7, 2, -1):
        with pytest.raises(ValueError, match="outside 0..1"):
            linear_ac(inst, pin=("b", value))


def assert_same_as_reference(inst, domains=None):
    """Every pin of every variable of `inst` gives the frozenset reference's
    verdict, domains, ordered facts with their derivations, and contradiction."""
    for v in inst.variables:
        for a in range(inst.d):
            got = linear_ac(inst, domains, pin=(v, a))
            want = reference_linear_ac(inst, domains, pin=(v, a))
            assert (got.consistent, got.domains, got.contradiction) == (
                want.consistent, want.domains, want.contradiction)
            assert list(got.store.items()) == list(want.store.items())
            assert all(type(values) is frozenset for _, values in got.store)


def test_linear_ac_matches_frozenset_reference():
    for inst in bounded_width_corpus(1234, 200):
        assert_same_as_reference(inst)
    for _, system in linear_system_corpus(10, 30):
        assert_same_as_reference(linear_system_instance(system))
    assert_same_as_reference(magic_square())


def test_linear_ac_matches_frozenset_reference_on_given_domains():
    """Caller-supplied domains: random subsets, empty ones included, some
    variables left out, and pins outside their variable's domain."""
    rng = random.Random(22)
    draws = [(inst, 3) for inst in bounded_width_corpus(4321, 60, max_vars=7)]
    draws += [(linear_system_instance(system), 1) for _, system in linear_system_corpus(22, 12)]
    for inst, count in draws:
        for _ in range(count):
            domains = {
                v: frozenset(a for a in range(inst.d) if rng.random() < 0.7)
                for v in inst.variables if rng.random() < 0.8
            }
            assert_same_as_reference(inst, domains)


def test_linear_ac_rejects_domain_values_outside_the_domain():
    inst = implication_chain_instance()
    for bad in (-1, 10 ** 12, "a", 1.0, None):
        with pytest.raises(ValueError, match="outside 0..1"):
            linear_ac(inst, {"y": {0, bad}}, pin=("x", 0))
    with pytest.raises(ValueError, match="outside 0..1"):
        linear_ac(inst, pin=("x", "a"))


@pytest.mark.parametrize("value", [10 ** 12, -1])
@pytest.mark.parametrize("step", [0, 1])
def test_check_chain_rejects_recorded_value_outside_the_domain(value, step):
    """A recorded value outside 0..d-1, on a step with a witness (0) or the
    terminal one (1), is a set that is not the licensed image: REJECT,
    within 1 s."""
    inst = bounded_width_corpus(1234, 200)[97]
    remaining = full_domains(inst)
    chains = list(slac(inst).chains.values())
    for chain in chains[:2]:
        remaining[chain.var] -= {chain.value}
    chain = compile_chain(chains[2], inst.d)
    assert len(chain.steps) == 2 and check_chain(inst, remaining, chain).accepted
    steps = list(chain.steps)
    steps[step] = replace(steps[step], values=steps[step].values + (value,))
    start = time.perf_counter()
    verdict = check_chain(inst, remaining, replace(chain, steps=tuple(steps)))
    assert time.perf_counter() - start < 1
    assert verdict.describe() == f"REJECT at step:{step}: recorded set is not the licensed image"


def test_linear_ac_accepts_plain_set_domains():
    inst = implication_chain_instance()
    as_sets = {v: set(vals) for v, vals in full_domains(inst).items()}
    for pin in (("x", 0), ("x", 1), ("y", 0)):
        given, default = linear_ac(inst, as_sets, pin=pin), linear_ac(inst, pin=pin)
        assert (given.consistent, given.domains) == (default.consistent, default.domains)
        assert list(given.store.items()) == list(default.store.items())


def test_linear_ac_magic_square_pin_keeps_full_domains():
    inst = magic_square()
    result = linear_ac(inst, pin=("x1", 0))
    assert result.consistent
    for v in inst.variables:
        expected = frozenset({0}) if v == "x1" else frozenset({0, 1})
        assert result.domains[v] == expected


def test_linear_ac_repeated_scope_variable():
    # The zsum padding (u, w, t, t) repeats t.  Each position is filtered by
    # its own domain, so t may differ between its two positions and pinning u
    # forces neither w nor t.
    inst = linear_system_instance(parse_linear_system("x0 + x1 = 1\n", 2))
    u, w, t, t_again = next(c.scope for c in inst.constraints if c.rel == "zsum")
    assert t == t_again
    result = linear_ac(inst, pin=(u, 1))
    assert result.consistent
    assert result.domains == {
        v: frozenset({1}) if v == u else frozenset({0, 1}) for v in inst.variables
    }
    # A derived fact about a repeated variable filters only its source
    # position: from t in {0}, u + 0 + t = 0 over Z_3 leaves u free.
    inst = make_instance(
        3,
        ["s", "t", "u"],
        [(("s", "t"), "eq"), (("u", "t", "t"), "sum0")],
        {"eq": [(a, a) for a in range(3)], "sum0": [(a, b, (-a - b) % 3) for a in range(3) for b in range(3)]},
    )
    result = linear_ac(inst, pin=("s", 0))
    assert result.consistent
    assert result.domains == {"s": frozenset({0}), "t": frozenset({0}), "u": frozenset({0, 1, 2})}


def two_sat_contradiction():
    rels = {
        "or": [(0, 1), (1, 0), (1, 1)],
        "orn": [(0, 0), (1, 0), (1, 1)],
        "nor": [(0, 0), (0, 1), (1, 1)],
        "nand": [(0, 0), (0, 1), (1, 0)],
    }
    constraints = [
        (("x", "y"), "or"),
        (("x", "y"), "orn"),
        (("x", "y"), "nor"),
        (("x", "y"), "nand"),
    ]
    return make_instance(2, ["x", "y"], constraints, rels)


def test_slac_refutes_unsat_two_clauses():
    inst = two_sat_contradiction()
    assert brute_force_solve(inst) is None
    result = slac(inst)
    assert not result.consistent
    assert any(not vals for vals in result.domains.values())
    for (v, a), chain in result.chains.items():
        assert chain.var == v and chain.value == a
        assert chain.is_contradiction()


def test_slac_satisfiable_single_constraint_projects():
    inst = make_instance(2, ["x", "y"], [(("x", "y"), "r")], {"r": [(0, 1)]})
    result = slac(inst)
    assert result.consistent
    assert result.domains == {"x": frozenset({0}), "y": frozenset({1})}


def test_slac_magic_square_consistent_full():
    result = slac(magic_square())
    assert result.consistent
    assert all(vals == frozenset({0, 1}) for vals in result.domains.values())
    assert result.chains == {}


def test_extract_chain_axiom_and_errors():
    inst = implication_chain_instance()
    result = linear_ac(inst, pin=("x", 0))
    assert result.consistent
    axiom = ("x", frozenset({0}))
    assert result.store[axiom] is None
    chain = extract_chain(result.store, axiom)
    assert (chain.var, chain.value, chain.steps) == ("x", 0, ())
    with pytest.raises(KeyError):
        extract_chain(result.store, ("x", frozenset({1})))


def test_full_ac_prunes_at_least_as_much_as_linear():
    rng = random.Random(11)
    for inst in bounded_width_corpus(2024, 40, max_vars=6):
        ok_full, doms_full = full_ac(inst)
        for v in inst.variables:
            a = rng.choice(range(inst.d))
            res = linear_ac(inst, pin=(v, a))
            if not ok_full:
                continue
            if res.consistent:
                pinned_full = dict(full_domains(inst))
                pinned_full[v] = frozenset({a})
                ok2, doms2 = full_ac(inst, pinned_full)
                if ok2:
                    for w in inst.variables:
                        assert doms2[w] <= res.domains[w]


def test_full_ac_prunes_missing_projection_value():
    inst = make_instance(3, ["x", "y"], [(("x", "y"), "r")], {"r": [(0, 1), (1, 2)]})
    ok, doms = full_ac(inst)
    assert ok
    assert doms["x"] == frozenset({0, 1})
    assert doms["y"] == frozenset({1, 2})


def test_full_ac_preserves_satisfiability_on_random_corpus():
    for inst in bounded_width_corpus(515, 100, max_vars=6):
        sat_before = brute_force_solve(inst) is not None
        ok, doms = full_ac(inst)
        if not ok:
            assert not sat_before
            continue
        restricted = restrict_instance(inst, doms)
        sat_after = brute_force_solve(restricted) is not None
        assert sat_before == sat_after


def restrict_instance(inst, doms):
    """Add unary domain constraints reflecting doms (test helper)."""
    rels = dict(inst.language.relations)
    constraints = [(c.scope, c.rel) for c in inst.constraints]
    for v in inst.variables:
        name = f"_dom_{v}"
        rels[name] = [(a,) for a in sorted(doms[v])]
        constraints.append(((v,), name))
    return make_instance(inst.d, inst.variables, constraints, rels)


def test_slac_soundness_never_removes_solution_values():
    corpus = bounded_width_corpus(90, 120, max_vars=5)
    rng = random.Random(4)
    # also include unrestricted random instances over small domains
    from test_csp_core import random_instance

    corpus += [random_instance(rng, rng.choice([2, 3]), rng.randint(2, 5)) for _ in range(80)]
    for inst in corpus:
        result = slac(inst)
        for s in iter_solutions(inst, limit=20):
            for v, a in s.items():
                assert a in result.domains[v], "propagation removed a solution value"


def test_slac_equivalence_on_restricted_domains():
    for inst in bounded_width_corpus(777, 60, max_vars=6):
        result = slac(inst)
        sat_before = brute_force_solve(inst) is not None
        if not result.consistent:
            assert not sat_before
            continue
        restricted = restrict_instance(inst, result.domains)
        assert (brute_force_solve(restricted) is not None) == sat_before


def test_slac_completeness_on_bounded_width_corpus():
    refuted = 0
    for inst in bounded_width_corpus(1234, 200, max_vars=10):
        result = slac(inst)
        unsat = brute_force_solve(inst) is None
        assert result.consistent == (not unsat)
        refuted += int(not result.consistent)
    assert refuted >= 30, "corpus should include a healthy share of refutations"


def test_chain_validity_replays_forward():
    for inst in bounded_width_corpus(55, 40, max_vars=6):
        domains = full_domains(inst)
        result = slac(inst)
        for (v, a), chain in result.chains.items():
            assert check_chain(inst, domains, compile_chain(chain, inst.d)).accepted
            domains[v] = domains[v] - {a}


def test_slac_determinism_byte_for_byte():
    for inst in bounded_width_corpus(6, 10, max_vars=7):
        first = slac_result_to_json(slac(inst))
        second = slac_result_to_json(slac(inst))
        assert first == second
        parsed = slac_result_from_json(first, inst.d)
        assert slac_result_to_json(parsed) == first
