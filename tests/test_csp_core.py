"""Instance model, documents, and the brute-force oracle."""

import json
import random
from itertools import product

import pytest

from opcsp.csp_core import (
    InstanceFormatError,
    Relation,
    brute_force_solve,
    instance_digest,
    iter_solutions,
    load_instance,
    make_instance,
    search_space_size,
    serialize_instance,
    validate_assignment,
)
from opcsp.gap_instances import LinearSystem, linear_system_instance, magic_square


def test_magic_square_shape():
    inst = magic_square()
    assert len(inst.variables) == 9
    assert len(inst.constraints) == 6
    assert all(inst.relation_of(c).arity == 3 for c in inst.constraints)


def test_load_magic_square_document_round_trip():
    inst = magic_square()
    doc = serialize_instance(inst)
    again = load_instance(doc)
    assert again == inst
    assert instance_digest(again) == instance_digest(inst)


def test_empty_constraint_list_is_vacuously_satisfiable():
    inst = make_instance(2, ["a", "b"], [], {"r": [(0, 0)]})
    assert brute_force_solve(inst) == {"a": 0, "b": 0}
    assert validate_assignment(inst, {"a": 1, "b": 1})


def test_load_rejects_bad_documents():
    with pytest.raises(InstanceFormatError, match="malformed"):
        load_instance("not json {")
    base = {
        "d": 2,
        "relations": {"r": {"arity": 3, "tuples": [[0, 0, 0]]}},
        "variables": ["x", "y"],
        "constraints": [{"scope": ["x", "y"], "rel": "r"}],
    }
    with pytest.raises(InstanceFormatError, match="arity mismatch"):
        load_instance(json.dumps(base))
    bad_rel = dict(base, constraints=[{"scope": ["x", "y"], "rel": "nope"}])
    with pytest.raises(InstanceFormatError, match="unknown relation"):
        load_instance(json.dumps(bad_rel))
    bad_var = dict(base, constraints=[{"scope": ["x", "y", "z"], "rel": "r"}])
    with pytest.raises(InstanceFormatError, match="unknown variable"):
        load_instance(json.dumps(bad_var))


def test_magic_square_unsat_over_512_assignments():
    inst = magic_square()
    assert search_space_size(inst) == 512
    assert brute_force_solve(inst) is None


def test_single_unary_constraint():
    inst = make_instance(2, ["x"], [(("x",), "zero")], {"zero": [(0,)]})
    assert brute_force_solve(inst) == {"x": 0}


def test_contradictory_parity_pair_unsat():
    sys = LinearSystem(2, (((0, 1, 2), (1, 1, 1), 0), ((0, 1, 2), (1, 1, 1), 1)))
    inst = linear_system_instance(sys)
    # oracle: enumerate all 8 assignments of the original variables directly
    assert all(
        (sum(t) % 2 != 0) or (sum(t) % 2 != 1) for t in product(range(2), repeat=3)
    )
    assert brute_force_solve(inst) is None


def test_validate_against_witness_and_counterexample():
    inst = magic_square()
    zeros = {v: 0 for v in inst.variables}
    # row and first-column parities hold but the last column needs odd parity
    assert not validate_assignment(inst, zeros)
    sat = make_instance(2, ["x", "y"], [(("x", "y"), "neq")], {"neq": [(0, 1), (1, 0)]})
    witness = brute_force_solve(sat)
    assert witness is not None and validate_assignment(sat, witness)
    with pytest.raises(ValueError, match="partial"):
        validate_assignment(sat, {"x": 0})


def random_instance(rng: random.Random, d: int, nvars: int):
    variables = [f"v{i}" for i in range(nvars)]
    rels = {}
    for ri in range(rng.randint(1, 3)):
        arity = rng.randint(1, min(3, nvars))
        universe = list(product(range(d), repeat=arity))
        size = rng.randint(0, len(universe))
        rels[f"r{ri}"] = Relation(arity, d, frozenset(rng.sample(universe, size)))
    constraints = []
    for _ in range(rng.randint(0, 2 * nvars)):
        name = rng.choice(sorted(rels))
        scope = tuple(rng.choice(variables) for _ in range(rels[name].arity))
        constraints.append((scope, name))
    return make_instance(d, variables, constraints, rels)


def test_document_round_trip_random_instances():
    rng = random.Random(7)
    for _ in range(100):
        inst = random_instance(rng, rng.choice([2, 3]), rng.randint(1, 5))
        assert load_instance(serialize_instance(inst)) == inst


def test_brute_force_agrees_with_exhaustive_validation():
    rng = random.Random(99)
    for _ in range(200):
        d = rng.choice([2, 3])
        inst = random_instance(rng, d, rng.randint(1, 6))
        witness = brute_force_solve(inst)
        all_sols = list(iter_solutions(inst))
        if witness is None:
            assert all_sols == []
        else:
            assert validate_assignment(inst, witness)
            assert witness == all_sols[0]  # lexicographically first


def test_brute_force_guard():
    inst = make_instance(10, [f"v{i}" for i in range(9)], [], {"r": [(0,)]})
    with pytest.raises(ValueError, match="guard"):
        brute_force_solve(inst)


def test_projections_match_brute_force():
    rng = random.Random(2026)
    for _ in range(400):
        d = rng.randint(1, 5)
        arity = rng.randint(1, 4)
        universe = list(product(range(d), repeat=arity))
        rel = Relation(arity, d, frozenset(rng.sample(universe, rng.randint(0, len(universe)))))
        doms = []
        for _ in range(arity):
            kind = rng.choice(("empty", "full", "random"))
            if kind == "empty":
                doms.append(frozenset())
            elif kind == "full":
                doms.append(frozenset(range(d)))
            else:
                doms.append(frozenset(a for a in range(d) if rng.random() < 0.5))
        alive = [t for t in rel.tuples if all(t[j] in doms[j] for j in range(arity))]
        expected = tuple(frozenset(t[j] for t in alive) for j in range(arity))
        assert rel.projections(doms) == expected

