"""Instance model, documents, and the brute-force oracle."""

import dataclasses
import hashlib
import json
import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from opcsp.certificates import build_certificate
from opcsp.consistency import slac, slac_result_to_obj
from opcsp.csp_core import (
    Instance,
    InstanceFormatError,
    Language,
    Relation,
    brute_force_solve,
    instance_digest,
    instance_to_obj,
    load_instance,
    make_instance,
    search_space_size,
    serialize_instance,
    validate_assignment,
    write_document,
)
from opcsp.gap_instances import LinearSystem, linear_system_instance, magic_square

from helpers import bounded_width_corpus, iter_solutions


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


def test_variable_free_instance_is_satisfied_by_the_empty_assignment():
    inst = make_instance(2, [], [], {"neq": [(0, 1), (1, 0)]})
    assert brute_force_solve(inst) == {}


def test_instance_refuses_a_language_over_another_domain():
    inst = magic_square()
    with pytest.raises(InstanceFormatError, match="language domain size 3 does not match"):
        Instance(inst.d, inst.variables, (), Language(3, {}))


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


def brute_force_projections(rel, doms):
    alive = [t for t in rel.tuples if all(t[j] in doms[j] for j in range(rel.arity))]
    return tuple(frozenset(t[j] for t in alive) for j in range(rel.arity))


def random_domains(rng, d, arity):
    doms = []
    for _ in range(arity):
        kind = rng.choice(("empty", "full", "random"))
        if kind == "empty":
            doms.append(frozenset())
        elif kind == "full":
            doms.append(frozenset(range(d)))
        else:
            doms.append(frozenset(a for a in range(d) if rng.random() < 0.5))
    return doms


def random_relation(rng, d, arity, size=None):
    universe = list(product(range(d), repeat=arity))
    if size is None:
        size = rng.randint(0, len(universe))
    return Relation(arity, d, frozenset(rng.sample(universe, size)))


def test_projections_match_brute_force():
    rng = random.Random(2026)
    for _ in range(400):
        rel = random_relation(rng, rng.randint(1, 5), rng.randint(1, 4))
        doms = random_domains(rng, rel.d, rel.arity)
        assert rel.projections(doms) == brute_force_projections(rel, doms)


def test_projections_with_warm_index_match_brute_force():
    """Many calls on one relation: the index is built by the first call and
    reused, with repeated and varied domains, zero tuples, arity 1 and d up
    to 7."""
    rng = random.Random(6)
    cases = [(d, 1, None) for d in range(1, 8)]
    cases += [(d, arity, 0) for d in (1, 3, 7) for arity in (1, 2, 3)]
    cases += [(rng.randint(1, 7), rng.randint(1, 4), None) for _ in range(40)]
    for d, arity, size in cases:
        rel = random_relation(rng, d, arity, size)
        asked = []
        for _ in range(60):
            if asked and rng.random() < 0.4:
                doms = rng.choice(asked)
            else:
                doms = random_domains(rng, d, arity)
                asked.append(doms)
            assert rel.projections(doms) == brute_force_projections(rel, doms)


def test_projections_accept_any_container():
    """Allowed sets need only support `in`: plain sets, lists and ranges
    give the frozenset answers."""
    rng = random.Random(7)
    for _ in range(100):
        rel = random_relation(rng, rng.randint(1, 5), rng.randint(1, 3))
        doms = random_domains(rng, rel.d, rel.arity)
        expected = brute_force_projections(rel, doms)
        assert rel.projections([set(dom) for dom in doms]) == expected
        assert rel.projections([sorted(dom) for dom in doms]) == expected
        full = [range(rel.d)] * rel.arity
        assert rel.projections(full) == brute_force_projections(rel, full)


def test_projections_ignore_values_outside_the_domain():
    """Values that are not ints in 0..d-1 are never shifted into a mask: they
    are ignored, as the brute-force scan ignores them."""
    rng = random.Random(8)
    for _ in range(100):
        rel = random_relation(rng, rng.randint(1, 5), rng.randint(1, 3))
        doms = [set(dom) | {-1, 10 ** 12, "a", rel.d} for dom in random_domains(rng, rel.d, rel.arity)]
        assert rel.projections(doms) == brute_force_projections(rel, doms)


def test_images_are_the_masks_of_the_projections():
    rng = random.Random(9)
    for _ in range(200):
        rel = random_relation(rng, rng.randint(1, 6), rng.randint(1, 4))
        doms = random_domains(rng, rel.d, rel.arity)
        images = rel.images([sum(1 << a for a in dom) for dom in doms])
        expected = brute_force_projections(rel, doms)
        if not expected[0]:
            assert images is None
        else:
            assert images == tuple(sum(1 << a for a in image) for image in expected)


def test_equal_relations_answer_alike():
    rng = random.Random(11)
    for _ in range(30):
        d, arity = rng.randint(1, 5), rng.randint(1, 3)
        rel = random_relation(rng, d, arity)
        twin = Relation(arity, d, frozenset(rel.sorted_tuples()))
        assert twin == rel and twin is not rel
        for _ in range(20):
            doms = random_domains(rng, d, arity)
            # the twin builds its own index, in a different call order
            assert twin.projections(doms) == rel.projections(doms)


def test_index_leaves_identity_unchanged():
    inst = magic_square()
    twin = magic_square()
    inst_before = (inst == twin, repr(inst))
    rel = inst.relation_of(inst.constraints[0])
    fresh = Relation(rel.arity, rel.d, rel.tuples)
    before = (rel == fresh, hash(rel), repr(rel))
    digest = instance_digest(inst)
    for c in inst.constraints:
        inst.relation_of(c).projections([frozenset({0})] * 3)
    assert inst.occurrences["x5"] == ((1, 1), (4, 1))
    assert (rel == fresh, hash(rel), repr(rel)) == before
    assert rel == fresh and hash(rel) == hash(fresh)
    assert "digest" not in {f.name for f in dataclasses.fields(inst)}
    assert (inst == twin, repr(inst)) == inst_before
    for x in (inst, twin):  # the language's relation dict keeps instances unhashable
        with pytest.raises(TypeError):
            hash(x)
    loaded = load_instance(serialize_instance(inst))
    assert loaded == inst
    for x in (inst, loaded):
        assert instance_digest(x) == x.digest == digest
        assert digest == hashlib.sha256(serialize_instance(x).encode("utf-8")).hexdigest()


def test_load_rejects_bad_tuples():
    base = {
        "d": 2,
        "relations": {"r": {"arity": 2, "tuples": [[0, 1], [1, 0]]}},
        "variables": ["x", "y"],
        "constraints": [{"scope": ["x", "y"], "rel": "r"}],
    }
    short = json.loads(json.dumps(base))
    short["relations"]["r"]["tuples"].append([1])
    with pytest.raises(InstanceFormatError, match=r"arity mismatch.*'r'"):
        load_instance(json.dumps(short))
    wide = json.loads(json.dumps(base))
    wide["relations"]["r"]["tuples"].append([0, 2])
    with pytest.raises(InstanceFormatError, match=r"value out of domain.*'r'"):
        load_instance(json.dumps(wide))
    with pytest.raises(ValueError, match="arity mismatch"):
        Relation(2, 2, frozenset({(0, 1), (1,)}))
    with pytest.raises(ValueError, match="value out of domain"):
        Relation(2, 2, frozenset({(0, -1)}))


def json_oracle(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


# characters json escapes: quote, backslash, control characters, non-ASCII
# and a lone surrogate, mixed with any other character
TEXT = st.text(st.sampled_from('"\\\n\x00\x1f\x7fé\u2028\U0001f600\ud800 a') | st.characters(), max_size=8)
SCALARS = (st.none() | st.booleans() | st.integers() | st.integers(-10 ** 300, 10 ** 300)
           | st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), float("-inf")]) | TEXT)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.lists(st.integers())
    | st.dictionaries(TEXT, inner),
    max_leaves=20,
)


@settings(max_examples=120, deadline=None)
@given(DOCUMENTS)
def test_write_document_matches_json_indent_one(obj):
    assert write_document(obj) == json_oracle(obj)


def test_write_document_matches_json_on_package_documents():
    """Every instance, trace and certificate document of the bounded-width
    corpus, and the 1 MB Z_5 zero-sum instance."""
    docs = []
    for inst in bounded_width_corpus(1234, 200):
        result = slac(inst)
        docs += [instance_to_obj(inst), slac_result_to_obj(result)]
        if not result.consistent:
            docs.append(build_certificate(inst, result).to_obj())
    z5 = linear_system_instance(LinearSystem(5, ((tuple(range(7)), (1,) * 7, 0), ((0, 3, 5), (1, 1, 1), 2))))
    docs.append(instance_to_obj(z5))
    for obj in docs:
        assert write_document(obj) == json_oracle(obj)


@pytest.mark.parametrize("obj", [{1: 0}, {"a": {(0, 1): 0}}, {"a": {0, 1}}, [set()], object(),
                                 [type("Real", (float,), {})(0.5)]],
                         ids=["int-key", "tuple-key", "set-value", "set-item", "object", "float-subclass"])
def test_write_document_rejects_what_it_cannot_write(obj):
    with pytest.raises(TypeError):
        write_document(obj)
