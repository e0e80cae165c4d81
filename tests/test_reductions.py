"""Gadget expansion, equality collapse, cores, constants, restriction and
factoring, and the operator transports across all of them."""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from opcsp.csp_core import (
    EQUALITY,
    Language,
    Relation,
    brute_force_solve,
    equality_relation,
    full_relation,
    make_instance,
)
from opcsp.cyclotomic import CycNum, UniPoly, embed
from opcsp.operators import (
    OperatorAssignment,
    apply_unipoly_matrix,
    embed_classical,
    fro,
    random_unitary,
    verify_assignment,
)
from opcsp import reductions
from opcsp.reductions import (
    Congruence,
    PPAtom,
    PPFormula,
    UnaryMap,
    add_commutativity_gadget,
    collapse_equalities,
    constants_reduction,
    core,
    core_instance,
    endomorphism_relation,
    endomorphisms,
    factor_transport,
    gadgetize,
    indicator_interpolant,
    interpolate_map,
    lift_assignment,
    pp_evaluate,
    restrict_to,
    restrict_transport,
)

from helpers import iter_solutions


def eq_language(d=2) -> Language:
    return Language(d, {"eq": equality_relation(d)})


def test_pp_evaluate_composed_equality():
    formula = PPFormula(2, 1, (PPAtom("eq", (0, 2)), PPAtom("eq", (2, 1))))
    rel = pp_evaluate(formula, eq_language())
    assert rel == equality_relation(2)


def test_pp_evaluate_diagonal_atom():
    formula = PPFormula(1, 0, (PPAtom("eq", (0, 0)),))
    rel = pp_evaluate(formula, eq_language())
    assert rel == Relation(1, 2, frozenset({(0,), (1,)}))


def test_pp_evaluate_linear_composition_against_elimination_oracle():
    # z2-sum relation composed with itself: models of
    # exists w: x + y + w = 0 and w + z + z = 0  <=>  x + y + z + z = x + y = 0
    sum3 = Relation(3, 2, frozenset(t for t in product(range(2), repeat=3) if sum(t) % 2 == 0))
    lang = Language(2, {"s3": sum3})
    formula = PPFormula(3, 1, (PPAtom("s3", (0, 1, 3)), PPAtom("s3", (3, 2, 2))))
    rel = pp_evaluate(formula, lang)
    # oracle: Gaussian elimination over Z_2 collapses to x + y = 0, z free
    expected = frozenset(t for t in product(range(2), repeat=3) if (t[0] + t[1]) % 2 == 0)
    assert rel.tuples == expected


def neq_language() -> Language:
    return Language(
        2,
        {
            "neq": Relation(2, 2, frozenset({(0, 1), (1, 0)})),
            "eqd": equality_relation(2),
        },
    )


def test_gadgetize_counts_and_identity_without_target():
    # equality defined through two disequalities: exists w: x != w and w != y
    lang = neq_language()
    formula = PPFormula(2, 1, (PPAtom("neq", (0, 2)), PPAtom("neq", (2, 1))))
    inst = make_instance(
        2,
        ["a", "b", "c"],
        [(("a", "b"), "eqd"), (("b", "c"), "neq")],
        dict(lang.relations),
    )
    out = gadgetize(inst, formula, "eqd")
    assert len(out.variables) == 4
    assert len(out.constraints) == 3
    no_target = make_instance(2, ["a", "b"], [(("a", "b"), "neq")], dict(lang.relations))
    unchanged = gadgetize(no_target, formula, "eqd")
    assert unchanged.constraints == no_target.constraints
    assert tuple(unchanged.variables) == no_target.variables


def test_gadgetize_rejects_wrong_formula():
    lang = neq_language()
    wrong = PPFormula(2, 0, (PPAtom("neq", (0, 1)),))
    inst = make_instance(2, ["a", "b"], [(("a", "b"), "eqd")], dict(lang.relations))
    with pytest.raises(ValueError, match="does not define"):
        gadgetize(inst, wrong, "eqd")


def test_collapse_equalities_chain():
    rels = {"eqd": equality_relation(2), "one": Relation(1, 2, frozenset({(1,)}))}
    inst = make_instance(
        2,
        ["x", "y", "z"],
        [(("x", "y"), EQUALITY), (("y", "z"), EQUALITY), (("z",), "one")],
        {**rels, EQUALITY: equality_relation(2)},
    )
    out = collapse_equalities(inst)
    assert out.variables == ("x",)
    assert out.constraints[0].scope == ("x",)
    inert = make_instance(2, ["x"], [(("x",), "one")], rels)
    assert EQUALITY not in inert.language
    assert collapse_equalities(inert) == inert
    assert dict(collapse_equalities(inert).language.relations) == rels


def random_pp_setup(rng: random.Random):
    d = rng.choice([2, 2, 3])
    universe2 = list(product(range(d), repeat=2))
    base = {
        "r0": Relation(2, d, frozenset(rng.sample(universe2, rng.randint(1, len(universe2))))),
        "r1": Relation(1, d, frozenset((k,) for k in rng.sample(range(d), rng.randint(1, d)))),
    }
    lang = Language(d, base)
    arity = rng.randint(1, 2)
    exist = rng.randint(0, 2)
    atoms = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(["r0", "r1", EQUALITY])
        k = 2 if name != "r1" else 1
        total = arity + exist
        atoms.append(PPAtom(name, tuple(rng.randrange(total) for _ in range(k))))
    formula = PPFormula(arity, exist, tuple(atoms))
    target_rel = pp_evaluate(formula, lang)
    rels = dict(base)
    rels["tgt"] = target_rel
    nvars = rng.randint(2, 4)
    variables = [f"v{i}" for i in range(nvars)]
    constraints = []
    for _ in range(rng.randint(1, 4)):
        name = rng.choice(sorted(rels))
        ar = rels[name].arity
        constraints.append((tuple(rng.choice(variables) for _ in range(ar)), name))
    inst = make_instance(d, variables, constraints, rels)
    return inst, formula


def test_gadget_collapse_preserves_satisfiability():
    rng = random.Random(2718)
    for _ in range(120):
        inst, formula = random_pp_setup(rng)
        expanded = gadgetize(inst, formula, "tgt")
        final = collapse_equalities(expanded)
        assert (brute_force_solve(inst) is None) == (brute_force_solve(final) is None)


def test_add_commutativity_gadget_counts():
    lang = {"r": Relation(3, 2, frozenset({(0, 0, 0)})), "full": full_relation(2, 2)}
    inst = make_instance(2, ["a", "b", "c"], [(("a", "b", "c"), "r")], lang)
    out = add_commutativity_gadget(inst)
    assert len(out.constraints) == 4
    assert (brute_force_solve(inst) is None) == (brute_force_solve(out) is None)
    no_full = make_instance(2, ["a"], [(("a",), "u")], {"u": Relation(1, 2, frozenset({(0,)}))})
    with pytest.raises(ValueError, match="full binary"):
        add_commutativity_gadget(no_full)


def test_endomorphisms_of_equality_is_everything():
    endos = endomorphisms(eq_language())
    assert len(endos) == 4
    endos_full = endomorphisms(Language(2, {"f": full_relation(2, 2)}))
    assert len(endos_full) == 4


def test_endomorphisms_unary_restriction():
    lang = Language(3, {"b": Relation(1, 3, frozenset({(0,), (1,)}))})
    endos = endomorphisms(lang)
    # oracle: maps with rho({0,1}) inside {0,1}, third value free
    assert len(endos) == 2 * 2 * 3
    for m in endos:
        assert m(0) in (0, 1) and m(1) in (0, 1)


def test_core_of_already_core_language():
    # the successor cycle has only its d rotations as endomorphisms
    d = 3
    succ = Relation(2, d, frozenset((k, (k + 1) % d) for k in range(d)))
    lang = Language(d, {"s": succ})
    rho, core_lang, relabel = core(lang)
    assert rho == UnaryMap.identity(d)
    assert core_lang.d == d
    assert relabel.table == tuple(range(d))


def test_core_collapses_unary_to_singleton():
    lang = Language(3, {"b": Relation(1, 3, frozenset({(0,), (1,)}))})
    rho, core_lang, relabel = core(lang)
    assert rho.compose(rho) == rho
    assert core_lang.d == 1
    assert core_lang["b"].tuples == frozenset({(0,)})


def test_section_of_core_inverts_relabel():
    from opcsp.reductions import section_of_core

    lang = Language(3, {"b": Relation(1, 3, frozenset({(0,), (1,)}))})
    rho, core_lang, relabel = core(lang)
    sec = section_of_core(lang, rho)
    for k in range(core_lang.d):
        assert relabel(sec(k)) == k
        assert rho(sec(k)) == sec(k)  # idempotent map fixes its image


def test_core_idempotence_enforced():
    rng = random.Random(12)
    for _ in range(20):
        d = rng.choice([2, 3])
        universe = list(product(range(d), repeat=2))
        lang = Language(
            d, {"r": Relation(2, d, frozenset(rng.sample(universe, rng.randint(1, len(universe)))))}
        )
        rho, _, _ = core(lang)
        assert rho.compose(rho) == rho


def test_endomorphism_relation_identity_only():
    # rigid digraph: edges of a path with a loop breaking symmetry
    d = 3
    rel = Relation(2, d, frozenset({(0, 1), (1, 2), (0, 0)}))
    lang = Language(d, {"p": rel})
    endos = endomorphisms(lang)
    if all(len(set(m.table)) == d for m in endos):
        table = endomorphism_relation(lang)
        assert table.arity == d
        assert tuple(range(d)) in table.tuples


def test_endomorphism_relation_cyclic_group():
    d = 3
    succ = Relation(2, d, frozenset((k, (k + 1) % d) for k in range(d)))
    lang = Language(d, {"s": succ})
    table = endomorphism_relation(lang)
    assert len(table.tuples) == d
    for t in table.tuples:
        assert set(t) == set(range(d))


def test_endomorphism_relation_rejects_non_core():
    lang = Language(2, {"f": full_relation(2, 2)})
    with pytest.raises(ValueError, match="core"):
        endomorphism_relation(lang)


def core_language_d2() -> dict:
    # disequality makes the two-element language a core
    return {"neq": Relation(2, 2, frozenset({(0, 1), (1, 0)}))}


def test_constants_reduction_shape():
    rels = dict(core_language_d2())
    rels["c0"] = Relation(1, 2, frozenset({(0,)}))
    inst = make_instance(2, ["x", "y"], [(("x", "y"), "neq"), (("x",), "c0")], rels)
    out = constants_reduction(inst)
    assert len(out.variables) == len(inst.variables) + 2
    kinds = [c.rel for c in out.constraints]
    assert kinds.count("endotable") == 1
    assert kinds.count(EQUALITY) == 1
    assert (brute_force_solve(inst) is None) == (brute_force_solve(out) is None)


def test_constants_reduction_without_constants_still_anchors():
    inst = make_instance(2, ["x", "y"], [(("x", "y"), "neq")], core_language_d2())
    out = constants_reduction(inst)
    assert len(out.variables) == 4
    assert any(c.rel == "endotable" for c in out.constraints)


def test_constants_reduction_preserves_satisfiability_randomly():
    rng = random.Random(31)
    for _ in range(60):
        rels = dict(core_language_d2())
        rels["c0"] = Relation(1, 2, frozenset({(0,)}))
        rels["c1"] = Relation(1, 2, frozenset({(1,)}))
        nvars = rng.randint(1, 4)
        variables = [f"v{i}" for i in range(nvars)]
        constraints = []
        for _ in range(rng.randint(1, 4)):
            name = rng.choice(sorted(rels))
            ar = rels[name].arity
            constraints.append((tuple(rng.choice(variables) for _ in range(ar)), name))
        inst = make_instance(2, variables, constraints, rels)
        out = constants_reduction(inst)
        assert (brute_force_solve(inst) is None) == (brute_force_solve(out) is None)


def test_interpolate_identity_and_two_point():
    ident = interpolate_map(UnaryMap.identity(3))
    assert ident == UniPoly.x()
    pi = UnaryMap(2, 4, (0, 1))  # 1 -> 1, -1 -> i
    p = interpolate_map(pi)
    half = CycNum.from_rational(Fraction(1, 2))
    i = embed(1, 4)
    assert p == UniPoly([half * (1 + i), half * (1 - i)])
    constant = interpolate_map(UnaryMap(1, 3, (0,)))
    assert constant == UniPoly.constant(1)


def test_interpolate_requires_injective():
    with pytest.raises(ValueError, match="injective"):
        interpolate_map(UnaryMap(2, 2, (0, 0)))


def test_indicator_interpolant_values():
    for d in (2, 3, 4):
        members = set(range(0, d, 2))
        rho = indicator_interpolant(members, d)
        for k in range(d):
            expect = CycNum.one() if k in members else CycNum.zero()
            assert rho.eval(embed(k, d)) == expect


def test_core_interpolant_takes_the_relabeled_root_at_every_node(monkeypatch):
    """core_instance transports operators through the interpolant of its
    relabeling, which need not be injective; the interpolant must send each
    node embed(k, d) exactly to embed(relabel(k), e)."""
    applied = []
    monkeypatch.setattr(reductions, "transport_assignment", lambda p, a: applied.append(p) or a)
    rng = random.Random(41)
    non_injective = 0
    for _ in range(40):
        d = rng.randint(1, 4)
        rels = {}
        for i in range(rng.randint(1, 2)):
            arity = rng.randint(1, 2)
            points = list(product(range(d), repeat=arity))
            rels[f"r{i}"] = Relation(arity, d, frozenset(rng.sample(points, rng.randint(1, len(points)))))
        constraints = [(("u", "v")[: rel.arity], name) for name, rel in rels.items()]
        _, transport = core_instance(make_instance(d, ["u", "v"], constraints, rels))
        transport(OperatorAssignment(1, {}))
        p = applied.pop()
        _, core_lang, relabel = core(Language(d, rels))
        for k in range(d):
            assert p.eval(embed(k, d)) == embed(relabel(k), core_lang.d)
        non_injective += not relabel.is_injective()
    assert non_injective >= 10


def test_restrict_transport_identity():
    inst = make_instance(2, ["x", "y"], [(("x", "y"), "neq")], core_language_d2())
    mapped, transport = restrict_transport(inst, UnaryMap.identity(2))
    assert mapped == inst
    assignment = embed_classical([{"x": 0, "y": 1}], 2)
    carried = transport(assignment)
    assert fro(carried["x"] - assignment["x"]) < 1e-12


def test_restrict_transport_small_domain_into_larger():
    # instance over a 2-element domain pushed into {1, i} inside U_4
    inst = make_instance(2, ["x", "y"], [(("x", "y"), "neq")], core_language_d2())
    pi = UnaryMap(2, 4, (0, 1))
    mapped, transport = restrict_transport(inst, pi)
    assert mapped.d == 4
    assert mapped.language["neq"].tuples == frozenset({(0, 1), (1, 0)})
    # classical equivalence, both directions
    sols_small = {tuple(s[v] for v in inst.variables) for s in iter_solutions(inst)}
    sols_big = {tuple(s[v] for v in mapped.variables) for s in iter_solutions(mapped)}
    assert sols_big == {tuple(pi(a) for a in t) for t in sols_small}
    # operator transport of a diagonal satisfying assignment
    assignment = embed_classical(list(iter_solutions(inst)), 2)
    carried = transport(assignment)
    report = verify_assignment(mapped, carried, tol=1e-8)
    assert report.verdict == "SATISFYING" and report.max_residual < 1e-9


def test_factor_transport_singleton_classes_is_isomorphic():
    inst = make_instance(2, ["x", "y"], [(("x", "y"), "neq")], core_language_d2())
    theta = Congruence(2, (frozenset({0}), frozenset({1})))
    mapped, transport = factor_transport(inst, theta)
    assert mapped.language["neq"].tuples == inst.language["neq"].tuples
    assignment = embed_classical([{"x": 0, "y": 1}], 2)
    carried = transport(assignment)
    assert verify_assignment(mapped, carried).verdict == "SATISFYING"


def test_factor_transport_mod2_classes_over_u4():
    # factor domain Z_2; congruence pairs {0,2} and {1,3} inside U_4
    theta = Congruence(4, (frozenset({0, 2}), frozenset({1, 3})))
    sum2 = Relation(2, 2, frozenset({(0, 0), (1, 1)}))
    inst = make_instance(2, ["x", "y"], [(("x", "y"), "eqf")], {"eqf": sum2})
    mapped, transport = factor_transport(inst, theta)
    assert mapped.d == 4
    expected = frozenset(
        (a, b) for a in range(4) for b in range(4) if a % 2 == b % 2
    )
    assert mapped.language["eqf"].tuples == expected
    # classical equivalence by brute force
    assert (brute_force_solve(inst) is None) == (brute_force_solve(mapped) is None)
    # section property: projection then section is the identity on the factor
    pi, sec = theta.projection(), theta.section()
    for k in range(2):
        assert pi(sec(k)) == k
    assignment = embed_classical([{"x": 0, "y": 0}, {"x": 1, "y": 1}], 2)
    carried = transport(assignment)
    report = verify_assignment(mapped, carried, tol=1e-8)
    assert report.verdict == "SATISFYING" and report.max_residual < 1e-9


def test_congruence_validation():
    with pytest.raises(ValueError, match="cover"):
        Congruence(3, (frozenset({0}), frozenset({1})))
    with pytest.raises(ValueError, match="disjoint"):
        Congruence(2, (frozenset({0, 1}), frozenset({1})))


def test_lift_and_restrict_operator_assignments():
    lang = neq_language()
    formula = PPFormula(2, 1, (PPAtom("neq", (0, 2)), PPAtom("neq", (2, 1))))
    inst = make_instance(
        2,
        ["a", "b", "c"],
        [(("a", "b"), "eqd"), (("b", "c"), "neq")],
        dict(lang.relations),
    )
    sols = list(iter_solutions(inst))
    assert sols
    assignment = embed_classical(sols[:2], 2)
    expanded = gadgetize(inst, formula, "eqd")
    lifted = lift_assignment(inst, formula, "eqd", expanded, assignment)
    report = verify_assignment(expanded, lifted, tol=1e-8)
    assert report.verdict == "SATISFYING" and report.max_residual < 1e-8
    # restriction direction on a padded instance
    padded_rels = dict(lang.relations)
    padded_rels["full"] = full_relation(2, 2)
    padded_base = make_instance(
        2, ["a", "b", "c"], [(("a", "b", "c"), "tri")],
        {**padded_rels, "tri": Relation(3, 2, frozenset({(0, 1, 0), (1, 0, 1)}))},
    )
    padded = add_commutativity_gadget(padded_base)
    diag = embed_classical(list(iter_solutions(padded_base)), 2)
    extended = OperatorAssignment(diag.dim, dict(diag.assign))
    report_padded = verify_assignment(padded, extended, tol=1e-8)
    assert report_padded.verdict == "SATISFYING"
    back = restrict_to(extended, padded_base.variables)
    assert verify_assignment(padded_base, back).verdict == "SATISFYING"


def test_injective_map_transport_preserves_operator_structure():
    """Images of commuting normal order-e tuples under the interpolant are
    normal of order d, pairwise commute, and the image-set indicator
    interpolant evaluates to the identity on them."""
    from opcsp.operators import check_normal_order, commutator_norm

    rng = np.random.default_rng(10)
    for _ in range(25):
        e = int(rng.integers(1, 4))
        d = int(rng.integers(e, 5))
        table = tuple(int(x) for x in rng.permutation(d)[:e])
        pi = UnaryMap(e, d, table)
        p = interpolate_map(pi)
        rho = indicator_interpolant(set(pi.table), d)
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, 4))
        U = random_unitary(n, rng)
        mats = []
        for _ in range(k):
            diag = np.diag([np.exp(2j * np.pi * int(rng.integers(e)) / e) for _ in range(n)])
            mats.append(U @ diag @ U.conj().T)
        images = [apply_unipoly_matrix(p, M) for M in mats]
        for C in images:
            nres, ores = check_normal_order(C, d)
            assert nres <= 1e-8 and ores <= 1e-8
            assert fro(apply_unipoly_matrix(rho, C) - np.eye(n)) <= 1e-8
        for i in range(k):
            for j in range(i + 1, k):
                assert commutator_norm(images[i], images[j]) <= 1e-8


def test_lift_assignment_with_entangled_inputs():
    """Extension must also work for non-diagonal commuting assignments."""
    rng = np.random.default_rng(8)
    lang = neq_language()
    formula = PPFormula(2, 1, (PPAtom("neq", (0, 2)), PPAtom("neq", (2, 1))))
    inst = make_instance(2, ["a", "b"], [(("a", "b"), "eqd")], dict(lang.relations))
    sols = list(iter_solutions(inst))
    diag = embed_classical(sols, 2)
    U = random_unitary(diag.dim, rng)
    rotated = diag.map(lambda M: U @ M @ U.conj().T)
    assert verify_assignment(inst, rotated).verdict == "SATISFYING"
    expanded = gadgetize(inst, formula, "eqd")
    lifted = lift_assignment(inst, formula, "eqd", expanded, rotated)
    report = verify_assignment(expanded, lifted, tol=1e-8)
    assert report.verdict == "SATISFYING"


def test_lift_assignment_depends_only_on_joint_eigenspaces():
    """Solutions drawn with repeats give each replaced constraint's scope
    operators joint eigenspaces of dimension > 1, inside which the eigenbasis
    is arbitrary.  The carried operator of the existential of a -eqd- b is
    the sum over the joint eigenvalues (a, b) of the witness root (-1)^(1-a)
    times the projector onto their joint eigenspace."""
    rng = np.random.default_rng(12)
    formula = PPFormula(2, 1, (PPAtom("neq", (0, 2)), PPAtom("neq", (2, 1))))
    scopes = [("a", "b"), ("c", "d")]
    inst = make_instance(
        2, ["a", "b", "c", "d"], [(s, "eqd") for s in scopes], dict(neq_language().relations)
    )
    solutions = list(iter_solutions(inst))
    for dim in (8, 32):
        drawn = [solutions[k] for k in rng.integers(len(solutions), size=dim)]
        V = random_unitary(dim, rng)
        rotated = embed_classical(drawn, 2).map(lambda M: V @ M @ V.conj().T)
        expanded = gadgetize(inst, formula, "eqd")
        lifted = lift_assignment(inst, formula, "eqd", expanded, rotated, seed=dim)
        assert verify_assignment(expanded, lifted).verdict == "SATISFYING"
        for ci, (x, y) in enumerate(scopes):
            reference = np.zeros((dim, dim), dtype=complex)
            for point in {(s[x], s[y]) for s in drawn}:
                slots = [j for j, s in enumerate(drawn) if (s[x], s[y]) == point]
                assert len(slots) > 1
                projector = V[:, slots] @ V[:, slots].conj().T
                reference += (-1) ** (1 - point[0]) * projector
            assert fro(lifted[f"{x}-g{ci}-t0"] - reference) <= 1e-8
