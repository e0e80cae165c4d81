"""Acceptance suite: one test per criterion, each printing a PASS line.

Runtime bounds are asserted with time.perf_counter around the whole
criterion body; tolerances are pinned in the assertions.
"""

import random
import time
from fractions import Fraction
from itertools import product

import numpy as np

from opcsp.certificates import build_certificate, check_certificate
from opcsp.consistency import slac
from opcsp.csp_core import (
    Relation,
    brute_force_solve,
    iter_solutions,
    make_instance,
    search_space_size,
)
from opcsp.cyclotomic import CycNum, UniPoly, embed
from opcsp.fourier import (
    MultiPoly,
    complement,
    dom_gap_inverse,
    dom_polynomial,
    relation_polynomial,
    root_product,
    rule_polynomial,
)
from opcsp.gap_instances import magic_square, pauli_fixture
from opcsp.operators import (
    OperatorAssignment,
    embed_classical,
    fro,
    operator_implication_probe,
    random_unitary,
    simultaneous_diagonalize,
    verify_assignment,
)
from opcsp.reductions import (
    Congruence,
    PPAtom,
    PPFormula,
    UnaryMap,
    collapse_equalities,
    constants_reduction,
    core_instance,
    extend_with_anchor_scalars,
    factor_transport,
    gadgetize,
    lift_assignment,
    pp_evaluate,
    restrict_to,
    restrict_transport,
)

from helpers import bounded_width_corpus


def report(n: int, label: str, elapsed: float, bound: float):
    print(f"ACCEPTANCE {n}: PASS ({elapsed:.2f}s < {bound:.0f}s) {label}")
    assert elapsed < bound, f"criterion {n} exceeded its runtime bound"


def test_criterion_1_magic_square_gap_of_the_first_kind():
    start = time.perf_counter()
    inst = magic_square()
    assert search_space_size(inst) == 512
    assert brute_force_solve(inst) is None
    fixture = OperatorAssignment(4, pauli_fixture())
    rep = verify_assignment(inst, fixture, tol=1e-8)
    assert rep.verdict == "SATISFYING"
    assert rep.max_residual < 1e-9
    result = slac(inst)
    assert result.consistent
    assert all(vals == frozenset({0, 1}) for vals in result.domains.values())
    report(1, "magic square: classically UNSAT, operator-satisfiable at dim 4", time.perf_counter() - start, 1.0)


def test_criterion_2_refutations_and_certificates():
    start = time.perf_counter()
    corpus = bounded_width_corpus(1234, 200, max_vars=10)
    refuted = 0
    perturbations = 0
    for inst in corpus:
        result = slac(inst)
        unsat = brute_force_solve(inst) is None
        assert result.consistent == (not unsat), "propagation verdict must match brute force"
        if result.consistent:
            continue
        refuted += 1
        cert = build_certificate(inst, result)
        verdict = check_certificate(inst, cert)
        assert verdict.accepted, verdict.describe()
        variants = list(_perturbed_certificates(cert))
        assert variants
        for bad in variants:
            assert not check_certificate(inst, bad).accepted, "perturbed certificate accepted"
        perturbations += len(variants)
    assert refuted >= 60
    report(
        2,
        f"{len(corpus)} instances, {refuted} refuted, {perturbations} perturbations rejected",
        time.perf_counter() - start,
        60.0,
    )


def _perturbed_certificates(cert):
    """One variant per witness coefficient (plus a derived-set tamper when a
    chain carries no witness at all)."""
    from opcsp.certificates import GapCertificate
    from opcsp.consistency import ChainStep, RefutationChain

    def swap(k, i, step):
        steps = list(cert.sections[k].steps)
        steps[i] = step
        sections = list(cert.sections)
        sec = cert.sections[k]
        sections[k] = RefutationChain(sec.var, sec.value, tuple(steps))
        return GapCertificate(cert.digest, cert.d, cert.variable, tuple(sections), cert.collapse)

    had_witness = False
    for k, sec in enumerate(cert.sections):
        for i, st in enumerate(sec.steps):
            if st.inverse is None:
                continue
            had_witness = True
            q, c = st.inverse
            coeffs = list(q.coeffs) if not q.is_zero() else [CycNum.zero()]
            for pos in range(len(coeffs)):
                bumped = list(coeffs)
                bumped[pos] = bumped[pos] + CycNum.from_rational(Fraction(1, 7))
                yield swap(k, i, ChainStep(
                    st.constraint, st.src_pos, st.tgt_pos, st.var, st.values,
                    (UniPoly(bumped), c),
                ))
            yield swap(k, i, ChainStep(
                st.constraint, st.src_pos, st.tgt_pos, st.var, st.values,
                (q, c + CycNum.one()),
            ))
    if not had_witness:
        st = cert.sections[0].steps[0]
        yield swap(0, 0, ChainStep(
            st.constraint, st.src_pos, st.tgt_pos, st.var,
            tuple(sorted(set(st.values) ^ {0})), st.inverse,
        ))


def test_criterion_3_fourier_round_trip():
    start = time.perf_counter()
    lam = {d: [embed(k, d) for k in range(d)] for d in (2, 3, 4)}

    def check(rel: Relation):
        poly = relation_polynomial(rel)
        lam0, lam1 = lam[rel.d][0], lam[rel.d][1]
        for a in product(range(rel.d), repeat=rel.arity):
            point = [lam[rel.d][k] for k in a]
            expected = lam0 if a in rel else lam1
            assert poly.eval(point) == expected

    universe = list(product(range(3), repeat=2))
    for mask in range(2 ** 9):
        check(Relation(2, 3, frozenset(t for i, t in enumerate(universe) if mask >> i & 1)))
    rng = random.Random(99)
    for _ in range(200):
        d = rng.choice([2, 3, 4])
        cube = list(product(range(d), repeat=3))
        size = rng.randint(0, len(cube))
        check(Relation(3, d, frozenset(rng.sample(cube, size))))
    report(3, "512 binary relations at d=3 plus 200 random ternary relations", time.perf_counter() - start, 30.0)


def test_criterion_4_membership_polynomials_and_inverses():
    start = time.perf_counter()
    for d in range(2, 7):
        circle = UniPoly.x_pow_minus_one(d)
        for mask in range(1, 2 ** d - 1):
            S = {k for k in range(d) if mask >> k & 1}
            dom = dom_polynomial(S, d)
            for k in range(d):
                assert (dom.eval(embed(k, d)) == 1) == (k in S)
            q, c = dom_gap_inverse(S, d)
            assert not c.is_zero()
            p = root_product(S, d) - root_product(complement(S, d), d)
            assert ((p * q - UniPoly.constant(c)) % circle).is_zero()
    report(4, "membership values and modular inverses exact for d <= 6", time.perf_counter() - start, 10.0)


def _random_pp_case(rng: random.Random):
    d = rng.choice([2, 2, 3])
    universe2 = list(product(range(d), repeat=2))
    base = {
        "r0": Relation(2, d, frozenset(rng.sample(universe2, rng.randint(1, len(universe2))))),
        "r1": Relation(1, d, frozenset((k,) for k in rng.sample(range(d), rng.randint(1, d)))),
        "full": Relation(2, d, frozenset(universe2)),
    }
    from opcsp.csp_core import EQUALITY, Language

    lang = Language(d, base)
    arity = rng.randint(1, 2)
    exist = rng.randint(0, 2)
    atoms = []
    for _ in range(rng.randint(1, 3)):
        name = rng.choice(["r0", "r1", EQUALITY])
        k = 2 if name != "r1" else 1
        atoms.append(PPAtom(name, tuple(rng.randrange(arity + exist) for _ in range(k))))
    formula = PPFormula(arity, exist, tuple(atoms))
    target = pp_evaluate(formula, lang)
    rels = dict(base)
    rels["tgt"] = target
    nvars = rng.randint(2, 4)
    variables = [f"v{i}" for i in range(nvars)]
    constraints = []
    for _ in range(rng.randint(1, 4)):
        name = rng.choice(sorted(rels))
        ar = rels[name].arity
        constraints.append((tuple(rng.choice(variables) for _ in range(ar)), name))
    if not any(name == "tgt" for _, name in constraints):
        constraints.append((tuple(rng.choice(variables) for _ in range(target.arity)), "tgt"))
    return make_instance(d, variables, constraints, rels), formula


def test_criterion_5_pp_reduction_equivalence():
    start = time.perf_counter()
    rng = random.Random(424242)
    lifted_checked = 0
    for _ in range(100):
        inst, formula = _random_pp_case(rng)
        expanded = gadgetize(inst, formula, "tgt")
        final = collapse_equalities(expanded)
        assert (brute_force_solve(inst) is None) == (brute_force_solve(final) is None)
        sols = list(iter_solutions(inst, limit=2))
        if not sols:
            continue
        diag = embed_classical(sols, inst.d)
        lifted = lift_assignment(inst, formula, "tgt", expanded, diag)
        rep = verify_assignment(expanded, lifted, tol=1e-8)
        assert rep.verdict == "SATISFYING" and rep.max_residual < 1e-8
        # commutativity pads over the original scopes, then restriction back
        padded_cons = [(c.scope, c.rel) for c in expanded.constraints]
        for c in inst.constraints:
            for i in range(len(c.scope)):
                for j in range(i + 1, len(c.scope)):
                    padded_cons.append(((c.scope[i], c.scope[j]), "full"))
        padded = make_instance(
            expanded.d, expanded.variables, padded_cons, dict(expanded.language.relations)
        )
        rep2 = verify_assignment(padded, lifted, tol=1e-8)
        assert rep2.verdict == "SATISFYING" and rep2.max_residual < 1e-8
        back = restrict_to(lifted, inst.variables)
        rep3 = verify_assignment(inst, back, tol=1e-8)
        assert rep3.verdict == "SATISFYING" and rep3.max_residual < 1e-8
        lifted_checked += 1
    assert lifted_checked >= 30
    report(
        5,
        f"100 formula/instance pairs, {lifted_checked} operator lifts and restrictions",
        time.perf_counter() - start,
        120.0,
    )


def _diag_assignment_or_none(inst, limit=3):
    sols = list(iter_solutions(inst, limit=limit))
    if not sols:
        return None
    return embed_classical(sols, inst.d)


def test_criterion_6_reduction_transports():
    start = time.perf_counter()
    rng = random.Random(8080)

    # Step 1: cores
    core_cases = core_ops = 0
    while core_cases < 25:
        d = rng.choice([2, 3])
        universe = list(product(range(d), repeat=2))
        rels = {
            "r": Relation(2, d, frozenset(rng.sample(universe, rng.randint(1, len(universe))))),
            "u": Relation(1, d, frozenset((k,) for k in rng.sample(range(d), rng.randint(1, d)))),
        }
        nvars = rng.randint(2, 4)
        variables = [f"v{i}" for i in range(nvars)]
        constraints = [
            (tuple(rng.choice(variables) for _ in range(rels[name].arity)), name)
            for name in rng.choices(sorted(rels), k=rng.randint(1, 4))
        ]
        inst = make_instance(d, variables, constraints, rels)
        mapped, transport = core_instance(inst)
        assert (brute_force_solve(inst) is None) == (brute_force_solve(mapped) is None)
        diag = _diag_assignment_or_none(inst)
        if diag is not None:
            rep = verify_assignment(mapped, transport(diag), tol=1e-8)
            assert rep.verdict == "SATISFYING" and rep.max_residual < 1e-8
            core_ops += 1
        core_cases += 1
    assert core_ops >= 10

    # Step 2: constants
    const_cases = const_ops = 0
    while const_cases < 25:
        rels = {
            "neq": Relation(2, 2, frozenset({(0, 1), (1, 0)})),
            "c0": Relation(1, 2, frozenset({(0,)})),
            "c1": Relation(1, 2, frozenset({(1,)})),
        }
        nvars = rng.randint(1, 4)
        variables = [f"v{i}" for i in range(nvars)]
        constraints = [
            (tuple(rng.choice(variables) for _ in range(rels[name].arity)), name)
            for name in rng.choices(sorted(rels), k=rng.randint(1, 4))
        ]
        inst = make_instance(2, variables, constraints, rels)
        reduced = constants_reduction(inst)
        assert (brute_force_solve(inst) is None) == (brute_force_solve(reduced) is None)
        diag = _diag_assignment_or_none(inst)
        if diag is not None:
            rep = verify_assignment(reduced, extend_with_anchor_scalars(diag, reduced), tol=1e-8)
            assert rep.verdict == "SATISFYING" and rep.max_residual < 1e-8
            const_ops += 1
        const_cases += 1
    assert const_ops >= 10

    # Step 3: restriction through injective maps
    restrict_cases = restrict_ops = 0
    while restrict_cases < 25:
        e = rng.choice([1, 2, 3])
        d = rng.choice([x for x in (2, 3, 4) if x >= e])
        table = tuple(rng.sample(range(d), e))
        pi = UnaryMap(e, d, table)
        universe = list(product(range(e), repeat=2))
        rels = {
            "r": Relation(2, e, frozenset(rng.sample(universe, rng.randint(1, len(universe))))),
        }
        nvars = rng.randint(2, 4)
        pool = [f"v{i}" for i in range(nvars)]
        constraints = [
            (tuple(rng.choice(pool) for _ in range(2)), "r")
            for _ in range(rng.randint(1, 3))
        ]
        # keep every variable scoped so the solution sets correspond exactly
        variables = [v for v in pool if any(v in s for s, _ in constraints)]
        inst = make_instance(e, variables, constraints, rels)
        mapped, transport = restrict_transport(inst, pi)
        # classical: s solves the source iff pi o s solves the image
        src = {tuple(s[v] for v in inst.variables) for s in iter_solutions(inst)}
        dst = {tuple(s[v] for v in mapped.variables) for s in iter_solutions(mapped)}
        assert dst == {tuple(pi(a) for a in t) for t in src}
        diag = _diag_assignment_or_none(inst)
        if diag is not None:
            rep = verify_assignment(mapped, transport(diag), tol=1e-8)
            assert rep.verdict == "SATISFYING" and rep.max_residual < 1e-8
            restrict_ops += 1
        restrict_cases += 1
    assert restrict_ops >= 10

    # Step 4: factoring through congruences
    factor_cases = factor_ops = 0
    while factor_cases < 25:
        d = rng.choice([2, 3, 4])
        members = list(range(d))
        rng.shuffle(members)
        ncls = rng.randint(1, d)
        classes = [set() for _ in range(ncls)]
        for i, m in enumerate(members):
            classes[i % ncls].add(m)
        theta = Congruence(d, tuple(frozenset(c) for c in classes))
        e = ncls
        universe = list(product(range(e), repeat=2))
        rels = {
            "r": Relation(2, e, frozenset(rng.sample(universe, rng.randint(1, len(universe))))),
        }
        nvars = rng.randint(2, 4)
        variables = [f"v{i}" for i in range(nvars)]
        constraints = [
            (tuple(rng.choice(variables) for _ in range(2)), "r")
            for _ in range(rng.randint(1, 3))
        ]
        inst = make_instance(e, variables, constraints, rels)
        mapped, transport = factor_transport(inst, theta)
        assert (brute_force_solve(inst) is None) == (brute_force_solve(mapped) is None)
        diag = _diag_assignment_or_none(inst)
        if diag is not None:
            rep = verify_assignment(mapped, transport(diag), tol=1e-8)
            assert rep.verdict == "SATISFYING" and rep.max_residual < 1e-8
            factor_ops += 1
        factor_cases += 1
    assert factor_ops >= 10

    report(
        6,
        "25+ cases per step: classical equivalence and operator transports",
        time.perf_counter() - start,
        120.0,
    )


def _probe_systems():
    """Ten premise/conclusion systems whose implication over the roots of
    unity is verified inside the probe by brute force."""
    systems = []

    def mono(d, variables, exps, coeff=1):
        return MultiPoly(d, variables, {tuple(exps): coeff})

    # 1: x = 1 forces x^2 = 1 at d = 4
    x = ("x",)
    systems.append((4, [mono(4, x, (1,)) - MultiPoly.constant(1, 4, x)],
                    mono(4, x, (2,)) - MultiPoly.constant(1, 4, x)))
    # 2, 3: whole-domain annihilator from no premises
    for d in (2, 3):
        prod_ = MultiPoly.constant(1, d, x)
        for k in range(d):
            prod_ = prod_ * (MultiPoly.constant(embed(k, d), d, x) - mono(d, x, (1,)))
        systems.append((d, [], prod_))
    # 4: equality relation forces x - y = 0 at d = 2
    xy = ("x", "y")
    eq2 = relation_polynomial(Relation(2, 2, frozenset({(0, 0), (1, 1)})), xy)
    systems.append((2, [eq2 - MultiPoly.constant(1, 2, xy)],
                    mono(2, xy, (1, 0)) - mono(2, xy, (0, 1))))
    # 5: even parity forces z = x*y at d = 2
    xyz = ("x", "y", "z")
    par = relation_polynomial(
        Relation(3, 2, frozenset(t for t in product(range(2), repeat=3) if sum(t) % 2 == 0)), xyz
    )
    systems.append((2, [par - MultiPoly.constant(1, 2, xyz)],
                    mono(2, xyz, (1, 1, 0)) - mono(2, xyz, (0, 0, 1))))
    # 6: pinning to lambda_0 at d = 3 squares away
    systems.append((3, [MultiPoly.constant(1, 3, x) - mono(3, x, (1,))],
                    (MultiPoly.constant(1, 3, x) - mono(3, x, (1,))) * (MultiPoly.constant(1, 3, x) - mono(3, x, (1,)))))
    # 7: sound propagation rule vanishes with no premises, d = 2
    rel = Relation(2, 2, frozenset({(0, 1), (1, 0)}))
    image = {t[1] for t in rel.tuples if t[0] in {0}}
    systems.append((2, [], rule_polynomial({0}, rel, image, 0, 1, xy)))
    # 8: transitivity of equality at d = 2
    systems.append((2, [mono(2, xyz, (1, 0, 0)) - mono(2, xyz, (0, 1, 0)),
                        mono(2, xyz, (0, 1, 0)) - mono(2, xyz, (0, 0, 1))],
                    mono(2, xyz, (1, 0, 0)) - mono(2, xyz, (0, 0, 1))))
    # 9: successor graph forces y = zeta * x at d = 3
    succ = Relation(2, 3, frozenset((k, (k + 1) % 3) for k in range(3)))
    psucc = relation_polynomial(succ, xy)
    systems.append((3, [psucc - MultiPoly.constant(1, 3, xy)],
                    mono(3, xy, (0, 1)) - mono(3, xy, (1, 0), coeff=embed(1, 3))))
    # 10: two pins force the product value at d = 4
    systems.append((4, [mono(4, xy, (1, 0)) - MultiPoly.constant(embed(1, 4), 4, xy),
                        mono(4, xy, (0, 1)) - MultiPoly.constant(embed(1, 4), 4, xy)],
                    mono(4, xy, (1, 1)) - MultiPoly.constant(embed(2, 4), 4, xy)))
    return systems


def test_criterion_7_operator_implication_probe():
    start = time.perf_counter()
    systems = _probe_systems()
    assert len(systems) == 10
    rng = random.Random(5150)
    total = 0
    for idx, (d, premises, conclusion) in enumerate(systems):
        n = rng.choice([2, 4, 6, 8])
        assert operator_implication_probe(
            premises, conclusion, trials=20, n=n, tol=1e-8, seed=idx
        )
        total += 20
    assert total == 200
    report(7, "200 trials across 10 implication systems, dims <= 8", time.perf_counter() - start, 60.0)


def test_criterion_8_simultaneous_diagonalization():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    for trial in range(100):
        n = int(rng.integers(2, 17))
        k = int(rng.integers(1, 5))
        U = random_unitary(n, rng)
        mats = []
        for _ in range(k):
            eigs = rng.choice([1.0, -1.0, 1j, -1j, 0.25 - 1.5j], size=n)
            mats.append(U @ np.diag(eigs) @ U.conj().T)
        W, diags = simultaneous_diagonalize(mats, seed=trial)
        scale = max(1.0, max(fro(M) for M in mats))
        for M, D in zip(mats, diags):
            assert fro(W @ M @ W.conj().T - D) <= 1e-8 * scale
    report(8, "100 random commuting normal families reconstructed", time.perf_counter() - start, 60.0)
