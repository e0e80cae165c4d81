"""Shared corpus generators and oracles for the propagation and certificate
test suites."""

import random
from itertools import product

from opcsp.certificates import CheckResult
from opcsp.consistency import full_domains
from opcsp.csp_core import (
    BRUTE_FORCE_GUARD,
    Instance,
    Language,
    make_instance,
    search_space_size,
    validate_assignment,
)
from opcsp.cyclotomic import CycNum, UniPoly, cyclotomic_int_coeffs, embed
from opcsp.fourier import root_product
from opcsp.gap_instances import LinearSystem, horn_language, shift_language, two_clause_language


def random_language_instance(
    rng: random.Random, language: Language, nvars: int, ncons: int
) -> Instance:
    variables = [f"v{i}" for i in range(nvars)]
    names = sorted(language.relations)
    constraints = []
    seen = set()
    attempts = 0
    while len(constraints) < ncons and attempts < 50 * ncons:
        attempts += 1
        name = rng.choice(names)
        arity = language[name].arity
        scope = tuple(rng.sample(variables, min(arity, nvars))) if arity <= nvars else None
        if scope is None or len(scope) < arity:
            continue
        key = (scope, name)
        if key in seen:
            continue
        seen.add(key)
        constraints.append(key)
    return make_instance(
        language.d, variables, constraints, dict(language.relations)
    )


FIXTURE_LANGUAGES = {
    "two_clause": two_clause_language,
    "horn": horn_language,
    "shift3": shift_language,
}


def bounded_width_corpus(seed: int, count: int, max_vars: int = 10):
    """Deterministic mix of instances over the bundled bounded-width languages."""
    rng = random.Random(seed)
    out = []
    names = sorted(FIXTURE_LANGUAGES)
    for i in range(count):
        lang = FIXTURE_LANGUAGES[names[i % len(names)]]()
        nvars = rng.randint(3, max_vars)
        ncons = rng.randint(nvars, 2 * nvars)
        out.append(random_language_instance(rng, lang, nvars, ncons))
    return out


def linear_system_corpus(seed: int, count: int, primes=(2, 3)):
    """Labelled Z_p systems covering every equation shape of the encoder.

    First every single-equation system x0 + ... + x(k-1) = b for p = 2, 3, 5,
    k = 0..p+2 and every b; then `count` seeded systems of one to four
    equations over p drawn from `primes`, with repeated variables
    (coefficients > 1, some wrapping to 0) and expanded lengths 0..p+2."""
    out = []
    for p in (2, 3, 5):
        for k in range(p + 3):
            for b in range(p):
                out.append((f"p={p} k={k} b={b}", LinearSystem(p, ((tuple(range(k)), (1,) * k, b),))))
    rng = random.Random(seed)
    for i in range(count):
        p = rng.choice(primes)
        nvars = rng.randint(1, 6)
        equations = []
        for _ in range(rng.randint(1, 4)):
            counts: dict[int, int] = {}
            for _ in range(rng.randint(0, p + 2)):
                v = rng.randrange(nvars)
                counts[v] = counts.get(v, 0) + 1
            vs = tuple(sorted(counts))
            equations.append((vs, tuple(counts[v] for v in vs), rng.randrange(p)))
        out.append((f"seeded#{i} p={p}", LinearSystem(p, tuple(equations))))
    return out


def iter_solutions(inst: Instance, limit: int | None = None):
    """All satisfying assignments in lexicographic order (test oracle helper)."""
    if search_space_size(inst) > BRUTE_FORCE_GUARD:
        raise ValueError("search space exceeds the brute-force guard")
    count = 0
    for combo in product(range(inst.d), repeat=len(inst.variables)):
        s = dict(zip(inst.variables, combo))
        if validate_assignment(inst, s):
            yield s
            count += 1
            if limit is not None and count >= limit:
                return


def full_ac(inst: Instance, domains: dict | None = None) -> tuple[bool, dict]:
    """Classical multi-source arc consistency fixpoint (cross-check oracle).

    Scans the tuples itself rather than through Relation.projections, so it
    stays an independent reference for the propagation engine."""
    eff = dict(domains) if domains is not None else full_domains(inst)
    for v in inst.variables:
        eff.setdefault(v, frozenset(range(inst.d)))
    changed = True
    while changed:
        changed = False
        for c in inst.constraints:
            rel = inst.relation_of(c)
            survivors = [
                t
                for t in rel.tuples
                if all(t[j] in eff[c.scope[j]] for j in range(rel.arity))
            ]
            for pos in range(rel.arity):
                proj = frozenset(t[pos] for t in survivors)
                var = c.scope[pos]
                narrowed = eff[var] & proj
                if narrowed != eff[var]:
                    eff[var] = narrowed
                    changed = True
    consistent = all(eff[v] for v in inst.variables)
    return consistent, eff


def minimal_conflict_instance(d: int = 2) -> Instance:
    """One variable x over 0..d-1 under the unary constraints x = 0 and x = 1."""
    rels = {"only0": [(0,)], "only1": [(1,)]}
    return make_instance(d, ["x"], [(("x",), "only0"), (("x",), "only1")], rels)


def collapse_mutations(script: tuple, d: int):
    """Single-entry mutations of a collapse script, as (label, script) pairs.

    Per entry (base, r1, r2): r1 and r2 swapped (still a valid entry); one
    base element dropped; one value of 0..d-1 added to the base; the entry
    moved ahead of the first entry that establishes one of its two sets;
    the entry deleted."""
    for j, (base, r1, r2) in enumerate(script):
        def put(entry, j=j):
            return script[:j] + (entry,) + script[j + 1:]

        yield f"{j} swap", put((base, r2, r1))
        for b in base:
            yield f"{j} drop {b}", put((tuple(x for x in base if x != b), r1, r2))
        for a in range(d):
            if a not in base:
                yield f"{j} add {a}", put((tuple(sorted(base + (a,))), r1, r2))
        S = frozenset(base)
        parents = [k for k, (b, _, _) in enumerate(script[:j]) if frozenset(b) in (S | {r1}, S | {r2})]
        if parents:
            k = parents[0]
            yield f"{j} ahead of {k}", script[:k] + (script[j],) + script[k:j] + script[j + 1:]
        yield f"{j} delete", script[:j] + script[j + 1:]


def reference_collapse_check(d: int, collapse) -> CheckResult:
    """The re-expanding reference for the collapse replay of
    `check_certificate`: the same structural checks, plus every shrink
    subtraction expanded into root products and compared coefficient by
    coefficient (test oracle for the checker's structural loop)."""
    established = {frozenset(range(d)) - {k} for k in range(d)}
    for j, (base, r1, r2) in enumerate(collapse):
        loc = ("collapse", j)
        S = frozenset(base)
        if len(base) != len(S):
            return CheckResult(False, loc, "duplicate entries in the base set")
        if r1 == r2 or r1 in S or r2 in S or not (0 <= r1 < d and 0 <= r2 < d):
            return CheckResult(False, loc, "degenerate shrink pair")
        if S | {r1} not in established or S | {r2} not in established:
            return CheckResult(False, loc, "references an equation that is not established")
        lhs = root_product(S | {r1}, d) - root_product(S | {r2}, d)
        rhs = root_product(S, d) * (embed(r2, d) - embed(r1, d))
        if lhs != rhs:
            return CheckResult(False, loc, "shrink subtraction is not coefficient-exact")
        established.add(S)
    if frozenset() not in established:
        return CheckResult(False, ("collapse",), "script never reaches the empty product")
    return CheckResult(True)


def cyclotomic_polynomial(L: int) -> UniPoly:
    """Phi_L as a UniPoly with rational coefficients."""
    return UniPoly([CycNum.from_rational(c) for c in cyclotomic_int_coeffs(L)])
