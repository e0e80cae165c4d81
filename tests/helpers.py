"""Shared corpus generators and oracles for the propagation and certificate
test suites."""

import random

from opcsp.consistency import full_domains
from opcsp.csp_core import Instance, Language, make_instance
from opcsp.gap_instances import horn_language, shift_language, two_clause_language


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
