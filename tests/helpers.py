"""Shared corpus generators and oracles for the propagation and certificate
test suites."""

import json
import random
from itertools import product

from opcsp.certificates import CheckResult
from opcsp.consistency import LinearAcResult, full_domains
from opcsp.csp_core import (
    BRUTE_FORCE_GUARD,
    EQUALITY,
    Instance,
    Language,
    Relation,
    make_instance,
    search_space_size,
    validate_assignment,
)
from opcsp.cyclotomic import ONE, ZERO, CycNum, UniPoly, cyclotomic_int_coeffs, embed
from opcsp.fourier import MultiPoly, root_product
from opcsp.gap_instances import LinearSystem, horn_language, shift_language, two_clause_language
from opcsp.reductions import Congruence, PPAtom, PPFormula, UnaryMap


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


def seeded_congruences(seed: int, classes: int, count: int, max_d: int = 7) -> list:
    """`count` seeded partitions of 0..d-1 into `classes` classes, with
    classes < d <= max_d and at least two distinct class sizes."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(classes + 1, max_d)
        labels = list(range(classes)) + [rng.randrange(classes) for _ in range(d - classes)]
        rng.shuffle(labels)
        parts = tuple(frozenset(k for k in range(d) if labels[k] == c) for c in range(classes))
        if len(set(map(len, parts))) > 1:
            out.append(Congruence(d, parts))
    return out


def random_language(rng: random.Random, d: int) -> Language:
    """Zero to three relations r0, r1, ... of arity 1..3 over 0..d-1, each
    keeping every tuple with a probability drawn from 0, 0.1, 0.2, 0.3, 0.5
    and 1 (sparse ones often lack the constant tuples that make the core a
    single value)."""
    rels = {}
    for i in range(rng.randint(0, 3)):
        arity = rng.randint(1, 3)
        density = rng.choice((0.0, 0.1, 0.2, 0.3, 0.5, 1.0))
        tuples = frozenset(t for t in product(range(d), repeat=arity) if rng.random() < density)
        rels[f"r{i}"] = Relation(arity, d, tuples)
    return Language(d, rels)


def seeded_languages(seed: int, count: int) -> list:
    """`count` seeded languages with d = 2..5 (`random_language`)."""
    rng = random.Random(seed)
    return [random_language(rng, rng.randint(2, 5)) for _ in range(count)]


def seeded_pp_formulas(seed: int, count: int) -> list:
    """`count` seeded (language, formula) pairs: a `random_language` with
    d = 2..4, and a formula of arity 1..3 with 0..3 existential variables
    and 1..4 atoms over the language's relations and equality."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        lang = random_language(rng, rng.randint(2, 4))
        arity, exist = rng.randint(1, 3), rng.randint(0, 3)
        atoms = []
        for _ in range(rng.randint(1, 4)):
            name = rng.choice(sorted(lang.relations) + [EQUALITY])
            k = 2 if name == EQUALITY else lang[name].arity
            atoms.append(PPAtom(name, tuple(rng.randrange(arity + exist) for _ in range(k))))
        out.append((lang, PPFormula(arity, exist, tuple(atoms))))
    return out


def reference_pp_witness(formula: PPFormula, language: Language, point: tuple):
    """Lexicographically first existential assignment, by testing each of
    the d^exist candidates in turn (differential oracle for `_pp_witness`)."""

    def holds(atom, values) -> bool:
        sub = tuple(values[i] for i in atom.vars)
        return sub[0] == sub[1] if atom.rel == EQUALITY else sub in language[atom.rel]

    for cand in product(range(language.d), repeat=formula.exist):
        if all(holds(atom, point + cand) for atom in formula.atoms):
            return cand
    return None


def reference_endomorphisms(language: Language) -> list:
    """Every unary map preserving every relation, by testing each of the d^d
    tables in lexicographic order (differential oracle for `endomorphisms`)."""
    d = language.d
    rels = [language[name] for name in sorted(language.relations)]
    return [
        UnaryMap(d, d, table) for table in product(range(d), repeat=d)
        if all(tuple(table[a] for a in t) in rel.tuples for rel in rels for t in rel.tuples)
    ]


def reference_core(language: Language, endos: list):
    """`core` from the whole list of the language's endomorphisms: its least
    map by (image size, table), made idempotent, and the rank relabeling of
    its image (differential oracle for the streaming minimum)."""
    rho = min(endos, key=lambda m: (len(set(m.table)), m.table))
    power = rho
    while power.compose(power) != power:
        power = power.compose(rho)
    image = sorted(set(power.table))
    rank = {v: i for i, v in enumerate(image)}
    relabel = UnaryMap(language.d, len(image), tuple(rank[v] for v in power.table))
    rels = {name: relabel.apply_relation(rel) for name, rel in language.relations.items()}
    return power, Language(len(image), rels), relabel


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


def reference_linear_ac(inst: Instance, domains: dict | None = None, *, pin: tuple) -> LinearAcResult:
    """`linear_ac` on frozensets with no memo, one `Relation.projections`
    call per visited occurrence (differential oracle for the mask engine)."""
    full = frozenset(range(inst.d))
    eff = {} if domains is None else dict(domains)
    for v in inst.variables:
        eff.setdefault(v, full)
    v, a = pin
    if v not in eff:
        raise ValueError(f"unknown pinned variable {v!r}")
    if a not in range(inst.d):
        raise ValueError(f"pinned value {a!r} outside 0..{inst.d - 1}")
    eff[v] = frozenset({a})
    store: dict = {(v, eff[v]): None}
    queue = [(v, eff[v])]
    for key in queue:  # also visits the keys appended below
        var, values = key
        for ci, src in inst.occurrences.get(var, ()):
            c = inst.constraints[ci]
            doms = [eff[v] for v in c.scope]
            doms[src] = doms[src] & values
            images = inst.relation_of(c).projections(doms)
            if not images[src]:
                empty = (var, frozenset())
                store[empty] = (ci, src, key, src)
                return LinearAcResult(False, None, store, empty)
            for tgt, image in enumerate(images):
                derived = (c.scope[tgt], image)
                if derived not in store:
                    store[derived] = (ci, src, key, tgt)
                    queue.append(derived)

    closed = dict(eff)
    for var, values in store:
        closed[var] = closed[var] & values
    return LinearAcResult(True, closed, store, None)


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


def reference_eval(poly: MultiPoly, point) -> CycNum:
    """`MultiPoly.eval` by field arithmetic: a table of the powers of each
    coordinate, then one product per term and one sum (differential oracle
    for the index-shift evaluation; it accepts any coordinate)."""
    point = [CycNum._coerce(p) for p in point]
    if len(point) != len(poly.vars):
        raise ValueError("point length must match variable count")
    top = [0] * len(point)
    for exps in poly.terms:
        for j, e in enumerate(exps):
            if e > top[j]:
                top[j] = e
    powers = []
    for val, m in zip(point, top):
        row = [ONE]
        for _ in range(m):
            row.append(row[-1] * val)
        powers.append(row)
    total = ZERO
    for exps, coeff in poly.terms.items():
        term = coeff
        for j, e in enumerate(exps):
            if e:
                term = term * powers[j][e]
        total = total + term
    return total


def phi_degree(L: int) -> int:
    """Degree of Phi_L, i.e. Euler's totient of L."""
    return len(cyclotomic_int_coeffs(L)) - 1


def x_pow_minus_one(d: int) -> UniPoly:
    return UniPoly([CycNum.from_rational(-1)] + [ZERO] * (d - 1) + [ONE])


def leading(p: UniPoly) -> CycNum:
    if p.is_zero():
        raise ValueError("zero polynomial has no leading coefficient")
    return p.coeffs[-1]


def poly_divmod(a: UniPoly, b: UniPoly) -> tuple[UniPoly, UniPoly]:
    """Long division over Q(zeta) in CycNum arithmetic."""
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    quo = [ZERO] * max(len(rem) - len(b.coeffs) + 1, 0)
    inv_lead = leading(b).inverse()
    dlen = len(b.coeffs)
    while len(rem) >= dlen:
        coef = rem[-1] * inv_lead
        shift = len(rem) - dlen
        quo[shift] = coef
        for i, c in enumerate(b.coeffs):
            rem[shift + i] = rem[shift + i] - coef * c
        while rem and rem[-1].is_zero():
            rem.pop()
        if not rem:
            break
    return UniPoly(quo), UniPoly(rem)


def poly_mod(a: UniPoly, b: UniPoly) -> UniPoly:
    return poly_divmod(a, b)[1]


def reference_ext_gcd(p: UniPoly, m: UniPoly) -> tuple[UniPoly, UniPoly, UniPoly]:
    """Extended Euclid in CycNum arithmetic (differential oracle for the
    row kernel of `poly_ext_gcd`, wire orders included)."""
    if p.is_zero() and m.is_zero():
        raise ValueError("gcd of two zero polynomials is undefined")
    r0, r1 = p, m
    u0, u1 = UniPoly.constant(1), UniPoly()
    v0, v1 = UniPoly(), UniPoly.constant(1)
    while not r1.is_zero():
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    lead_inv = leading(r0).inverse()
    return r0 * lead_inv, u0 * lead_inv, v0 * lead_inv


def reference_root_product(S, d: int) -> UniPoly:
    """`root_product` in UniPoly arithmetic (differential oracle)."""
    p = UniPoly.constant(1)
    x = UniPoly.x()
    for k in sorted(set(S)):
        p = p * (x - UniPoly.constant(embed(k, d)))
    return p


def reference_dom_polynomial(S, d: int) -> UniPoly:
    """`dom_polynomial` in UniPoly arithmetic (differential oracle)."""
    S = sorted(set(S))
    p = reference_root_product(S, d)
    return (-p if len(S) % 2 else p) + UniPoly.constant(1)


def cyclotomic_polynomial(L: int) -> UniPoly:
    """Phi_L as a UniPoly with rational coefficients."""
    return UniPoly([CycNum.from_rational(c) for c in cyclotomic_int_coeffs(L)])


def replaced(doc, path, value):
    """A copy of the JSON value `doc` with the node at `path` set to `value`."""
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    node = copy
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return copy


def node_paths(node, path=()):
    yield path
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from node_paths(child, path + (key,))


def type_mutations(doc):
    """Every document with one JSON node (the root included) replaced by
    null, true, 1.5, "s", [] or {}, skipping replacements that change nothing."""
    text = json.dumps(doc)
    for path in node_paths(doc):
        for value in (None, True, 1.5, "s", [], {}):
            mutated = replaced(doc, path, value)
            if json.dumps(mutated) != text:
                yield path, value, mutated
