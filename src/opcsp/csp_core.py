"""Relations, languages, and CSP instances over a domain of d values.

Domain values are stored as indices 0..d-1 and mapped to roots of unity only
at the algebra and verification boundaries.  Instances are immutable after
construction and safe to share.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from itertools import product
from operator import contains


class InstanceFormatError(ValueError):
    """Raised when an instance document violates the schema."""


BRUTE_FORCE_GUARD = 10 ** 8


@dataclass(frozen=True)
class Relation:
    arity: int
    d: int
    tuples: frozenset

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("relation arity must be positive")
        if self.d < 1:
            raise ValueError("domain size must be positive")
        object.__setattr__(self, "tuples", frozenset(tuple(t) for t in self.tuples))
        for t in self.tuples:
            if len(t) != self.arity:
                raise ValueError(f"tuple {t} does not match arity {self.arity}")
            if any(not (0 <= a < self.d) for a in t):
                raise ValueError(f"tuple {t} has entries outside 0..{self.d - 1}")

    def sorted_tuples(self) -> list:
        return sorted(self.tuples)

    def projections(self, doms) -> tuple:
        """Per position, the values of the tuples whose every coordinate lies
        in the allowed set of its position (`doms`, one set per position); all
        empty when no tuple survives.  The one tuple-support scan of the
        propagation engine and the certificate checker."""
        alive = [t for t in self.tuples if all(map(contains, doms, t))]
        if not alive:
            return (frozenset(),) * self.arity
        return tuple(map(frozenset, zip(*alive)))

    def __contains__(self, t) -> bool:
        return tuple(t) in self.tuples


def full_relation(arity: int, d: int) -> Relation:
    return Relation(arity, d, frozenset(product(range(d), repeat=arity)))


def equality_relation(d: int) -> Relation:
    return Relation(2, d, frozenset((k, k) for k in range(d)))


EQUALITY = "="


@dataclass(frozen=True)
class Language:
    d: int
    relations: dict

    def __post_init__(self):
        for name, rel in self.relations.items():
            if rel.d != self.d:
                raise ValueError(f"relation {name!r} has domain size {rel.d}, expected {self.d}")

    def without(self, name: str) -> "Language":
        rels = {n: r for n, r in self.relations.items() if n != name}
        return Language(self.d, rels)

    def __contains__(self, name: str) -> bool:
        return name in self.relations

    def __getitem__(self, name: str) -> Relation:
        return self.relations[name]


@dataclass(frozen=True)
class Constraint:
    scope: tuple
    rel: str


@dataclass(frozen=True)
class Instance:
    d: int
    variables: tuple
    constraints: tuple
    language: Language

    def __post_init__(self):
        names = set(self.variables)
        if len(names) != len(self.variables):
            raise InstanceFormatError("duplicate variable name")
        for c in self.constraints:
            if c.rel not in self.language:
                raise InstanceFormatError(f"unknown relation {c.rel!r}")
            rel = self.language[c.rel]
            if len(c.scope) != rel.arity:
                raise InstanceFormatError(
                    f"arity mismatch: scope {c.scope} has length {len(c.scope)}, "
                    f"relation {c.rel!r} has arity {rel.arity}"
                )
            for v in c.scope:
                if v not in names:
                    raise InstanceFormatError(f"unknown variable {v!r} in scope {c.scope}")

    def relation_of(self, c: Constraint) -> Relation:
        return self.language[c.rel]


def make_instance(d, variables, constraints, relations) -> Instance:
    """Convenience constructor from plain data (relations: name -> tuple iterable or Relation)."""
    rels = {}
    for name, r in relations.items():
        if isinstance(r, Relation):
            rels[name] = r
        else:
            tuples = frozenset(tuple(t) for t in r)
            arity = len(next(iter(tuples))) if tuples else 1
            rels[name] = Relation(arity, d, tuples)
    lang = Language(d, rels)
    cons = tuple(Constraint(tuple(s), rn) for s, rn in constraints)
    return Instance(d, tuple(variables), cons, lang)


# ---------------------------------------------------------------------------
# Documents


def instance_to_obj(inst: Instance) -> dict:
    return {
        "d": inst.d,
        "relations": {
            name: {"arity": rel.arity, "tuples": [list(t) for t in rel.sorted_tuples()]}
            for name, rel in sorted(inst.language.relations.items())
        },
        "variables": list(inst.variables),
        "constraints": [{"scope": list(c.scope), "rel": c.rel} for c in inst.constraints],
    }


def serialize_instance(inst: Instance) -> str:
    return json.dumps(instance_to_obj(inst), sort_keys=True, indent=1)


def instance_digest(inst: Instance) -> str:
    return hashlib.sha256(serialize_instance(inst).encode("utf-8")).hexdigest()


def _positive_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise InstanceFormatError(f"malformed document: {what} must be a list")
    return x


def load_instance(document: str) -> Instance:
    try:
        obj = json.loads(document)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"malformed document: {exc}") from exc
    if not isinstance(obj, dict):
        raise InstanceFormatError("malformed document: top level must be an object")
    for key in ("d", "relations", "variables", "constraints"):
        if key not in obj:
            raise InstanceFormatError(f"malformed document: missing key {key!r}")
    d = obj["d"]
    if not _positive_int(d):
        raise InstanceFormatError("malformed document: d must be a positive integer")
    if not isinstance(obj["relations"], dict):
        raise InstanceFormatError("malformed document: relations must be an object")
    rels = {}
    for name, entry in obj["relations"].items():
        if not isinstance(entry, dict) or "arity" not in entry or "tuples" not in entry:
            raise InstanceFormatError(f"malformed document: relation {name!r}")
        arity = entry["arity"]
        if not _positive_int(arity):
            raise InstanceFormatError(f"malformed document: arity of relation {name!r}")
        tuples = frozenset(
            tuple(int(a) for a in _list(t, f"a tuple of relation {name!r}"))
            for t in _list(entry["tuples"], f"tuples of relation {name!r}")
        )
        for t in tuples:
            if len(t) != arity:
                raise InstanceFormatError(
                    f"arity mismatch: relation {name!r} declares arity {arity}, tuple {t}"
                )
            if any(not (0 <= a < d) for a in t):
                raise InstanceFormatError(f"value out of domain in relation {name!r}: {t}")
        rels[name] = Relation(arity, d, tuples)
    variables = [str(v) for v in _list(obj["variables"], "variables")]
    constraints = []
    for c in _list(obj["constraints"], "constraints"):
        if not isinstance(c, dict) or "scope" not in c or not isinstance(c.get("rel"), str):
            raise InstanceFormatError("malformed document: constraint entries need scope and rel")
        constraints.append((tuple(str(v) for v in _list(c["scope"], "scope")), c["rel"]))
    lang = Language(d, rels)
    return Instance(d, tuple(variables), tuple(Constraint(s, r) for s, r in constraints), lang)


# ---------------------------------------------------------------------------
# Classical solving


def validate_assignment(inst: Instance, assignment: dict) -> bool:
    """True iff the total assignment lands every constraint scope inside its relation."""
    for v in inst.variables:
        if v not in assignment:
            raise ValueError(f"assignment is partial: missing {v!r}")
    for c in inst.constraints:
        t = tuple(assignment[v] for v in c.scope)
        if t not in inst.relation_of(c):
            return False
    return True


def search_space_size(inst: Instance) -> int:
    return inst.d ** len(inst.variables)


def brute_force_solve(inst: Instance) -> dict | None:
    """Lexicographically first satisfying assignment, or None when unsatisfiable.

    Depth-first over variables in declaration order with values ascending, so
    the first full assignment found is the lexicographic minimum of the
    solution set.  Guarded at d^|V| <= 10^8.
    """
    if search_space_size(inst) > BRUTE_FORCE_GUARD:
        raise ValueError("search space exceeds the brute-force guard")
    n = len(inst.variables)
    index = {v: i for i, v in enumerate(inst.variables)}
    # constraints become checkable once their latest-indexed variable is set
    by_depth = [[] for _ in range(n + 1)]
    for c in inst.constraints:
        positions = [index[v] for v in c.scope]
        depth = max(positions) if positions else 0
        by_depth[depth].append((positions, inst.relation_of(c).tuples))
    values = [0] * n

    def extend(i: int):
        if i == n:
            return True
        for a in range(inst.d):
            values[i] = a
            if all(tuple(values[p] for p in pos) in tuples for pos, tuples in by_depth[i]):
                if extend(i + 1):
                    return True
        return False

    if n == 0:
        return {}  # scopes need variables, so a variable-free instance has no constraints
    if extend(0):
        return {v: values[index[v]] for v in inst.variables}
    return None


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
