"""Relations, languages, and CSP instances over a domain of d values.

Domain values are stored as indices 0..d-1 and mapped to roots of unity only
at the algebra and verification boundaries.  Instances are immutable after
construction and safe to share.
"""

from __future__ import annotations

import hashlib
import json
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, product
from operator import or_


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
        tuples = frozenset(map(tuple, self.tuples))
        object.__setattr__(self, "tuples", tuples)
        if set(map(len, tuples)) - {self.arity}:
            t = next(t for t in tuples if len(t) != self.arity)
            raise ValueError(f"arity mismatch: tuple {t} does not match arity {self.arity}")
        values = set(chain.from_iterable(tuples))
        if values and (min(values) < 0 or max(values) >= self.d):
            t = next(t for t in tuples if any(not (0 <= a < self.d) for a in t))
            raise ValueError(f"value out of domain: tuple {t} has entries outside 0..{self.d - 1}")

    def sorted_tuples(self) -> list:
        return sorted(self.tuples)

    @cached_property
    def _support(self) -> tuple:
        """Bitset index, built on first use: per position, the set of values
        occurring there and their (value, mask) pairs (bit i of a mask for
        the i-th tuple); and the mask of all tuples.  Cached in the instance
        dict, not a field, so equality, hash and documents ignore it."""
        nbytes = (len(self.tuples) + 7) // 8
        bufs = [defaultdict(lambda: bytearray(nbytes)) for _ in range(self.arity)]
        for i, t in enumerate(self.tuples):
            byte, bit = i >> 3, 1 << (i & 7)
            for column, a in zip(bufs, t):
                column[a][byte] |= bit
        index = []
        for column in bufs:
            pairs = tuple((a, int.from_bytes(buf, "little")) for a, buf in sorted(column.items()))
            index.append((frozenset(column), pairs))
        return index, (1 << len(self.tuples)) - 1

    def projections(self, doms) -> tuple:
        """Per position, the values of the tuples whose every coordinate lies
        in the allowed set of its position (`doms`, one set of values per
        position); all empty when no tuple survives.  The one tuple-support
        kernel of the propagation engine and the certificate checker: the
        survivors are the AND over positions of the OR of the allowed values'
        masks, skipping a position whose set admits its whole column."""
        index, alive = self._support
        for (values, column), dom in zip(index, doms):
            if not values.issubset(dom):
                alive &= reduce(or_, [m for a, m in column if a in dom], 0)
                if not alive:
                    return (frozenset(),) * self.arity
        return tuple([frozenset([a for a, m in column if alive & m]) for _, column in index])

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

    @cached_property
    def occurrences(self) -> dict:
        """Variable -> (constraint index, scope position) of each of its
        occurrences, in constraint order; built on first use and cached in
        the instance dict, not a field."""
        out: dict[str, list] = {}
        for ci, c in enumerate(self.constraints):
            for pos, var in enumerate(c.scope):
                out.setdefault(var, []).append((ci, pos))
        return {var: tuple(occ) for var, occ in out.items()}

    @cached_property
    def digest(self) -> str:
        """SHA-256 of the serialized instance document; computed on first use
        and cached in the instance dict, not a field."""
        return hashlib.sha256(serialize_instance(self).encode("utf-8")).hexdigest()


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
    return inst.digest


def _positive_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= 1


def _int(x, what: str) -> int:
    if type(x) is not int:  # not bool, float or str
        raise InstanceFormatError(f"malformed document: {what} must be an integer")
    return x


def _list(x, what: str) -> list:
    if not isinstance(x, list):
        raise InstanceFormatError(f"malformed document: {what} must be a list")
    return x


def _object(x, what: str) -> dict:
    if not isinstance(x, dict):
        raise InstanceFormatError(f"malformed document: {what} must be an object")
    return x


def load_instance(document: str) -> Instance:
    try:
        obj = json.loads(document)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"malformed document: {exc}") from exc
    _object(obj, "top level")
    for key in ("d", "relations", "variables", "constraints"):
        if key not in obj:
            raise InstanceFormatError(f"malformed document: missing key {key!r}")
    d = obj["d"]
    if not _positive_int(d):
        raise InstanceFormatError("malformed document: d must be a positive integer")
    rels = {}
    for name, entry in _object(obj["relations"], "relations").items():
        if not isinstance(entry, dict) or "arity" not in entry or "tuples" not in entry:
            raise InstanceFormatError(f"malformed document: relation {name!r}")
        arity = entry["arity"]
        if not _positive_int(arity):
            raise InstanceFormatError(f"malformed document: arity of relation {name!r}")
        tuples = [
            tuple(map(int, _list(t, f"a tuple of relation {name!r}")))
            for t in _list(entry["tuples"], f"tuples of relation {name!r}")
        ]
        try:
            rels[name] = Relation(arity, d, tuples)
        except ValueError as exc:  # arity mismatch or value out of domain
            raise InstanceFormatError(f"{exc} in relation {name!r}") from None
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
        by_depth[max(positions)].append((positions, inst.relation_of(c).tuples))
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

    if extend(0):
        return {v: values[index[v]] for v in inst.variables}
    return None

