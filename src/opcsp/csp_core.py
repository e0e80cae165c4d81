"""Relations, languages, and CSP instances over a domain of d values.

Domain values are stored as indices 0..d-1 and mapped to roots of unity only
at the algebra and verification boundaries.  Instances are immutable after
construction and safe to share.
"""

from __future__ import annotations

import hashlib
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product


class InstanceFormatError(ValueError):
    """Raised when an instance document violates the schema."""


BRUTE_FORCE_GUARD = 10 ** 8
# Largest domain size d accepted by an instance, a unary map or a certificate,
# checked before anything builds range(d)-sized sets or Phi_d.
DOMAIN_GUARD = 1024


def _domain_size(d: int, what: str = "domain size") -> int:
    if d > DOMAIN_GUARD:
        raise InstanceFormatError(f"{what} {d} is above the guard {DOMAIN_GUARD}")
    return d


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
        """Bitset index, built on first use: per position, the d-bit mask of
        the values occurring there and their (value, 1 << value, tuple mask)
        triples (bit i of a tuple mask for the i-th tuple); and the mask of
        all tuples.  Cached in the instance dict, not a field, so equality,
        hash and documents ignore it."""
        nbytes = (len(self.tuples) + 7) // 8
        bufs = [defaultdict(lambda: bytearray(nbytes)) for _ in range(self.arity)]
        for i, t in enumerate(self.tuples):
            byte, bit = i >> 3, 1 << (i & 7)
            for column, a in zip(bufs, t):
                column[a][byte] |= bit
        index = []
        for column in bufs:
            entries = tuple((a, 1 << a, int.from_bytes(buf, "little")) for a, buf in sorted(column.items()))
            index.append((sum([bit for _, bit, _ in entries]), entries))
        return index, (1 << len(self.tuples)) - 1

    def images(self, masks) -> tuple | None:
        """The one tuple-support kernel of propagation and the certificate
        checker.  `masks` holds one d-bit mask of allowed values per
        position; returns, per position, the mask of the values of the tuples
        whose every coordinate is allowed, or None when no tuple survives.
        The survivors are the AND over positions of the OR of the allowed
        values' tuple masks, skipping a position that admits its whole
        column."""
        index, everything = self._support
        alive = everything
        for (values, column), dom in zip(index, masks):
            if values & ~dom:
                allowed = 0
                for _, bit, m in column:
                    if bit & dom:
                        allowed |= m
                alive &= allowed
                if not alive:
                    return None
        if alive == everything:  # no position narrowed: the columns themselves
            return tuple([values for values, _ in index]) if alive else None
        out = []
        for _, column in index:
            image = 0
            for _, bit, m in column:
                if alive & m:
                    image |= bit
            out.append(image)
        return tuple(out)

    def projections(self, doms) -> tuple:
        """Per position, the values of the tuples whose every coordinate lies
        in the allowed set of its position (`doms`, one container of values
        per position); all empty when no tuple survives.  The set form of
        `images`: only the values of a position's column are looked up in its
        set, so nothing else in it is ever shifted into a mask."""
        index, _ = self._support
        masks = []
        for (_, column), dom in zip(index, doms):
            mask = 0
            for a, bit, _ in column:
                if a in dom:
                    mask |= bit
            masks.append(mask)
        images = self.images(masks)
        if images is None:
            return (frozenset(),) * self.arity
        return tuple([frozenset([a for a, bit, _ in column if image & bit])
                      for (_, column), image in zip(index, images)])

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
        _domain_size(self.d)
        if self.language.d != self.d:
            raise InstanceFormatError(
                f"language domain size {self.language.d} does not match instance domain size {self.d}"
            )
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
    return write_document(instance_to_obj(inst))


def instance_digest(inst: Instance) -> str:
    return inst.digest


# Strict readers of document values: each returns its argument or raises InstanceFormatError.
def _malformed(what: str, kind: str) -> InstanceFormatError:
    return InstanceFormatError(f"malformed document: {what} must be {kind}")


def _int(x, what: str, lo: int | None = None) -> int:
    if type(x) is not int or (lo is not None and x < lo):  # not bool, float or str
        raise _malformed(what, "an integer" if lo is None else f"an integer >= {lo}")
    return x


def _real(x, what: str) -> float | int:
    # any float, NaN and inf included; a larger int would overflow in complex()
    if type(x) is not float and not (type(x) is int and abs(x) <= sys.float_info.max):
        raise _malformed(what, "a number")
    return x


def _str(x, what: str) -> str:
    if type(x) is not str:
        raise _malformed(what, "a string")
    return x


def _list(x, what: str, length: int | None = None) -> list:
    if not isinstance(x, list) or (length is not None and len(x) != length):
        raise _malformed(what, "a list" if length is None else f"a list of length {length}")
    return x


def _object(x, what: str, keys: tuple = ()) -> dict:
    if not isinstance(x, dict) or not all(key in x for key in keys):
        raise _malformed(what, f"an object with keys {', '.join(keys)}" if keys else "an object")
    return x


def read_document(text: str):
    """The JSON value of a document; malformed JSON raises InstanceFormatError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"malformed document: {exc}") from exc
    except RecursionError:
        raise InstanceFormatError("malformed document: nested too deeply") from None


def write_document(obj) -> str:
    """The text of json.dumps(obj, sort_keys=True, indent=1), byte for byte,
    for dicts with str keys, lists, tuples, str, int, float, bool and None;
    any other key or value raises TypeError.  The text is one join of
    pieces, and a list of scalars is one piece, not one per value."""
    out = []
    _emit(obj, "\n", out)
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii  # json's default ensure_ascii=True
_INF = float("inf")


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


_SCALARS = {
    str: _encode_str,
    int: int.__repr__,
    float: _float,
    bool: lambda x: "true" if x else "false",
    type(None): lambda x: "null",
}


def _emit(obj, nl: str, out: list) -> None:
    """Append the pieces of obj's text, at the depth whose line break and
    indent are nl, to out."""
    scalar = _SCALARS.get(obj.__class__)
    if scalar is not None:
        out.append(scalar(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for key in sorted(obj):  # _encode_str raises TypeError on a key that is not a str
            out.append(sep + _encode_str(key) + ": ")
            _emit(obj[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + " "
        if _SCALARS.keys() >= set(map(type, obj)):  # one piece for a list of scalars
            out.append("[" + inner + ("," + inner).join([_SCALARS[type(x)](x) for x in obj]) + nl + "]")
            return
        sep = "[" + inner
        for x in obj:
            out.append(sep)
            _emit(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def load_instance(document: str) -> Instance:
    obj = read_document(document)
    _object(obj, "top level", ("d", "relations", "variables", "constraints"))
    d = _int(obj["d"], "d", 1)
    rels = {}
    for name, entry in _object(obj["relations"], "relations").items():
        what = f"relation {name!r}"
        arity = _int(_object(entry, what, ("arity", "tuples"))["arity"], f"arity of {what}", 1)
        rows = _list(entry["tuples"], f"tuples of {what}")
        # one type scan; Relation checks each row's length and range
        if not {list}.issuperset(map(type, rows)):
            raise _malformed(f"a tuple of {what}", "a list")
        if not {int}.issuperset(map(type, chain.from_iterable(rows))):
            raise _malformed(f"a tuple entry of {what}", "an integer")
        try:
            rels[name] = Relation(arity, d, rows)
        except ValueError as exc:  # arity mismatch or value out of domain
            raise InstanceFormatError(f"{exc} in {what}") from None
    variables = tuple(_str(v, "a variable") for v in _list(obj["variables"], "variables"))
    constraints = []
    for c in _list(obj["constraints"], "constraints"):
        scope = _list(_object(c, "a constraint", ("scope", "rel"))["scope"], "scope")
        scope = tuple(_str(v, "a scope entry") for v in scope)
        constraints.append(Constraint(scope, _str(c["rel"], "rel")))
    return Instance(d, variables, tuple(constraints), Language(d, rels))


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


def search(domains, constraints):
    """Each assignment of positions 0..n-1 (position i over domains[i], in its
    order) that satisfies every (positions, tuples) constraint, as a tuple, in
    lexicographic order; a constraint is checked once, when its last position
    is set.  An explicit stack of iterators, not recursion: any n works, and
    n = 0 yields ()."""
    n = len(domains)
    checks = [[] for _ in range(n)]
    for positions, tuples in constraints:
        checks[max(positions)].append((positions, tuples))
    if not n:
        yield ()
        return
    values = [None] * n
    stack = [iter(domains[0])]
    while stack:
        i = len(stack) - 1
        for a in stack[i]:
            values[i] = a
            if all(tuple([values[p] for p in pos]) in tuples for pos, tuples in checks[i]):
                break
        else:
            stack.pop()
            continue
        if i + 1 < n:
            stack.append(iter(domains[i + 1]))
        else:
            yield tuple(values)


def brute_force_solve(inst: Instance) -> dict | None:
    """Lexicographically first satisfying assignment (the first result of
    `search`), or None when unsatisfiable.  Guarded at d^|V| <= 10^8."""
    if search_space_size(inst) > BRUTE_FORCE_GUARD:
        raise ValueError("search space exceeds the brute-force guard")
    index = {v: i for i, v in enumerate(inst.variables)}
    constraints = [([index[v] for v in c.scope], inst.relation_of(c).tuples) for c in inst.constraints]
    first = next(search([range(inst.d)] * len(inst.variables), constraints), None)
    return None if first is None else dict(zip(inst.variables, first))
