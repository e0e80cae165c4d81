"""Propagation engines: single-source (linear) arc consistency with full
provenance and the singleton-probing loop built on top of it.

The linear engine derives facts "variable v lies in S" and keeps them in one
insertion-ordered dict keyed by `(v, S)`.  The pinned axiom maps to None;
every other fact maps to its first derivation, one licensing constraint and
one source fact key.  Following source keys back from a contradiction
therefore yields a single chain, which is exactly the shape the certificate
compiler needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .csp_core import (Instance, InstanceFormatError, _int, _list, _object, _str,
                       read_document, write_document)
from .cyclotomic import CycNum, UniPoly


@dataclass
class LinearAcResult:
    consistent: bool
    domains: dict | None
    # (var, values) -> None for the pinned axiom, else its first derivation
    # (constraint, src_pos, source key, tgt_pos); insertion-ordered
    store: dict
    contradiction: tuple | None  # key of the first empty derivation


def full_domains(inst: Instance) -> dict:
    return {v: frozenset(range(inst.d)) for v in inst.variables}


def linear_ac(inst: Instance, domains: dict | None = None, *, pin: tuple) -> LinearAcResult:
    """Least fixpoint of single-source rule derivation from `pin = (v, a)`.

    From a fact "scope[src] in S" and a constraint, the engine derives
    "scope[tgt] in image", where the image collects the tgt coordinates of
    relation tuples whose src coordinate lies in S and whose every coordinate
    lies in the (pin-adjusted) current domains.  Inconsistent as soon as some
    derivation comes out empty.  Raises ValueError on a pin, or a value of
    `domains`, that is not an int in 0..d-1.

    Inside, value sets are d-bit masks (`Relation.images`), and the images
    of each distinct (relation, masks) argument are computed once per call:
    constraints that share a relation over the same domains ask for the same
    ones.  The result holds frozensets, each built once per distinct mask.
    """
    d = inst.d

    def mask_of(values, what: str) -> int:
        mask = 0
        for a in values:
            if not (isinstance(a, int) and 0 <= a < d):
                raise ValueError(f"{what} {a!r} outside 0..{d - 1}")
            mask |= 1 << a
        return mask

    eff = {} if domains is None else {
        var: mask_of(values, "domain value") for var, values in domains.items()}
    for v in inst.variables:
        eff.setdefault(v, (1 << d) - 1)
    v, a = pin
    if v not in eff:
        raise ValueError(f"unknown pinned variable {v!r}")
    eff[v] = mask_of((a,), "pinned value")
    store: dict = {(v, eff[v]): None}
    queue = [(v, eff[v])]
    constraints, occurrences = inst.constraints, inst.occurrences
    seen: dict = {}  # (relation name, *masks) -> images
    for key in queue:  # also visits the keys appended below
        var, values = key
        for ci, src in occurrences.get(var, ()):
            c = constraints[ci]
            doms = [eff[v] for v in c.scope]
            doms[src] &= values
            arg = (c.rel, *doms)
            if arg not in seen:
                seen[arg] = inst.relation_of(c).images(doms)
            images = seen[arg]
            if images is None:
                store[var, 0] = (ci, src, key, src)
                return _as_sets(d, store, None, (var, 0))
            for tgt, image in enumerate(images):
                derived = (c.scope[tgt], image)
                if derived not in store:
                    store[derived] = (ci, src, key, tgt)
                    queue.append(derived)

    for var, values in store:
        eff[var] &= values
    return _as_sets(d, store, eff, None)


def _as_sets(d: int, store: dict, domains: dict | None, contradiction) -> LinearAcResult:
    """The result of `linear_ac` from its mask form, every mask turned into
    the frozenset of its values, one frozenset per distinct mask."""
    sets: dict = {}

    def as_set(mask: int) -> frozenset:
        if mask not in sets:
            sets[mask] = frozenset([a for a in range(d) if mask >> a & 1])
        return sets[mask]

    keys: dict = {}  # mask key -> set key; a source key precedes the keys it derives
    out = {}
    for key, derivation in store.items():
        keys[key] = (key[0], as_set(key[1]))
        if derivation is not None:
            ci, src, source, tgt = derivation
            derivation = (ci, src, keys[source], tgt)
        out[keys[key]] = derivation
    if contradiction is not None:
        return LinearAcResult(False, None, out, keys[contradiction])
    return LinearAcResult(True, {var: as_set(mask) for var, mask in domains.items()}, out, None)


@dataclass(frozen=True)
class ChainStep:
    constraint: int
    src_pos: int
    tgt_pos: int
    var: str
    values: tuple  # sorted derived set
    inverse: tuple | None = None  # certificate Bezout witness (q: UniPoly, c: CycNum)

    def to_obj(self) -> dict:
        obj = {
            "constraint": self.constraint,
            "src_pos": self.src_pos,
            "tgt_pos": self.tgt_pos,
            "var": self.var,
            "values": list(self.values),
        }
        if self.inverse is not None:
            q, c = self.inverse
            obj["q"] = q.to_obj()
            obj["c"] = c.to_obj()
        return obj

    @classmethod
    def from_obj(cls, obj: dict, d: int) -> "ChainStep":
        """Decode a step of a chain over a domain of size d.  Raises
        ValueError, before any field arithmetic, when a witness coefficient's
        order is not a positive divisor of d, and a ValueError subclass on a
        wrong shape."""
        inverse = None
        if "q" in _object(obj, "a chain step"):
            coeffs = _list(_object(obj["q"], "q")["coeffs"], "coeffs")
            inverse = (
                UniPoly([_witness_coefficient(y, d) for y in coeffs]),
                _witness_coefficient(obj["c"], d),
            )
        return cls(
            _int(obj["constraint"], "constraint"),
            _int(obj["src_pos"], "src_pos"),
            _int(obj["tgt_pos"], "tgt_pos"),
            _str(obj["var"], "var"),
            tuple(_int(a, "values") for a in _list(obj["values"], "values")),
            inverse,
        )


def _witness_coefficient(obj, d: int) -> CycNum:
    order = _int(_object(obj, "a field element", ("order",))["order"], "order", 1)
    if d < 1 or d % order:
        raise ValueError(f"witness coefficient order {order} does not divide d = {d}")
    return CycNum.from_obj(obj)


@dataclass(frozen=True)
class RefutationChain:
    """Single-source derivation from a pinned value to a contradiction; with
    witnesses attached it is also a certificate section."""

    var: str
    value: int
    steps: tuple  # of ChainStep; empty only for the bare axiom

    def is_contradiction(self) -> bool:
        return bool(self.steps) and not self.steps[-1].values

    def to_obj(self) -> dict:
        return {
            "var": self.var,
            "value": self.value,
            "steps": [s.to_obj() for s in self.steps],
        }

    @classmethod
    def from_obj(cls, obj: dict, d: int) -> "RefutationChain":
        return cls(
            _str(_object(obj, "a chain")["var"], "var"),
            _int(obj["value"], "value"),
            tuple(ChainStep.from_obj(s, d) for s in _list(obj["steps"], "steps")),
        )


def extract_chain(store: dict, fact: tuple) -> RefutationChain:
    """Walk first derivations from a fact key back to the pinned axiom."""
    steps: list[ChainStep] = []
    while (derivation := store[fact]) is not None:
        ci, src, source, tgt = derivation
        var, values = fact
        steps.append(ChainStep(ci, src, tgt, var, tuple(sorted(values))))
        fact = source
    var, (value,) = fact
    return RefutationChain(var, value, tuple(reversed(steps)))


@dataclass
class SlacResult:
    """Outcome of the singleton-probe fixpoint: final domains, verdict, and a
    refutation chain for every removed (variable, value) pair, in removal
    order."""

    domains: dict
    consistent: bool
    chains: dict  # (var, value) -> RefutationChain, insertion-ordered


def slac(inst: Instance) -> SlacResult:
    """Shrink domains to the singleton-linear-consistency fixpoint.

    Round-robin over variables in declaration order; for each current value,
    pin it and run the linear engine; on inconsistency remove the value and
    record the provenance chain.  Repeats until a full pass removes nothing.
    """
    domains = full_domains(inst)
    chains: dict[tuple, RefutationChain] = {}
    changed = True
    while changed:
        changed = False
        for v in inst.variables:
            for a in sorted(domains[v]):
                result = linear_ac(inst, domains, pin=(v, a))
                if not result.consistent:
                    domains[v] = domains[v] - {a}
                    chains[(v, a)] = extract_chain(result.store, result.contradiction)
                    changed = True
    consistent = all(domains[v] for v in inst.variables)
    return SlacResult(domains, consistent, chains)


# ---------------------------------------------------------------------------
# Trace export


def slac_result_to_obj(result: SlacResult) -> dict:
    return {
        "consistent": result.consistent,
        "domains": {v: sorted(vals) for v, vals in result.domains.items()},
        "chains": [
            {"var": v, "value": a, "chain": chain.to_obj()}
            for (v, a), chain in result.chains.items()
        ],
    }


def slac_result_to_json(result: SlacResult) -> str:
    return write_document(slac_result_to_obj(result))


def slac_result_from_json(text: str, d: int) -> SlacResult:
    """Read a trace document of an instance with domain size d; raises
    ValueError on a wrong shape or a witness order that does not divide d."""
    obj = _object(read_document(text), "top level")
    chains = {}
    for entry in _list(obj["chains"], "chains"):
        key = (_str(_object(entry, "a chains entry")["var"], "var"), _int(entry["value"], "value"))
        chains[key] = RefutationChain.from_obj(entry["chain"], d)
    domains = {
        v: frozenset(_int(a, "a domain value") for a in _list(vals, "a domain"))
        for v, vals in _object(obj["domains"], "domains").items()
    }
    if type(obj["consistent"]) is not bool:
        raise InstanceFormatError("malformed document: consistent must be true or false")
    return SlacResult(domains, obj["consistent"], chains)
