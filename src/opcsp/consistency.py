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

import json
from dataclasses import dataclass

from .csp_core import Instance, InstanceFormatError, _int, _list, _object
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
    derivation comes out empty.
    """
    eff = dict(domains) if domains is not None else full_domains(inst)
    for v in inst.variables:
        eff.setdefault(v, frozenset(range(inst.d)))
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
    def from_obj(cls, obj: dict) -> "ChainStep":
        inverse = None
        if "q" in _object(obj, "a chain step"):
            inverse = (UniPoly.from_obj(obj["q"]), CycNum.from_obj(obj["c"]))
        return cls(
            _int(obj["constraint"], "constraint"),
            _int(obj["src_pos"], "src_pos"),
            _int(obj["tgt_pos"], "tgt_pos"),
            str(obj["var"]),
            tuple(_int(a, "values") for a in _list(obj["values"], "values")),
            inverse,
        )


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
    def from_obj(cls, obj: dict) -> "RefutationChain":
        return cls(
            str(_object(obj, "a chain")["var"]),
            _int(obj["value"], "value"),
            tuple(ChainStep.from_obj(s) for s in _list(obj["steps"], "steps")),
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
    return json.dumps(slac_result_to_obj(result), sort_keys=True, indent=1)


def slac_result_from_json(text: str) -> SlacResult:
    """Read a trace document; raises ValueError on a wrong shape."""
    obj = _object(json.loads(text), "top level")
    chains = {}
    for entry in _list(obj["chains"], "chains"):
        key = (str(_object(entry, "a chains entry")["var"]), _int(entry["value"], "value"))
        chains[key] = RefutationChain.from_obj(entry["chain"])
    domains = {
        v: frozenset(_int(a, "a domain value") for a in _list(vals, "a domain"))
        for v, vals in _object(obj["domains"], "domains").items()
    }
    if type(obj["consistent"]) is not bool:
        raise InstanceFormatError("malformed document: consistent must be true or false")
    return SlacResult(domains, obj["consistent"], chains)
