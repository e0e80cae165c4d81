"""Propagation engines: single-source (linear) arc consistency with full
provenance and the singleton-probing loop built on top of it.

The linear engine derives facts "variable v lies in S".  Every fact has one
source fact and one licensing constraint, so walking provenance backwards
from a contradiction yields a single chain, which is exactly the shape the
certificate compiler needs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .csp_core import Instance
from .cyclotomic import CycNum, UniPoly


AXIOM = "axiom"
RULE = "rule"


@dataclass(frozen=True)
class DerivedFact:
    id: int
    var: str
    values: frozenset
    # provenance: (AXIOM, var, value) or (RULE, constraint index, source
    # position, source fact id, target position)
    provenance: tuple


class FactStore:
    """Deduplicated facts with first-derivation provenance."""

    def __init__(self):
        self.facts: list[DerivedFact] = []
        self._index: dict[tuple, int] = {}

    def add(self, var: str, values: frozenset, provenance: tuple) -> tuple[DerivedFact, bool]:
        key = (var, values)
        if key in self._index:
            return self.facts[self._index[key]], False
        fact = DerivedFact(len(self.facts), var, values, provenance)
        self.facts.append(fact)
        self._index[key] = fact.id
        return fact, True

    def __len__(self) -> int:
        return len(self.facts)

    def __getitem__(self, fact_id: int) -> DerivedFact:
        return self.facts[fact_id]

    def get(self, var: str, values) -> DerivedFact | None:
        key = (var, frozenset(values))
        if key in self._index:
            return self.facts[self._index[key]]
        return None


@dataclass
class LinearAcResult:
    consistent: bool
    domains: dict | None
    store: FactStore
    contradiction: int | None  # fact id of the first empty derivation


def full_domains(inst: Instance) -> dict:
    return {v: frozenset(range(inst.d)) for v in inst.variables}


def linear_ac(inst: Instance, domains: dict | None = None, pin: tuple | None = None) -> LinearAcResult:
    """Least fixpoint of single-source rule derivation.

    From a fact "scope[src] in S" and a constraint, the engine derives
    "scope[tgt] in image", where the image collects the tgt coordinates of
    relation tuples whose src coordinate lies in S and whose every coordinate
    lies in the (pin-adjusted) current domains.  Inconsistent as soon as some
    derivation comes out empty.
    """
    eff = dict(domains) if domains is not None else full_domains(inst)
    for v in inst.variables:
        eff.setdefault(v, frozenset(range(inst.d)))
    store = FactStore()
    queue: list[int] = []
    if pin is not None:
        v, a = pin
        if v not in eff:
            raise ValueError(f"unknown pinned variable {v!r}")
        eff[v] = frozenset({a})
        fact, _ = store.add(v, frozenset({a}), (AXIOM, v, a))
        queue.append(fact.id)

    positions: dict[str, list] = {}
    for ci, c in enumerate(inst.constraints):
        for pos, var in enumerate(c.scope):
            positions.setdefault(var, []).append((ci, pos))

    head = 0
    while head < len(queue):
        fact = store[queue[head]]
        head += 1
        for ci, src in positions.get(fact.var, ()):
            c = inst.constraints[ci]
            doms = [eff[v] for v in c.scope]
            doms[src] = doms[src] & fact.values
            images = inst.relation_of(c).projections(doms)
            if not images[src]:
                empty, _ = store.add(fact.var, frozenset(), (RULE, ci, src, fact.id, src))
                return LinearAcResult(False, None, store, empty.id)
            for tgt, image in enumerate(images):
                derived, new = store.add(
                    c.scope[tgt], image, (RULE, ci, src, fact.id, tgt)
                )
                if new:
                    queue.append(derived.id)

    closed = dict(eff)
    for fact in store.facts:
        closed[fact.var] = closed[fact.var] & fact.values
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
        if "q" in obj:
            inverse = (UniPoly.from_obj(obj["q"]), CycNum.from_obj(obj["c"]))
        return cls(
            int(obj["constraint"]),
            int(obj["src_pos"]),
            int(obj["tgt_pos"]),
            str(obj["var"]),
            tuple(int(a) for a in obj["values"]),
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
            str(obj["var"]),
            int(obj["value"]),
            tuple(ChainStep.from_obj(s) for s in obj["steps"]),
        )


def extract_chain(store: FactStore, target) -> RefutationChain:
    """Walk single-source provenance from a fact back to the pinned axiom."""
    if isinstance(target, int):
        if not 0 <= target < len(store):
            raise KeyError(f"fact {target} not present in the store")
        target = store[target]
    steps: list[ChainStep] = []
    fact = target
    while fact.provenance[0] == RULE:
        _, ci, src, src_id, tgt = fact.provenance
        steps.append(ChainStep(ci, src, tgt, fact.var, tuple(sorted(fact.values))))
        fact = store[src_id]
    if fact.provenance[0] != AXIOM:
        raise ValueError("provenance chain does not terminate in an axiom")
    _, var, value = fact.provenance
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
    obj = json.loads(text)
    chains = {}
    for entry in obj["chains"]:
        chains[(entry["var"], int(entry["value"]))] = RefutationChain.from_obj(entry["chain"])
    domains = {v: frozenset(int(a) for a in vals) for v, vals in obj["domains"].items()}
    return SlacResult(domains, bool(obj["consistent"]), chains)
