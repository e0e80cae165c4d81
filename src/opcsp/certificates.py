"""Compile a propagation refutation into an exact algebraic certificate that
the instance admits no satisfying operator assignment, and re-check such
certificates from scratch.

A certificate is an ordered list of sections, one per removed
(variable, value) pair, each carrying its derivation chain together with
Bezout witnesses (q_i, c_i) for the membership-polynomial differences that
arise when adjacent chain identities are joined, followed by a collapse
script that shrinks the per-value exclusion products down to the empty
product, i.e. the contradiction I = 0.

The checker trusts nothing from the builder: it replays every chain image
against the instance and re-verifies every Bezout identity modulo x^d - 1 with
exact cyclotomic arithmetic, each membership difference computed once per
`check_certificate` call.  Its collapse replay is structural: with R(S) the
product of (x - lambda_k) over k in S, R(S + r1) - R(S + r2) =
(lambda_r2 - lambda_r1) * R(S) for every S and r1 != r2, a nonzero multiple,
so an entry only has to consume two established sets (the test suite expands
the identity for d = 2..6).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache

from .consistency import RefutationChain, SlacResult
from .csp_core import Instance, _int, _list, _object, instance_digest
from .cyclotomic import ZERO, CycNum, UniPoly
from .fourier import complement, dom_difference_inverse, dom_polynomial

FORMAT = "gap-certificate/1"


@dataclass(frozen=True)
class GapCertificate:
    digest: str
    d: int
    variable: str  # the variable whose whole domain is excluded
    sections: tuple  # of RefutationChain with witnesses attached
    collapse: tuple  # of (base tuple, r1, r2)

    def to_obj(self) -> dict:
        return {
            "format": FORMAT,
            "digest": self.digest,
            "d": self.d,
            "variable": self.variable,
            "sections": [s.to_obj() for s in self.sections],
            "collapse": [
                {"base": list(base), "r1": r1, "r2": r2} for base, r1, r2 in self.collapse
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=1)

    @classmethod
    def from_obj(cls, obj: dict, d: int | None = None) -> "GapCertificate":
        """Decode a certificate to be checked against an instance with domain
        size d (by default the certificate's own d).  Raises ValueError, before
        any field arithmetic, when a witness coefficient's order is not a
        positive divisor of d, and a ValueError subclass on a wrong shape."""
        if _object(obj, "top level").get("format") != FORMAT:
            raise ValueError(f"unsupported certificate format {obj.get('format')!r}")
        cert_d = _int(obj["d"], "d")
        d = cert_d if d is None else d
        for order in _witness_orders(obj):
            if type(order) is not int or order < 1 or d < 1 or d % order:
                raise ValueError(f"witness coefficient order {order!r} does not divide d = {d}")
        return cls(
            str(obj["digest"]),
            cert_d,
            str(obj["variable"]),
            tuple(RefutationChain.from_obj(s) for s in obj["sections"]),
            tuple(map(_collapse_entry, _list(obj["collapse"], "collapse"))),
        )

    @classmethod
    def from_json(cls, text: str, d: int | None = None) -> "GapCertificate":
        return cls.from_obj(json.loads(text), d)


def _witness_orders(obj: dict):
    """The `order` of every wire coefficient of the Bezout witnesses, read
    through the same shape checks as the decoders."""
    for sec in _list(obj["sections"], "sections"):
        for st in _list(_object(sec, "a chain")["steps"], "steps"):
            if "q" in _object(st, "a chain step"):
                coeffs = _list(_object(st["q"], "q")["coeffs"], "coeffs")
                yield from (_object(c, "a field element")["order"] for c in coeffs)
                yield _object(st["c"], "a field element")["order"]


def _collapse_entry(e) -> tuple:
    e = _object(e, "a collapse entry")
    base = tuple(_int(a, "base") for a in _list(e["base"], "base"))
    return base, _int(e["r1"], "r1"), _int(e["r2"], "r2")


@lru_cache(maxsize=None)
def _inverse_witness(d: int, values: tuple) -> tuple:
    return dom_difference_inverse(frozenset(values), d)


def collapse_script(d: int) -> tuple:
    """Deterministic shrink schedule from the d per-value exclusion sets down
    to the empty set.  Each entry (S, r1, r2) consumes the established sets
    S + {r1} and S + {r2} and establishes S."""
    steps: list[tuple] = []
    established = {frozenset(range(d)) - {k} for k in range(d)}

    def need(S: frozenset):
        if S in established:
            return
        missing = sorted(set(range(d)) - S)
        r1, r2 = missing[0], missing[1]
        need(S | {r1})
        need(S | {r2})
        steps.append((tuple(sorted(S)), r1, r2))
        established.add(S)

    need(frozenset())
    return tuple(steps)


def compile_chain(chain: RefutationChain, d: int) -> RefutationChain:
    """The chain as a certificate section: every non-terminal step gets its
    Bezout witness, the terminal step none."""
    last = len(chain.steps) - 1
    steps = tuple(
        replace(st, inverse=_inverse_witness(d, tuple(sorted(st.values))) if i < last else None)
        for i, st in enumerate(chain.steps)
    )
    return replace(chain, steps=steps)


def build_certificate(inst: Instance, result: SlacResult) -> GapCertificate:
    """Compile the chains of a refuted propagation run into a certificate.

    Sections follow removal order and stop at the first fully emptied
    variable; each non-terminal chain entry gets its Bezout witness.
    """
    if result.consistent:
        raise ValueError("nothing to certify: propagation left the instance consistent")
    domains = {v: set(range(inst.d)) for v in inst.variables}
    sections = []
    emptied = None
    for (v, a), chain in result.chains.items():
        if not chain.is_contradiction():
            raise ValueError(f"chain for ({v}, {a}) does not end in a contradiction")
        sections.append(compile_chain(chain, inst.d))
        domains[v].discard(a)
        if not domains[v]:
            emptied = v
            break
    if emptied is None:
        raise ValueError("refutation chains never empty a variable domain")
    return GapCertificate(
        digest=instance_digest(inst),
        d=inst.d,
        variable=emptied,
        sections=tuple(sections),
        collapse=collapse_script(inst.d),
    )


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    location: tuple = ()
    reason: str = ""

    def __bool__(self) -> bool:
        return self.accepted

    def describe(self) -> str:
        if self.accepted:
            return "ACCEPT"
        where = ":".join(str(x) for x in self.location)
        return f"REJECT at {where}: {self.reason}"


def _reject(location: tuple, reason: str) -> CheckResult:
    return CheckResult(False, location, reason)


def _bezout_residue(p: UniPoly, q: UniPoly, c: CycNum, d: int) -> UniPoly:
    """(p*q - c) modulo x^d - 1, computed by folding: since x^d = 1 there,
    each product x*y of coefficients of degrees i and j lands in slot
    (i + j) mod d."""
    slots = [ZERO] * d
    for i, x in enumerate(p.coeffs):
        if not x.is_zero():
            for j, y in enumerate(q.coeffs):
                k = (i + j) % d
                slots[k] = slots[k] + x * y
    slots[0] = slots[0] - c
    return UniPoly(slots)


def check_chain(inst: Instance, remaining: dict, chain: RefutationChain, loc: tuple = (),
                differences: dict | None = None) -> CheckResult:
    """Replay one certificate section under `remaining` (variable -> values
    not yet excluded).

    Checks, in order: that the pinned value is still allowed; that every step
    is licensed by a constraint of the instance, its recorded set being
    exactly the image of the previous set through the relation filtered by
    the replayed domains; that every Bezout witness (q, c) has c nonzero and
    q of degree below d, and satisfies p*q = c modulo x^d - 1; and that the
    chain terminates in the empty set.  `differences` (image -> membership
    difference p) lets the sections of one certificate share each p.
    """
    if chain.var not in remaining:
        return _reject(loc, f"unknown variable {chain.var!r}")
    if chain.value not in remaining[chain.var]:
        return _reject(loc, f"value {chain.value} already excluded for {chain.var!r}")
    if not chain.steps:
        return _reject(loc, "empty derivation chain")
    d = inst.d
    if differences is None:
        differences = {}
    eff = {v: frozenset(vals) for v, vals in remaining.items()}
    eff[chain.var] = frozenset({chain.value})
    cur_var, cur_set = chain.var, eff[chain.var]
    for i, st in enumerate(chain.steps):
        sloc = loc + ("step", i)
        if not 0 <= st.constraint < len(inst.constraints):
            return _reject(sloc, f"no constraint with index {st.constraint}")
        c = inst.constraints[st.constraint]
        rel = inst.relation_of(c)
        if not (0 <= st.src_pos < rel.arity and 0 <= st.tgt_pos < rel.arity):
            return _reject(sloc, "position outside the constraint scope")
        if c.scope[st.src_pos] != cur_var:
            return _reject(sloc, "source position does not carry the current variable")
        if c.scope[st.tgt_pos] != st.var:
            return _reject(sloc, "target position does not carry the step variable")
        doms = [eff[v] for v in c.scope]
        doms[st.src_pos] = doms[st.src_pos] & cur_set
        image = rel.projections(doms)[st.tgt_pos]
        if image != frozenset(st.values):
            return _reject(sloc, "recorded set is not the licensed image")
        terminal = i == len(chain.steps) - 1
        if terminal:
            if image:
                return _reject(sloc, "chain does not terminate in the empty set")
            if st.inverse is not None:
                return _reject(sloc, "terminal step must not carry a witness")
        else:
            if not image:
                return _reject(sloc, "non-terminal step derived the empty set")
            if st.inverse is None:
                return _reject(sloc, "missing Bezout witness")
            q, cc = st.inverse
            if cc.is_zero():
                return _reject(sloc, "witness constant is zero")
            if q.degree >= d:
                return _reject(sloc, "witness degree >= d")
            if image not in differences:
                differences[image] = dom_polynomial(image, d) - dom_polynomial(complement(image, d), d)
            if not _bezout_residue(differences[image], q, cc, d).is_zero():
                return _reject(sloc, "Bezout identity fails modulo x^d - 1")
        cur_var, cur_set = st.var, image
    return CheckResult(True)


def check_certificate(inst: Instance, cert: GapCertificate) -> CheckResult:
    """Re-verify a certificate with no trust in its builder.

    Checks, in order: the instance digest; every section with `check_chain`
    under the domains left by the sections before it; that the named
    variable has no value left; and that the collapse script reaches the
    empty product from the per-value exclusions of that variable.  The
    collapse replay computes no root product (see the module docstring).
    """
    if cert.digest != instance_digest(inst):
        return _reject(("digest",), "certificate was issued for a different instance")
    d = inst.d
    if cert.d != d:
        return _reject(("domain",), f"certificate domain size {cert.d} != instance {d}")
    if cert.variable not in inst.variables:
        return _reject(("variable",), f"unknown variable {cert.variable!r}")
    remaining = {v: set(range(d)) for v in inst.variables}
    differences = {}
    for k, sec in enumerate(cert.sections):
        verdict = check_chain(inst, remaining, sec, ("section", k), differences)
        if not verdict:
            return verdict
        remaining[sec.var].discard(sec.value)

    if remaining[cert.variable]:
        return _reject(
            ("variable",),
            f"domain of {cert.variable!r} retains {sorted(remaining[cert.variable])}",
        )

    established = {frozenset(range(d)) - {k} for k in range(d)}
    for j, (base, r1, r2) in enumerate(cert.collapse):
        loc = ("collapse", j)
        S = frozenset(base)
        if len(base) != len(S):
            return _reject(loc, "duplicate entries in the base set")
        if r1 == r2 or r1 in S or r2 in S or not (0 <= r1 < d and 0 <= r2 < d):
            return _reject(loc, "degenerate shrink pair")
        if S | {r1} not in established or S | {r2} not in established:
            return _reject(loc, "references an equation that is not established")
        established.add(S)
    if frozenset() not in established:
        return _reject(("collapse",), "script never reaches the empty product")
    return CheckResult(True)


def certify(inst: Instance):
    """Convenience: run propagation, build, and self-check.

    Returns (certificate, check result) or raises ValueError when the
    instance is consistent under propagation.
    """
    from .consistency import slac

    cert = build_certificate(inst, slac(inst))
    return cert, check_certificate(inst, cert)
