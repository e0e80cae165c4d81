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
against the instance and re-verifies every Bezout identity modulo x^d - 1
exactly, each membership difference computed once per `check_certificate`
call.  Its arithmetic works on integer rows over the group ring Z[C_L]
(integer vectors over the powers of zeta_L, which map onto Z[zeta_L] modulo
Phi_L) and shares no polynomial code with the builder.  Its collapse replay
is structural: with R(S) the product of (x - lambda_k) over k in S,
R(S + r1) - R(S + r2) = (lambda_r2 - lambda_r1) * R(S) for every S and
r1 != r2, a nonzero multiple, so an entry only has to consume two
established sets (the test suite expands the identity for d = 2..6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import lcm

from .consistency import RefutationChain, SlacResult
from .csp_core import (Instance, _domain_size, _int, _list, _object, _str, instance_digest,
                       read_document, write_document)
from .cyclotomic import CycNum, UniPoly, _int_poly_divmod, cyclotomic_int_coeffs
from .fourier import dom_difference_inverse

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
        return write_document(self.to_obj())

    @classmethod
    def from_obj(cls, obj: dict, d: int | None = None) -> "GapCertificate":
        """Decode a certificate to be checked against an instance with domain
        size d (by default the certificate's own d).  Raises ValueError, before
        any section is decoded, when the certificate's d is above
        DOMAIN_GUARD; before any field arithmetic, when a witness
        coefficient's order is not a positive divisor of d; and a ValueError
        subclass on a wrong shape."""
        if _object(obj, "top level").get("format") != FORMAT:
            raise ValueError(f"unsupported certificate format {obj.get('format')!r}")
        cert_d = _domain_size(_int(obj["d"], "d"), "certificate domain size")
        d = cert_d if d is None else d
        return cls(
            _str(obj["digest"], "digest"),
            cert_d,
            _str(obj["variable"], "variable"),
            tuple(RefutationChain.from_obj(s, d) for s in _list(obj["sections"], "sections")),
            tuple(map(_collapse_entry, _list(obj["collapse"], "collapse"))),
        )

    @classmethod
    def from_json(cls, text: str, d: int | None = None) -> "GapCertificate":
        return cls.from_obj(read_document(text), d)


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


def _difference_rows(S: frozenset, d: int) -> list:
    """The membership difference dom(S) - dom(complement of S) =
    (-1)^|S| R(S) - (-1)^(d - |S|) R(complement), R(T) the product of
    (x - zeta_d^k) over k in T, as rows over the group ring Z[C_d]: row i
    holds the integer weights of zeta_d^0..zeta_d^(d-1) in the x^i
    coefficient.  Multiplying by x - zeta_d^k moves each row up one degree
    and subtracts it rotated by k, with no multiplication."""
    out = [[0] * d for _ in range(d + 1)]
    for T, sign in ((sorted(S), 1), (sorted(set(range(d)) - S), -1)):
        rows = [[1] + [0] * (d - 1)]
        for k in T:
            rows = [
                [a - b for a, b in zip(lower, row[-k:] + row[:-k])]
                for lower, row in zip([[0] * d] + rows, rows + [[0] * d])
            ]
        sign *= (-1) ** len(T)
        for total, row in zip(out, rows):
            total[:] = [a + sign * b for a, b in zip(total, row)]
    return out


def _bezout_residue(p: list, q: UniPoly, c: CycNum, d: int) -> tuple:
    """(p*q - c) modulo x^d - 1, for p given as rows over Z[C_d] (see
    `_difference_rows`), as (L, den, slots): slot i is the x^i coefficient
    times den, an integer vector over zeta_L^0..zeta_L^(phi(L) - 1) reduced
    modulo Phi_L.  L = lcm(d, the orders of q and c), and den is the least
    common denominator of q and c.  The products are computed in Z[C_L], the
    integer vectors over the powers of zeta_L, where zeta_e^i is
    zeta_L^(i*L/e); since x^d = 1, each product of the coefficients of
    degrees i and j lands in slot (i + j) mod d, and each slot is reduced
    modulo Phi_L once, at the end."""
    L = lcm(d, c.order, *(y.order for y in q.coeffs))
    den = lcm(c.den, *(y.den for y in q.coeffs))

    def terms(y: CycNum) -> list:
        step, scale = L // y.order, den // y.den
        return [(i * step, n * scale) for i, n in enumerate(y.num) if n]

    step = L // d
    slots = [[0] * (2 * L) for _ in range(d)]
    witness = [terms(y) for y in q.coeffs]
    for i, row in enumerate(p):
        if any(row):
            for j, products in enumerate(witness):
                slot = slots[(i + j) % d]
                for v, b in products:
                    slot[v:v + L:step] = [s + b * a for s, a in zip(slot[v:v + L:step], row)]
    for v, b in terms(c):
        slots[0][v] -= b
    phi = cyclotomic_int_coeffs(L)
    return L, den, [_int_poly_divmod([a + b for a, b in zip(s, s[L:])], phi)[1] for s in slots]


def check_chain(inst: Instance, remaining: dict, chain: RefutationChain, loc: tuple = (),
                differences: dict | None = None) -> CheckResult:
    """Replay one certificate section under `remaining` (variable -> values
    not yet excluded).

    Checks, in order: that the pinned value is still allowed; that every step
    is licensed by a constraint of the instance, its recorded set being
    exactly the image of the previous set through the relation filtered by
    the replayed domains; that every Bezout witness (q, c) has c nonzero and
    q of degree below d, and satisfies p*q = c modulo x^d - 1, computed on
    integer rows over Z[C_L] (`_bezout_residue`); and that the chain
    terminates in the empty set.  `differences` (image -> the rows of the
    membership difference p) lets the sections of one certificate share
    each p.
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
                differences[image] = _difference_rows(image, d)
            if any(map(any, _bezout_residue(differences[image], q, cc, d)[2])):
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
