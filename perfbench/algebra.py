"""`algebra`: exact field arithmetic and DFT-shaped loops, no propagation.

Per pass: `relation_polynomial` of seeded relations (d <= 6, arity <= 3),
evaluation of each polynomial at every point of U_d^r, the inverse witness
`dom_difference_inverse` of every proper subset for d <= 6 and of one seeded
subset of each size for d = 7, and certificates for d-valued contradictions
(a two-variable shift cycle with nonzero total) whose collapse check
reaches d = 11.
"""

from __future__ import annotations

import itertools
import json
import random

from opcsp import csp_core, fourier
from opcsp.cyclotomic import embed

from checks import check_inverse_witness, check_point_value, check_relation_values
from common import CliCommand, Op, audit, expect, write_text

# (d, arity, tuples) of the seeded relations
RELATIONS = ((2, 3, 4), (3, 3, 9), (4, 3, 21), (5, 2, 8), (6, 2, 12))
ALL_SUBSETS_UP_TO = 6
SAMPLED_D = 7
CERT_DS = (3, 5, 7, 9, 11)


def shift_cycle(d: int, rng):
    """x -> y -> x through shifts whose total is nonzero mod d: refuted."""
    k1 = rng.randrange(1, d)
    k2 = (rng.randrange(1, d) - k1) % d
    rels, cons = {}, []
    for scope, k in ((("x", "y"), k1), (("y", "x"), k2)):
        name = f"s{k}"
        rels[name] = csp_core.Relation(2, d, frozenset((a, (a + k) % d) for a in range(d)))
        cons.append((scope, name))
    return csp_core.make_instance(d, ["x", "y"], cons, rels)


class Algebra:
    name = "algebra"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir) -> None:
        rng = random.Random(f"algebra-{self.seed}")
        self.relations = []
        for d, r, size in RELATIONS:
            tuples = frozenset(rng.sample(list(itertools.product(range(d), repeat=r)), size))
            rel = csp_core.Relation(r, d, tuples)
            inst = csp_core.make_instance(d, [f"x{i}" for i in range(r)],
                                          [(tuple(f"x{i}" for i in range(r)), "R")], {"R": rel})
            path = workdir / f"rel-d{d}.inst"
            write_text(path, csp_core.serialize_instance(inst))
            points = {t: [embed(k, d) for k in t] for t in itertools.product(range(d), repeat=r)}
            self.relations.append({"rel": rel, "path": path, "points": points, "poly": None})
        self.subsets = [(frozenset(S), d) for d in range(2, ALL_SUBSETS_UP_TO + 1)
                        for k in range(d) for S in itertools.combinations(range(d), k)]
        self.subsets += [(frozenset(rng.sample(range(SAMPLED_D), k)), SAMPLED_D)
                         for k in range(1, SAMPLED_D)]
        self.cycles = []
        for d in CERT_DS:
            inst = shift_cycle(d, rng)
            path = workdir / f"cycle-d{d}.inst"
            write_text(path, csp_core.serialize_instance(inst))
            self.cycles.append({"inst": inst, "path": path})

    def ops(self) -> list:
        out = []
        for entry in self.relations:
            out.append(Op("relation_polynomial", _relation_polynomial(entry), _check_polynomial(entry)))
            for t, point in entry["points"].items():
                out.append(Op("eval", _eval(entry, point), _check_eval(entry, t)))
        for S, d in self.subsets:
            out.append(Op("inverse", _inverse(S, d), _check_inverse(S, d)))
        for cycle in self.cycles:
            inst = cycle["inst"]
            out.append(Op("certify", lambda inst=inst: audit(inst), _check_certificate(inst)))
        return out

    def cli_session(self, workdir) -> list:
        out = [CliCommand(["poly", str(e["path"]), "--rel", "R"], 0,
                          f"P[R] d={e['rel'].d} arity={e['rel'].arity}")
               for e in self.relations[1:]]
        for cycle in self.cycles[1:3]:
            d, path = cycle["inst"].d, str(cycle["path"])
            out.append(CliCommand(["audit", path, "--out", f"cycle{d}.cert"], 0, "certified"))
            out.append(CliCommand(["audit", path, "--check", f"cycle{d}.cert"], 0, "ACCEPT"))
        return out


def _relation_polynomial(entry):
    def call():
        entry["poly"] = fourier.relation_polynomial(entry["rel"])
        return entry["poly"]

    return call


def _check_polynomial(entry):
    rel = entry["rel"]

    def check(poly):
        wire = {exps: coeff.to_obj() for exps, coeff in poly.terms.items()}
        return expect(True, check_relation_values(wire, rel.d, rel.arity, rel.tuples))

    return check


def _eval(entry, point):
    return lambda: entry["poly"].eval(point)


def _check_eval(entry, t):
    rel = entry["rel"]
    return lambda value: expect(True, check_point_value(value.to_obj(), rel.d, t in rel.tuples))


def _inverse(S, d):
    return lambda: fourier.dom_difference_inverse(S, d)


def _check_inverse(S, d):
    def check(witness):
        q, c = witness
        return expect(True, check_inverse_witness(sorted(S), d, q.to_obj(), c.to_obj()))

    return check


def _check_certificate(inst):
    def check(out):
        result, verdict, cert_json = out
        if result.consistent:
            return expect(False)
        problems = [] if verdict.accepted else [f"certificate not accepted: {verdict.describe()}"]
        cert = json.loads(cert_json)
        if cert["d"] != inst.d or not cert["collapse"]:
            problems.append(f"collapse script does not run over d = {inst.d}")
        return expect(True, problems)

    return check
