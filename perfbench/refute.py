"""`refute`: bounded-width instances, the paper's no-gap side.

Each instance over the 2-SAT, Horn or shift-d list languages (d = 3, 4, 5)
carries either a planted solution or a planted contradiction: an implication
chain pinned true at one end and false at the other, a chain of Horn heads
forced false at its end, or a shift cycle whose shifts do not sum to zero.
Per pass every instance is audited (slac -> build_certificate ->
check_certificate -> JSON); every certificate is then re-checked after
reloading instance and certificate from JSON, and a tampered copy is checked.
"""

from __future__ import annotations

import json
import random

from opcsp import certificates, csp_core, gap_instances

from checks import check_survives
from common import CliCommand, Op, audit, expect, write_json, write_text

# (language, d, variables, noise constraints, planted solutions, planted
# contradictions).  The shift-5 contradictions are the slowest operations;
# there are enough of them that the 90th percentile falls among them.
KINDS = (("two_clause", 2, 10, 8, 6, 4), ("horn", 2, 10, 6, 6, 4), ("shift", 3, 10, 6, 6, 4),
         ("shift", 4, 10, 6, 6, 4), ("shift", 5, 10, 6, 6, 8))
CHAIN = 4
TAMPERS = ("values", "witness", "section")


def language(kind: str, d: int):
    if kind == "two_clause":
        return gap_instances.two_clause_language()
    if kind == "horn":
        return gap_instances.horn_language()
    return gap_instances.shift_language(d)


def _satisfied(lang, rng, s, names, count, variables):
    """`count` random constraints over `names` that the assignment s satisfies."""
    out = []
    while len(out) < count:
        name = rng.choice(names)
        scope = tuple(rng.sample(variables, lang[name].arity))
        if tuple(s[v] for v in scope) in lang[name].tuples:
            out.append((scope, name))
    return out


def planted(kind: str, d: int, n: int, noise: int, contradiction: bool, rng):
    """Constraint list, plus the planted solution when there is one.

    A contradiction sits on v0..v3 and the noise on the other variables, so
    that SLAC refutes v0 in its first round along the same chains whatever
    the seed draws; the noise is satisfied by a random assignment."""
    lang = language(kind, d)
    variables = [f"v{i}" for i in range(n)]
    s = {v: rng.randrange(d) for v in variables}
    chain, rest = variables[:CHAIN], variables[CHAIN:] if contradiction else variables
    if kind == "shift":
        edges = sorted(r for r in lang.relations if lang[r].arity == 2)
        lists = sorted(r for r in lang.relations if lang[r].arity == 1)
        cons = _satisfied(lang, rng, s, edges, noise, rest)
        cons += _satisfied(lang, rng, s, lists, 3, rest)
    else:
        clauses = sorted(r for r in lang.relations if lang[r].arity > 1)
        cons = _satisfied(lang, rng, s, clauses, noise, rest)
        cons += [((v,), f"is{s[v]}") for v in rng.sample(rest, 2)]
    if not contradiction:
        return variables, cons, s
    if kind == "two_clause":
        cons += [((chain[0],), "is1"), ((chain[-1],), "is0")]
        cons += [((a, b), "imp") for a, b in zip(chain, chain[1:])]
    elif kind == "horn":
        cons += [((chain[0],), "is1"), ((chain[1],), "is1"), ((chain[-1],), "is0")]
        cons += [(tuple(chain[i:i + 3]), "head3") for i in range(CHAIN - 2)]
    else:
        shifts = [rng.randrange(d) for _ in range(CHAIN - 1)]
        shifts.append((rng.randrange(1, d) - sum(shifts)) % d)  # total is nonzero
        for i, k in enumerate(shifts):
            cons.append(((chain[i], chain[(i + 1) % CHAIN]), f"shift{k}" if k else "eq"))
    rng.shuffle(cons)
    return variables, cons, None


def tamper(obj: dict, how: str) -> dict:
    """A copy of a certificate object that the checker must reject."""
    obj = json.loads(json.dumps(obj))
    last = obj["sections"][-1]
    if how == "witness" and "c" in last["steps"][0]:
        coeffs = last["steps"][0]["c"]["coeffs"]
        num, den = coeffs[0]
        coeffs[0] = [num + den, den]  # c + 1 breaks p * q = c
    elif how == "section" and len(obj["sections"]) > 1:
        obj["sections"].pop()  # the named variable keeps one value
    else:
        step = last["steps"][0]
        values = set(step["values"])
        values ^= {max(values, default=0)}  # the recorded set is no longer the image
        step["values"] = sorted(values)
    return obj


class Refute:
    name = "refute"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir) -> None:
        rng = random.Random(f"refute-{self.seed}")
        self.cases = []
        for kind, d, n, noise, solutions, contradictions in KINDS:
            lang = language(kind, d)
            for copy, contradiction in enumerate([False] * solutions + [True] * contradictions):
                variables, cons, s = planted(kind, d, n, noise, contradiction, rng)
                inst = csp_core.make_instance(d, variables, cons, dict(lang.relations))
                doc = csp_core.serialize_instance(inst)
                path = workdir / f"{kind}{d}-{copy}-{'unsat' if contradiction else 'sat'}.inst"
                write_text(path, doc)
                self.cases.append({"inst": inst, "doc": doc, "path": path, "solution": s,
                                   "tamper": TAMPERS[copy % len(TAMPERS)]})

    def ops(self) -> list:
        out = []
        for case in self.cases:
            out.append(Op("audit", _audit(case), _check_audit(case)))
            if case["solution"] is None:
                out.append(Op("recheck", _recheck(case), _accepted))
                out.append(Op("tampered", _tampered(case), _rejected, prepare=_prepare_tamper(case)))
        return out

    def cli_session(self, workdir) -> list:
        unsat = next(c for c in self.cases if c["solution"] is None and c["inst"].d == 5)
        unsat2 = next(c for c in self.cases if c["solution"] is None and c["inst"].d == 2)
        sat = next(c for c in self.cases if c["solution"] is not None)
        cert, bad, trace = (str(workdir / n) for n in ("cli.cert", "cli-bad.cert", "cli.trace"))

        def write_tampered():
            with open(cert, encoding="utf-8") as fh:
                write_json(workdir / "cli-bad.cert", tamper(json.load(fh), "values"))

        return [
            CliCommand(["solve", str(sat["path"])], 0, "SAT"),
            CliCommand(["solve", str(unsat2["path"])], 1, "UNSAT"),
            CliCommand(["slac", str(unsat["path"]), "--trace", trace], 1, "SLAC-refuted"),
            CliCommand(["audit", str(unsat["path"]), "--out", cert], 0, "certified"),
            CliCommand(["audit", str(unsat["path"]), "--check", cert], 0, "ACCEPT"),
            CliCommand(["audit", str(unsat["path"]), "--check", bad], 1, "REJECT",
                       before=write_tampered),
            CliCommand(["audit", str(unsat["path"]), "--trace", trace], 0, "certified"),
            CliCommand(["audit", str(sat["path"])], 2, "not applicable"),
        ]


def _audit(case):
    def call():
        case["audit"] = audit(case["inst"])
        return case["audit"]

    return call


def _check_audit(case):
    def check(out):
        result, verdict, _ = out
        if case["solution"] is not None:
            return expect(result.consistent, check_survives(result.domains, case["solution"]))
        if result.consistent:
            return expect(False)
        problems = [] if verdict.accepted else [f"certificate not accepted: {verdict.describe()}"]
        return expect(True, problems)

    return check


def _recheck(case):
    def call():
        inst = csp_core.load_instance(case["doc"])
        cert = certificates.GapCertificate.from_json(case["audit"][2])
        return certificates.check_certificate(inst, cert)

    return call


def _prepare_tamper(case):
    def prepare():
        case["tampered"] = tamper(json.loads(case["audit"][2]), case["tamper"])

    return prepare


def _tampered(case):
    def call():
        cert = certificates.GapCertificate.from_obj(case["tampered"])
        return certificates.check_certificate(case["inst"], cert)

    return call


def _accepted(verdict):
    return expect(verdict.accepted)


def _rejected(verdict):
    return expect(not verdict.accepted)
