"""`linear`: linear equations over Z_p, the paper's gap side.

Systems over Z_2, Z_3 and Z_5 in opcsp's encoding (ternary sums and the
(p+2)-ary zero-sum relation), plus the magic square.  Propagation cannot
refute here, so every probe is consistent and its time is spent scanning
tuples; no certificate is built.  The shapes are fixed and the seed draws the
variables and right-hand sides, so each seed encodes to the same relations.

Per pass: single SLAC probes (linear_ac with one pinned value) on every
value of every variable of the Z_2 and Z_3 systems and the magic square and
on five values of the Z_5 system, whole slac runs on the Z_3 systems and the
magic square, and a load of every instance document.  The mix puts the
median among the Z_2 probes and the 90th percentile among the Z_3 probes.  Solutions come from the benchmark's own Gaussian
elimination mod p over the equations read off the relations' tuples.
"""

from __future__ import annotations

import random

from opcsp import consistency, csp_core, gap_instances

from checks import check_survives, linear_equation_of, random_solution, residuals_mod_p, solve_mod_p
from common import CliCommand, Op, expect, write_text

# p -> (systems per pass, variables, equations as variable sets).  The
# shapes are fixed; the seed permutes the variables and plants the solution
# that gives the right-hand sides.  A length p + 2 equation gets right-hand
# side 0, which opcsp encodes as one zero-sum constraint; every other length
# encodes the same way for any right-hand side.  In every shape each variable
# takes every value in some solution, so every pin has a solution to keep.
SHAPES = {
    2: (14, 6, ((0, 1, 2), (2, 3, 4), (0, 3, 4, 5), (1, 5))),
    3: (3, 6, ((0, 3, 5), (2, 3, 4), (0, 1, 2, 3, 5), (0, 1, 2, 4))),
    5: (1, 7, ((0, 1, 2, 3, 4, 5, 6), (0, 3, 5))),
}
Z5_PINNED = (0, 1, 2, 3, 6)  # variables of the Z_5 shape that the probes pin


def draw_system(p: int, nvars: int, shape, rng):
    """Equations (variables, coefficients, rhs) of the shape with permuted
    variables, satisfied by a random assignment."""
    perm = rng.sample(range(nvars), nvars)
    s = [rng.randrange(p) for _ in range(nvars)]
    eqs = [tuple(sorted(perm[v] for v in vs)) for vs in shape]
    for vs in eqs:
        if len(vs) == p + 2:
            s[vs[0]] = (s[vs[0]] - sum(s[v] for v in vs)) % p
    return [(vs, (1,) * len(vs), sum(s[v] for v in vs) % p) for vs in eqs], perm


def equations_of(inst, cache: dict):
    """The instance's constraints read as equations mod p over its variables,
    or None when some relation is not a linear equation."""
    p = inst.d
    index = {v: i for i, v in enumerate(inst.variables)}
    rows = []
    for c in inst.constraints:
        rel = inst.relation_of(c)
        if c.rel not in cache:
            cache[c.rel] = linear_equation_of(rel.tuples, rel.arity, p)
        if cache[c.rel] is None:
            return None
        coeffs = [0] * len(inst.variables)
        for v in c.scope:
            coeffs[index[v]] += 1
        rows.append((coeffs, cache[c.rel]))
    return rows


def equations_text(eqs) -> str:
    return "".join(
        " + ".join(f"x{v}" for v in vs) + f" = {b}\n" for vs, _, b in eqs
    )


class Linear:
    name = "linear"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir) -> None:
        rng = random.Random(f"linear-{self.seed}")
        self.systems = []
        for p, (copies, nvars, shape) in SHAPES.items():
            for copy in range(copies):
                eqs, perm = draw_system(p, nvars, shape, rng)
                inst = gap_instances.linear_system_instance(gap_instances.LinearSystem(p, tuple(eqs)))
                self._add(workdir, f"z{p}-{copy}", inst, rng, eqs, perm)
        self._add(workdir, "magic", gap_instances.magic_square(), rng, None, None)

    def _add(self, workdir, label, inst, rng, eqs, perm) -> None:
        doc = csp_core.serialize_instance(inst)
        path = workdir / f"{label}.inst"
        write_text(path, doc)
        if eqs is not None:
            write_text(workdir / f"{label}.eqs", equations_text(eqs))
        rows = equations_of(inst, {})
        space = solve_mod_p(rows, len(inst.variables), inst.d) if rows is not None else None
        solution = None if space is None else dict(
            zip(inst.variables, random_solution(space, inst.d, rng)))
        self.systems.append({"label": label, "inst": inst, "doc": doc, "path": path,
                             "rows": rows, "space": space, "solution": solution,
                             "eqs": eqs, "perm": perm, "rng": rng})

    def ops(self) -> list:
        out = []
        for system in self.systems:
            out.append(Op("load", _load(system), _check_load(system)))
            for pin, solution in _pins(system):
                out.append(Op("probe", _probe(system, pin), _check_consistent(solution)))
            if system["inst"].d == 3 or system["eqs"] is None:
                out.append(Op("slac", _slac(system), _check_slac(system)))
        return out

    def cli_session(self, workdir) -> list:
        by_label = {s["label"]: s for s in self.systems}
        z3 = by_label["z3-0"]

        def check_solution(stdout: str) -> list:
            values = dict(line.split(" = ") for line in stdout.splitlines() if " = " in line)
            x = [int(values.get(f"x{v}", -1)) for v in range(SHAPES[3][1])]
            rows = [([1 if v in vs else 0 for v in range(len(x))], b) for vs, _, b in z3["eqs"]]
            return [f"solution violates equations {bad}"] if (bad := residuals_mod_p(rows, x, 3)) else []

        out = []
        for p in SHAPES:
            out.append(CliCommand(["gen", "linsys", "--p", str(p), "--file",
                                   str(workdir / f"z{p}-0.eqs"), "--out", f"cli-z{p}.inst"], 0))
        return out + [
            CliCommand(["gen", "magic-square", "--out", "cli-magic.inst"], 0),
            CliCommand(["slac", "cli-z2.inst"], 0, "SLAC-consistent"),
            CliCommand(["slac", "cli-z3.inst"], 0, "SLAC-consistent"),
            CliCommand(["slac", "cli-magic.inst"], 0, "SLAC-consistent; domains full"),
            CliCommand(["solve", "cli-magic.inst"], 1, "UNSAT (512 assignments)"),
            CliCommand(["solve", str(z3["path"])], 0, "SAT", after=check_solution),
            CliCommand(["poly", "cli-z5.inst", "--rel", "sum3_0"], 0, "P[sum3_0] d=5 arity=3"),
        ]


def _pins(system):
    """(pin, a solution with that pinned value) for the probes of one system."""
    inst, space, rng = system["inst"], system["space"], system["rng"]
    if system["eqs"] is None:  # the magic square: every pin, no solution to keep
        return [((v, a), None) for v in inst.variables for a in range(inst.d)]
    p, rows = inst.d, system["rows"]
    index = {v: i for i, v in enumerate(inst.variables)}
    pins = []
    if p == 5:
        for k in Z5_PINNED:
            v = f"x{system['perm'][k]}"
            s = random_solution(space, p, rng)
            pins.append(((v, s[index[v]]), s))
    else:
        for v in (f"x{i}" for i in range(len(system['perm']))):
            for a in range(p):
                unit = [1 if i == index[v] else 0 for i in range(len(inst.variables))]
                pinned = solve_mod_p(rows + [(unit, a)], len(inst.variables), p)
                if pinned is None:
                    raise ValueError(f"{system['label']}: no solution with {v} = {a}")
                pins.append(((v, a), random_solution(pinned, p, rng)))
    return [(pin, dict(zip(inst.variables, s)) if s else None) for pin, s in pins]


def _probe(system, pin):
    inst = system["inst"]
    return lambda: consistency.linear_ac(inst, None, pin=pin)


def _check_consistent(solution):
    def check(result):
        if not result.consistent:
            return expect(False)
        return expect(True, check_survives(result.domains, solution) if solution else [])

    return check


def _slac(system):
    inst = system["inst"]
    return lambda: consistency.slac(inst)


def _check_slac(system):
    inst = system["inst"]

    def check(result):
        if not result.consistent:
            return expect(False)
        if system["eqs"] is not None:
            return expect(True, check_survives(result.domains, system["solution"]))
        problems = []
        if not all(len(result.domains[v]) == inst.d for v in inst.variables):
            problems.append("magic square domains are not full")
        if system["rows"] is None or system["space"] is not None:
            problems.append("elimination does not find the magic square unsatisfiable")
        return expect(True, problems)

    return check


def _load(system):
    doc = system["doc"]
    return lambda: csp_core.load_instance(doc)


def _check_load(system):
    inst = system["inst"]

    def check(loaded):
        same = (
            loaded.d == inst.d
            and loaded.variables == inst.variables
            and [(c.scope, c.rel) for c in loaded.constraints]
            == [(c.scope, c.rel) for c in inst.constraints]
            and {n: r.tuples for n, r in loaded.language.relations.items()}
            == {n: r.tuples for n, r in inst.language.relations.items()}
        )
        return expect(True, [] if same else ["loaded instance differs from the generated one"])

    return check
