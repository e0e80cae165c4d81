"""`operators`: numeric verification of operator assignments and the
reductions that carry them across.

Per pass: `verify_assignment` on the magic square's Pauli fixture, on its
conjugates by random unitaries and tensor copies up to dimension 32, and on
unitary conjugates of diagonal embeddings of classical solutions of Z_2 and
Z_3 systems in dimensions 4 to 128, each with a perturbed copy that must be
VIOLATING; `simultaneous_diagonalize` of every conjugated assignment; and the
restrict, factor and core reductions of the magic square, each carrying the
Pauli assignment across and verifying it on the reduced instance.

One operation per pass fails while a known fault stands: the Pauli fixture
with a NaN entry must be VIOLATING, but `VerificationReport.max_residual`
uses `max()`, which drops NaN, so opcsp calls it SATISFYING.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
from opcsp import csp_core, gap_instances, operators, reductions

from checks import (
    check_operator_spectrum,
    check_unitary_diagonalizes,
    random_solution,
    random_unitary,
    solve_mod_p,
)
from common import CliCommand, Op, expect, write_text
from linear import draw_system, equations_of

# (p, variables, equations as variable sets) of the systems whose solutions
# are embedded; the seed permutes the variables and draws the solutions
SHAPE = ((0, 1, 2), (2, 3, 4), (1, 4, 5))
SYSTEMS = ((2, 6, SHAPE), (2, 6, SHAPE), (3, 6, SHAPE), (3, 6, SHAPE))
DIMS = (4, 8, 16, 24, 32, 48, 64, 96, 128)
PAULI_COPIES = (2, 4, 8)  # tensor with the identity of this size
PERTURBATION = 1e-4


def perturbed(assign: dict, rng: np.random.Generator) -> dict:
    """A copy with a small Hermitian term added to one operator."""
    out = dict(assign)
    v = sorted(out)[0]
    n = out[v].shape[0]
    H = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    out[v] = out[v] + PERTURBATION * (H + H.conj().T) / np.linalg.norm(H)
    return out


def conjugated(assign: dict, rng: np.random.Generator) -> dict:
    n = next(iter(assign.values())).shape[0]
    U = random_unitary(n, rng)
    return {v: U @ M @ U.conj().T for v, M in assign.items()}


class Operators:
    name = "operators"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, workdir) -> None:
        rng = random.Random(f"operators-{self.seed}")
        nprng = np.random.default_rng(rng.randrange(2 ** 32))
        self.magic = gap_instances.magic_square()
        pauli = gap_instances.pauli_fixture()
        self.cases = []  # (label, instance, assignment dict, expected verdict)
        poisoned = dict(pauli)
        poisoned["x5"] = pauli["x5"].copy()
        poisoned["x5"][0, 0] = np.nan
        self.cases += [("pauli", self.magic, pauli, "SATISFYING"),
                       ("pauli-nan", self.magic, poisoned, "VIOLATING"),
                       ("pauli-conj", self.magic, conjugated(pauli, nprng), "SATISFYING")]
        for m in PAULI_COPIES:
            big = conjugated({v: np.kron(M, np.eye(m)) for v, M in pauli.items()}, nprng)
            self.cases += [(f"pauli-x{m}", self.magic, big, "SATISFYING"),
                           (f"pauli-x{m}-perturbed", self.magic, perturbed(big, nprng), "VIOLATING")]
        self.diagonalize = [[pauli[v] for v in ("x1", "x2", "x3")]]
        for k, (p, nvars, shape) in enumerate(SYSTEMS):
            eqs, _ = draw_system(p, nvars, shape, rng)
            inst = gap_instances.linear_system_instance(gap_instances.LinearSystem(p, tuple(eqs)))
            space = solve_mod_p(equations_of(inst, {}), len(inst.variables), p)
            for dim in DIMS:
                solutions = [dict(zip(inst.variables, random_solution(space, p, rng)))
                             for _ in range(dim)]
                embedded = operators.embed_classical(solutions, p).assign
                assign = conjugated(embedded, nprng)
                self.cases += [(f"z{p}-{k}-dim{dim}", inst, assign, "SATISFYING"),
                               (f"z{p}-{k}-dim{dim}-perturbed", inst, perturbed(assign, nprng),
                                "VIOLATING")]
                self.diagonalize.append([assign[v] for v in sorted(assign)])
        self.pauli = pauli
        self.image = tuple(rng.sample(range(4), 2))
        pair = rng.choice((1, 2, 3))
        rest = [k for k in range(1, 4) if k != pair]
        self.classes = (frozenset({0, pair}), frozenset(rest))
        write_text(workdir / "magic.inst", csp_core.serialize_instance(self.magic))
        for label, _, assign, _ in self.cases:
            if label in ("pauli", "pauli-x2-perturbed"):
                write_text(workdir / f"{label}.ops", operators.operator_assignment_to_json(
                    operators.OperatorAssignment(assign[next(iter(assign))].shape[0], assign)))

    def ops(self) -> list:
        out = []
        for _, inst, assign, verdict in self.cases:
            out.append(Op("verify", _verify(inst, assign), _check_verdict(verdict)))
        for mats in self.diagonalize:
            out.append(Op("diagonalize", _diagonalize(mats), _check_diagonal(mats)))
        out += reduction_ops(self.magic, self.pauli, self.image, self.classes)
        return out

    def cli_session(self, workdir) -> list:
        image = ",".join(map(str, self.image))
        classes = "|".join(",".join(map(str, sorted(c))) for c in sorted(self.classes, key=min))
        sat, bad = "verdict: SATISFYING", "verdict: VIOLATING"
        return [
            CliCommand(["verify-ops", "magic.inst", "pauli.ops"], 0, sat),
            CliCommand(["verify-ops", "magic.inst", "pauli-x2-perturbed.ops"], 1, bad),
            CliCommand(["reduce", "restrict", "magic.inst", "--image", image, "--dto", "4",
                        "--out", "r.inst", "--transport-ops", "pauli.ops", "r.ops"], 0),
            CliCommand(["verify-ops", "r.inst", "r.ops"], 0, sat),
            CliCommand(["reduce", "factor", "magic.inst", "--classes", classes,
                        "--out", "f.inst", "--transport-ops", "pauli.ops", "f.ops"], 0),
            CliCommand(["verify-ops", "f.inst", "f.ops"], 0, sat),
            CliCommand(["reduce", "core", "r.inst", "--out", "c.inst",
                        "--transport-ops", "r.ops", "c.ops"], 0),
            CliCommand(["verify-ops", "c.inst", "c.ops"], 0, sat),
        ]


def reduction_ops(magic, pauli, image, classes) -> list:
    """reduce, transport and verify for restrict and factor of the magic
    square carrying the Pauli assignment, then for the core of the restricted
    instance carrying the restricted assignment."""
    steps: dict = {}  # name -> (reduced instance, transport), name.ops -> carried
    ranked = sorted(classes, key=min)

    def same_relations(mapped, expected) -> list:
        ok = all(mapped.language[n].tuples == expected(r) for n, r in magic.language.relations.items())
        return [] if ok else ["reduced relations differ from their definition"]

    def image_of(rel):
        return {tuple(image[a] for a in t) for t in rel.tuples}

    def preimage_of(rel):
        return {t for t in itertools.product(range(4), repeat=rel.arity)
                if tuple(next(i for i, c in enumerate(ranked) if a in c) for a in t) in rel.tuples}

    def core_has_two(mapped) -> list:
        return [] if mapped.d == 2 else [f"core has {mapped.d} values, not 2"]

    reductions_made = (
        ("restrict", lambda: reductions.restrict_transport(magic, reductions.UnaryMap(2, 4, image)),
         lambda m: same_relations(m, image_of), lambda: operators.OperatorAssignment(4, pauli)),
        ("factor", lambda: reductions.factor_transport(magic, reductions.Congruence(4, classes)),
         lambda m: same_relations(m, preimage_of), lambda: operators.OperatorAssignment(4, pauli)),
        ("core", lambda: reductions.core_instance(steps["restrict"][0]),
         core_has_two, lambda: steps["restrict.ops"]),
    )
    out = []
    for name, make, check, source in reductions_made:
        def reduce(name=name, make=make):
            steps[name] = make()
            return steps[name][0]

        def transport(name=name, source=source):
            steps[name + ".ops"] = steps[name][1](source())
            return steps[name + ".ops"]

        def check_transport(carried, name=name):
            return expect(True, check_operator_spectrum(carried.assign, steps[name][0].d))

        def verify(name=name):
            return operators.verify_assignment(steps[name][0], steps[name + ".ops"])

        out += [Op("reduce", reduce, lambda m, check=check: expect(True, check(m))),
                Op("transport", transport, check_transport),
                Op("verify", verify, _check_verdict("SATISFYING"))]
    return out


def _verify(inst, assign):
    n = next(iter(assign.values())).shape[0]
    A = operators.OperatorAssignment(n, assign)
    return lambda: operators.verify_assignment(inst, A)


def _check_verdict(verdict):
    return lambda report: expect(report.verdict == verdict)


def _diagonalize(mats):
    return lambda: operators.simultaneous_diagonalize(mats)


def _check_diagonal(mats):
    def check(out):
        U, _ = out
        return expect(True, check_unitary_diagonalizes(U, mats))

    return check
