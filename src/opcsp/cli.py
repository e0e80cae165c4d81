"""Command-line entry point.

Batch, non-interactive; every command reads and writes the documented JSON
documents.  Exit codes: 0 for SAT / consistent / ACCEPT / SATISFYING, 1 for
UNSAT / refuted / REJECT / VIOLATING, 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass

from . import certificates, consistency, csp_core, gap_instances, operators, reductions
from .fourier import relation_polynomial


@dataclass
class CommandResult:
    exit_code: int
    stdout: str
    stderr: str


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="opcsp", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized internals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide classical satisfiability by exhaustive search")
    p.add_argument("instance")

    p = sub.add_parser("slac", help="run singleton linear propagation")
    p.add_argument("instance")
    p.add_argument("--trace", help="write the propagation result with chains to this file")

    p = sub.add_parser("verify-ops", help="verify an operator assignment")
    p.add_argument("instance")
    p.add_argument("ops")
    p.add_argument("--tol", type=float, default=operators.DEFAULT_TOL)

    p = sub.add_parser("audit", help="emit or check a no-operator-assignment certificate")
    p.add_argument("instance")
    p.add_argument("--check", metavar="CERT", help="check this certificate instead of building one")
    p.add_argument("--out", help="write the built certificate to this file")
    p.add_argument("--trace", help="reuse a propagation trace instead of rerunning propagation")

    p = sub.add_parser("poly", help="print a relation's polynomial")
    p.add_argument("instance")
    p.add_argument("--rel", required=True)

    p = sub.add_parser("reduce", help="apply a language reduction")
    rsub = p.add_subparsers(dest="reduction", required=True)

    def with_common(q):
        q.add_argument("instance")
        q.add_argument("--out", help="output instance document (default: stdout)")
        q.add_argument(
            "--transport-ops",
            nargs=2,
            metavar=("IN", "OUT"),
            help="carry an operator assignment across the reduction",
        )
        return q

    q = with_common(rsub.add_parser("gadget", help="expand a relation through its formula"))
    q.add_argument("--formula", required=True, help="pp-formula document")
    q.add_argument("--target", required=True, help="relation to replace")
    with_common(rsub.add_parser("collapse", help="identify equality-linked variables"))
    with_common(rsub.add_parser("commgadget", help="pad scopes with full binary constraints"))
    with_common(rsub.add_parser("core", help="relabel onto the language core"))
    with_common(rsub.add_parser("constants", help="replace constant constraints by anchors"))
    q = with_common(rsub.add_parser("restrict", help="push through an injective domain map"))
    q.add_argument("--image", required=True, help="comma list: image of 0..e-1")
    q.add_argument("--dto", required=True, type=int, help="target domain size")
    q = with_common(rsub.add_parser("factor", help="pull back through a congruence"))
    q.add_argument("--classes", required=True, help="partition, e.g. '0,2|1,3'")

    p = sub.add_parser("gen", help="generate bundled instances")
    gsub = p.add_subparsers(dest="kind", required=True)
    q = gsub.add_parser("magic-square")
    q.add_argument("--out")
    q = gsub.add_parser("linsys")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--file", required=True, help="equations, one per line: x1 + x2 + x3 = a")
    q.add_argument("--out")
    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _load_instance(path: str) -> csp_core.Instance:
    return csp_core.load_instance(_read(path))


def _cmd_solve(args) -> int:
    inst = _load_instance(args.instance)
    witness = csp_core.brute_force_solve(inst)
    if witness is None:
        print(f"UNSAT ({csp_core.search_space_size(inst)} assignments)")
        return 1
    print("SAT")
    for v in inst.variables:
        print(f"{v} = {witness[v]}")
    return 0


def _cmd_slac(args) -> int:
    inst = _load_instance(args.instance)
    result = consistency.slac(inst)
    if args.trace:
        _emit(consistency.slac_result_to_json(result), args.trace)
    if result.consistent:
        if all(len(result.domains[v]) == inst.d for v in inst.variables):
            print("SLAC-consistent; domains full")
        else:
            print("SLAC-consistent")
    else:
        emptied = sorted(v for v in inst.variables if not result.domains[v])
        print(f"SLAC-refuted (emptied: {' '.join(emptied)})")
    for v in inst.variables:
        print(f"domain {v}: {' '.join(str(a) for a in sorted(result.domains[v]))}")
    print(f"removed: {len(result.chains)}")
    return 0 if result.consistent else 1


def _cmd_verify_ops(args) -> int:
    inst = _load_instance(args.instance)
    assignment = operators.operator_assignment_from_json(_read(args.ops))
    report = operators.verify_assignment(inst, assignment, tol=args.tol)
    for line in report.lines():
        print(line)
    return 0 if report.verdict == "SATISFYING" else 1


def _cmd_audit(args) -> int:
    inst = _load_instance(args.instance)
    if args.check:
        cert = certificates.GapCertificate.from_json(_read(args.check))
        verdict = certificates.check_certificate(inst, cert)
        print(verdict.describe())
        return 0 if verdict.accepted else 1
    if args.trace:
        result = consistency.slac_result_from_json(_read(args.trace))
    else:
        result = consistency.slac(inst)
    if result.consistent:
        print("not applicable: propagation leaves the instance consistent", file=sys.stderr)
        return 2
    cert = certificates.build_certificate(inst, result)
    verdict = certificates.check_certificate(inst, cert)
    if not verdict.accepted:
        raise RuntimeError(f"self-check failed: {verdict.describe()}")
    _emit(cert.to_json(), args.out)
    print(
        f"certified: no operator assignment (sections={len(cert.sections)}, "
        f"collapse steps={len(cert.collapse)})",
        file=sys.stderr,
    )
    return 0


def _cmd_poly(args) -> int:
    inst = _load_instance(args.instance)
    if args.rel not in inst.language:
        raise UsageError(f"instance has no relation named {args.rel!r}")
    rel = inst.language[args.rel]
    poly = relation_polynomial(rel)
    print(f"P[{args.rel}] d={rel.d} arity={rel.arity}")
    if not rel.tuples:
        print("note: empty relation; the polynomial is the constant lambda_1")
    print(poly.format_terms())
    return 0


def _transport(args, transport) -> None:
    if not args.transport_ops:
        return
    src, dst = args.transport_ops
    assignment = operators.operator_assignment_from_json(_read(src))
    carried = transport(assignment)
    with open(dst, "w", encoding="utf-8") as fh:
        fh.write(operators.operator_assignment_to_json(carried) + "\n")


def _cmd_reduce(args, seed: int) -> int:
    inst = _load_instance(args.instance)
    if args.reduction == "gadget":
        formula = reductions.PPFormula.from_obj(json.loads(_read(args.formula)))
        mapped = reductions.gadgetize(inst, formula, args.target)

        def transport(assignment):
            return reductions.lift_assignment(
                inst, formula, args.target, mapped, assignment, seed=seed
            )

    elif args.reduction == "collapse":
        mapped = reductions.collapse_equalities(inst)

        def transport(assignment):
            return reductions.restrict_to(assignment, mapped.variables)

    elif args.reduction == "commgadget":
        mapped = reductions.add_commutativity_gadget(inst)

        def transport(assignment):
            return assignment

    elif args.reduction == "core":
        mapped, transport = reductions.core_instance(inst)
    elif args.reduction == "constants":
        mapped = reductions.constants_reduction(inst)

        def transport(assignment):
            return reductions.extend_with_anchor_scalars(assignment, mapped)

    elif args.reduction == "restrict":
        table = tuple(int(x) for x in args.image.split(","))
        pi = reductions.UnaryMap(inst.d, args.dto, table)
        mapped, transport = reductions.restrict_transport(inst, pi)
    elif args.reduction == "factor":
        classes = tuple(
            frozenset(int(x) for x in part.split(","))
            for part in args.classes.split("|")
        )
        theta = reductions.Congruence(sum(len(c) for c in classes), classes)
        mapped, transport = reductions.factor_transport(inst, theta)
    else:  # pragma: no cover
        raise UsageError(f"unknown reduction {args.reduction!r}")
    _emit(csp_core.serialize_instance(mapped), args.out)
    _transport(args, transport)
    return 0


def _cmd_gen(args) -> int:
    if args.kind == "magic-square":
        inst = gap_instances.magic_square()
    else:
        system = gap_instances.parse_linear_system(_read(args.file), args.p)
        inst = gap_instances.linear_system_instance(system)
    _emit(csp_core.serialize_instance(inst), args.out)
    return 0


def _run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "slac":
            return _cmd_slac(args)
        if args.command == "verify-ops":
            return _cmd_verify_ops(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "poly":
            return _cmd_poly(args)
        if args.command == "reduce":
            return _cmd_reduce(args, args.seed)
        if args.command == "gen":
            return _cmd_gen(args)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (csp_core.InstanceFormatError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def dispatch(argv) -> CommandResult:
    """Run one command and capture its report; never raises for input errors."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = _run(argv)
    except SystemExit as exc:  # argparse --help
        code = int(exc.code or 0)
    return CommandResult(code, out.getvalue(), err.getvalue())


def main() -> None:
    result = dispatch(sys.argv[1:])
    sys.stdout.write(result.stdout)
    sys.stderr.write(result.stderr)
    sys.exit(result.exit_code)


if __name__ == "__main__":
    main()
