"""Print one line per refutation-chain output, for comparing two commits.

Covers `slac_result_to_json` and `GapCertificate.to_json` (as SHA-256 digests)
on the bounded-width corpora, the magic square and small Z_3/Z_5 systems, and
the `CheckResult.describe()` text of every `check_certificate` call made while
`tests/test_acceptance.py::test_criterion_2_refutations_and_certificates` and
`tests/test_certificates.py` run.  It uses only API that the refactors of the
chain path keep, so the same script runs on both sides of such a change:

    cd <checkout> && PYTHONPATH=src:tests python tools/chain_outputs.py > out.txt
    diff <old checkout>/out.txt <new checkout>/out.txt

Takes about a minute.
"""

from __future__ import annotations

import hashlib
import sys
from contextlib import redirect_stdout

import pytest

import opcsp
from opcsp import certificates
from opcsp.certificates import build_certificate
from opcsp.consistency import slac, slac_result_to_json
from opcsp.gap_instances import linear_system_instance, magic_square, parse_linear_system

from helpers import bounded_width_corpus

SYSTEMS = {
    "z3": (3, "x0 + x1 + x2 = 1\nx1 + x2 + x3 + x4 = 2\nx0 + x4 = 1\n"),
    "z3-unsat": (3, "x0 = 1\nx0 = 2\n"),
    "z5": (5, "x0 + x1 + x2 + x3 + x4 + x5 + x6 = 0\nx0 + x3 + x5 = 1\nx1 + x2 = 3\n"),
}


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def corpus():
    for seed, count, max_vars in ((1234, 200, 10), (55, 40, 6), (777, 60, 6)):
        for i, inst in enumerate(bounded_width_corpus(seed, count, max_vars=max_vars)):
            yield f"bw{seed}#{i}", inst
    yield "magic", magic_square()
    for name, (p, text) in SYSTEMS.items():
        yield name, linear_system_instance(parse_linear_system(text, p))


def emit_outputs():
    for label, inst in corpus():
        result = slac(inst)
        cert = "-" if result.consistent else digest(build_certificate(inst, result).to_json())
        print(f"{label} slac={digest(slac_result_to_json(result))} cert={cert}")


class RecordChecks:
    """Wraps check_certificate at its module attributes before the test
    modules import it, and records every verdict."""

    def __init__(self):
        self.original = certificates.check_certificate
        self.current = "?"
        self.lines: list[str] = []
        certificates.check_certificate = opcsp.check_certificate = self.check

    def check(self, inst, cert):
        verdict = self.original(inst, cert)
        self.lines.append(f"{self.current} {verdict.describe()}")
        return verdict

    def pytest_runtest_setup(self, item):
        self.current = item.nodeid


def main() -> int:
    emit_outputs()
    recorder = RecordChecks()
    with redirect_stdout(sys.stderr):  # keep pytest's report, with its timings, off stdout
        code = pytest.main(
            [
                "-q",
                "-p", "no:cacheprovider",
                "tests/test_acceptance.py::test_criterion_2_refutations_and_certificates",
                "tests/test_certificates.py",
            ],
            plugins=[recorder],
        )
    print("\n".join(recorder.lines))
    print(f"pytest exit {int(code)}")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
