"""Shapes shared by the workloads: one in-process operation, one CLI command."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from opcsp import certificates, consistency


@dataclass
class Op:
    """One timed call into opcsp.

    `call` is the only timed part.  `prepare` runs untimed before it (for
    example to tamper a certificate), and `check` runs untimed after it and
    returns (verdict as expected, problems with the output).  An operation
    whose verdict is not the expected one, or that raises, counts as failed.
    """

    kind: str
    call: Callable[[], object]
    check: Callable[[object], tuple]
    prepare: Callable[[], None] | None = None


@dataclass
class CliCommand:
    """One `opcsp` command of a workload's fixed CLI session.

    `expect` must occur in stdout or stderr; `before` prepares inputs
    untimed; `after` checks stdout and returns problems.
    """

    args: list
    exit_code: int
    expect: str = ""
    before: Callable[[], None] | None = None
    after: Callable[[str], list] | None = None


def write_text(path: Path, text: str) -> None:
    path.write_text(text if text.endswith("\n") else text + "\n", encoding="utf-8")


def write_json(path: Path, obj) -> None:
    write_text(path, json.dumps(obj, sort_keys=True))


def expect(flag: bool, problems: list | None = None) -> tuple:
    return bool(flag), list(problems or [])


def audit(inst) -> tuple:
    """slac -> build_certificate -> check_certificate -> JSON, as `opcsp
    audit` does: (SLAC result, check result or None, certificate JSON or None)."""
    result = consistency.slac(inst)
    if result.consistent:
        return result, None, None
    cert = certificates.build_certificate(inst, result)
    return result, certificates.check_certificate(inst, cert), cert.to_json()
