"""Byte-identity gate for the propagation and certificate outputs.

The SHA-256 digests below were taken from the SLAC trace JSON and the
certificate JSON of three small corpora while `Relation.projections` was
still a plain tuple scan; any change to the propagation engine, the
chain extraction or the certificate encoding that alters a single byte of
those outputs fails here.  A second digest covers every probe that `slac`
makes on `bounded_width_corpus(1234, 200)`, consistent ones included: its
verdict and its facts in derivation order; it was taken while the facts still
lived in a `FactStore` of provenance-tagged `DerivedFact`s.
`tools/chain_outputs.py` is the wider gate (more corpora, field and DFT
outputs, checker texts) and is run by hand.
"""

import hashlib
import json

import pytest

from opcsp import consistency
from opcsp.certificates import build_certificate
from opcsp.consistency import slac, slac_result_to_json
from opcsp.gap_instances import linear_system_instance, magic_square, parse_linear_system

from helpers import bounded_width_corpus

Z3_SYSTEM = "x0 + x1 + x2 = 1\nx1 + x2 + x3 + x4 = 2\nx0 + x4 = 1\n"

CORPORA = {
    "bounded_width_corpus(1234, 200)": lambda: bounded_width_corpus(1234, 200),
    "magic_square": lambda: [magic_square()],
    "z3": lambda: [linear_system_instance(parse_linear_system(Z3_SYSTEM, 3))],
}

GOLDEN = {
    "bounded_width_corpus(1234, 200)": "b08403e63c4a57fa2e58ce6f427c4f3afda51cf95a160e2f218225ec4d2a1f21",
    "magic_square": "57494fca6acf55f14abe34120f4e8f52606cf558714846f442c3973cf770b9b9",
    "z3": "c7aa6232193823775e438c6d1bd5976eef80e27b54cdb037e3a0db108f548e68",
}

PROBES_GOLDEN = "5f54d08b4cd052021b070aae92ad0579bdcad65da8e78fe62d5393d497e7a1ef"


def outputs_digest(instances) -> str:
    """SHA-256 over each instance's SLAC trace and, when SLAC refutes it,
    its certificate, NUL-separated."""
    h = hashlib.sha256()
    for inst in instances:
        result = slac(inst)
        h.update(slac_result_to_json(result).encode("utf-8") + b"\0")
        if not result.consistent:
            h.update(build_certificate(inst, result).to_json().encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_outputs_match_golden_digests(corpus):
    assert outputs_digest(CORPORA[corpus]()) == GOLDEN[corpus]


def test_probe_facts_match_golden_digest(monkeypatch):
    """SHA-256 over one JSON line per `linear_ac` probe that `slac` makes:
    the verdict and the ordered `(var, sorted values)` fact list."""
    h = hashlib.sha256()
    probe = consistency.linear_ac

    def recorded(*args, **kwargs):
        result = probe(*args, **kwargs)
        facts = [[var, sorted(values)] for var, values in result.store]
        h.update(json.dumps([result.consistent, facts]).encode("utf-8") + b"\n")
        return result

    monkeypatch.setattr(consistency, "linear_ac", recorded)
    for inst in bounded_width_corpus(1234, 200):
        slac(inst)
    assert h.hexdigest() == PROBES_GOLDEN
