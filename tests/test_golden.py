"""Byte-identity gate for the propagation and certificate outputs.

The SHA-256 digests below were taken from the SLAC trace JSON and the
certificate JSON of three small corpora while `Relation.projections` was
still a plain tuple scan; any change to the propagation engine, the
chain extraction or the certificate encoding that alters a single byte of
those outputs fails here.  A second digest covers every probe that `slac`
makes on `bounded_width_corpus(1234, 200)`, consistent ones included: its
verdict and its facts in derivation order; it was taken while the facts still
lived in a `FactStore` of provenance-tagged `DerivedFact`s.  A third digest
covers the instance documents that `linear_system_instance` writes for
`helpers.linear_system_corpus(10, 30)`: every single-equation shape over
Z_2, Z_3 and Z_5 and a seeded batch of multi-equation systems; it was taken
while the encoder still had one branch per equation length.
`tools/chain_outputs.py` is the wider gate (more corpora, field and DFT
outputs, checker texts) and is run by hand.
"""

import hashlib
import json

import pytest

from opcsp import consistency
from opcsp.certificates import build_certificate
from opcsp.consistency import slac, slac_result_to_json
from opcsp.csp_core import serialize_instance
from opcsp.gap_instances import linear_system_instance, magic_square, parse_linear_system

from helpers import bounded_width_corpus, linear_system_corpus

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

LINEAR_DOCUMENTS_GOLDEN = "e91ed496b1034c560d211931db83551cf395a9256e2fe7c5e4dd5bedf4537846"


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


def test_linear_system_documents_match_golden_digest():
    """SHA-256 over the NUL-terminated instance documents of 98 systems
    (68 single-equation, 30 seeded)."""
    h = hashlib.sha256()
    systems = linear_system_corpus(10, 30)
    assert len(systems) == 98
    for _, system in systems:
        h.update(serialize_instance(linear_system_instance(system)).encode("utf-8") + b"\0")
    assert h.hexdigest() == LINEAR_DOCUMENTS_GOLDEN
