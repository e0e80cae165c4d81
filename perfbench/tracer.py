"""Spans and counters around opcsp's public functions, for the traced run.

The tracer replaces each listed function at its module attribute, and at
every other opcsp module attribute bound to the same object, so nested calls
made by the package itself are caught: slac -> linear_ac, build and check ->
instance_digest, verify_assignment -> relation_polynomial,
dom_difference_inverse -> poly_ext_gcd.  Spans stay in memory until the run
ends.  A layer's self time is the time of its spans minus the time their
child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

# layer metric -> functions, as (module, attribute path), whose spans it sums
SPANNED = {
    "consistency.slac_s": [
        ("opcsp.consistency", "slac"),
        ("opcsp.consistency", "linear_ac"),
    ],
    "certificates.build_s": [("opcsp.certificates", "build_certificate")],
    "certificates.check_s": [("opcsp.certificates", "check_certificate")],
    "csp_core.digest_s": [("opcsp.csp_core", "instance_digest")],
    "csp_core.load_s": [("opcsp.csp_core", "load_instance")],
    "gap_instances.generate_s": [
        ("opcsp.gap_instances", name)
        for name in (
            "magic_square", "pauli_fixture", "linear_system_instance", "linear_language",
            "two_clause_language", "horn_language", "shift_language",
        )
    ],
    "fourier.relation_polynomial_s": [("opcsp.fourier", "relation_polynomial")],
    "fourier.eval_s": [("opcsp.fourier", "MultiPoly.eval")],
    "fourier.inverse_witness_s": [("opcsp.fourier", "dom_difference_inverse")],
    "cyclotomic.ext_gcd_s": [("opcsp.cyclotomic", "poly_ext_gcd")],
    "operators.verify_s": [("opcsp.operators", "verify_assignment")],
    "operators.diagonalize_s": [("opcsp.operators", "simultaneous_diagonalize")],
    "reductions.reduce_s": [
        ("opcsp.reductions", "restrict_transport"),
        ("opcsp.reductions", "factor_transport"),
        ("opcsp.reductions", "core_instance"),
    ],
    "reductions.transport_s": [("opcsp.reductions", "transport_assignment")],
}

# counted per timed pass, from the arguments and results of wrapped calls
COUNTERS = (
    "consistency.probes",
    "consistency.probes_after_wipeout",
    "consistency.facts",
    "certificates.bytes",
)

# generation runs during set-up; every other layer is read from the timed passes
SETUP_METRICS = ("gap_instances.generate_s",)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.mul_count = 0
        self.enabled = False
        self.op_id = None  # None during set-up
        self._stack: list[int] = []
        self._slac_states: list[dict] = []
        self._restore: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        for metric, targets in SPANNED.items():
            for module_name, path in targets:
                owner, attr = _resolve(module_name, path)
                original = getattr(owner, attr)
                observe = {"linear_ac": self._observe_probe}.get(attr)
                wrapper = self._span_wrapper(f"{module_name.split('.')[-1]}.{attr}", original, observe)
                self._rebind(owner, attr, original, wrapper)
        from opcsp.certificates import GapCertificate

        to_json = GapCertificate.to_json

        @functools.wraps(to_json)
        def counting_to_json(cert):
            text = to_json(cert)
            if self.enabled and self.op_id is not None:
                self.counts["certificates.bytes"] += len(text.encode("utf-8"))
            return text

        self._rebind(GapCertificate, "to_json", to_json, counting_to_json)

    @contextlib.contextmanager
    def counting_muls(self):
        """Count CycNum multiplications meanwhile.  Kept out of the passes that
        give the layer times, because the counting call costs more than some
        multiplications."""
        from opcsp.cyclotomic import CycNum

        mul = CycNum.__mul__

        @functools.wraps(mul)
        def counting(a, b):
            self.mul_count += 1
            return mul(a, b)

        CycNum.__mul__ = CycNum.__rmul__ = counting
        try:
            yield
        finally:
            CycNum.__mul__ = CycNum.__rmul__ = mul

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _rebind(self, owner, attr, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        for name, module in list(sys.modules.items()):
            if module is None or module is owner or not name.startswith("opcsp"):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, alias, original))
                    setattr(module, alias, wrapper)

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, name, fn, observe):
        tracer = self
        is_slac = name == "consistency.slac"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            span = [name, 0.0, 0.0, parent, tracer.op_id]
            tracer.spans.append(span)
            tracer._stack.append(index)
            if is_slac:
                tracer._slac_states.append({"removed": {}, "wiped": False})
            after_wipeout = bool(tracer._slac_states) and tracer._slac_states[-1]["wiped"]
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if is_slac:
                    tracer._slac_states.pop()
            if observe is not None and tracer.op_id is not None:
                observe(args, kwargs, result, after_wipeout)
            return result

        return wrapper

    def _observe_probe(self, args, kwargs, result, after_wipeout) -> None:
        """Counts from the pin and verdict of one linear_ac call.  Inside slac,
        a refuted pin removes its value, so the first emptied domain is seen
        from outside."""
        self.counts["consistency.facts"] += len(result.store)
        pin = kwargs.get("pin", args[2] if len(args) > 2 else None)
        if pin is None:
            return
        self.counts["consistency.probes"] += 1
        if not self._slac_states:
            return
        state = self._slac_states[-1]
        if after_wipeout:
            self.counts["consistency.probes_after_wipeout"] += 1
        if not result.consistent:
            var, value = pin
            removed = state["removed"].setdefault(var, set())
            removed.add(value)
            if len(removed) == args[0].d:
                state["wiped"] = True

    # -- results --------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per span name, split into set-up and pass phases."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[tuple, float] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            key = (name, "setup" if op is None else "pass")
            out[key] = out.get(key, 0.0) + (end - start) - child_time[i]
        return out

    def layer_metrics(self, setups: int, passes: int) -> dict:
        """Per-layer metrics: set-up layers per set-up, the rest per pass."""
        by_name = self.self_times()
        out = {}
        for metric, targets in SPANNED.items():
            phase, per = ("setup", setups) if metric in SETUP_METRICS else ("pass", passes)
            names = {f"{m.split('.')[-1]}.{p.split('.')[-1]}" for m, p in targets}
            total = sum(t for (n, ph), t in by_name.items() if n in names and ph == phase)
            out[metric] = (total / per, "s")
        for name in COUNTERS:
            out[name] = (self.counts[name] / passes, "bytes" if name.endswith("bytes") else "count")
        out["cyclotomic.mul_count"] = (self.mul_count, "count")
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr
