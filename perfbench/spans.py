"""Span tracing of the package's layers, applied from outside.

`Tracer.install` replaces every module-level public function of the
layers (the names in each module's `__all__`) with a wrapper that
records a span, and rebinds every reference to it inside the package,
so calls between modules are traced too.  Spans stay in memory until
`layer_metrics` reduces them at the end of the run.  Methods, classes
and private helpers are not wrapped: their time counts to the layer
of the nearest traced caller.
"""
from __future__ import annotations

import importlib
import sys
import time
import types

LAYERS = ("cli", "harness", "channel", "decoders", "design", "gf2")


def _batch_rounds(args, kwargs) -> int:
    return len(kwargs["batch"] if "batch" in kwargs else args[0])


def _simulated_rounds(args, kwargs) -> int:
    return int(kwargs["batch"] if "batch" in kwargs else args[4])


# Work counted per call, for the per-round and byte figures.
ROUNDS = {
    "simulate_rounds": _simulated_rounds,
    "map_decode_batch": _batch_rounds,
    "sp_decode_batch": _batch_rounds,
}


class Tracer:
    """Keeps (layer, name, start, end, parent, rounds, k, n) per call."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        count = ROUNDS.get(name)

        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1, 0, 0, 0]
            if count is not None:
                span[5] = count(args, kwargs)
                code = kwargs.get("code", args[1] if len(args) > 1 else None)
                if code is not None and hasattr(code, "k"):
                    span[6], span[7] = code.k, code.n
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(f"netcode.{m}") for m in LAYERS]
        package = [m for name, m in sys.modules.items()
                   if name == "netcode" or name.startswith("netcode.")]
        for layer, mod in zip(LAYERS, modules):
            for name in mod.__all__:
                fn = getattr(mod, name)
                if not (isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    continue
                traced = self._wrap(layer, name, fn)
                for other in package:
                    for attr, value in list(vars(other).items()):
                        if value is fn:
                            setattr(other, attr, traced)

    def layer_metrics(self) -> dict:
        """Per layer: total time outside other spans of the same layer
        (`.s`), calls and self time; per function: time, calls, rounds."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for layer, name, t0, t1, parent, *_ in spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        out: dict = {}
        for layer in LAYERS:
            out[f"{layer}.s"] = out[f"{layer}.self_s"] = 0.0
            out[f"{layer}.calls"] = 0
        out["map_table_bytes"] = out["sp_message_bytes"] = 0
        for idx, (layer, name, t0, t1, parent, rounds, k, n) in enumerate(spans):
            out[f"{layer}.self_s"] += (t1 - t0) - child_time[idx]
            out[f"{layer}.calls"] += 1
            up = parent
            while up >= 0 and spans[up][0] != layer:
                up = spans[up][4]
            if up < 0:
                out[f"{layer}.s"] += t1 - t0
            key = f"{layer}.{name}"
            out[key + "_s"] = out.get(key + "_s", 0.0) + (t1 - t0)
            out[key + "_calls"] = out.get(key + "_calls", 0) + 1
            out[key + "_rounds"] = out.get(key + "_rounds", 0) + rounds
            if name == "map_decode_batch":
                out["map_table_bytes"] = max(out["map_table_bytes"],
                                             rounds * (1 << k) * n * 8)
            elif name == "sp_decode_batch":
                out["sp_message_bytes"] = max(out["sp_message_bytes"],
                                              rounds * n * k * 8)
        return out
