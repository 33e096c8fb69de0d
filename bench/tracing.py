"""Span tracing of etsfore from outside the package.

`Tracer.install` replaces every public function of the eight etsfore
modules, a few methods, and every name other modules imported them under
(`trainer.forward`, `esa.make_node`, ...) with wrappers that record a span:
(name, layer, start, end, parent, request). The graph nodes that
`make_node` builds get their vector-Jacobian closures wrapped as
`<primitive>.vjp` spans, and `numpy.fft.rfft`/`irfft` calls are counted
against the innermost layer. Spans stay in memory until `write`.
`uninstall` restores every replaced attribute.

Wrappers record only inside `recording()`, so the benchmark's own output
checks, which call etsfore too, never show up in the trace.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import os
import time
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("autodiff", "esa", "freq", "model", "trainer", "data", "classical", "cli")
PRIMS = ("sigmoid", "layer_norm", "matmul", "dropout", "getitem", "concat", "conv1d_temporal")
# Engine entry points that are handled specially or are not computation.
SKIP = {"autodiff": {"as_tensor", "make_node", "no_grad", "grad_check"}}
METHODS = (
    ("autodiff", "Tensor", "backward"),
    ("trainer", "Adam", "step"),
    ("trainer", "Checkpoint", "to_state"),
    ("data", "SynthDataset", "window_pairs"),
)
FFT_NAMES = ("rfft", "irfft")


def unit_of(metric: str) -> str:
    if metric == "host.slowdown":
        return "x"
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_pct", "%"), ("_bytes", "bytes")):
        if metric.endswith(suffix) or f"{suffix}." in metric:
            return unit
    return "count"


def _rows_parsed(result) -> int:
    values = getattr(result, "values", None)
    if values is None:
        return 0
    return int(np.prod(values.shape[:-1])) if values.ndim == 3 else int(values.shape[0])


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"etsfore.{name}") for name in LAYERS}
        self.ad = self.modules["autodiff"]
        self.spans: list[list] = []  # [name, layer, start, end, parent, request]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = -1
        self.active = False
        self._undo: list[tuple[object, str, object]] = []
        self._hooks = {
            "data.read_synth_csv": lambda res, args: self._count("data.rows_parsed", _rows_parsed(res)),
            "data.load_csv": lambda res, args: self._count("data.rows_parsed", _rows_parsed(res)),
            "trainer.load_checkpoint": lambda res, args: self._count(
                "trainer.checkpoint_bytes", os.path.getsize(args[0])
            ),
            "model.forward": lambda res, args: self._count(
                "model.inference_forwards", not self.ad._grad_enabled
            ),
        }

    # -- recording ---------------------------------------------------------

    def _count(self, key: str, n: int) -> None:
        self.counts[key] += n

    @contextlib.contextmanager
    def recording(self, request: int):
        self.request, self.active = request, True
        try:
            yield
        finally:
            self.active = False

    def clear(self) -> None:
        self.spans, self.stack, self.counts = [], [], Counter()

    def _innermost(self) -> list | None:
        return self.spans[self.stack[-1]] if self.stack else None

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        hook = self._hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = [name, layer, 0.0, 0.0, tracer.stack[-1] if tracer.stack else -1, tracer.request]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                tracer.stack.pop()
            if hook is not None:
                hook(result, args)
            return result

        return wrapper

    def _wrap_make_node(self, make_node):
        tracer = self

        @functools.wraps(make_node)
        def wrapper(data, parents, vjp):
            out = make_node(data, parents, vjp)
            if tracer.active and out._vjp is not None:
                tracer.counts["autodiff.nodes"] += 1
                creator = tracer._innermost()
                name, layer = (creator[0], creator[1]) if creator else ("autodiff.other", "autodiff")
                out._vjp = tracer._wrap(out._vjp, f"{name}.vjp", layer)
            return out

        return wrapper

    def _wrap_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.active:
                creator = tracer._innermost()
                layer = creator[1] if creator else "none"
                mode = "step" if tracer.ad._grad_enabled else "forward"
                tracer.counts[f"{layer}.fft.{mode}"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrapped = {}
        for layer, mod in self.modules.items():
            skip = SKIP.get(layer, set())
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in skip):
                    wrapped[fn] = self._wrap(fn, f"{layer}.{attr}", layer)
        make_node = self.ad.make_node
        wrapped[make_node] = self._wrap_make_node(make_node)
        # rebind every module-level reference, including `from x import f` copies
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._set(mod, attr, wrapped[value])
        for layer, cls, meth in METHODS:
            owner = getattr(self.modules[layer], cls)
            self._set(owner, meth, self._wrap(getattr(owner, meth), f"{layer}.{cls}.{meth}", layer))
        for attr in FFT_NAMES:
            self._set(np.fft, attr, self._wrap_fft(getattr(np.fft, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, layer, start, end, parent, request in self.spans:
                fh.write(json.dumps({
                    "name": name, "layer": layer, "start_s": start - t0, "end_s": end - t0,
                    "parent": parent, "request": request,
                }) + "\n")

    # -- per-layer metrics -------------------------------------------------

    def metrics(self, n_ops: int, duration=None) -> dict[str, float]:
        """Per-layer numbers, times in ms per operation unless named otherwise.

        `duration(start, end, request)` turns a span's clock readings into
        seconds; the default is plain wall time.
        """
        spans = self.spans
        duration = duration or (lambda start, end, request: end - start)
        durations = [duration(start, end, req) for _, _, start, end, _, req in spans]
        children = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[4] >= 0:
                children[span[4]] += durations[i]
        total, calls = defaultdict(float), Counter()
        self_time = dict.fromkeys(LAYERS, 0.0)
        for i, (name, layer, *_rest) in enumerate(spans):
            total[name] += durations[i]
            calls[name] += 1
            if layer in self_time:
                self_time[layer] += durations[i] - children[i]

        def under(i: int, ancestor: str) -> bool:
            parent = spans[i][4]
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    return True
                parent = spans[parent][4]
            return False

        decoder = val_eval = 0.0
        outside_decoder = ("model.input_embed", "model.encoder_layer", "model.level_pipeline")
        for i, (name, _, _, _, parent, _) in enumerate(spans):
            if name == "model.forward":
                decoder += durations[i]
            elif name in outside_decoder and parent >= 0 and spans[parent][0] == "model.forward":
                decoder -= durations[i]
            elif name == "trainer.evaluate_state" and under(i, "trainer.train"):
                val_eval += durations[i]

        ops = max(n_ops, 1)
        steps = calls["autodiff.Tensor.backward"]
        forwards = self.counts["model.inference_forwards"]

        def ms(name: str) -> float:
            return total[name] * 1e3 / ops

        def per(count: float, denom: int) -> float:
            return count / denom if denom else 0.0

        m = {
            "autodiff.backward_ms": ms("autodiff.Tensor.backward"),
            "autodiff.nodes_per_step": per(self.counts["autodiff.nodes"], steps),
        }
        for prim in PRIMS:
            m[f"autodiff.fwd_ms.{prim}"] = ms(f"autodiff.{prim}")
            m[f"autodiff.vjp_ms.{prim}"] = ms(f"autodiff.{prim}.vjp")
        m.update({
            "esa.mh_esa_ms": ms("esa.mh_esa"),
            "esa.level_smoothing_ms": ms("esa.level_smoothing"),
            "esa.conv1d_fft_t.vjp_ms": ms("esa.conv1d_fft_t.vjp"),
            "esa.fft_calls_per_step": per(self.counts["esa.fft.step"], steps),
            "esa.fft_calls_per_forward": per(self.counts["esa.fft.forward"], forwards),
            "freq.fourier_extrapolate_ms": ms("freq.fourier_extrapolate"),
            "freq.fourier_extrapolate.vjp_ms": ms("freq.fourier_extrapolate.vjp"),
            "freq.topk_select_ms": ms("freq.topk_select"),
            "freq.fft_calls_per_step": per(self.counts["freq.fft.step"], steps),
            "freq.fft_calls_per_forward": per(self.counts["freq.fft.forward"], forwards),
            "model.forward_ms": ms("model.forward"),
            "model.input_embed_ms": ms("model.input_embed"),
            "model.encoder_layer_ms": ms("model.encoder_layer"),
            "model.level_pipeline_ms": ms("model.level_pipeline"),
            "model.decoder_self_ms": decoder * 1e3 / ops,
            "trainer.adam_step_ms": ms("trainer.Adam.step"),
            "trainer.val_eval_ms": val_eval * 1e3 / ops,
            "trainer.load_checkpoint_ms": ms("trainer.load_checkpoint"),
            "trainer.checkpoint_bytes": self.counts["trainer.checkpoint_bytes"] / ops,
            "data.read_synth_csv_ms": ms("data.read_synth_csv"),
            "data.rows_parsed": self.counts["data.rows_parsed"] / ops,
            "data.load_csv_ms": ms("data.load_csv"),
            "data.window_build_ms": ms("data.SynthDataset.window_pairs") + ms("data.window_dataset"),
            "classical.hw_fit_grid_ms": ms("classical.hw_fit_grid"),
            "classical.candidates": calls["classical.one_step_errors"] / ops,
            "classical.one_step_errors_us": per(total["classical.one_step_errors"] * 1e6,
                                                calls["classical.one_step_errors"]),
        })
        for layer in LAYERS:
            m[f"{layer}.self_ms"] = self_time[layer] * 1e3 / ops
        m["trace.spans_per_op"] = len(spans) / ops
        return m
