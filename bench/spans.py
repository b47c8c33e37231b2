"""Span recording for the traced benchmark run, done from outside penet.

The benchmark replaces the public ``forward``/``backward``/``step`` methods
of each layer object with timing wrappers, and patches the data functions
in the modules that look them up. Nothing in penet changes. The untraced
run uses only ``patched``, for its clock on optimiser steps and parses.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    self_s: float        # duration minus the time covered by child spans
    top: bool            # no span was open around this one
    mflop: float = 0.0   # computed from array shapes, Linear/Conv2d only
    in_mb: float = 0.0
    out_mb: float = 0.0


class Tracer:
    """Keeps every span in memory; reduced to metrics after the run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[list[float]] = []     # child seconds per open span

    def wrap(self, name: str, fn, work=None):
        """Time ``fn`` as span ``name``; ``work(args, out)`` gives counts."""
        def traced(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._open.pop()
                if self._open:
                    self._open[-1][0] += t1 - t0
            span = Span(name, t0, t1, t1 - t0 - children[0], not self._open)
            if work is not None:
                span.mflop, span.in_mb, span.out_mb = work(args, out)
            self.spans.append(span)
            return out
        return traced


def _is_layer(obj) -> bool:
    return (callable(getattr(obj, "forward", None))
            and not isinstance(obj, type))


def _param_prefix(obj) -> str | None:
    """Common dotted prefix of the object's ParamTensor names, if any."""
    params = getattr(obj, "params", None)
    names = [p.name.split(".")[:-1] for p in params()] if params else []
    if not names:
        return None
    prefix = names[0]
    for parts in names[1:]:
        n = 0
        while n < min(len(prefix), len(parts)) and prefix[n] == parts[n]:
            n += 1
        prefix = prefix[:n]
    return ".".join(prefix) or None


def layer_objects(model):
    """(name, layer) for the model and every layer object found below it.

    A layer is named by its ParamTensor prefix (``encoder.layer3``,
    ``head.conv1``, ``seg.fc1``); one without parameters by its parent's
    name and attribute path (``encoder.relus.0``, ``head.pool1``). The
    model itself is ``models``; it has no prefix of its own, so a
    parameterless layer directly under it is named by module and class
    (``aggregate.GlobalPool``).
    """
    found = [("models", model)]
    seen = {id(model)}

    def visit(obj, name, is_root):
        for attr, val in vars(obj).items():
            if _is_layer(val):
                children = [(attr, val)]
            elif isinstance(val, (list, tuple)):
                children = [(f"{attr}.{i}", v) for i, v in enumerate(val)
                            if _is_layer(v)]
            else:
                continue
            for path, child in children:
                if id(child) in seen:
                    continue
                seen.add(id(child))
                child_name = _param_prefix(child)
                if child_name is None:
                    child_name = (
                        f"{type(child).__module__.rsplit('.', 1)[-1]}."
                        f"{type(child).__name__}" if is_root
                        else f"{name}.{path}")
                found.append((child_name, child))
                visit(child, child_name, False)

    visit(model, "models", True)
    return found


def _fan_in(layer, numcore) -> int | None:
    if isinstance(layer, numcore.Linear):
        return layer.din
    if isinstance(layer, numcore.Conv2d):
        return layer.cin * layer.ksize * layer.ksize
    return None


def _work(fan_in: int, passes: int):
    """Counts for one Linear/Conv2d call: each output element of the
    forward pass costs 2*fan_in flops; backward makes dW and dx, twice that."""
    def work(args, out):
        x = args[0]
        n_out = out.size if passes == 1 else x.size
        return (2 * passes * fan_in * n_out / 1e6,
                x.nbytes / 1e6, out.nbytes / 1e6)
    return work


def wrap_model(model, tracer: Tracer, numcore):
    """Replace forward/backward on every layer object of the model."""
    for name, layer in layer_objects(model):
        fan_in = _fan_in(layer, numcore)
        for method, passes in (("forward", 1), ("backward", 2)):
            fn = getattr(layer, method, None)
            if fn is None:
                continue
            work = _work(fan_in, passes) if fan_in else None
            setattr(layer, method, tracer.wrap(f"{name}.{method}", fn, work))


@contextlib.contextmanager
def patched(*targets):
    """Temporarily set ``(module, attribute, value)`` triples."""
    saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in targets]
    for mod, attr, value in targets:
        setattr(mod, attr, value)
    try:
        yield
    finally:
        for mod, attr, value in reversed(saved):
            setattr(mod, attr, value)
