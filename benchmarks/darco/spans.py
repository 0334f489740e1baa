"""Outside-in span tracer for the DARCO benchmark's traced runs.

Layers are modules.  :class:`LayerPatches` replaces the public methods
and functions at each layer boundary, at class or module level, with
wrappers that record a span per call, and puts the originals back
afterwards; nothing under ``src/`` is edited.  Each span has a name, a
start, an end, a parent and the kernel or job it ran for.  A layer's
self time is its span durations minus the part their child spans cover,
accumulated online, so memory stays bounded: only the first
:data:`KEEP_SPANS` spans are kept for the Chrome trace-event file.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple

#: Spans kept in memory for the trace-event file; later ones are only
#: accumulated into the per-layer totals (and counted as dropped).
KEEP_SPANS = 100_000

#: (layer, module, attribute) for every patched boundary.  ``Class.method``
#: attributes are patched on the class; bare names in the module.
BOUNDARIES: Tuple[Tuple[str, str, str], ...] = (
    ("dispatch", "repro.tol.tol", "Tol.run"),
    ("x86", "repro.system.x86comp", "X86Component.run_to_icount"),
    ("im", "repro.tol.interp", "Interpreter.step"),
    ("host", "repro.host.emulator", "HostEmulator.execute"),
    ("xl.bb", "repro.tol.translate", "Translator.translate_bb"),
    ("xl.sb", "repro.tol.translate", "Translator.translate_superblock"),
    ("xl.decode", "repro.tol.translate", "decode_bb"),
    ("xl.region", "repro.tol.translate", "build_region"),
    ("xl.ssa", "repro.tol.translate", "to_ssa"),
    ("xl.schedule", "repro.tol.translate", "list_schedule"),
    ("xl.regalloc", "repro.tol.translate", "allocate"),
    ("xl.codegen", "repro.tol.codegen", "CodeGenerator.generate"),
    ("timing.batch", "repro.timing.trace", "TimingSession.sink_batch"),
    ("timing.batch", "repro.timing.trace", "TimingSession.sink"),
    ("timing.tol_feed", "repro.timing.trace",
     "TimingSession.feed_tol_overhead"),
    ("controller.sync", "repro.system.codesigned",
     "CoDesignedComponent.install_page"),
    ("controller.sync", "repro.system.codesigned",
     "CoDesignedComponent.receive_syscall_result"),
    ("controller.validate", "repro.guest.state", "GuestState.diff"),
    ("controller.validate", "repro.guest.memory",
     "PagedMemory.first_difference"),
    ("assemble", "repro.workloads.common", "Workload.program"),
)


class Layer:
    """Running totals for one layer."""

    __slots__ = ("self_s", "total_s", "calls")

    def __init__(self):
        self.self_s = 0.0
        self.total_s = 0.0
        self.calls = 0


class SpanTracer:
    """Records spans from wrapped calls; thread-safe per lane (thread)."""

    def __init__(self, keep: int = KEEP_SPANS):
        self.keep = keep
        self.layers: Dict[str, Layer] = {}
        self.spans: List[tuple] = []
        self.dropped = 0
        self.origin = time.perf_counter()
        self._local = threading.local()
        self._ids = itertools.count(1)
        #: Direct-tier counters filled by the compile/exec wrappers.
        self.direct = {"attempts": 0, "promoted": 0, "guest_insns": 0}

    # -- per-thread state -----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def item(self) -> str:
        return getattr(self._local, "item", "")

    @item.setter
    def item(self, value: str) -> None:
        self._local.item = value

    def layer(self, name: str) -> Layer:
        acc = self.layers.get(name)
        if acc is None:
            acc = self.layers[name] = Layer()
        return acc

    # -- recording ------------------------------------------------------------

    def _close(self, name: str, acc: Layer, frame: list, t0: float,
               t1: float, stack: list) -> None:
        dur = t1 - t0
        acc.self_s += dur - frame[0]
        acc.total_s += dur
        acc.calls += 1
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[0] += dur
        if len(self.spans) < self.keep:
            self.spans.append((
                name, t0, t1, frame[1],
                parent[1] if parent is not None else 0,
                threading.get_ident(), self.item))
        else:
            self.dropped += 1

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one ``name`` span per call."""
        acc = self.layer(name)
        clock = time.perf_counter
        stack_of = self._stack
        close = self._close
        ids = self._ids

        def traced(*args, **kwargs):
            stack = stack_of()
            frame = [0.0, next(ids)]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                close(name, acc, frame, t0, t1, stack)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around benchmark-side code (an item, a client request)."""
        acc = self.layer(name)
        stack = self._stack()
        frame = [0.0, next(self._ids)]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self._close(name, acc, frame, t0, t1, stack)

    def wrap_compile_direct(self, fn: Callable) -> Callable:
        """``compile_direct`` as a ``direct.compile`` span whose returned
        program is itself wrapped, so direct-tier execution gets its own
        ``direct.exec`` span and guest-instruction count."""
        compile_traced = self.wrap("direct.compile", fn)
        direct = self.direct
        exec_span = self.wrap

        def compile_direct(unit, emu, traced=False, cluster=None):
            prog = compile_traced(unit, emu, traced=traced, cluster=cluster)
            if not traced:
                direct["attempts"] += 1
                direct["promoted"] += prog is not None
            if prog is None:
                return None
            run = exec_span("direct.exec", prog)

            def program(emu_, executed, fuel):
                before = emu_.guest_retired_total
                try:
                    return run(emu_, executed, fuel)
                finally:
                    direct["guest_insns"] += (emu_.guest_retired_total
                                              - before)
            return program

        compile_direct.__wrapped__ = fn
        return compile_direct

    # -- results --------------------------------------------------------------

    def self_s(self, name: str) -> float:
        acc = self.layers.get(name)
        return acc.self_s if acc is not None else 0.0

    def total_s(self, name: str) -> float:
        acc = self.layers.get(name)
        return acc.total_s if acc is not None else 0.0

    def calls(self, name: str) -> int:
        acc = self.layers.get(name)
        return acc.calls if acc is not None else 0

    def open_children_s(self) -> float:
        """Seconds the finished child spans of this thread's innermost
        open span cover so far (0 outside any span)."""
        stack = self._stack()
        return stack[-1][0] if stack else 0.0

    def chrome_trace(self) -> Dict[str, object]:
        """The kept spans as Chrome trace-event JSON (``X`` events, µs)."""
        tids: Dict[int, int] = {}
        events = []
        for name, t0, t1, sid, parent, ident, item in self.spans:
            tid = tids.setdefault(ident, len(tids) + 1)
            events.append({
                "name": name, "cat": name.split(".")[0], "ph": "X",
                "pid": 1, "tid": tid,
                "ts": round((t0 - self.origin) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "args": {"id": sid, "parent": parent, "item": item},
            })
        events.sort(key=lambda e: (e["tid"], e["ts"]))
        meta = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 0,
                 "args": {"name": "darco benchmark"}}]
        meta += [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
                  "args": {"name": f"lane {tid}"}}
                 for tid in sorted(tids.values())]
        return {"traceEvents": meta + events,
                "otherData": {"spans_dropped": self.dropped}}

    def write_chrome_trace(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class LayerPatches:
    """Install wrappers at every boundary; restore the originals on exit.

    Used as a context manager.  Optimization passes are re-registered
    through the public ``register_pass(name)(wrapped(get_pass(name)))``,
    and ``repro.tol.tol.compile_direct`` through
    :meth:`SpanTracer.wrap_compile_direct`."""

    def __init__(self, tracer: SpanTracer):
        self.tracer = tracer
        self._saved: List[tuple] = []
        self._passes: List[tuple] = []

    def __enter__(self) -> "LayerPatches":
        for layer, module, attr in BOUNDARIES:
            owner, name = _resolve(module, attr)
            original = (owner.__dict__[name] if isinstance(owner, type)
                        else getattr(owner, name))
            self._saved.append((owner, name, original))
            setattr(owner, name, self.tracer.wrap(layer, original))
        owner, name = _resolve("repro.tol.tol", "compile_direct")
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, self.tracer.wrap_compile_direct(original))
        from repro.tol.opt.passes import (
            available_passes, get_pass, register_pass,
        )
        for pass_name in available_passes():
            original = get_pass(pass_name)
            self._passes.append((pass_name, original))
            register_pass(pass_name)(
                self.tracer.wrap(f"xl.pass.{pass_name}", original))
        return self

    def __exit__(self, *exc) -> None:
        from repro.tol.opt.passes import register_pass
        for pass_name, original in reversed(self._passes):
            register_pass(pass_name)(original)
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._passes.clear()
        self._saved.clear()
