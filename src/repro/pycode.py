"""Generated Python code, compiled once per process.

Every Python source the simulator generates is compiled here: the IM
closures (:func:`repro.tol.ir_eval.compile_ops`), the host emulator's
steps and segments, the direct tier's programs and the timing loops and
appliers.  Code objects are memoized by source text in one bounded,
process-wide table, so a source that recurs -- in another run, another
unit or another decode address -- is compiled once.

The IM closures and the host segments are written as *shapes* so that
they recur: temps are renumbered from 0 in first-use order and every
literal is a parameter of a factory ``_mk(K0, K1, ...)`` that returns
the closure.  The table keeps a shape's factory, so two decode
addresses (or segments) that differ only in literals share one factory
and one code object, and making the closure is a call instead of a
compile.
"""

from __future__ import annotations

import threading

#: Code objects kept, least recently used evicted first.  The 31 Fig. 4-7
#: kernels at their figure scales (SPEC 0.5, Physicsbench 1.0), run in
#: one process, produce 832 distinct sources: 159 IM shapes, 424 segment
#: shapes, 248 direct-tier programs and the step makers.  The bound is
#: about 2.5x that, for the timing forms and the configurations the
#: figures do not run.
CAPACITY = 2048

#: source text -> its code object, or, for a shape, its factory
_CODES: dict = {}
_LOCK = threading.Lock()


def _compiled(source: str, filename: str, shape_globals=None):
    """The memoized code of ``source``; with ``shape_globals``, the
    factory ``_mk`` that ``source`` defines in a copy of them."""
    with _LOCK:
        entry = _CODES.pop(source, None)
        if entry is None:
            if len(_CODES) >= CAPACITY:
                del _CODES[next(iter(_CODES))]
            entry = compile(source, filename, "exec")
            if shape_globals is not None:
                namespace = dict(shape_globals)
                exec(entry, namespace)
                entry = namespace["_mk"]
        _CODES[source] = entry
    return entry


def define(source: str, name: str, namespace: dict,
           filename: str = "<generated>"):
    """Run ``source`` in ``namespace`` and return what it binds to
    ``name``.  ``source`` is compiled only when it is not memoized."""
    exec(_compiled(source, filename), namespace)
    return namespace[name]


class Shape:
    """The shape of one closure being written: :meth:`param` names the
    parameter that holds a literal, :meth:`temp` a temp's local, and
    :meth:`instance` makes the closure."""

    def __init__(self):
        self.values = []
        self._temps = {}

    def param(self, value) -> str:
        self.values.append(value)
        return f"K{len(self.values) - 1}"

    def temp(self, prefix: str, key) -> str:
        name = self._temps.get(key)
        if name is None:
            name = self._temps[key] = f"{prefix}{len(self._temps)}"
        return name

    def instance(self, signature: str, lines, namespace: dict,
                 filename: str):
        """The closure ``def <signature>:`` with body ``lines`` and its
        parameters bound.  Its globals are a copy of ``namespace`` made
        once per shape, so a generator must pass the same ``namespace``
        for every shape it writes."""
        params = ", ".join(f"K{k}" for k in range(len(self.values)))
        name = signature.split("(")[0]
        source = (f"def _mk({params}):\n"
                  f"    def {signature}:\n"
                  + "".join(f"        {line}\n" for line in lines)
                  + f"    return {name}\n")
        return _compiled(source, filename, namespace)(*self.values)
