"""Generated Python code, compiled once per process.

Every Python source the simulator generates is compiled here: the IM
closures (:func:`repro.tol.ir_eval.compile_ops`), the host emulator's
steps and reference loop, the translated units' programs
(:mod:`repro.tol.direct`), the timing loops and appliers, and the x86
component's closures and block functions and trig recipes
(:mod:`repro.guest.emulator`, :mod:`repro.guest.semantics`).  Code
objects are memoized in one bounded, process-wide table, so a source
that recurs -- in another run, another unit or another decode address
-- is compiled once.

The IM closures, the host programs and the x86 component's closures
and blocks are written as *shapes* so that they recur: temps are
renumbered from 0 in first-use order and every literal is a parameter
of a factory ``_mk(...)`` that returns the function.  The table keeps a
shape's factory, so two decode addresses (or units, or guest
instructions) that differ only in literals share one factory and one
code object, and making the function is a call instead of a compile.
Every shape is found by a structural key before its source is written
(:func:`shape`), so a shape's source is written once per process.

The workers of one pool (:mod:`repro.serve.supervisor`) share their
code objects, so a shape is written and compiled by about one worker per
pool: a worker queues each code object it compiles for its pool
(:func:`share`, :func:`take_shared`), and takes one the pool sent
(:func:`receive`) before writing a source itself.

Two pieces of source are written by more than one generator, and so
live here: the identifiers a source reads (:func:`names`) and the
in-page guest memory access (:func:`in_page`) of the host's loads and
stores, the IM closures' and the x86 component's forms.
"""

from __future__ import annotations

import marshal
import pickle
import struct
import threading
import types

#: Code objects kept, least recently used evicted first.  The 31 Fig. 4-7
#: kernels at their figure scales (SPEC 0.5, Physicsbench 1.0), run in
#: one process, leave 632 entries: 159 IM shapes, 211 program shapes, 159
#: x86 closure shapes, 98 x86 block shapes, the step makers, the two
#: reference loops and the two trig functions.  The bound is about 3x
#: that, for traced programs, the timing forms and the configurations
#: the figures do not run.
CAPACITY = 2048

#: source text (or a shape's structural key) -> its code object, or, for
#: a shape, its factory
_CODES: dict = {}
#: code the pool sent and this process has not used yet: key -> the
#: marshalled code object, at most ``CAPACITY``, oldest dropped first
_RECEIVED: dict = {}
#: in a pool worker, the ``(key, marshalled code object)`` entries this
#: process compiled and has not handed to its pool yet; else None
_OUTBOX = None
_LOCK = threading.Lock()
_NOT_NAME = {c: " " for c in range(128)
             if not (chr(c).isalnum() or chr(c) == "_")}
_WORD, _DOUBLE = struct.Struct("<I"), struct.Struct("<d")

#: The functions :func:`in_page` accesses call, for the namespace of the
#: code that holds them: a word's or a double's unpack and pack.
IN_PAGE = {"_SUI": _WORD.unpack_from, "_SPI": _WORD.pack_into,
           "_SUF": _DOUBLE.unpack_from, "_SPF": _DOUBLE.pack_into}


def names(source: str) -> set:
    """The identifiers in ``source`` (and its number literals)."""
    return set(source.translate(_NOT_NAME).split())


def in_page(addr: str, size: int, fast, slow) -> list:
    """Source lines of a ``size``-byte guest memory access at the local
    ``addr``: the lines ``fast`` when it lies inside a page present in
    the page dict ``GP`` (that page's bytearray in ``_pg``, the offset in
    ``_po``), else the lines ``slow``, which call the memory's method
    (it makes a demand-zero page, raises ``PageFault`` or splits the
    access at the page boundary).  No page is remembered between
    accesses, so the next access sees an ``install_page``."""
    return [f"_pg = GP.get({addr} >> 12)", f"_po = {addr} & 4095",
            f"if _pg is not None and _po <= {4096 - size}:",
            *("    " + line for line in fast), "else:",
            *("    " + line for line in slow)]


def _compiled(key, write, filename: str, shape_globals=None):
    """The memoized code of the source ``write()`` returns; with
    ``shape_globals``, the factory ``_mk`` that source defines in a copy
    of them.  ``write`` is called only when ``key`` is not memoized and
    the pool sent no code for it that loads."""
    with _LOCK:
        entry = _CODES.pop(key, None)
        if entry is None:
            if len(_CODES) >= CAPACITY:
                del _CODES[next(iter(_CODES))]
            entry = _load(_RECEIVED.pop(key, None))
            if entry is None:
                entry = compile(write(), filename, "exec")
                if _OUTBOX is not None:
                    _queue(key, entry)
            if shape_globals is not None:
                namespace = dict(shape_globals)
                exec(entry, namespace)
                entry = namespace["_mk"]
        _CODES[key] = entry
    return entry


def _load(blob):
    """The code object marshalled in ``blob``; None for no blob or one
    that does not load as code (its source is then compiled)."""
    if blob is None:
        return None
    try:
        code = marshal.loads(blob)
    except (EOFError, ValueError, TypeError):
        return None
    return code if isinstance(code, types.CodeType) else None


def _queue(key, code) -> None:
    """Queue ``code`` for the pool, unless it or its key cannot be sent."""
    try:
        pickle.dumps(key)
        blob = marshal.dumps(code)
    except Exception:  # whatever fails to pickle: the entry is not shared
        return
    _OUTBOX.append((key, blob))


def share() -> None:
    """Queue every code object compiled from now on for the pool (called
    once by a pool worker)."""
    global _OUTBOX
    with _LOCK:
        _OUTBOX = []


def take_shared() -> list:
    """The ``(key, marshalled code)`` entries queued since :func:`share`
    or the last call."""
    global _OUTBOX
    with _LOCK:
        entries, _OUTBOX = _OUTBOX, []
    return entries


def receive(entries) -> None:
    """Keep the ``(key, marshalled code)`` entries the pool sent for the
    keys this process has not compiled."""
    with _LOCK:
        for key, blob in entries:
            if key not in _CODES:
                _RECEIVED[key] = blob
        while len(_RECEIVED) > CAPACITY:
            del _RECEIVED[next(iter(_RECEIVED))]


def define(source: str, name: str, namespace: dict,
           filename: str = "<generated>"):
    """Run ``source`` in ``namespace`` and return what it binds to
    ``name``.  ``source`` is compiled only when it is not memoized."""
    exec(_compiled(source, lambda: source, filename), namespace)
    return namespace[name]


def shape(key, write, namespace: dict, filename: str):
    """The factory ``_mk`` of the shape whose structure is ``key`` (any
    hashable other than a string): ``write()`` gives the factory's
    source, and is called only when no factory is memoized under
    ``key``.  The factory's globals are a copy of ``namespace``."""
    return _compiled(key, write, filename, namespace)

