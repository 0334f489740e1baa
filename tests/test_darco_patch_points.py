"""The DARCO benchmark's patch points.

The benchmark's traced runs (``benchmarks/darco/run.py --trace 1``)
wrap named functions and methods of the simulator at every layer
boundary (``benchmarks/darco/spans.py``), so renaming or deleting one
breaks those runs and nothing else.  These tests load that file by
path and resolve every point as :class:`LayerPatches` does.
"""

import importlib.util
import pathlib

from repro.guest.memory import PagedMemory
from repro.host.emulator import HostEmulator
from repro.host.isa import CodeUnit, HostInstr

SPANS = (pathlib.Path(__file__).resolve().parents[1]
         / "benchmarks" / "darco" / "spans.py")


def _spans():
    spec = importlib.util.spec_from_file_location("darco_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_resolves_as_layer_patches_does():
    spans = _spans()
    missing = []
    for _layer, module, attr in spans.BOUNDARIES:
        owner, name = spans._resolve(module, attr)
        # A class attribute is read from the class's own __dict__ (a
        # KeyError in the benchmark when it is inherited or gone).
        found = (name in owner.__dict__ if isinstance(owner, type)
                 else callable(getattr(owner, name, None)))
        if not found:
            missing.append(f"{module}:{attr}")
    assert not missing


def test_compile_direct_takes_the_benchmarks_cluster_argument():
    from repro.tol import tol
    unit = CodeUnit(uid=1, mode="BBM", entry_pc=0x1000, instrs=[
        HostInstr("chkpt", meta={"guest_pc": 0x1000}),
        HostInstr("exit", meta={"next_pc": 0x1004, "guest_insns": 1})])
    emu = HostEmulator(PagedMemory())
    for traced in (False, True):
        assert callable(tol.compile_direct(unit, emu, traced=traced,
                                           cluster=None))


def test_pass_registry_calls_of_layer_patches_exist():
    from repro.tol.opt import passes
    names = passes.available_passes()
    # The benchmark's per-layer metrics read these passes' spans.
    assert {"constfold", "constprop", "cse", "dce"} <= set(names)
    for name in names:
        original = passes.get_pass(name)
        assert passes.register_pass(name)(original) is original
        assert passes.get_pass(name) is original

