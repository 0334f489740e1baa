"""Self-tests of the DARCO benchmark.  Run explicitly (not part of tier-1):

    PYTHONPATH=src python3 -m pytest benchmarks/darco/test_darco_bench.py -q

- every workload's ``--smoke`` pass prints every end-to-end metric of
  ``BENCHMARK.json`` with its unit, with correct outputs;
- a traced run covers at least 95% of the traced wall time with named
  layers, reproduces the pinned digests, and writes a Chrome trace file
  that ``tools/validate_trace.py`` accepts;
- a slowdown planted in one layer is flagged by that layer's self time
  and by no other layer's.
"""

from __future__ import annotations

import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(HERE))

from spans import LayerPatches, SpanTracer  # noqa: E402
from workloads import WORKLOADS, Item, run_item  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT,
        timeout=170)
    assert proc.returncode == 0, proc.stderr.decode()[-3000:]
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def test_smoke_prints_every_end_to_end_metric():
    started = time.perf_counter()
    for workload in WORKLOADS:
        line = _run("--workload", workload, "--smoke", "--seed", "7")
        assert line["correct"] and line["failed"] == 0
        assert line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"]
                                         for m in SPEC["end_to_end"]]
        for m in SPEC["end_to_end"]:
            entry = line["metrics"][m["name"]]
            assert entry["unit"] == m["unit"]
            assert entry["value"] > 0, (workload, m["name"])
    # The smoke pass is meant to take under 30 s; allow a loaded host 2x.
    assert time.perf_counter() - started < 60


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_covers_wall_and_writes_valid_trace(workload, tmp_path):
    import validate_trace
    out = tmp_path / "run.json"
    line = _run("--workload", workload, "--smoke", "--seed", "7",
                "--trace", "1", "--out", str(out))
    assert line["correct"], "traced run changed a simulated output"
    assert [m for m in line["metrics"]] == [m["name"]
                                            for m in SPEC["per_layer"]]
    assert line["metrics"]["trace.coverage"]["value"] >= 0.95
    assert "trace.overhead_frac" in line["metrics"]
    assert validate_trace.validate(str(out) + ".trace.json") == []


# ---------------------------------------------------------------------------
# Planted slowdowns.
# ---------------------------------------------------------------------------

#: Per planted layer: the boundary slowed, items on which the layer does
#: measurable work, and rounds over them.  A region becomes a superblock
#: only once hot: Physicsbench at scale 0.5 forms 140-170 (at 0.4 none);
#: the x86 component does much of every item's work, so small items do.
#: On a shared host one run-to-run comparison is noisy (its interquartile
#: range reaches 15% for these two layers); only the median of many
#: pairs (72 and 108) tells a 10% plant from that noise reliably.
PLANTS = {
    "xl.sb": (("repro.tol.translate", "Translator", "translate_superblock"),
              [Item("continuous", 0.5), Item("periodic", 0.5),
               Item("ragdoll", 0.5)], 24),
    "x86": (("repro.system.x86comp", "X86Component", "run_to_icount"),
            [Item("breakable", 0.05), Item("highspeed", 0.05),
             Item("445.gobmk", 0.03)], 36),
}
#: A rise no larger than this never flags a layer.
NOISE_FLOOR = 0.05


def _busy(fn, share: float, tracer: SpanTracer):
    """``fn`` slowed by ``share`` of each call's self time: its duration
    minus the child spans ``tracer`` recorded under it.  Installed before
    :class:`LayerPatches`, so the busy-wait runs inside the layer's span
    and counts in its self time."""
    clock = time.perf_counter

    def slowed(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            now = clock()
            until = now + share * (now - t0 - tracer.open_children_s())
            while clock() < until:
                pass
    return slowed


def _relative_self_times(owner, name, layer, items, rounds) -> dict:
    """Per (round, item) pair, the layer self times of three variants --
    ``base`` and ``again`` unplanted, ``plant`` with ``owner.name`` slowed
    by 10% of its self time -- run back to back in rotating order.  Each
    run's times are taken relative to its total outside ``layer``: a
    shared host's speed drifts by more than 10% between runs, and the
    rest of the program is the clock that drifts with it."""
    original = owner.__dict__[name]
    order = ["base", "plant", "again"]
    pairs = []
    for r in range(rounds):
        for k, item in enumerate(items):
            shift = (r + k) % len(order)
            pair = {}
            for variant in order[shift:] + order[:shift]:
                tracer = SpanTracer(keep=0)
                # A collection pause lands in whichever layer allocated
                # last; with the collector off no layer is charged for it.
                gc.collect()
                gc.disable()
                if variant == "plant":
                    setattr(owner, name, _busy(original, 0.10, tracer))
                try:
                    with LayerPatches(tracer), tracer.span("item"):
                        run_item(item)
                finally:
                    setattr(owner, name, original)
                    gc.enable()
                times = {n: acc.self_s for n, acc in tracer.layers.items()}
                rest = sum(s for n, s in times.items() if n != layer)
                pair[variant] = {n: s / rest for n, s in times.items()}
            pairs.append(pair)
    return pairs


@pytest.mark.parametrize("layer", sorted(PLANTS))
def test_planted_slowdown_is_flagged_only_by_its_layer(layer):
    """The planted layer rises by at least 8% (the median over pairs of
    planted / unplanted); every other layer rises by no more than its
    noise, the interquartile range of unplanted / unplanted."""
    import importlib
    (module, cls, method), items, rounds = PLANTS[layer]
    owner = getattr(importlib.import_module(module), cls)
    for item in items:
        # An item's first run in a process is the slowest: keep it out.
        run_item(item)
    pairs = _relative_self_times(owner, method, layer, items, rounds)
    names = [n for n in pairs[0]["base"]
             if all(p["base"].get(n, 0) > 0 for p in pairs)]
    assert layer in names, f"{layer} did not run on every item"
    for name in names:
        rise = statistics.median(p["plant"].get(name, 0) / p["base"][name]
                                 for p in pairs) - 1.0
        if name == layer:
            assert rise >= 0.08, (name, rise)
        else:
            q1, _, q3 = statistics.quantiles(
                [p["again"].get(name, 0) / p["base"][name] for p in pairs],
                n=4)
            assert rise <= max(q3 - q1, NOISE_FLOOR), (name, rise, q3 - q1)
