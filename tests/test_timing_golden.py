"""Golden cycle reports for the in-order timing model.

Pins ``core.report()`` and ``stats.by_class`` as absolute values, so a
change to the timing step that moves one cycle, one stall or one class
count fails here even when every delivery path moves together (the
differential suite in ``test_timing_annotation.py`` only compares the
paths with each other).  Covered:

- per-instruction ``InOrderCore.feed`` streams (test_power's loaded
  core at issue widths 1, 2 and 4; test_timing's mispredict stream);
- ``run_with_timing`` on the identity suite's four workloads, below
  its scale, on both execution tiers, in the generated forms and in
  the reference forms (``host_fastpath=False``, the ``per-record``
  mode), and once tiered up to compiled appliers from the first batch;
- two core configurations the identity suite does not reach: four
  simple units at issue/fetch width 4/8 (lowest-ready selection over
  three or more units) and two memory read and write ports, on all
  three delivery paths.
"""

import random

import pytest

import repro.timing.annotate as annotate
from repro.timing.config import TimingConfig
from repro.timing.core import InOrderCore
from repro.timing.run import run_with_timing
from repro.tol.config import TolConfig
from repro.workloads import get_workload


def _loaded_core(config):
    """test_power's ``_loaded_core`` stream (5,000 instructions)."""
    core = InOrderCore(config)
    for i in range(5000):
        pc = 0x1000 + (i % 64) * 4
        if i % 5 == 0:
            core.feed(pc, "load", 1, (2,), mem_addr=0x8000 + (i % 128) * 64)
        elif i % 7 == 0:
            core.feed(pc, "branch", None, (1,), branch=(True, 0x1000))
        else:
            core.feed(pc, "simple", 3, (1,))
    return core


def _mispredict_core():
    """test_timing's mispredicted-branch stream."""
    rng = random.Random(7)
    core = InOrderCore(TimingConfig())
    for i in range(2000):
        taken = rng.random() < 0.5
        core.feed(0x1000, "branch", None, (3,), branch=(taken, 0x2000))
        core.feed(0x1004 + i % 16 * 4, "simple", 4, (5,))
    return core


def _wide_config():
    """``sweep_issue_width``'s width-4 point: four simple units."""
    cfg = TimingConfig(issue_width=4, fetch_width=8)
    cfg.units = dict(cfg.units)
    cfg.units["simple"] = (4, 1, True)
    return cfg


FEEDS = {
    "feed-w1": lambda: _loaded_core(TimingConfig(issue_width=1)),
    "feed-w2": lambda: _loaded_core(TimingConfig(issue_width=2)),
    "feed-w4": lambda: _loaded_core(TimingConfig(issue_width=4)),
    "feed-mispredict": _mispredict_core,
}

FAST = dict(bbm_threshold=3, sbm_threshold=8)
DIRECT = dict(bbm_threshold=3, sbm_threshold=8, mem_speculation=False)

BOTH = ("annotated", "per-record")
ALL = BOTH + ("compiled",)

#: name -> (workload, scale, TolConfig kwargs, TimingConfig factory,
#: delivery modes pinned: the generated forms, the reference forms, and
#: tiered up to compiled appliers from the first batch)
RUNS = {
    "int-fastpath": ("401.bzip2", 0.03, FAST, None, ALL),
    "int-direct": ("401.bzip2", 0.03, DIRECT, None, BOTH),
    "fp-fastpath": ("450.soplex", 0.05, FAST, None, BOTH),
    "fp-direct": ("450.soplex", 0.05, DIRECT, None, BOTH),
    "string-fastpath": ("400.perlbench", 0.015, FAST, None, BOTH),
    "string-direct": ("400.perlbench", 0.015, DIRECT, None, BOTH),
    "syscall-fastpath": ("ticker", 0.25, FAST, None, BOTH),
    "syscall-direct": ("ticker", 0.25, DIRECT, None, BOTH),
    "wide4": ("429.mcf", 0.02, FAST, _wide_config, ALL),
    "ports2": ("429.mcf", 0.02, FAST,
               lambda: TimingConfig(mem_read_ports=2, mem_write_ports=2),
               ALL),
}


def _observed(core):
    return core.report(), dict(sorted(core.stats.by_class.items()))


def feed_observed(name):
    return _observed(FEEDS[name]())


def run_observed(name, mode, monkeypatch=None):
    workload, scale, tol_kwargs, timing, _modes = RUNS[name]
    if mode == "compiled":
        monkeypatch.setattr(annotate, "COMPILE_AT_PER_INSN", 0)
        monkeypatch.setattr(annotate, "COMPILE_AT_BASE", 0)
    program = get_workload(workload).program(scale=scale)
    result, _controller, core = run_with_timing(
        program, tol_config=TolConfig(
            **tol_kwargs, host_fastpath=mode != "per-record"),
        timing_config=timing() if timing is not None else None,
        validate=False)
    assert result.exit_code == 0
    return _observed(core)


#: name -> (core.report(), stats.by_class), recorded before the timing step
#: was generated from one emitter.
GOLDEN = {'feed-mispredict': ({'instructions': 4000,
                      'cycles': 13810,
                      'ipc': 0.2896,
                      'branches': 2000,
                      'mispredict_rate': 0.482,
                      'l1d_miss_rate': 0.0,
                      'l2_miss_rate': 1.0,
                      'l1i_miss_rate': 0.008,
                      'dtlb_misses': 0,
                      'prefetches_issued': 0,
                      'prefetch_hits': 0,
                      'stalls': {'raw': 0,
                                 'unit': 2790,
                                 'memport': 0,
                                 'iq': 0,
                                 'frontend': 238}},
                     {'branch': 2000, 'simple': 2000}),
 'feed-w1': ({'instructions': 5000,
              'cycles': 22987,
              'ipc': 0.2175,
              'branches': 572,
              'mispredict_rate': 0.1119,
              'l1d_miss_rate': 0.128,
              'l2_miss_rate': 1.0,
              'l1i_miss_rate': 0.0128,
              'dtlb_misses': 2,
              'prefetches_issued': 0,
              'prefetch_hits': 0,
              'stalls': {'raw': 71659,
                         'unit': 0,
                         'memport': 0,
                         'iq': 6436,
                         'frontend': 476}},
             {'branch': 572, 'load': 1000, 'simple': 3428}),
 'feed-w2': ({'instructions': 5000,
              'cycles': 20987,
              'ipc': 0.2382,
              'branches': 572,
              'mispredict_rate': 0.1119,
              'l1d_miss_rate': 0.128,
              'l2_miss_rate': 1.0,
              'l1i_miss_rate': 0.0128,
              'dtlb_misses': 2,
              'prefetches_issued': 0,
              'prefetch_hits': 0,
              'stalls': {'raw': 118035,
                         'unit': 94566,
                         'memport': 0,
                         'iq': 4789,
                         'frontend': 476}},
             {'branch': 572, 'load': 1000, 'simple': 3428}),
 'feed-w4': ({'instructions': 5000,
              'cycles': 20039,
              'ipc': 0.2495,
              'branches': 572,
              'mispredict_rate': 0.1119,
              'l1d_miss_rate': 0.128,
              'l2_miss_rate': 1.0,
              'l1i_miss_rate': 0.0128,
              'dtlb_misses': 2,
              'prefetches_issued': 0,
              'prefetch_hits': 0,
              'stalls': {'raw': 106728,
                         'unit': 84214,
                         'memport': 0,
                         'iq': 3970,
                         'frontend': 476}},
             {'branch': 572, 'load': 1000, 'simple': 3428}),
 'fp-direct': ({'instructions': 96632,
                'cycles': 156850,
                'ipc': 0.6161,
                'branches': 9218,
                'mispredict_rate': 0.0791,
                'l1d_miss_rate': 0.0116,
                'l2_miss_rate': 0.9161,
                'l1i_miss_rate': 0.0355,
                'dtlb_misses': 5,
                'prefetches_issued': 40,
                'prefetch_hits': 40,
                'stalls': {'raw': 2035965,
                           'unit': 710464,
                           'memport': 2018,
                           'iq': 99569,
                           'frontend': 23980}},
               {'branch': 9218,
                'complex': 129,
                'fp': 8960,
                'fp_div': 1029,
                'load': 13389,
                'simple': 58581,
                'store': 5326}),
 'fp-fastpath': ({'instructions': 96632,
                  'cycles': 156850,
                  'ipc': 0.6161,
                  'branches': 9218,
                  'mispredict_rate': 0.0791,
                  'l1d_miss_rate': 0.0116,
                  'l2_miss_rate': 0.9161,
                  'l1i_miss_rate': 0.0355,
                  'dtlb_misses': 5,
                  'prefetches_issued': 40,
                  'prefetch_hits': 40,
                  'stalls': {'raw': 2035965,
                             'unit': 710464,
                             'memport': 2018,
                             'iq': 99569,
                             'frontend': 23980}},
                 {'branch': 9218,
                  'complex': 129,
                  'fp': 8960,
                  'fp_div': 1029,
                  'load': 13389,
                  'simple': 58581,
                  'store': 5326}),
 'int-direct': ({'instructions': 227909,
                 'cycles': 264939,
                 'ipc': 0.8602,
                 'branches': 22874,
                 'mispredict_rate': 0.0476,
                 'l1d_miss_rate': 0.0023,
                 'l2_miss_rate': 0.7273,
                 'l1i_miss_rate': 0.0361,
                 'dtlb_misses': 4,
                 'prefetches_issued': 12,
                 'prefetch_hits': 12,
                 'stalls': {'raw': 3960368,
                            'unit': 519090,
                            'memport': 48,
                            'iq': 193636,
                            'frontend': 41303}},
                {'branch': 22874,
                 'complex': 686,
                 'load': 39324,
                 'simple': 146328,
                 'store': 18697}),
 'int-fastpath': ({'instructions': 227909,
                   'cycles': 264939,
                   'ipc': 0.8602,
                   'branches': 22874,
                   'mispredict_rate': 0.0476,
                   'l1d_miss_rate': 0.0023,
                   'l2_miss_rate': 0.7273,
                   'l1i_miss_rate': 0.0361,
                   'dtlb_misses': 4,
                   'prefetches_issued': 12,
                   'prefetch_hits': 12,
                   'stalls': {'raw': 3960368,
                              'unit': 519090,
                              'memport': 48,
                              'iq': 193636,
                              'frontend': 41303}},
                  {'branch': 22874,
                   'complex': 686,
                   'load': 39324,
                   'simple': 146328,
                   'store': 18697}),
 'ports2': ({'instructions': 298836,
             'cycles': 335862,
             'ipc': 0.8898,
             'branches': 29451,
             'mispredict_rate': 0.0399,
             'l1d_miss_rate': 0.0035,
             'l2_miss_rate': 0.7219,
             'l1i_miss_rate': 0.0277,
             'dtlb_misses': 5,
             'prefetches_issued': 8,
             'prefetch_hits': 8,
             'stalls': {'raw': 5152826,
                        'unit': 893579,
                        'memport': 0,
                        'iq': 250719,
                        'frontend': 40121}},
            {'branch': 29451,
             'complex': 846,
             'load': 48954,
             'simple': 197028,
             'store': 22557}),
 'string-direct': ({'instructions': 262368,
                    'cycles': 290202,
                    'ipc': 0.9041,
                    'branches': 26277,
                    'mispredict_rate': 0.0295,
                    'l1d_miss_rate': 0.0016,
                    'l2_miss_rate': 0.5843,
                    'l1i_miss_rate': 0.0385,
                    'dtlb_misses': 5,
                    'prefetches_issued': 26,
                    'prefetch_hits': 26,
                    'stalls': {'raw': 4675801,
                               'unit': 501953,
                               'memport': 24,
                               'iq': 225778,
                               'frontend': 40201}},
                   {'branch': 26277,
                    'complex': 766,
                    'load': 46711,
                    'simple': 166480,
                    'store': 22134}),
 'string-fastpath': ({'instructions': 262368,
                      'cycles': 290202,
                      'ipc': 0.9041,
                      'branches': 26277,
                      'mispredict_rate': 0.0295,
                      'l1d_miss_rate': 0.0016,
                      'l2_miss_rate': 0.5843,
                      'l1i_miss_rate': 0.0385,
                      'dtlb_misses': 5,
                      'prefetches_issued': 26,
                      'prefetch_hits': 26,
                      'stalls': {'raw': 4675801,
                                 'unit': 501953,
                                 'memport': 24,
                                 'iq': 225778,
                                 'frontend': 40201}},
                     {'branch': 26277,
                      'complex': 766,
                      'load': 46711,
                      'simple': 166480,
                      'store': 22134}),
 'syscall-direct': ({'instructions': 21611,
                     'cycles': 73876,
                     'ipc': 0.2925,
                     'branches': 1961,
                     'mispredict_rate': 0.5431,
                     'l1d_miss_rate': 0.0221,
                     'l2_miss_rate': 0.9534,
                     'l1i_miss_rate': 0.2137,
                     'dtlb_misses': 3,
                     'prefetches_issued': 8,
                     'prefetch_hits': 8,
                     'stalls': {'raw': 424684,
                                'unit': 44622,
                                'memport': 0,
                                'iq': 17492,
                                'frontend': 32101}},
                    {'branch': 1961,
                     'complex': 301,
                     'load': 3546,
                     'simple': 13865,
                     'store': 1938}),
 'syscall-fastpath': ({'instructions': 21611,
                       'cycles': 73876,
                       'ipc': 0.2925,
                       'branches': 1961,
                       'mispredict_rate': 0.5431,
                       'l1d_miss_rate': 0.0221,
                       'l2_miss_rate': 0.9534,
                       'l1i_miss_rate': 0.2137,
                       'dtlb_misses': 3,
                       'prefetches_issued': 8,
                       'prefetch_hits': 8,
                       'stalls': {'raw': 424684,
                                  'unit': 44622,
                                  'memport': 0,
                                  'iq': 17492,
                                  'frontend': 32101}},
                      {'branch': 1961,
                       'complex': 301,
                       'load': 3546,
                       'simple': 13865,
                       'store': 1938}),
 'wide4': ({'instructions': 298836,
            'cycles': 323422,
            'ipc': 0.924,
            'branches': 29451,
            'mispredict_rate': 0.0399,
            'l1d_miss_rate': 0.0035,
            'l2_miss_rate': 0.7219,
            'l1i_miss_rate': 0.0277,
            'dtlb_misses': 5,
            'prefetches_issued': 8,
            'prefetch_hits': 8,
            'stalls': {'raw': 5214909,
                       'unit': 299088,
                       'memport': 48,
                       'iq': 245647,
                       'frontend': 40121}},
           {'branch': 29451,
            'complex': 846,
            'load': 48954,
            'simple': 197028,
            'store': 22557})}


@pytest.mark.parametrize("name", sorted(FEEDS))
def test_feed_stream_golden(name):
    assert feed_observed(name) == GOLDEN[name]


@pytest.mark.parametrize("name,mode", [
    (name, mode) for name in sorted(RUNS) for mode in RUNS[name][4]])
def test_run_with_timing_golden(name, mode, monkeypatch):
    assert run_observed(name, mode, monkeypatch) == GOLDEN[name]
