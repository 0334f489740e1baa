"""Parallel sweep runner: determinism across worker counts, persistent
cache correctness (hits, config/source invalidation, corruption), and
per-task failure isolation."""

import os
import pickle
import threading
import time

import pytest

from repro.harness import parallel
from repro.harness.figures import (
    fig4_table, fig5_table, fig6_table, fig7_table, run_suite_metrics,
)
from repro.harness.parallel import (
    ResultCache, SweepJob, code_fingerprint, retry_summary,
    suite_sweep_jobs, sweep,
)
from repro.tol.config import TolConfig

#: Small, fast subset spanning two suites.
WORKLOADS = ("429.mcf", "continuous", "462.libquantum")
SCALE = 0.05


def _jobs(config=None, workloads=WORKLOADS):
    return suite_sweep_jobs(scale=SCALE, config=config,
                            workloads=list(workloads), validate=False)


# -- deterministic parallelism -------------------------------------------------


def test_jobs4_byte_identical_to_jobs1():
    """Fan-out may only change wall-clock: metrics and the rendered
    EXPERIMENTS-style tables must be byte-identical."""
    seq = sweep(_jobs(), n_jobs=1, use_cache=False)
    par = sweep(_jobs(), n_jobs=4, use_cache=False)
    assert all(r.ok for r in seq + par)
    seq_metrics = [r.value for r in seq]
    par_metrics = [r.value for r in par]
    assert seq_metrics == par_metrics
    # Byte-identical per metric (whole-list pickles differ only in memo
    # references when sibling metrics share string objects).
    for seq_m, par_m in zip(seq_metrics, par_metrics):
        assert pickle.dumps(seq_m) == pickle.dumps(par_m)
    for table in (fig4_table, fig5_table, fig6_table, fig7_table):
        assert table(seq_metrics) == table(par_metrics)


def test_run_suite_metrics_sweep_path_matches_seed_loop():
    """The sweep-backed run_suite_metrics returns exactly what the
    sequential in-process loop returns."""
    from repro.workloads import PHYSICS
    plain = run_suite_metrics(scale=0.05, suites=(PHYSICS,),
                              validate=False)
    swept = run_suite_metrics(scale=0.05, suites=(PHYSICS,),
                              validate=False, jobs=2, use_cache=False)
    assert plain == swept


# -- persistent cache ----------------------------------------------------------


def test_cache_hit_replays_identical_results(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    first = sweep(_jobs(), n_jobs=1, cache=cache)
    second = sweep(_jobs(), n_jobs=1, cache=cache)
    assert all(r.ok for r in first + second)
    assert not any(r.cached for r in first)
    assert all(r.cached for r in second)
    assert [r.value for r in first] == [r.value for r in second]
    assert cache.hits == len(WORKLOADS)


def test_cache_misses_after_tolconfig_field_change(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    sweep(_jobs(TolConfig()), n_jobs=1, cache=cache)
    changed = sweep(_jobs(TolConfig(bbm_threshold=11)), n_jobs=1,
                    cache=cache)
    assert all(r.ok for r in changed)
    assert not any(r.cached for r in changed)


def test_cache_misses_after_source_fingerprint_change(tmp_path,
                                                      monkeypatch):
    cache = ResultCache(tmp_path / "cache")
    sweep(_jobs(), n_jobs=1, cache=cache)
    monkeypatch.setattr(parallel, "code_fingerprint",
                        lambda root=None: "0" * 64)
    stale = sweep(_jobs(), n_jobs=1, cache=cache)
    assert all(r.ok for r in stale)
    assert not any(r.cached for r in stale)


def test_code_fingerprint_tracks_file_content(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for root in (a, b):
        root.mkdir()
        (root / "mod.py").write_text("x = 1\n")
    assert code_fingerprint(a) == code_fingerprint(b)
    (b / "mod.py").write_text("x = 2\n")
    assert code_fingerprint(a) != code_fingerprint(b)


def test_corrupted_cache_entry_is_a_miss_not_a_crash(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    sweep(_jobs(), n_jobs=1, cache=cache)
    entries = list((tmp_path / "cache").rglob("*.pkl"))
    assert len(entries) == len(WORKLOADS)
    for path in entries:
        path.write_bytes(path.read_bytes()[:16])  # truncate mid-record
    recomputed = sweep(_jobs(), n_jobs=1, cache=cache)
    assert all(r.ok for r in recomputed)
    assert not any(r.cached for r in recomputed)
    # The corrupted entries were rewritten: a third pass replays.
    replay = sweep(_jobs(), n_jobs=1, cache=cache)
    assert all(r.cached for r in replay)


def _boom_on_load():
    raise ZeroDivisionError("synthetic non-corruption unpickle failure")


class _EvilPayload:
    """Unpickles by raising an error *outside* the expected
    cache-corruption classes."""

    def __reduce__(self):
        return (_boom_on_load, ())


def test_unexpected_cache_error_is_counted_not_silent(tmp_path):
    """An unpickle failure outside CACHE_CORRUPTION_ERRORS still
    degrades to a miss (never kills the sweep) but must land in the
    sweep.errors.swallowed counter; expected corruption must not."""
    cache = ResultCache(tmp_path / "cache")
    key = "c" * 64
    path = cache._path(key)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(pickle.dumps((key, _EvilPayload())))
    before = parallel.SWEEP_ERROR_COUNTERS["sweep.errors.swallowed"]
    assert cache.get(key) is parallel._MISS
    assert parallel.SWEEP_ERROR_COUNTERS["sweep.errors.swallowed"] \
        == before + 1
    assert not path.exists()                 # entry was dropped
    context, summary = parallel.SWEEP_ERROR_LOG[-1]
    assert context.startswith("cache.get:") and "ZeroDivisionError" in summary
    # Plain truncation is an *expected* corruption class: miss, no count.
    cache.put(key, {"v": 1})
    path.write_bytes(path.read_bytes()[:8])
    assert cache.get(key) is parallel._MISS
    assert parallel.SWEEP_ERROR_COUNTERS["sweep.errors.swallowed"] \
        == before + 1


def test_cache_rejects_key_mismatch(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    cache.put("a" * 64, {"v": 1})
    # Simulate a renamed/misfiled entry: stored key disagrees with path.
    src = cache._path("a" * 64)
    dst = cache._path("b" * 64)
    dst.parent.mkdir(parents=True, exist_ok=True)
    os.replace(src, dst)
    assert cache.get("b" * 64) is parallel._MISS


# -- failure isolation ---------------------------------------------------------


def test_unknown_workload_degrades_to_error_record():
    jobs = _jobs(workloads=("429.mcf", "no.such.workload"))
    results = sweep(jobs, n_jobs=2, use_cache=False)
    good, bad = results
    assert good.ok and good.value.name == "429.mcf"
    assert not bad.ok
    assert bad.attempts == 2  # first pass + one isolated retry
    assert "no.such.workload" in bad.error


@parallel.register_task("_test_crash")
def _crash_task():
    os._exit(13)  # hard worker death, not a Python exception


@parallel.register_task("_test_sleep")
def _sleep_task(seconds=60.0):
    time.sleep(seconds)
    return "woke"


class _UnexpectedSweepError(RuntimeError):
    pass


@parallel.register_task("_test_unexpected_raise")
def _unexpected_raise_task():
    raise _UnexpectedSweepError("must surface in the sweep report")


@pytest.mark.parametrize("n_jobs", [1, 2], ids=["inline", "pooled"])
def test_unexpected_worker_exception_surfaces_in_report(n_jobs):
    """Regression: an exception type the harness has no special handling
    for must come back as a full error record in the sweep report —
    never vanish into a bare except."""
    (result,) = sweep([SweepJob(task="_test_unexpected_raise")],
                      n_jobs=n_jobs, use_cache=False, retries=1)
    assert not result.ok
    assert "_UnexpectedSweepError" in result.error
    assert "must surface in the sweep report" in result.error


@parallel.register_task("_test_unpicklable_result")
def _unpicklable_result_task():
    return threading.Lock()


def test_result_the_pipe_cannot_carry_is_an_error_record():
    """A pooled result that cannot be pickled comes back as its job's
    error record, with the traceback; the worker does not die."""
    bad, good = sweep([SweepJob(task="_test_unpicklable_result"),
                       SweepJob(task="_test_sleep", params={"seconds": 0})],
                      n_jobs=2, use_cache=False, retries=1)
    assert not bad.ok and bad.attempts == 2
    assert "cannot pickle '_thread.lock' object" in bad.error
    assert "died" not in bad.error
    assert good.ok and good.value == "woke"


def test_worker_crash_is_isolated_per_task():
    jobs = [SweepJob(task="_test_crash"),
            SweepJob(task="workload_metrics",
                     params={"workload": "continuous", "scale": SCALE,
                             "validate": False})]
    results = sweep(jobs, n_jobs=2, use_cache=False)
    crash, good = results
    assert not crash.ok
    assert "died" in crash.error
    assert good.ok and good.value.name == "continuous"


def test_hung_worker_times_out():
    results = sweep([SweepJob(task="_test_sleep",
                              params={"seconds": 60.0})],
                    n_jobs=2, use_cache=False, timeout=1.0)
    (result,) = results
    assert not result.ok
    assert "timed out" in result.error or "deadline" in result.error


def test_hung_job_charges_only_itself():
    """Each attempt has its own deadline: two hung jobs holding both
    workers time out alone, and the quick jobs queued behind them run
    once and succeed (no retry is charged to them, none "rescues"
    them)."""
    jobs = [SweepJob(task="_test_sleep", params={"seconds": 60.0},
                     label=f"hung{i}") for i in range(2)]
    jobs += [SweepJob(task="_test_sleep", params={"seconds": s},
                      label=f"quick{s}") for s in (0.0, 0.01)]
    hung_a, hung_b, quick_a, quick_b = sweep(
        jobs, n_jobs=2, use_cache=False, timeout=1.0, retries=0)
    assert quick_a.ok and quick_b.ok
    assert quick_a.attempts == quick_b.attempts == 1
    for hung in (hung_a, hung_b):
        assert not hung.ok and hung.attempts == 1
        assert "timed out" in hung.error
    results = sweep(jobs, n_jobs=2, use_cache=False, timeout=1.0)
    assert retry_summary(results) == {"tasks_retried": 2,
                                      "extra_attempts": 2, "rescued": 0}
    (lone,) = sweep(jobs[:1], n_jobs=2, use_cache=False, timeout=0.05,
                    retries=0)
    assert "0.05" in lone.error


def test_error_results_are_not_cached(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    jobs = _jobs(workloads=("no.such.workload",))
    sweep(jobs, n_jobs=1, cache=cache)
    assert not list((tmp_path / "cache").rglob("*.pkl"))


# -- metrics round-trip --------------------------------------------------------


def test_kernel_metrics_pickle_round_trip():
    result = sweep(_jobs(workloads=("continuous",)), n_jobs=1,
                   use_cache=False)[0]
    assert result.ok
    clone = pickle.loads(pickle.dumps(result.value))
    assert clone == result.value
    assert clone.mode_fraction == result.value.mode_fraction
    assert clone.extras == result.value.extras


# -- crash-resumable sweeps ----------------------------------------------------


def _arch_jobs(workloads=("ticker", "blend"), scale=0.3):
    return suite_sweep_jobs(scale=scale, workloads=list(workloads),
                            validate=True, task="arch_run")


def test_arch_sweep_values_are_resume_stable(tmp_path):
    """ArchResult values are byte-identical with and without
    checkpointing (perf counters are deliberately excluded)."""
    plain = sweep(_arch_jobs(), n_jobs=1, use_cache=False)
    ckpt = sweep(_arch_jobs(), n_jobs=1, use_cache=False,
                 checkpoint_dir=tmp_path / "ck")
    assert all(r.ok for r in plain + ckpt)
    assert [r.value for r in plain] == [r.value for r in ckpt]
    assert (pickle.dumps([r.value for r in plain])
            == pickle.dumps([r.value for r in ckpt]))
    # Checkpoints actually landed in the per-job directories.
    job_dirs = [p for p in (tmp_path / "ck").iterdir() if p.is_dir()]
    assert len(job_dirs) == 2
    for d in job_dirs:
        assert list(d.glob("ckpt-*.json"))


def test_interrupted_arch_task_resumes_from_checkpoint(tmp_path):
    """A killed attempt's checkpoints are picked up by --resume: the
    resumed value equals an uninterrupted run's, and resume evidence
    lands in the sidecar log, not in the value."""
    from repro.snapshot.runner import run_checkpointed
    from repro.system.controller import SystemError_
    from repro.workloads import get_workload

    jobs = _arch_jobs(workloads=("ticker",))
    (job,) = jobs
    key = job.key(code_fingerprint())
    job_dir = tmp_path / "ck" / key[:16]

    # Simulate a mid-task kill: run with a tiny event budget so the
    # attempt dies after writing a few checkpoints.
    program = get_workload("ticker").program(scale=0.3)
    with pytest.raises(SystemError_):
        run_checkpointed(program, config=job.params["config"],
                         checkpoint_dir=job_dir, max_events=8)
    assert list(job_dir.glob("ckpt-*.json")), "no checkpoint to resume"

    baseline = sweep(_arch_jobs(workloads=("ticker",)), n_jobs=1,
                     use_cache=False)[0]
    resumed = sweep(jobs, n_jobs=1, use_cache=False,
                    checkpoint_dir=tmp_path / "ck", resume=True)[0]
    assert resumed.ok
    assert resumed.value == baseline.value
    assert pickle.dumps(resumed.value) == pickle.dumps(baseline.value)
    log = (job_dir / "resume.log").read_text()
    assert "resumed from ckpt-" in log


def test_resume_sweep_replays_completed_tasks_from_cache(tmp_path):
    """Rerunning the same sweep command with --resume must not rerun
    completed tasks: they come back as cache hits."""
    cache = ResultCache(tmp_path / "cache")
    first = sweep(_arch_jobs(), n_jobs=1, cache=cache,
                  checkpoint_dir=tmp_path / "ck")
    second = sweep(_arch_jobs(), n_jobs=1, cache=cache,
                   checkpoint_dir=tmp_path / "ck", resume=True)
    assert all(r.ok for r in first + second)
    assert all(r.cached for r in second)
    assert [r.value for r in first] == [r.value for r in second]


def test_checkpoint_params_do_not_change_cache_keys(tmp_path):
    """Where resume points live is execution plumbing, not job identity:
    a result computed without checkpointing is a cache hit for the same
    job run with it."""
    cache = ResultCache(tmp_path / "cache")
    plain = sweep(_arch_jobs(workloads=("ticker",)), n_jobs=1,
                  cache=cache)
    ckpt = sweep(_arch_jobs(workloads=("ticker",)), n_jobs=1,
                 cache=cache, checkpoint_dir=tmp_path / "ck",
                 resume=True)
    assert plain[0].ok and ckpt[0].ok
    assert ckpt[0].cached


def test_results_are_cached_eagerly_as_tasks_resolve(tmp_path):
    """Cache writes happen per-task, not at sweep end, so a sweep killed
    mid-flight keeps everything it finished."""
    cache = ResultCache(tmp_path / "cache")
    seen = []

    def spy(result, done, total):
        seen.append(len(list((tmp_path / "cache").rglob("*.pkl"))))

    sweep(_arch_jobs(), n_jobs=1, cache=cache, progress=spy)
    # After the first task resolved there was already one entry on disk.
    assert seen[0] == 1
    assert seen[-1] == 2
