"""One benchmark run: set up, measure, check answers, report.

:func:`run_benchmark` is the whole run as a function (the tests call it
at a tiny scale); :func:`main` is the command line ``run.py`` exposes.

Untraced (``--trace 0``): set-up runs :data:`SETUP_REPEATS` times, each
followed by an equal share of the ``--seconds`` of measurement, and
``setup_s`` is the median.  The result's metrics are the end-to-end set,
every time at reference host speed (:mod:`e2ebench.calibrate`); the
record file also keeps them as plain wall-clock figures.

Traced (``--trace 1``): the run measures twice, half the time each —
first untraced, then with :class:`~e2ebench.tracing.Instrumentation`
installed (set-up included, so ``core.plan_s`` is seen) — and reports
the per-layer metrics of the traced half plus the tracing overhead on
``end_to_end_s`` and ``load_records_per_s``.  Spans go to
``.bench_out/spans-<workload>-<seed>.jsonl`` and the per-module table to
``.bench_out/layers-<workload>-<seed>.txt``.

Every run also writes ``.bench_out/<workload>-<seed>-trace<0|1>.json``
with the run metadata, flush policy, data sizes, tail percentiles and
the checks that failed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, Optional

from . import adhoc_remote, bootstrap, durable_ingest, yelp_load
from .common import (
    Checks,
    END_TO_END,
    Samples,
    emit,
    run_metadata,
    summarize,
)
from .inputs import Oracle, prospective_workload
from .tracing import (
    PER_LAYER,
    Instrumentation,
    format_table,
    layer_report,
    merge,
    write_spans,
)

WORKLOADS = {
    "yelp_load_A": yelp_load,
    "yelp_adhoc_remote": adhoc_remote,
    "winlog_ingest_durable": durable_ingest,
}
DATASET = {
    "yelp_load_A": "yelp",
    "yelp_adhoc_remote": "yelp",
    "winlog_ingest_durable": "winlog",
}
SETUP_REPEATS = 3
WORK_DIR = ".bench_work"
OUT_DIR = ".bench_out"

Tamper = Optional[Callable[[str, bytes], bytes]]


def _note_setup_load(dep, samples: Samples, at: float) -> None:
    """A workload whose set-up loads its table reports that load."""
    setup_load = getattr(dep, "setup_load", None)
    if setup_load is not None:
        samples.load(*setup_load, at=at)


def _verify(module, dep, checks: Checks) -> None:
    """Checks a workload makes after its timed phase, untraced."""
    verify = getattr(module, "verify", None)
    if verify is not None:
        verify(dep, checks)


def _expect(dep, oracle: Oracle) -> None:
    """Reference answers for every query the run may ask (untimed)."""
    dep.expected = {sql: oracle[sql] for sql in dep.all_sql()}


def _measure_untraced(module, name: str, seed: int, seconds: float,
                      workdir: Path, scale: float, repeats: int,
                      checks: Checks, tamper: Tamper,
                      setup_loads: bool = True):
    """Set up *repeats* times, each followed by a share of the timed phase.

    *setup_loads* counts a set-up's table load among the load samples.
    Spreading the set-ups over the run, instead of bunching them at its
    start, lets ``setup_s`` see the same host conditions as the other
    metrics: CPU speed on a shared host drifts over seconds.
    """
    samples = Samples()
    dep = oracle = None
    try:
        for attempt in range(repeats):
            if dep is not None:
                dep.close()
            samples.calibrate()
            began = time.perf_counter()
            dep = module.setup(seed, workdir / f"setup-{attempt}", scale)
            ended = time.perf_counter()
            samples.setup(ended - began)
            samples.calibrate(getattr(dep, "server", None))
            if setup_loads:
                _note_setup_load(dep, samples, (began + ended) / 2)
            if oracle is None:
                oracle = Oracle(prospective_workload(DATASET[name]),
                                dep.lines, workdir / "oracle")
            _expect(dep, oracle)
            module.measure(dep, seconds / repeats, samples, checks, tamper)
        _verify(module, dep, checks)
    finally:
        if dep is not None:
            dep.close()
        if oracle is not None:
            oracle.close()
    return samples, dep, oracle


def run_benchmark(name: str, seed: int, seconds: float, trace: bool,
                  root: Path, scale: float = 1.0,
                  tamper: Tamper = None) -> Dict[str, Any]:
    """Run one workload; returns the full result record."""
    module = WORKLOADS[name]
    workdir = root / WORK_DIR / name
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    checks = Checks()
    record: Dict[str, Any] = {
        "workload": name,
        "metadata": run_metadata(bootstrap.ROOT, workdir, seed, trace),
    }
    if not trace:
        samples, dep, _ = _measure_untraced(
            module, name, seed, seconds, workdir / "untraced", scale,
            SETUP_REPEATS, checks, tamper)
        rss_kb = module.peak_rss_kb(dep)
        metrics, tails = summarize(samples, rss_kb)
        record["wall_clock_metrics"], _ = summarize(samples, rss_kb,
                                                    scaled=False)
        record["calibration"] = samples.calibration.summary()
        record["samples"] = {
            "setup_s": [s for _, s in samples.setup_s],
            "load_records_per_s": [r / s for _, r, s in samples.loads
                                   if s > 0],
            "end_to_end_s": [s for _, s in samples.end_to_end_s],
        }
    else:
        metrics, tails, dep = _run_traced(
            module, name, seed, seconds, workdir, scale, checks, tamper,
            root)
    record.update({
        "flush_policy": dep.flush_policy(),
        "data_sizes": dep.data_sizes(),
        "tails": tails,
        "metrics": metrics,
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "problems": checks.problems,
    })
    out = root / OUT_DIR
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}-{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True, default=str))
    return record


def _run_traced(module, name, seed, seconds, workdir, scale, checks,
                tamper, root):
    half = seconds / 2.0
    # The overhead compares loads that ran in the timed phase of each
    # half; a set-up's table load runs untraced in both.
    plain, _, _ = _measure_untraced(
        module, name, seed, half, workdir / "untraced", scale, 1, checks,
        tamper, setup_loads=False)
    plain_metrics, _ = summarize(plain)

    samples = Samples()
    setup_inst = Instrumentation("setup")
    inst = Instrumentation("bench")
    dep = oracle = None
    try:
        with setup_inst:
            dep = module.setup(seed, workdir / "traced", scale, inst)
        oracle = Oracle(prospective_workload(DATASET[name]), dep.lines,
                        workdir / "oracle")
        _expect(dep, oracle)
        inst.tracer.drain()
        with inst:
            loads = module.measure(dep, half, samples, checks, tamper, inst)
        _verify(module, dep, checks)
    finally:
        if dep is not None:
            dep.close()
        if oracle is not None:
            oracle.close()
    traced_metrics, tails = summarize(samples)
    parts = [inst.export(), setup_inst.export(only_prefix="core.")]
    server = getattr(dep, "server", None)
    if server is not None and server.records:
        parts.append(server.records)
    records = merge(parts)
    metrics, table = layer_report(records, loads)

    def slowdown(metric: str, higher_is_better: bool) -> float:
        before = plain_metrics[metric]["value"]
        after = traced_metrics[metric]["value"]
        if higher_is_better:
            return before / after - 1.0 if after else 0.0
        return after / before - 1.0 if before else 0.0

    metrics["trace.overhead_end_to_end_frac"] = slowdown("end_to_end_s",
                                                         False)
    metrics["trace.overhead_load_frac"] = slowdown("load_records_per_s",
                                                   True)
    out = root / OUT_DIR
    write_spans(out / f"spans-{name}-{seed}.jsonl", records["spans"])
    text = format_table(table, metrics)
    (out / f"layers-{name}-{seed}.txt").write_text(text + "\n")
    print(text)
    layer_metrics = {
        key: {"value": float(metrics[key]), "unit": PER_LAYER[key][0]}
        for key in PER_LAYER
    }
    return layer_metrics, tails, dep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="CIAO end-to-end benchmark (one workload per run)")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink the inputs (the benchmark's tests)")
    args = parser.parse_args(argv)
    try:
        record = run_benchmark(args.workload, args.seed, args.seconds,
                               bool(args.trace), Path.cwd(), args.scale)
    except Exception:  # no result: report why and exit non-zero
        traceback.print_exc()
        print("e2ebench: the run failed; no result", file=sys.stderr)
        return 3
    details = {k: record[k] for k in ("workload", "metadata", "flush_policy",
                                      "data_sizes", "tails", "problems")}
    print(json.dumps(details, sort_keys=True, default=str))
    directions = {**END_TO_END, **PER_LAYER}
    for metric, body in record["metrics"].items():
        better = directions[metric][1]
        print(f"{metric:<44} {body['value']:>16.4f} {body['unit']:<10} "
              f"{better}")
    emit({key: record[key]
          for key in ("correct", "attempted", "failed", "metrics")})
    return 0 if record["correct"] else 1
