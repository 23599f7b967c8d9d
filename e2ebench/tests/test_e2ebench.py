"""Tests of the end-to-end benchmark itself, at a tiny scale.

* every workload emits every declared end-to-end metric with the unit
  and direction ``BENCHMARK.json`` gives it, and its answers check out;
* the traced run emits every declared per-layer metric and its files;
* a wrong answer — tampered inside this harness, never in the program —
  fails the correctness check and counts against the attempts;
* without the program beside it the benchmark exits non-zero and prints
  no result;
* times are scaled to reference host speed by the calibration bursts.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from e2ebench import bootstrap  # noqa: E402

bootstrap.require_program()

from e2ebench import calibrate, cli  # noqa: E402
from e2ebench.common import (  # noqa: E402
    END_TO_END, Samples, summarize, tail,
)
from e2ebench.tracing import PER_LAYER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SCALE = 0.03
SECONDS = 0.2


def _declared(section):
    return {m["name"]: m for m in SPEC[section]}


def test_spec_matches_the_code():
    assert sorted(w["name"] for w in SPEC["workloads"]) == \
        sorted(cli.WORKLOADS)
    for name, body in _declared("end_to_end").items():
        assert END_TO_END[name] == (body["unit"], body["better"])
    assert set(_declared("end_to_end")) == set(END_TO_END)
    for name, body in _declared("per_layer").items():
        assert PER_LAYER[name] == (body["unit"], body["better"])
    assert set(_declared("per_layer")) == set(PER_LAYER)


@pytest.mark.parametrize("workload", sorted(cli.WORKLOADS))
def test_every_end_to_end_metric_is_printed(workload, tmp_path,
                                             monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(["--workload", workload, "--seed", "5", "--seconds",
                     str(SECONDS), "--trace", "0", "--scale", str(SCALE)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = _declared("end_to_end")
    assert set(result["metrics"]) == set(declared)
    for name, body in result["metrics"].items():
        assert body["unit"] == declared[name]["unit"]
        assert body["value"] > 0, name
        printed = [line for line in lines[:-1]
                   if line.split()[:1] == [name]]
        assert printed, f"{name} not printed"
        assert printed[0].split()[2:] == [declared[name]["unit"],
                                          declared[name]["better"]]
    record = json.loads(
        (tmp_path / ".bench_out" / f"{workload}-5-trace0.json").read_text())
    assert record["metadata"]["seed"] == 5
    assert record["metadata"]["traced"] is False
    assert {"nproc", "python", "git_rev", "data_dir_filesystem"} <= \
        set(record["metadata"])
    assert {"durable", "checkpoint"} <= set(record["flush_policy"])
    assert {"records", "raw_bytes", "records_sidelined"} <= \
        set(record["data_sizes"])
    for cls in ("covered", "uncovered", "snapshot"):
        assert record["tails"][cls]["samples"] >= 1


@pytest.mark.parametrize("workload", sorted(cli.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    record = cli.run_benchmark(workload, 6, SECONDS * 2, True, tmp_path,
                               scale=SCALE)
    assert record["correct"], record["problems"]
    declared = _declared("per_layer")
    assert set(record["metrics"]) == set(declared)
    for name, body in record["metrics"].items():
        assert body["unit"] == declared[name]["unit"]
    assert record["metrics"]["core.plan_s"]["value"] > 0
    out = tmp_path / ".bench_out"
    spans = [json.loads(line) for line in
             (out / f"spans-{workload}-6.jsonl").read_text().splitlines()]
    assert spans and {"name", "start", "end", "parent_id", "trace_id"} <= \
        set(spans[0])
    table = (out / f"layers-{workload}-6.txt").read_text()
    for module in ("core", "client", "server", "storage", "engine",
                   "service", "recovery"):
        assert module in table


def test_a_wrong_answer_fails_the_check(tmp_path):
    tampered = []

    def tamper(sql, answer):
        if not tampered:
            tampered.append(sql)
            return answer + b" "
        return answer

    record = cli.run_benchmark("yelp_load_A", 7, SECONDS, False, tmp_path,
                               scale=SCALE, tamper=tamper)
    assert tampered
    assert record["correct"] is False
    assert record["failed"] == 1
    assert record["attempted"] > 1
    assert any(tampered[0] in problem for problem in record["problems"])


def test_without_the_program_it_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "yelp_load_A",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_tail_is_the_eleventh_largest_sample():
    values = list(range(100))
    value, percentile, n = tail(values)
    assert (value, n) == (89, 100)
    assert percentile == 90.0
    assert tail([5.0, 1.0])[1] == 100.0


def test_times_are_scaled_to_reference_host_speed(monkeypatch):
    samples = Samples()
    monkeypatch.setattr(calibrate, "burst",
                        lambda: 2 * calibrate.REFERENCE_S)
    samples.calibrate()  # a slow host: bursts take twice the reference
    samples.end_to_end(0.4)
    samples.load(1000, 0.5)
    samples.query_time(1.0)
    for cls in ("covered", "uncovered", "snapshot"):
        samples.latency(cls, 0.010)
    samples.storage(1, 1)
    scaled, _ = summarize(samples)
    wall, _ = summarize(samples, scaled=False)
    assert scaled["end_to_end_s"]["value"] == pytest.approx(0.2)
    assert wall["end_to_end_s"]["value"] == pytest.approx(0.4)
    assert scaled["load_records_per_s"]["value"] == pytest.approx(4000)
    assert scaled["covered_query_p50_ms"]["value"] == pytest.approx(5.0)
    assert scaled["queries_per_s"]["value"] == \
        pytest.approx(2 * wall["queries_per_s"]["value"])
