"""The server process of the remote workloads, and its launcher.

The benchmark starts it (:class:`ServerProcess`), never by hand; from
the checkout root it runs as::

    python3 -m e2ebench.server_proc --mode durable|served \
        --dataset NAME --data-dir DIR --plan PLAN.json --seed N \
        --chunk-size N [--lines LINES.jsonl] --trace 0|1 --report OUT.json

* ``durable`` (``winlog_ingest_durable``): an empty, 2-thread-shard,
  ``durable=True`` deployment that checkpoints after every applied
  CHUNKS batch; remote writers load into it.
* ``served`` (``yelp_adhoc_remote``): a serial deployment that first
  loads ``--lines`` under the plan, then serves the finalized table.

The server prints one JSON line (its address, and for ``served`` the
set-up load's record count, seconds and sidelined records), serves
until a line reading ``stop`` (or end of input) arrives on standard
input, then shuts down and writes OUT.json.  A line reading ``burst``
runs one host-speed calibration burst (:mod:`e2ebench.calibrate`) and
prints ``{"burst_s": ...}``.  OUT.json holds its peak resident set and,
when traced, its span/timer/count records.  Its own process keeps the
benchmark's client threads off the server's interpreter lock, as the
paper's clients and server are separate machines.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import bootstrap

bootstrap.require_program()

from repro.api import CiaoSession, DeploymentConfig, LineSource  # noqa: E402
from repro.core.plan_io import dumps_plan, loads_plan  # noqa: E402
from repro.service import CiaoService  # noqa: E402

from .calibrate import burst  # noqa: E402
from .common import BenchmarkError, peak_rss_kb  # noqa: E402
from .inputs import prospective_workload  # noqa: E402

N_SHARDS = 2
START_TIMEOUT = 120.0


def _config(mode: str, chunk_size: int) -> DeploymentConfig:
    if mode == "durable":
        return DeploymentConfig(mode="sharded", n_shards=N_SHARDS,
                                shard_mode="thread", durable=True,
                                chunk_size=chunk_size)
    return DeploymentConfig(chunk_size=chunk_size)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=("durable", "served"))
    parser.add_argument("--dataset", required=True)
    parser.add_argument("--data-dir", required=True, type=Path)
    parser.add_argument("--plan", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--chunk-size", required=True, type=int)
    parser.add_argument("--lines", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", required=True, type=Path)
    args = parser.parse_args(argv)

    inst = None
    obs: Dict[str, Any] = {}
    if args.trace:
        from .tracing import Instrumentation
        inst = Instrumentation("server")
        obs = {"tracer": inst.tracer, "metrics": inst.metrics}
    session = CiaoSession(
        prospective_workload(args.dataset),
        config=_config(args.mode, args.chunk_size),
        data_dir=args.data_dir,
        plan=loads_plan(args.plan.read_text(encoding="utf-8")),
        seed=args.seed,
        **obs,
    )
    hello: Dict[str, Any] = {}
    if args.mode == "served":
        lines = args.lines.read_text(encoding="utf-8").splitlines()
        start = time.perf_counter()
        report = session.load(LineSource(lines, name=args.dataset)).result()
        hello["setup_load"] = [report.received,
                               time.perf_counter() - start]
        hello["sidelined"] = report.sidelined
        hello["table_dir"] = str(session.server.data_dir)
    if inst is not None:
        # The set-up load is not part of what the traced phase measures.
        inst.tracer.drain()
        inst.install()
    service = CiaoService(
        session, checkpoint_every=1 if args.mode == "durable" else None)
    try:
        hello["address"] = list(service.address)
        print(json.dumps(hello), flush=True)
        for line in iter(sys.stdin.readline, ""):
            command = line.strip()
            if command == "stop":
                break
            if command == "burst":
                print(json.dumps({"burst_s": burst()}), flush=True)
        admission = service.admission.stats
    finally:
        service.close()
        session.close()
    out: Dict[str, Any] = {"peak_rss_kb": peak_rss_kb()}
    if inst is not None:
        inst.uninstall()
        out["records"] = inst.export(
            extra_counts={"service.peak_queued": admission.peak_queued})
    args.report.write_text(json.dumps(out), encoding="utf-8")
    return 0


class ServerProcess:
    """Starts the server process and stops it (the benchmark side)."""

    def __init__(self, mode: str, dataset: str, workdir: Path, plan,
                 seed: int, chunk_size: int, trace: bool,
                 lines: Optional[List[str]] = None):
        workdir.mkdir(parents=True, exist_ok=True)
        plan_path = workdir / "plan.json"
        plan_path.write_text(dumps_plan(plan), encoding="utf-8")
        self.report_path = workdir / "server-report.json"
        self.report: Optional[Dict[str, Any]] = None
        self.data_dir = workdir / "server"
        command = [
            sys.executable, "-m", "e2ebench.server_proc", "--mode", mode,
            "--dataset", dataset, "--data-dir", str(self.data_dir),
            "--plan", str(plan_path), "--seed", str(seed),
            "--chunk-size", str(chunk_size), "--trace", str(int(trace)),
            "--report", str(self.report_path),
        ]
        if lines is not None:
            lines_path = workdir / "lines.jsonl"
            lines_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            command += ["--lines", str(lines_path)]
        self._process = subprocess.Popen(
            command, cwd=str(bootstrap.ROOT), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.hello = self._read_hello()
        host, port = self.hello["address"]
        self.address = (str(host), int(port))

    def _read_hello(self) -> Dict[str, Any]:
        hello: Dict[str, Any] = {}

        def read() -> None:
            line = self._process.stdout.readline()
            if line:
                hello.update(json.loads(line))
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(START_TIMEOUT)
        if "address" not in hello:
            self._process.kill()
            self._process.wait(timeout=30.0)
            raise BenchmarkError("the server process did not start")
        return hello

    def request_burst(self) -> None:
        """Ask the server for one calibration burst (it runs at once)."""
        self._process.stdin.write("burst\n")
        self._process.stdin.flush()

    def read_burst(self) -> float:
        """The seconds the burst asked for by :meth:`request_burst` took."""
        line = self._process.stdout.readline()
        if not line:
            raise BenchmarkError("the server process has exited")
        return float(json.loads(line)["burst_s"])

    @property
    def peak_rss_kb(self) -> int:
        return int((self.report or {}).get("peak_rss_kb", 0))

    @property
    def records(self) -> Optional[Dict[str, Any]]:
        return (self.report or {}).get("records")

    def stop(self) -> None:
        """Ask the server to stop, wait for it, and read its report."""
        process = self._process
        if process.poll() is None:
            try:
                process.stdin.write("stop\n")
                process.stdin.flush()
            except OSError:
                pass
        try:
            process.stdin.close()
        except OSError:
            pass
        try:
            process.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=30.0)
        process.stdout.close()
        if self.report is None and self.report_path.exists():
            self.report = json.loads(self.report_path.read_text())


if __name__ == "__main__":
    sys.exit(main())
