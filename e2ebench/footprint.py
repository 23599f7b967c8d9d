"""Peak memory of one ``yelp_load_A`` iteration, in a fresh process.

The benchmark process also holds the budget-0 oracle, the samples and
the harness, so its own peak would not be the workload's.
:func:`peak_rss_kb` runs one load plus one workload-A pass in a child
process that holds nothing else and returns that child's peak resident
set.  From the checkout root the child runs as::

    python3 -m e2ebench.footprint --lines LINES.jsonl --plan PLAN.json \
        --data-dir DIR --seed N --chunk-size N

and prints one JSON line, ``{"peak_rss_kb": ..., "received": ...}``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import List

from . import bootstrap

bootstrap.require_program()

from repro.api import CiaoSession, DeploymentConfig, LineSource  # noqa: E402
from repro.core.plan_io import dumps_plan, loads_plan  # noqa: E402

from .common import BenchmarkError, peak_rss_kb as own_peak_kb  # noqa: E402
from .inputs import prospective_workload  # noqa: E402

TIMEOUT = 120.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", required=True, type=Path)
    parser.add_argument("--plan", required=True, type=Path)
    parser.add_argument("--data-dir", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--chunk-size", required=True, type=int)
    args = parser.parse_args(argv)
    workload = prospective_workload("yelp")
    lines = args.lines.read_text(encoding="utf-8").splitlines()
    session = CiaoSession(
        workload, source=LineSource(lines, name="yelp"),
        config=DeploymentConfig(chunk_size=args.chunk_size),
        data_dir=args.data_dir, seed=args.seed,
        plan=loads_plan(args.plan.read_text(encoding="utf-8")),
    )
    try:
        report = session.load().result()
        for query in workload.queries:
            session.query(query.sql("t"))
    finally:
        session.close()
    print(json.dumps({"peak_rss_kb": own_peak_kb(),
                      "received": report.received}), flush=True)
    return 0


def peak_rss_kb(lines: List[str], plan, workdir: Path, seed: int,
                chunk_size: int) -> int:
    """Run the child over *lines* under *plan*; its peak RSS in KiB."""
    workdir.mkdir(parents=True, exist_ok=True)
    lines_path = workdir / "lines.jsonl"
    lines_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    plan_path = workdir / "plan.json"
    plan_path.write_text(dumps_plan(plan), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "e2ebench.footprint",
         "--lines", str(lines_path), "--plan", str(plan_path),
         "--data-dir", str(workdir / "data"), "--seed", str(seed),
         "--chunk-size", str(chunk_size)],
        cwd=str(bootstrap.ROOT), capture_output=True, text=True,
        timeout=TIMEOUT, check=False,
    )
    if done.returncode != 0:
        raise BenchmarkError(f"footprint child failed: {done.stderr}")
    out = json.loads(done.stdout.strip().splitlines()[-1])
    if out["received"] != len(lines):
        raise BenchmarkError(f"footprint child loaded {out['received']} "
                             f"of {len(lines)} records")
    return int(out["peak_rss_kb"])


if __name__ == "__main__":
    sys.exit(main())
