"""The benchmark's own tests: tracer and host-speed arithmetic, and a
smoke of each workload.

Run from the root of a source checkout::

    python3 -m pytest perfbench -q

Each workload smoke runs ``run.py`` at its smallest size (``--seconds
1``: one round, pass or short serve phase) and checks the result line
against ``BENCHMARK.json``; together they take a few minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from hostspeed import NOMINAL_S, HostSpeed  # noqa: E402
from tracer import Tracer, read_spans  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int = 0, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


class _Toy:
    def outer(self, n):
        time.sleep(0.02)
        return self.inner(n) + self.outer_again(n)

    def inner(self, n):
        time.sleep(0.03)
        return n

    def outer_again(self, n):
        return n


def test_self_time_excludes_children_and_folds_reentry(tmp_path):
    tracer = Tracer("toy")
    toy = _Toy
    originals = dict(toy.__dict__)
    toy.outer = tracer.wrap(originals["outer"], "toy.outer")
    toy.inner = tracer.wrap(originals["inner"], "toy.inner")
    # same span name as the caller: folded into the outer span
    toy.outer_again = tracer.wrap(originals["outer_again"], "toy.outer")
    try:
        assert toy().outer(2) == 4
    finally:
        for name in ("outer", "inner", "outer_again"):
            setattr(toy, name, originals[name])
    summary = tracer.summary()
    assert summary["count"] == {"toy.outer": 1, "toy.inner": 1}
    total = summary["total_s"]["toy.outer"]
    inner = summary["total_s"]["toy.inner"]
    assert summary["self_s"]["toy.outer"] == pytest.approx(total - inner)
    assert summary["self_s"]["toy.inner"] == pytest.approx(inner)
    assert inner >= 0.03 and total - inner >= 0.02

    path = tmp_path / "toy.spans"
    tracer.write(str(path))
    spans = read_spans(str(path))
    (thread,) = spans["thread_spans"]
    names = [spans["names"][i] for i in thread["name"]]
    assert names == ["toy.outer", "toy.inner"]
    assert list(thread["parent"]) == [-1, 0]
    assert spans["run_id"] == "toy"


def test_host_speed_scales_and_leaves_out_kernel_calls():
    speed = HostSpeed()
    # the kernel takes twice its nominal time: the host runs at half speed
    slow = 2 * NOMINAL_S
    speed.add([(0.0, 0.01, slow), (0.5, 0.51, slow)], pause=True)
    speed.add([(1.0, 1.01, slow), (2.0, 2.01, slow)], pause=False)
    # 2 s of wall time hold 0.02 s of kernel calls made inside the work
    assert speed.seconds((0.0, 2.0)) == pytest.approx((2.0 - 0.02) / 2)
    assert speed.seconds((0.6, 0.9)) == pytest.approx(0.3 / 2)


def test_host_speed_sampler_process_stops():
    speed = HostSpeed()
    start = time.monotonic()
    with speed.sampler():
        time.sleep(0.3)
    assert speed.seconds((start, time.monotonic())) > 0
    assert "kernel samples" in speed.describe()


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("paper-suite", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "workload", [w["name"] for w in _spec()["workloads"]]
)
def test_workload_smoke(workload):
    proc = _run(workload)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_smoke_reports_every_layer():
    proc = _run("table2-detect", trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    # KBeast hangs at scale 2 and is counted, not dropped
    assert result["metrics"]["guest.run.capped"]["value"] >= 2
    assert result["failed"] >= 2
    assert (ROOT / ".perfbench" / "report-table2-detect.md").is_file()
