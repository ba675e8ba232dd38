#!/usr/bin/env python
"""Record serve-daemon latency results (``BENCH_serve.json``).

Runs one mixed job suite -- two apps plus one malware-infected job,
spread across two guest variants -- three ways:

* **cold (status quo)** -- one fresh subprocess per submission, paying
  interpreter start, guest boot, profiling and the benign baseline
  every time (``repro.fleet.jobs.run_job_cold``): what answering a
  one-off request cost before the daemon existed;
* **batch fleet** -- ``run_fleet`` over the same spec, the bit-identity
  reference;
* **daemon** -- a real ``repro serve`` subprocess with warm snapshot
  pools, driven through its control socket exactly like ``repro ctl``:
  each job is submitted and awaited sequentially, so the measured
  number is submit->result *latency*, not pool throughput.

Two hard gates:

* mean warm submit->result latency must be **>= 3x** faster than the
  cold per-request path;
* every daemon virtual-cycle score ``(cycles, syscalls)`` must be
  **bit-identical** to the batch fleet run *and* to the solo cold run
  of the same job -- the service layer may change wall-clock, never
  guest-visible behaviour.

Usage::

    PYTHONPATH=src python benchmarks/record_serve_throughput.py

``REPRO_BENCH_SCALE`` (default 2) sets the workload scale.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Required cold-over-warm latency ratio.
MIN_SPEEDUP = 3.0

_ROOT = Path(__file__).resolve().parent.parent

_COLD_SNIPPET = (
    "import json, sys\n"
    "from repro.fleet.jobs import run_job_cold\n"
    "print(json.dumps(run_job_cold(json.loads(sys.argv[1]), int(sys.argv[2]))))\n"
)


def _bench_scale() -> int:
    return int(os.environ.get("REPRO_BENCH_SCALE", "2"))


def _suite(scale: int) -> dict:
    """2 apps + 1 attack across 2 guest variants (the CI smoke suite)."""
    return {
        "name": "serve-latency",
        "workers": 2,
        "jobs": [
            {"app": "top", "scale": scale},
            {"app": "gzip", "scale": scale},
            {"app": "top", "scale": scale, "attack": "Injectso"},
            {"app": "top", "scale": scale, "guest": "qemu-tsc"},
            {"app": "gzip", "scale": scale, "guest": "qemu-tsc"},
        ],
    }


def _src_env() -> dict:
    env = dict(os.environ)
    src = str(_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _run_cold(spec) -> dict:
    """One fresh subprocess per submission: the pre-daemon status quo."""
    env = _src_env()
    results, latencies = {}, {}
    for job in spec.jobs:
        started = time.monotonic()
        proc = subprocess.run(
            [
                sys.executable, "-c", _COLD_SNIPPET,
                json.dumps(job.to_dict()), str(spec.seed),
            ],
            env=env, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"cold subprocess for {job.name} failed:\n{proc.stderr}"
            )
        latencies[job.name] = time.monotonic() - started
        results[job.name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"latencies": latencies, "results": results}


def _run_daemon(spec, libdir: str, scale: int) -> dict:
    """A real serve subprocess, driven through its control socket."""
    from repro.serve import ServeClient
    from repro.serve.client import DaemonUnreachable

    sock = os.path.join(libdir, "serve.sock")
    env = _src_env()
    daemon = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "--scale", str(scale),
            "serve", "--socket", sock, "--library", libdir,
            "--apps", "top", "gzip", "--guests", "default", "qemu-tsc",
            "--min-workers", "1", "--max-workers", "2", "--warm", "2",
        ],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    client = ServeClient(sock)
    try:
        t0 = time.monotonic()
        deadline = t0 + 300.0
        while True:
            try:
                client.ping()
                break
            except DaemonUnreachable:
                if daemon.poll() is not None:
                    raise RuntimeError(
                        f"serve daemon died:\n{daemon.stdout.read()}"
                    )
                if time.monotonic() > deadline:
                    raise RuntimeError("serve daemon never came up")
                time.sleep(0.1)
        startup = time.monotonic() - t0

        results, latencies = {}, {}
        for job in spec.jobs:
            started = time.monotonic()
            guest = job.guest.name if job.guest is not None else None
            submitted = client.submit(
                job.app, scale=job.scale, attack=job.attack, guest=guest
            )
            response = client.result(submitted["id"], wait=True, timeout=300)
            latencies[submitted["name"]] = time.monotonic() - started
            results[submitted["name"]] = response["result"]
            if submitted["name"] != job.name:
                raise RuntimeError(
                    f"daemon named the job {submitted['name']!r}, batch "
                    f"fleet names it {job.name!r}: derived seeds differ"
                )
        stats = client.stats()
        client.shutdown(drain=True, timeout=60)
        daemon.wait(timeout=60)
        return {
            "startup_seconds": startup,
            "latencies": latencies,
            "results": results,
            "pool": stats["pool"],
        }
    finally:
        if daemon.poll() is None:
            daemon.kill()


def main() -> int:
    from repro.fleet import ProfileLibrary, run_fleet
    from repro.fleet.jobs import prepare_offline_phase
    from repro.fleet.spec import FleetSpec

    scale = _bench_scale()
    spec = FleetSpec.from_dict(_suite(scale))
    print(f"suite: {len(spec.jobs)} jobs, scale {scale}, 2 guest variants")

    print("cold: one fresh subprocess per submission "
          "(interpreter + boot + profile + run)...")
    cold = _run_cold(spec)
    cold_mean = sum(cold["latencies"].values()) / len(spec.jobs)
    print(f"  mean submit->result latency {cold_mean:.2f}s")

    with tempfile.TemporaryDirectory(prefix="serve-lib-") as libdir:
        library = ProfileLibrary(libdir)
        t0 = time.monotonic()
        prepare_offline_phase(library, spec.apps(), scale=scale)
        offline_seconds = time.monotonic() - t0
        print(f"offline phase (once per app, persisted): "
              f"{offline_seconds:.2f}s")

        print("batch fleet reference run...")
        report = run_fleet(spec, library)
        if report.failed:
            print(f"batch reference had {report.failed} failures")
            return 1
        batch = {
            r["name"]: (r["cycles"], r["syscalls"]) for r in report.results
        }

        print("daemon: warm pools + control socket...")
        served = _run_daemon(spec, libdir, scale)
    warm_mean = sum(served["latencies"].values()) / len(spec.jobs)
    print(f"  startup {served['startup_seconds']:.2f}s (amortized), "
          f"mean submit->result latency {warm_mean:.2f}s")

    status = 0
    mismatches = []
    per_job = {}
    for job in spec.jobs:
        result = served["results"][job.name]
        daemon_score = (result["cycles"], result["syscalls"])
        solo = cold["results"][job.name]
        solo_score = (solo["cycles"], solo["syscalls"])
        batch_score = batch[job.name]
        per_job[job.name] = {
            "ok": result["ok"],
            "daemon": list(daemon_score),
            "batch": list(batch_score),
            "solo": list(solo_score),
            "identical": daemon_score == batch_score == solo_score,
            "cold_latency_seconds": round(cold["latencies"][job.name], 3),
            "daemon_latency_seconds": round(
                served["latencies"][job.name], 3
            ),
        }
        if not result["ok"]:
            mismatches.append(f"{job.name}: job failed: {result['error']}")
        elif not (daemon_score == batch_score == solo_score):
            mismatches.append(
                f"{job.name}: daemon {daemon_score} vs batch {batch_score} "
                f"vs solo {solo_score}"
            )
    if mismatches:
        print("VIRTUAL-CYCLE SCORE DRIFT (daemon changed guest behaviour):")
        for line in mismatches:
            print(f"  {line}")
        status = 1

    speedup = cold_mean / warm_mean if warm_mean else 0.0
    print(f"latency: warm {warm_mean:.2f}s vs cold {cold_mean:.2f}s "
          f"= {speedup:.2f}x (required >= {MIN_SPEEDUP}x)")
    if speedup < MIN_SPEEDUP:
        print(f"speedup {speedup:.2f}x below required {MIN_SPEEDUP}x")
        status = 1

    out = {
        "scale": scale,
        "jobs": len(spec.jobs),
        "cold": {
            "mean_latency_seconds": round(cold_mean, 3),
        },
        "offline_phase_seconds": round(offline_seconds, 2),
        "daemon": {
            "startup_seconds": round(served["startup_seconds"], 2),
            "mean_latency_seconds": round(warm_mean, 3),
            "pool": served["pool"],
        },
        "speedup": round(speedup, 2),
        "scores_identical": not mismatches,
        "per_job": per_job,
        "note": (
            "Cold = the pre-daemon status quo for a one-off request: a "
            "fresh subprocess paying interpreter start, guest boot, "
            "profiling and the benign baseline per submission.  Daemon = "
            "a real 'repro serve' subprocess with warm per-variant "
            "snapshot pools, driven through its control socket; jobs are "
            "submitted and awaited one at a time, so the number is "
            "submit->result latency.  Scores are (virtual cycles, "
            "syscalls executed) and must be bit-identical across daemon, "
            "batch fleet and solo runs."
        ),
    }
    path = _ROOT / "BENCH_serve.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
