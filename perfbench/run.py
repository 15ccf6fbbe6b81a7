"""Run one benchmark workload in this fresh process and print its metrics.

    python3 perfbench/run.py --workload percentile --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  The workload's inputs are
generated from the seed into ``.perfbench_work/``; its fixed job list is
then run back to back (a closed loop with one client), each job an
in-process call of ``dampen.cli.main(argv)``.  Untraced runs repeat whole
rounds of the job list while the next round is predicted to end within
``--seconds`` (at least one round); traced runs make exactly one round, so
their counts repeat exactly.  ``pass_s`` adds up each job's median time
over the rounds, so a slow phase of the host that covers less than half of
the run does not move it.  Every output is then checked against
``reference.py``.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Extra fresh interpreters that time ``import dampen.cli``; setup_s is
#: the median of these and the run's own import.
SETUP_SAMPLES = 3
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t0 = time.perf_counter()\n"
    "import dampen.cli\n"
    "print(time.perf_counter() - t0)\n"
)


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("percentile", "topk", "tree"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_library() -> float:
    """Import dampen.cli from this checkout's src/ and return the seconds
    it took (numpy and scipy included)."""
    if not os.path.isfile(os.path.join(SRC, "dampen", "cli.py")):
        raise SystemExit(f"perfbench: no dampen sources under {SRC}")
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import dampen.cli  # noqa: F401
    return time.perf_counter() - t0


def _setup_samples(first: float) -> list[float]:
    samples = [first]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, SRC],
            capture_output=True, text=True, check=True, timeout=60, env=env,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_job(job) -> tuple[bool, float]:
    import dampen.cli

    t0 = time.perf_counter()
    try:
        ok = dampen.cli.main(list(job.argv)) == 0
    except SystemExit as exc:
        ok = exc.code in (0, None)
    except Exception as exc:  # a job that raises counts as failed, the run goes on
        print(f"perfbench: {job.name} raised {type(exc).__name__}: {exc}",
              file=sys.stderr)
        ok = False
    return ok, time.perf_counter() - t0


def main(argv=None) -> int:
    args = _parse_args(argv)
    os.environ.pop("DAMPEN_THREADS", None)     # one thread, as a plain CLI call
    import_s = _import_library()
    sys.path.insert(0, HERE)
    import checks
    import workloads

    work = os.path.join(ROOT, ".perfbench_work",
                        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    in_dir, out_dir = os.path.join(work, "inputs"), os.path.join(work, "outputs")
    os.makedirs(in_dir)
    os.makedirs(out_dir)
    jobs = workloads.build_jobs(args.workload, args.seed, in_dir, out_dir)

    attempted = failed = 0
    failed_jobs = set()
    job_times, round_times = [], []
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    rss_before_mb = _peak_rss_mb()
    started = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for job in jobs:
            if tracer is not None:
                ok, seconds = tracer.job(job.name, lambda: _run_job(job))
            else:
                ok, seconds = _run_job(job)
            attempted += 1
            job_times.append(seconds)
            if not ok:
                failed += 1
                failed_jobs.add(job.name)
        round_times.append(time.perf_counter() - round_start)
        elapsed = time.perf_counter() - started
        if tracer is not None or elapsed + statistics.fmean(round_times) > args.seconds:
            break
    peak_rss_mb = _peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    failures = []
    for job in jobs:
        if job.name not in failed_jobs:
            failures.extend(checks.check_job(job))
    for msg in failures:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)

    pass_s = sum(statistics.median(job_times[ix::len(jobs)])
                 for ix in range(len(jobs)))
    if tracer is not None:
        metrics = tracer.layer_metrics(peak_rss_mb - rss_before_mb)
        with open(os.path.join(work, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "traced_pass_s": pass_s, **tracer.dump()}, fh, indent=1)
        print(f"perfbench: traced pass_s {pass_s:.4f} s "
              f"(trace in {os.path.relpath(work, ROOT)}/trace.json)")
    else:
        metrics = {
            "setup_s": (statistics.median(_setup_samples(import_s)), "s"),
            "pass_s": (pass_s, "s"),
            "job_p50_s": (statistics.median(job_times), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        with open(os.path.join(work, "times.json"), "w", encoding="utf-8") as fh:
            json.dump({"rounds": round_times,
                       "jobs": [{"job": job.name, "seconds": seconds}
                                for job, seconds in zip(jobs * len(round_times),
                                                        job_times)]}, fh, indent=1)
        print(f"perfbench: {len(round_times)} round(s) of {len(jobs)} jobs, "
              f"round times {[round(t, 3) for t in round_times]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
