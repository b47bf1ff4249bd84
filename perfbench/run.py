"""The repository benchmark: one command, named workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``paper_cli`` (the README's CLI commands at p = 3, each cold),
``ladder_group_ring`` (seeded random units over Z/n and F_27, inverted and
self-checked, plus d'' o d' = 1) and ``ladder_cohomology`` (H^0..H^2 of
H1(U), H1(X) and Lambda_1 under the natural (e_0, e_1) action).  See
README.md beside this file for why each exists and what it should show.

Load is one closed-loop client: one workload run at a time, each in a
fresh worker process (``worker.py``), so lazy caches are paid inside the
run as a CLI user pays them.  Runs repeat while another one fits in
``--seconds``; at least one always runs.  Before the first run the
benchmark byte-compiles ``src/`` and times SETUP_PROBES fresh interpreters
that import the package and load the reference tables.

With ``--trace 0`` the last line of output holds the end-to-end metrics
(medians over the runs); with ``--trace 1`` untraced and traced runs
alternate and it holds the per-layer metrics of the traced runs, plus the
tracing overhead.  The line before it records the seed, every sample, the
failures and the environment.  The exit code is 0 whenever a result is
printed; the checkout must hold ``src/fermat_homology``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bench_trace
from bench_tasks import DEFAULT_SEED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "fermat_homology"
OUT_DIR = ROOT / ".perfbench"

WORKLOADS = ("paper_cli", "ladder_group_ring", "ladder_cohomology")
SETUP_PROBES = 9
SETUP_CODE = (
    "import fermat_homology, sys; "
    "from fermat_homology import reference_tables; "
    "reference_tables.load_tables(); "
    "print(fermat_homology.__file__)"
)
WORKER_TIMEOUT_S = 170


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _build() -> None:
    """Byte-compile src/ so every timed interpreter starts from the same cache."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package at {PACKAGE_DIR}; run from a checkout")
    if not compileall.compile_dir(str(SRC), quiet=1):
        raise SystemExit("benchmark: src/ does not compile")


def _setup_seconds(env) -> list[float]:
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        samples.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up failed: {proc.stderr.strip()[-500:]}")
        loaded = Path(proc.stdout.strip()).resolve()
        if PACKAGE_DIR not in loaded.parents:
            raise SystemExit(f"benchmark: imported {loaded}, not the checkout's package")
    return samples


def _run_worker(workload, seed, env, spans_dir) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if spans_dir is not None:
        argv += ["--trace", str(spans_dir)]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"worker exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    out = json.loads(lines[-1])
    if "stats" in out:
        out["stats"].setdefault("startup.import_s", out["imported_at"] - spawned)
    return out


def _environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE_DIR.glob("*.py")))
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "src_lines": src_lines,
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run in an exported tree that has none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    per_run = []
    for out in traced:
        metrics = bench_trace.layer_metrics(out["stats"], out["mul_table_entries"])
        metrics["startup.import_s"] = out["stats"]["startup.import_s"]
        per_run.append(metrics)
    if not per_run:
        per_run = [dict(bench_trace.layer_metrics({}, 0), **{"startup.import_s": 0.0})]
    result = {}
    for name in per_run[0]:
        result[name] = _metric(_median([m[name] for m in per_run]), bench_trace.metric_unit(name))
    # Each traced run follows its untraced twin, so the paired difference
    # cancels most of the host's slow drift.
    overhead = _median([t["seconds"] - u["seconds"] for t, u in zip(traced, untraced)])
    result["trace.overhead_s"] = _metric(overhead, "s")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _build()
    env = _env()
    setup = _setup_seconds(env)
    spans_dir = None
    if args.trace:
        spans_dir = OUT_DIR / f"spans-{args.workload}-seed{args.seed}"
        spans_dir.mkdir(parents=True, exist_ok=True)

    # One closed-loop client: the next run starts when the previous ends.
    # With tracing, an untraced and a traced run alternate.
    # Another round starts only if one as long as the longest so far fits.
    untraced, traced, crashes = [], [], []
    begin = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        for spans in ([None, spans_dir] if args.trace else [None]):
            out = _run_worker(args.workload, args.seed, env, spans)
            if "crashed" in out:
                crashes.append(out["crashed"])
            else:
                (untraced if spans is None else traced).append(out)
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if crashes or now - begin + longest > args.seconds:
            break

    runs = untraced + traced
    attempted = sum(o["attempted"] for o in runs) + len(crashes)
    failed = sum(o["failed"] for o in runs) + len(crashes)
    failures = [f for o in runs for f in o["failures"]] + [{"task": "worker", "error": c}
                                                          for c in crashes]
    wall = [o["seconds"] for o in untraced]
    rss = [o["peak_rss_kb"] / 1024 for o in untraced]
    correct = failed == 0 and bool(untraced) and (bool(traced) or not args.trace)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "claim": None,
        "samples": {"wall_s": wall, "setup_s": setup, "peak_rss_mb": rss,
                    "traced_wall_s": [o["seconds"] for o in traced]},
        "error_rate": failed / attempted if attempted else 0.0,
        "failures": failures[:20],
        "env": _environment(),
    }
    if args.trace:
        metrics = _layer_metrics(traced, untraced)
    else:
        metrics = {
            "wall_s": _metric(_median(wall), "s"),
            "setup_s": _metric(_median(setup), "s"),
            "peak_rss_mb": _metric(_median(rss), "MB"),
        }
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
