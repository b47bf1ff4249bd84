"""One workload run in a fresh interpreter, or one traced CLI command.

Usage (from ``run.py``, with PYTHONPATH pointing at the checkout's src):

    python worker.py --workload NAME --seed N [--trace SPANS_DIR]
    python worker.py --cli-command I --trace SPANS_DIR

Prints one JSON object as its last line of output.  The package is the
first import, so the traced CLI command can report when its interpreter
start and import finished.
"""

import time

import fermat_homology
import fermat_homology.cli

IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import bench_tasks  # noqa: E402
import bench_trace  # noqa: E402

CLI_ENTRY = "import sys; from fermat_homology.cli import main; sys.exit(main())"
COMMAND_TIMEOUT_S = 120


def _rss_kb(who) -> int:
    return resource.getrusage(who).ru_maxrss


def _start_tracer(spans_dir):
    if spans_dir is None:
        return None
    tracer = bench_trace.Tracer()
    bench_trace.install(tracer)
    return tracer


def _finish_tracer(tracer, spans_dir, stem, out) -> None:
    if tracer is None:
        return
    tracer.write(Path(spans_dir) / f"{stem}.json")
    out["stats"] = bench_trace.summarize(tracer.spans)
    out["mul_table_entries"] = bench_trace.mul_table_entries()


def _check_cli(command, exit_code, stdout) -> str | None:
    """None when the command's exit code and payload match the golden ones."""
    if exit_code != command["exit_code"]:
        return f"exit code {exit_code}, golden {command['exit_code']}"
    try:
        payload = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if not bench_tasks.matches_golden(command["payload"], payload):
        return "payload differs from golden"
    return None


def cli_command(index: int, spans_dir) -> dict:
    """Traced run of one paper_cli command: cli.main(argv) with stdout captured."""
    command = bench_tasks.load_golden("paper_cli.json")["commands"][index]
    tracer = _start_tracer(spans_dir)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        try:
            exit_code = fermat_homology.cli.main(command["argv"])
        except SystemExit as exc:
            exit_code = exc.code if isinstance(exc.code, int) else 1
    finished_at = time.perf_counter()
    out = {"finished_at": finished_at, "error": _check_cli(command, exit_code, buffer.getvalue())}
    _finish_tracer(tracer, spans_dir, f"paper_cli-{index}", out)
    return out


def paper_cli(spans_dir) -> dict:
    """Each README command cold, one after another; wall time includes every
    interpreter start.  Traced, each command runs in a fresh traced worker."""
    commands = bench_tasks.load_golden("paper_cli.json")["commands"]
    seconds = 0.0
    import_s = 0.0
    failures = []
    stats = []
    for index, command in enumerate(commands):
        if spans_dir is None:
            argv = [sys.executable, "-c", CLI_ENTRY, *command["argv"]]
        else:
            argv = [sys.executable, __file__, "--cli-command", str(index), "--trace", spans_dir]
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
        end = time.perf_counter()
        if spans_dir is None:
            seconds += end - start
            error = _check_cli(command, proc.returncode, proc.stdout)
        elif proc.returncode != 0:
            seconds += end - start
            error = f"traced worker exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        else:
            # A traced command ends when cli.main returns; writing and
            # summarizing its spans afterwards is not part of its time.
            traced = json.loads(proc.stdout.splitlines()[-1])
            seconds += traced["finished_at"] - start
            error = traced["error"]
            import_s += traced["imported_at"] - start
            stats.append(traced["stats"])
        if error is not None:
            failures.append({"task": " ".join(command["argv"]), "error": error})
    out = {
        "attempted": len(commands),
        "failed": len(failures),
        "failures": failures,
        "seconds": seconds,
        "peak_rss_kb": _rss_kb(resource.RUSAGE_CHILDREN),
    }
    if spans_dir is not None:
        out["stats"] = bench_trace.merge(stats)
        out["stats"]["startup.import_s"] = import_s
        out["mul_table_entries"] = 0
    return out


LADDERS = {
    "ladder_group_ring": (bench_tasks.ladder_group_ring_inputs, bench_tasks.group_ring_task),
    "ladder_cohomology": (bench_tasks.ladder_cohomology_inputs, bench_tasks.cohomology_task),
}


def ladder(workload: str, seed: int, spans_dir) -> dict:
    make_inputs, task = LADDERS[workload]
    tracer = _start_tracer(spans_dir)
    fermat_homology.reference_tables.load_tables()
    specs = make_inputs(seed)
    tasks = [
        (bench_tasks.label(spec), lambda spec=spec: task(fermat_homology, spec))
        for spec in specs
    ]
    out = bench_tasks.run_tasks(tasks)
    if seed == bench_tasks.DEFAULT_SEED:
        bench_tasks.check_digests(out, bench_tasks.load_golden("ladder_digests.json")[workload])
    del out["digests"]
    out["peak_rss_kb"] = _rss_kb(resource.RUSAGE_SELF)
    _finish_tracer(tracer, spans_dir, workload, out)
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=bench_tasks.DEFAULT_SEED)
    parser.add_argument("--cli-command", type=int)
    parser.add_argument("--trace", metavar="SPANS_DIR")
    args = parser.parse_args()
    if args.cli_command is not None:
        out = cli_command(args.cli_command, args.trace)
    elif args.workload == "paper_cli":
        out = paper_cli(args.trace)
    else:
        out = ladder(args.workload, args.seed, args.trace)
    out["imported_at"] = IMPORTED_AT
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
