"""netpublic benchmark: one workload per process, a closed loop, checked results.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-reference

Run from the repository root; the program is imported from ``src/``.  One
caller runs the workload's tasks back to back, each task starting when the
previous one returns.  The seed fixes the order of the tasks in each pass.
The run repeats whole passes over the task list and stops at the pass
boundary nearest to ``--seconds`` (after one pass at least), so every run
measures whole passes of the same work.  Before timing starts, a warm-up
pays the program's first-call costs; ``setup_s`` includes it.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one untraced
and one traced pass in the same order and prints the per-layer metrics of the
traced pass; end-to-end numbers never come from a traced pass.

Every task's result is compared with ``reference.json``, recorded at the seed
commit.  ``--record-reference`` rewrites that file from the current sources;
run it only when a change of results is intended and explained.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Fixed before numpy loads, and inherited by the set-up probes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import importlib
import json
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
SETUP_PROBES = 3


def load_program():
    """Import netpublic from the checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "netpublic" / "__init__.py").is_file():
        raise SystemExit(f"netpublic sources not found under {src}")
    sys.path.insert(0, str(src))
    npub = importlib.import_module("netpublic")
    importlib.import_module("netpublic.cli")
    if Path(npub.__file__).resolve().parent != src / "netpublic":
        raise SystemExit(f"imported netpublic from {npub.__file__}, not from {src}")
    return npub


def load_reference(workload: str) -> dict:
    if not REFERENCE.is_file():
        raise SystemExit(f"missing {REFERENCE}")
    return json.loads(REFERENCE.read_text())[workload]


# ----------------------------------------------------------------------
# running and checking tasks
# ----------------------------------------------------------------------

def run_pass(tasks, order, workdir: str, tag: str) -> list[tuple]:
    """Run tasks in ``order``; (index, latency, returned, artifact, error) each."""
    done = []
    for i in order:
        out = os.path.join(workdir, f"{tag}-{i}.json")
        t0 = perf_counter()
        try:
            returned, error = tasks[i].call(out), None
        except Exception as exc:  # a task that raises counts as failed; the loop goes on
            returned, error = None, exc
        done.append((i, perf_counter() - t0, returned, out, error))
    return done


def check(tasks, done, reference: dict) -> tuple[int, int]:
    """(failed, artifacts whose hash moved) over finished tasks."""
    failed = changed = 0
    for i, _, returned, out, error in done:
        task = tasks[i]
        if error is not None:
            print(f"task {task.name} raised:", file=sys.stderr)
            traceback.print_exception(error, file=sys.stderr)
            failed += 1
            continue
        try:
            got = task.fingerprint(returned, out)
        except (workloads.TaskFailed, KeyError, TypeError) as exc:
            print(f"task {task.name} failed: {exc!r}", file=sys.stderr)
            failed += 1
            continue
        ref = reference.get(task.name)
        if ref is None or not workloads.matches(got, ref):
            print(f"task {task.name} differs from the reference", file=sys.stderr)
            failed += 1
        elif got["sha256"] != ref["sha256"]:
            changed += 1
    return failed, changed


def measure_setup(workload: str) -> float:
    """Median wall time of fresh processes that import, generate inputs and warm up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--setup-only", "--workload", workload]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def environment(npub) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    np = sys.modules["numpy"]
    return {
        "machine": platform.machine(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "netpublic": str(Path(npub.__file__).parent.relative_to(ROOT)),
    }


def run_workload(args) -> dict:
    npub = load_program()
    setup_s = None if args.trace else measure_setup(args.workload)
    reference = load_reference(args.workload)
    print("env " + json.dumps(environment(npub), sort_keys=True), flush=True)
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as workdir:
        tasks = workloads.WORKLOADS[args.workload](npub, workdir)
        if args.tasks:
            tasks = tasks[: args.tasks]
        workloads.warm_up(npub, workdir)
        rng = random.Random(args.seed)

        if args.trace:
            order = rng.sample(range(len(tasks)), len(tasks))
            t0 = perf_counter()
            plain = run_pass(tasks, order, workdir, "plain")
            plain_s = perf_counter() - t0
            with tracing.Tracer() as tracer:
                t0 = perf_counter()
                traced = run_pass(tasks, order, workdir, "traced")
                traced_s = perf_counter() - t0
            done = plain + traced
            metrics = tracer.metrics(traced_s - plain_s)
            units = {name: tracing.unit_of(name) for name in metrics}
            if tracer.absent:
                print("absent: " + ", ".join(tracer.absent))
        else:
            done, passes = [], 0
            start = perf_counter()
            while True:
                order = rng.sample(range(len(tasks)), len(tasks))
                done += run_pass(tasks, order, workdir, f"pass{passes}")
                passes += 1
                elapsed = perf_counter() - start
                # stop at the pass boundary nearest to --seconds
                if elapsed + elapsed / passes / 2 >= args.seconds:
                    break
            latencies = [d[1] for d in done]
            metrics = {
                "setup_s": setup_s,
                "tasks_per_s": len(done) / elapsed,
                "task_s.p50": statistics.median(latencies),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"setup_s": "s", "tasks_per_s": "1/s", "task_s.p50": "s",
                     "peak_rss_mb": "MB"}
            print(f"passes {passes}, tasks {len(done)}, elapsed {elapsed:.3f} s")

        failed, changed = check(tasks, done, reference)
    print(f"failed_frac {failed / len(done):.6g} ({failed} of {len(done)}), "
          f"artifact hashes changed: {changed}")
    return {
        "correct": failed == 0,
        "attempted": len(done),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def record_reference() -> None:
    npub = load_program()
    body = {}
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as workdir:
        for name, build in workloads.WORKLOADS.items():
            tasks = build(npub, workdir)
            done = run_pass(tasks, range(len(tasks)), workdir, name)
            body[name] = {}
            for i, latency, returned, out, error in done:
                if error is not None:
                    raise error
                body[name][tasks[i].name] = tasks[i].fingerprint(returned, out)
            print(f"{name}: {len(tasks)} tasks, {sum(d[1] for d in done):.1f} s")
    REFERENCE.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tasks", type=int, default=0,
                        help="run only the first N tasks of the list (smoke tests)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite {REFERENCE.name} from the current sources")
    args = parser.parse_args(argv)

    if args.record_reference:
        record_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_only:
        npub = load_program()
        with tempfile.TemporaryDirectory(dir=BENCH, prefix=".setup-") as workdir:
            workloads.WORKLOADS[args.workload](npub, workdir)
            workloads.warm_up(npub, workdir)
        return 0
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
