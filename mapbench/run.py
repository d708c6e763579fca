"""Benchmark of the robustness-map system: figures, sweeps and the map service.

Run from the repository root::

    python3 mapbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing instrumented:
set-up, then timed passes of the workload's fixed work for as long as
another pass still ends within ``--seconds`` (two at least, so outputs
are compared across passes), then the checks, then ``setup_s`` from
fresh processes.
``--trace 1`` runs one untraced pass as the base of ``trace_overhead``,
then wraps the public callables of every ``repro`` subpackage
(:mod:`tracing`) and reports the per-layer metrics of one traced pass.
Its exact counts are kept under ``.mapbench/counts`` and compared with
any earlier traced run of the same code, seed and workload.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is a report
with the machine stamp, sample counts and the base of every ratio.
Whatever the exit path — a passing run, a failed check, SIGINT or
SIGTERM — every server, thread, worker process, subprocess and
temporary directory the run made is stopped or removed before it exits,
and the run verifies that; a leftover is a failed operation.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".mapbench"

#: Timed passes a run makes at least (outputs are compared across them).
MIN_PASSES = 2
#: Warm samples that must lie beyond ``warm_p90_ms`` at full scale.
MIN_BEYOND_P90 = 10
#: Fresh-process set-up samples behind ``setup_s`` (their median).
SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 150.0


def _raise_interrupt(signum, frame) -> None:
    raise KeyboardInterrupt(f"signal {signum}")


def clean_environment() -> dict:
    """Drop every ``REPRO_*`` variable: they would change the workloads."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    return dict(os.environ)


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure_setup(workload: str, seed: int, scale: str, tmp_root: Path, env: dict) -> float:
    """Wall seconds of one fresh-process set-up (see ``setup_probe.py``)."""
    began = time.perf_counter()
    process = subprocess.Popen(
        [
            sys.executable,
            str(BENCH_DIR / "setup_probe.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--scale", scale,
            "--tmp", str(tmp_root),
        ],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
    )
    try:
        # Reading to end of file returns as the probe exits; ``wait`` with
        # a timeout would poll and round the time up to its sleep steps.
        process.communicate(timeout=SETUP_TIMEOUT_S)
        code = process.wait()
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)
    if code != 0:
        raise RuntimeError(f"set-up probe exited with {code}")
    return time.perf_counter() - began


def _child_pids() -> list[int]:
    me = os.getpid()
    children = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == me:
            children.append(int(entry.name))
    return children


def open_sockets() -> set[str]:
    sockets = set()
    for fd in Path("/proc/self/fd").iterdir():
        try:
            target = os.readlink(fd)
        except OSError:
            continue
        if target.startswith("socket:"):
            sockets.add(target)
    return sockets


def leftovers(tmp_root: Path, inherited_sockets: set[str]) -> list[str]:
    """Everything this run started that is still there."""
    problems = []
    children = multiprocessing.active_children()
    if children:
        problems.append(f"worker processes still alive: {children}")
    main = threading.main_thread()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        others = [t for t in threading.enumerate() if t is not main]
        if not others:
            break
        time.sleep(0.05)
    others = [t.name for t in threading.enumerate() if t is not main]
    if others:
        problems.append(f"threads still alive: {others}")
    pids = _child_pids()
    if pids:
        problems.append(f"child processes still alive: {pids}")
    sockets = open_sockets() - inherited_sockets
    if sockets:
        problems.append(f"sockets still open: {sorted(sockets)}")
    if tmp_root.exists():
        problems.append(f"temporary directory {tmp_root} still exists")
    return problems


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_untraced(workload, args, env, tmp_root):
    """Timed passes, checks and set-up samples; the end-to-end metrics."""
    from report import end_to_end, peak_rss_mb

    workload.setup()
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(workload.run_pass(len(passes)))
        elapsed = time.perf_counter() - started
        # Stop before a pass that would end past --seconds.
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > args.seconds:
            break
    rss = peak_rss_mb(with_children=workload.name == "sweeps")
    before = len(workload.failures)
    workload.check_run(passes)
    workload.extra_check()
    run_failures = len(workload.failures) - before
    setup_samples = [
        measure_setup(workload.name, args.seed, args.scale, tmp_root, env)
        for _ in range(SETUP_SAMPLES)
    ]
    metrics, bases = end_to_end(passes, setup_samples, rss)
    bases["setup_samples_s"] = setup_samples
    bases["pass_counts"] = [p.counts for p in passes]
    if args.scale == "full" and bases["warm_samples_beyond_p90"] < MIN_BEYOND_P90:
        run_failures += 1
        workload.fail(
            f"warm_p90_ms rests on {bases['warm_samples_beyond_p90']} samples beyond it, "
            f"fewer than {MIN_BEYOND_P90}"
        )
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + run_failures
    return metrics, bases, attempted, failed


def run_traced(workload_type, args, tmp_root, stamp):
    """One untraced pass as base, then set-up and one pass under the tracer."""
    from report import EXACT_COUNTS, CounterBaseline, compare_counts, layer_metrics
    from tracing import Tracer

    untraced = workload_type(args.seed, args.scale, tmp_root)
    try:
        untraced.setup()
        base = untraced.run_pass(0)
    finally:
        untraced.close()
    tracer = Tracer()
    traced = workload_type(args.seed, args.scale, tmp_root, tracer)
    try:
        tracer.install()
        traced.setup()
        setup_summary = tracer.summarize(threading.main_thread().name)
        tracer.archive()
        baseline = CounterBaseline(tracer)
        cpu_before = _children_cpu_s()
        stats = traced.run_pass(0)
        worker_cpu = _children_cpu_s() - cpu_before
    finally:
        tracer.uninstall()
        traced.close()
    summary = tracer.summarize(threading.main_thread().name, until=stats.ended)
    metrics, bases = layer_metrics(
        summary,
        setup_summary,
        tracer,
        baseline,
        stats,
        traced.layer_metrics(),
        stats.wall_s,
        base.wall_s,
        worker_cpu,
    )
    failures = untraced.failures + traced.failures
    if base.digests != stats.digests:
        failures.append("traced pass produced other outputs than the untraced pass")
    counts = {name: metrics[name] for name in EXACT_COUNTS}
    counts.update({k: v for k, v in stats.counts.items() if k not in counts})
    counts_path = (
        STATE_DIR / "counts"
        / f"{workload_type.name}-{args.scale}-seed{args.seed}-{stamp['code_digest']}.json"
    )
    mismatches = []
    if counts_path.exists():
        mismatches = compare_counts(json.loads(counts_path.read_text()), counts)
    else:
        counts_path.parent.mkdir(parents=True, exist_ok=True)
        counts_path.write_text(json.dumps(counts, sort_keys=True, indent=1))
    span_path = STATE_DIR / "spans" / f"{workload_type.name}-{args.scale}.jsonl.gz"
    n_spans = tracer.write(span_path)
    bases.update(traced.layer_bases())
    bases.update(
        {
            "exact_counts": counts,
            "count_mismatches": mismatches,
            "counts_file": str(counts_path.relative_to(ROOT)),
            "spans_file": str(span_path.relative_to(ROOT)),
            "spans": n_spans,
        }
    )
    attempted = base.attempted + stats.attempted
    failed = base.failed + stats.failed + len(mismatches)
    failures.extend(f"count mismatch {m}" for m in mismatches)
    return metrics, bases, attempted, failed, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="tiny: a fast run of the same code paths, for the self-test",
    )
    args = parser.parse_args(argv)
    env = clean_environment()
    inherited_sockets = open_sockets()
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no repro source tree to benchmark", file=sys.stderr)
        return 2
    spec = load_spec()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGTERM, _raise_interrupt)
    signal.signal(signal.SIGINT, _raise_interrupt)

    from report import machine_stamp
    from workloads import WORKLOADS, unpinned_knobs

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload_type = WORKLOADS[args.workload]
    STATE_DIR.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="run-", dir=STATE_DIR))
    stamp = machine_stamp(ROOT, BENCH_DIR)
    failures: list[str] = []
    interrupted = crashed = False
    result = None
    try:
        if args.trace:
            metrics, bases, attempted, failed, failures = run_traced(
                workload_type, args, tmp_root, stamp
            )
        else:
            workload = workload_type(args.seed, args.scale, tmp_root)
            try:
                metrics, bases, attempted, failed = run_untraced(workload, args, env, tmp_root)
            finally:
                workload.close()
            failures = workload.failures
        result = (metrics, bases, attempted, failed)
    except KeyboardInterrupt:
        interrupted = True
    except Exception:  # noqa: BLE001 - a crash still gets its teardown checked
        traceback.print_exc()
        crashed = True
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    left = leftovers(tmp_root, inherited_sockets)
    for problem in left:
        print(f"leftover: {problem}", file=sys.stderr)
    if interrupted:
        print("interrupted; everything the run started is stopped", file=sys.stderr)
        return 130
    if crashed:
        return 1
    metrics, bases, attempted, failed = result
    failures = list(failures) + [f"leftover: {p}" for p in left]
    failed += len(left)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    units = {entry["name"]: entry["unit"] for entry in declared}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise KeyError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": args.trace,
        "stamp": stamp,
        "unpinned_config_knobs": unpinned_knobs(),
        "bases": bases,
        "undeclared_metrics": {k: v for k, v in metrics.items() if k not in units},
        "failures": failures,
    }
    print(json.dumps({"report": report}, default=str))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": max(1, int(attempted)),
                "failed": int(failed),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
