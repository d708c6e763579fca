"""Self-test of the benchmark at tiny scale: schema, teardown, count channel.

Run from the repository root::

    python3 mapbench/selftest.py

For every workload it runs ``run.py --scale tiny`` untraced and traced,
checks the result line against ``BENCHMARK.json``, runs the traced
command again with the same seed and expects the exact counts to match,
then tampers with the stored counts and expects the mismatch to be
reported by name.  It interrupts runs with SIGTERM and SIGINT mid-pass,
and runs the command in a directory that holds only ``BENCHMARK.json``
and the benchmark, where it must fail without printing a result.  After
every run no process of the benchmark may be left and no temporary
directory may remain.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
STATE_DIR = ROOT / ".mapbench"
RUN_TIMEOUT_S = 180


def _bench_processes() -> list[str]:
    """Processes running the benchmark command or its set-up probe.

    Forked sweep workers keep their parent's command line, so they count.
    """
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            argv = (entry / "cmdline").read_bytes().decode().split("\0")
        except OSError:
            continue
        if any(arg.endswith(("mapbench/run.py", "mapbench/setup_probe.py")) for arg in argv):
            found.append(f"{entry.name}: {' '.join(argv).strip()}")
    return found


def _assert_clean(label: str) -> None:
    leftover = _bench_processes()
    assert not leftover, f"{label}: processes left behind: {leftover}"
    runs = sorted(STATE_DIR.glob("run-*")) if STATE_DIR.exists() else []
    assert not runs, f"{label}: temporary directories left behind: {runs}"


def _run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, str(cwd / "mapbench" / "run.py"), *args]
    return subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )


def _result(proc: subprocess.CompletedProcess, declared: list[dict], label: str) -> dict:
    lines = proc.stdout.strip().splitlines()
    assert lines, f"{label}: no output; stderr: {proc.stderr[-2000:]}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["correct"], bool)
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and result["failed"] >= 0
    units = {entry["name"]: entry["unit"] for entry in declared}
    assert set(result["metrics"]) == set(units), set(result["metrics"]) ^ set(units)
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}, metric
        assert metric["unit"] == units[name], (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)
    report = json.loads(lines[-2])["report"]
    for key in ("nproc", "cpu_model", "python", "numpy", "git_commit", "code_digest"):
        assert key in report["stamp"], key
    return {"result": result, "report": report}


def check_workload(name: str, spec: dict) -> None:
    base = ["--workload", name, "--seed", "5", "--seconds", "1", "--scale", "tiny"]
    proc = _run([*base, "--trace", "0"])
    out = _result(proc, spec["end_to_end"], f"{name} untraced")
    assert proc.returncode == 0 and out["result"]["correct"], proc.stderr[-2000:]
    assert out["report"]["bases"]["passes"] >= 2
    _assert_clean(f"{name} untraced")

    counts_dir = STATE_DIR / "counts"
    for path in counts_dir.glob(f"{name}-tiny-seed5-*.json"):
        path.unlink()
    first = _result(_run([*base, "--trace", "1"]), spec["per_layer"], f"{name} traced")
    assert first["result"]["correct"], first["report"]["failures"]
    _assert_clean(f"{name} traced")
    second = _run([*base, "--trace", "1"])
    again = _result(second, spec["per_layer"], f"{name} traced again")
    assert second.returncode == 0 and again["result"]["correct"], again["report"]["failures"]
    assert again["report"]["bases"]["count_mismatches"] == []
    assert again["report"]["bases"]["exact_counts"] == first["report"]["bases"]["exact_counts"]

    counts_file = ROOT / again["report"]["bases"]["counts_file"]
    counts = json.loads(counts_file.read_text())
    counts["executor.executions"] += 1
    counts_file.write_text(json.dumps(counts))
    tampered = _run([*base, "--trace", "1"])
    bad = _result(tampered, spec["per_layer"], f"{name} tampered")
    assert tampered.returncode != 0 and not bad["result"]["correct"]
    mismatches = bad["report"]["bases"]["count_mismatches"]
    assert len(mismatches) == 1 and mismatches[0].startswith("executor.executions"), mismatches
    counts_file.unlink()
    _assert_clean(f"{name} tampered")


def check_interrupt(name: str, sig: int, after_s: float) -> None:
    process = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", "3",
         "--seconds", "60", "--scale", "tiny", "--trace", "0"],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        time.sleep(after_s)
        process.send_signal(sig)
        stdout, _stderr = process.communicate(timeout=RUN_TIMEOUT_S)
    finally:
        if process.poll() is None:
            process.kill()
            process.communicate()
    assert process.returncode != 0, f"{name}: exit {process.returncode} after signal {sig}"
    assert '"correct"' not in stdout, f"{name}: printed a result after signal {sig}"
    _assert_clean(f"{name} after signal {sig}")


def check_bare_directory() -> None:
    bare = STATE_DIR / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(BENCH_DIR, bare / "mapbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(["--workload", "figures", "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "ran without the program's sources"
        assert '"correct"' not in proc.stdout, "printed a result without the program"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    _assert_clean("bare directory")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    _assert_clean("before the self-test")
    for workload in spec["workloads"]:
        check_workload(workload["name"], spec)
        print(f"ok: {workload['name']} schema, teardown and count channel", flush=True)
    check_interrupt("sweeps", signal.SIGINT, 4.0)
    check_interrupt("service", signal.SIGTERM, 4.0)
    print("ok: SIGINT and SIGTERM mid-run leave nothing behind", flush=True)
    check_bare_directory()
    print("ok: a directory without the program fails without a result", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
