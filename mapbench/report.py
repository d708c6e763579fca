"""Turning passes and spans into the metrics, the stamp and the count channel."""

from __future__ import annotations

import hashlib
import platform
import resource
import statistics
from pathlib import Path

from tracing import LAYERS
from workloads import NPROC, PassStats

#: ``PlanNode`` subclasses whose ``execute`` gets its own per-layer metrics.
PLAN_NODES = (
    "TableScanNode",
    "IndexRangeRidsNode",
    "CompositeRangeRidsNode",
    "FetchNode",
    "RidIntersectNode",
    "CoveringCompositeScanNode",
    "MdamScanNode",
    "CoveringRidJoinNode",
    "ExternalSortNode",
    "MergeJoinNode",
    "HashJoinNode",
    "IndexNestedLoopJoinNode",
)

#: Per-layer metrics that must repeat exactly for the same code and seed.
EXACT_COUNTS = (
    "core.cells_measured",
    "core.cells_replayed",
    "core.cellstore.hits",
    "core.cellstore.misses",
    "core.cellstore.writes",
    "core.cellstore.bytes_written",
    "sim.pages_read",
    "sim.spill_pages",
    "storage.pool_hits",
    "storage.pool_misses",
    "storage.pool_evictions",
    "storage.btree_probe_calls",
    "executor.executions",
    "viz.renders",
    "viz.bytes_out",
    "service.jobs_created",
    "service.jobs_deduplicated",
    *(f"executor.{node}.calls" for node in PLAN_NODES),
)

_SWEEP_MODULES = (
    "repro.core.runner.",
    "repro.core.parallel.",
    "repro.core.driver.",
    "repro.core.scenario.",
)


def percentile(values: list, q: int) -> float:
    """The q-th percentile (1..99) by ``statistics.quantiles``' default method."""
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100)[q - 1])


def samples_beyond(n: int, q: int) -> int:
    """How many of ``n`` samples lie beyond the q-th percentile."""
    return n - (n * q) // 100


def peak_rss_mb(with_children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0


def end_to_end(passes: list[PassStats], setup_samples: list[float], rss_mb: float):
    """The end-to-end metrics of one untraced run, and the bases behind them.

    * ``setup_s``: median of the fresh-process set-ups.
    * ``wall_s``: median pass wall time.
    * ``cold_cells_per_s``: (plan, cell) values measured per second of
      cold work; ``warm_cells_per_s``: values served without measuring
      (memoized maps, cell-store hits, ``/result`` bodies) per second of
      warm requests.  Medians over passes.
    * ``cold_p50_s``, ``warm_p50_ms``, ``warm_p90_ms``: percentiles of
      the request latencies pooled over passes; the report gives the
      sample count and how many samples lie beyond p90.
    * ``requests_per_s``: requests completed per second spent serving
      them, over all passes together.
    * ``peak_rss_mb``: peak resident memory of the process, plus the
      largest worker's for ``sweeps``.
    """
    cold = [t for p in passes for t in p.cold_s]
    warm = [t for p in passes for t in p.warm_s]
    cold_rate = [p.cold_cells / p.cold_time for p in passes if p.cold_time > 0]
    warm_rate = [p.warm_cells / p.warm_time for p in passes if p.warm_time > 0]
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "cold_cells_per_s": statistics.median(cold_rate),
        "warm_cells_per_s": statistics.median(warm_rate),
        "cold_p50_s": statistics.median(cold),
        "warm_p50_ms": 1000.0 * statistics.median(warm),
        "warm_p90_ms": 1000.0 * percentile(warm, 90),
        "requests_per_s": sum(p.requests for p in passes)
        / sum(p.cold_time + p.warm_time for p in passes),
        "peak_rss_mb": rss_mb,
    }
    bases = {
        "passes": len(passes),
        "setup_samples": len(setup_samples),
        "cold_samples": len(cold),
        "warm_samples": len(warm),
        "warm_samples_beyond_p90": samples_beyond(len(warm), 90),
        "cold_cells": [p.cold_cells for p in passes],
        "cold_time_s": [p.cold_time for p in passes],
        "warm_cells": [p.warm_cells for p in passes],
        "warm_time_s": [p.warm_time for p in passes],
        "requests": [p.requests for p in passes],
        "wall_s": [p.wall_s for p in passes],
    }
    return metrics, bases


def _env_counters(env) -> tuple:
    pool, disk, temp = env.pool.stats, env.disk.stats, env.temp
    return (pool.hits, pool.misses, pool.evictions, disk.pages_read, temp.pages_spilled)


def _store_counters(store) -> tuple:
    return (store.cell_hits, store.cell_misses, store.writes)


class CounterBaseline:
    """Counter values of every traced object at the start of a pass."""

    def __init__(self, tracer) -> None:
        self.envs = {id(env): _env_counters(env) for env in tracer.envs}
        self.stores = {id(store): _store_counters(store) for store in tracer.stores}

    def deltas(self, tracer) -> tuple[list, list]:
        env_total = [0] * 5
        for env in tracer.envs:
            base = self.envs.get(id(env), (0,) * 5)
            for i, value in enumerate(_env_counters(env)):
                env_total[i] += value - base[i]
        store_total = [0] * 3
        for store in tracer.stores:
            base = self.stores.get(id(store), (0,) * 3)
            for i, value in enumerate(_store_counters(store)):
                store_total[i] += value - base[i]
        return env_total, store_total


def layer_metrics(
    summary,
    setup_summary,
    tracer,
    baseline: CounterBaseline,
    stats: PassStats,
    workload_metrics: dict,
    traced_wall: float,
    untraced_wall: float,
    worker_cpu_s: float,
) -> tuple[dict, dict]:
    """Per-layer metrics of the traced pass, and the bases of its ratios."""
    env, store = baseline.deltas(tracer)
    pool_hits, pool_misses, evictions, pages_read, spill_pages = env
    store_hits, store_misses, store_writes = store

    def in_layer(layer):
        prefix = f"repro.{layer}."
        return lambda name: name.startswith(prefix)

    def both(predicate):
        return summary.inclusive(predicate) + setup_summary.inclusive(predicate)

    metrics = {f"{layer}.self_s": summary.self_by_layer.get(layer, 0.0) for layer in LAYERS}
    metrics.update(
        {
            "workloads.build_s": both(in_layer("workloads")),
            "systems.build_s": both(
                lambda name: name.startswith("repro.systems.")
                and (name.endswith(".__init__") or ".build_" in name)
            ),
            "executor.executions": summary.calls(
                lambda name: name == "repro.executor.plans.PlanRunner.measure"
            ),
            "storage.pool_hit_rate": pool_hits / (pool_hits + pool_misses)
            if pool_hits + pool_misses
            else 0.0,
            "storage.pool_hits": pool_hits,
            "storage.pool_misses": pool_misses,
            "storage.pool_evictions": evictions,
            "storage.btree_probe_calls": summary.calls(
                lambda name: name.startswith("repro.storage.btree.BPlusTree.probe")
            ),
            "storage.lru_kernel_s": summary.inclusive(in_layer("storage.lru_kernel")),
            "sim.pages_read": pages_read,
            "sim.spill_pages": spill_pages,
            "bench.figure_self_s": summary.self_time(in_layer("bench.figures")),
            "core.sweep_self_s": summary.self_time(
                lambda name: name.startswith(_SWEEP_MODULES)
            ),
            "core.cells_measured": summary.calls(
                lambda name: name == "repro.core.runner.RobustnessSweep._measure_cell"
            )
            + tracer.worker_cells,
            "core.cells_replayed": summary.calls(
                lambda name: name == "repro.core.runner.RobustnessSweep._fill_stored"
            ),
            "core.cellstore.load_s": summary.inclusive(
                lambda name: name in (
                    "repro.core.cellstore.lookup_cells",
                    "repro.core.cellstore.CellStore.index",
                )
            ),
            "core.cellstore.write_s": summary.inclusive(
                lambda name: name in (
                    "repro.core.cellstore.CellStore.put_many",
                    "repro.core.cellstore.records_from_part",
                )
            ),
            "core.cellstore.hits": store_hits,
            "core.cellstore.misses": store_misses,
            "core.cellstore.writes": store_writes,
            "core.cellstore.hit_rate": store_hits / (store_hits + store_misses)
            if store_hits + store_misses
            else 0.0,
            "core.cellstore.bytes_written": 0,
            "core.parallel.wait_s": sum(
                summary.self_by_name.get(name, 0.0)
                for name in (
                    "repro.core.parallel.as_completed",
                    "repro.core.parallel._LazyPool.shutdown",
                )
            ),
            "core.parallel.worker_cpu_s": worker_cpu_s,
            "core.mapdata.serialize_s": summary.inclusive(
                lambda name: name.startswith("repro.core.mapdata.MapData.to_")
                or name.startswith("repro.core.mapdata.MapData.save")
            ),
            "viz.renders": summary.top_level_calls(in_layer("viz")),
            "viz.bytes_out": 0,
            "obs.export_s": summary.inclusive(
                lambda name: name.startswith("repro.obs.metrics.MetricsRegistry.render")
                or name.startswith("repro.obs.profile.chrome_trace")
                or name.startswith("repro.obs.profile.write_chrome_trace")
            ),
            "service.handler_self_s": summary.self_time(in_layer("service.http")),
            "service.submit_s": summary.inclusive(
                lambda name: name == "repro.service.jobs.JobManager.submit"
            ),
            "service.queue_wait_s": 0.0,
            "service.dedup_ratio": 0.0,
            "service.jobs_created": 0,
            "service.jobs_deduplicated": 0,
            "service.jobs_retained": 0,
            "service.rss_per_job_mb": 0.0,
            "trace_overhead": traced_wall / untraced_wall,
            "unattributed_s": traced_wall - summary.main_self,
        }
    )
    for node in PLAN_NODES:
        span = f"repro.executor.{node}.execute"
        metrics[f"executor.{node}.self_s"] = summary.self_by_name.get(span, 0.0)
        metrics[f"executor.{node}.calls"] = summary.calls_by_name.get(span, 0)
    metrics.update({k: v for k, v in stats.counts.items() if k in metrics})
    metrics.update(workload_metrics)
    bases = {
        "storage.pool_hit_rate": {"hits": pool_hits, "accesses": pool_hits + pool_misses},
        "core.cellstore.hit_rate": {
            "hits": store_hits,
            "lookups": store_hits + store_misses,
        },
        "trace_overhead": {"traced_wall_s": traced_wall, "untraced_wall_s": untraced_wall},
        "unattributed_s": {
            "traced_wall_s": traced_wall,
            "main_thread_self_s": summary.main_self,
        },
        "executor+storage+sim share of wall": (
            metrics["executor.self_s"] + metrics["storage.self_s"] + metrics["sim.self_s"]
        )
        / traced_wall,
    }
    return metrics, bases


def compare_counts(previous: dict, current: dict) -> list[str]:
    """Names whose exact counts differ from an earlier run of the same seed."""
    return [
        f"{name}: {previous.get(name)} then {current.get(name)}"
        for name in sorted(set(previous) | set(current))
        if previous.get(name) != current.get(name)
    ]


def code_digest(root: Path, bench_dir: Path) -> str:
    """Digest of the program's and the benchmark's sources."""
    hasher = hashlib.sha256()
    for base in (root / "src", bench_dir):
        for path in sorted(base.rglob("*.py")):
            hasher.update(str(path.relative_to(root)).encode())
            hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = git / ref
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_stamp(root: Path, bench_dir: Path) -> dict:
    import numpy

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": NPROC,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
        "code_digest": code_digest(root, bench_dir),
    }
