"""The three workloads: what one pass does, what it checks, what it reports.

Every workload counts *requests* — the unit a user asks for — and splits
them into cold requests (they measure at least one map cell) and warm
requests (they measure none):

* ``figures``: the cold request is the serial rebuild of every
  ``ALL_FIGURES`` entry in a fresh session, at paper scale.  A warm
  request regenerates one figure from the maps of the previous pass's
  rebuild; from the second pass on, one is served after every cell the
  rebuild measures.
* ``sweeps``: a request is one ``ParallelSweep`` run over the cell store.
  Phases 1, 2, 3 and 5 measure cells; the phase-4 reruns of the cold
  maps, served between the other phases, are answered entirely from the
  store.
* ``service``: a request is one HTTP request.  A POST that creates a job
  is timed until the last byte of its ``/result``; repeats, result
  fetches, renders and the ``/metrics`` scrape are warm.

Checks run outside the timed region and fill :attr:`Workload.failures`.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import re
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field, fields
from http.client import HTTPConnection
from pathlib import Path

NPROC = max(1, os.cpu_count() or 1)

#: Every ``BenchConfig`` knob, pinned: the config otherwise reads
#: ``REPRO_*`` variables at construction.  Workloads override a few.
PINNED_CONFIG = {
    "n_rows": 1 << 17,
    "min_exp_1d": -16,
    "min_exp_2d": -12,
    "seed": 42,
    "pool_pages": 256,
    "budget_scale": 50.0,
    "memory_bytes": 4 << 20,
    "sort_rows": (2048, 4096, 8192, 16384, 24576, 32768),
    "sort_memory": (256 << 10, 512 << 10, 1 << 20, 2 << 20),
    "sort_row_bytes": 128,
    "memory_axis": (16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20),
    "join_rows": (512, 1024, 2048, 4096, 8192),
    "join_memory_bytes": 64 << 10,
    "join_row_bytes": 16,
    "join_key_domain": 1 << 16,
    "error_magnitudes": (0.0, 0.5, 1.0, 2.0, 3.0),
    "error_bias": 0.0,
    "error_seed": 2009,
    "refine": False,
    "refine_max_cells": 0,
    "n_workers": 0,
    "cache_dir": None,
    "cell_cache_dir": None,
    "trace": False,
}

#: Sizes per scale.  ``full`` is what the benchmark measures; ``tiny``
#: only exercises the machinery (the self-test), so figure claims, which
#: are calibrated for paper scale, are not enforced there.
SCALES = {
    "full": {
        "figure_rows": 1 << 17,
        "figure_min_exp_1d": -16,
        "figure_min_exp_2d": -12,
        "sweep_rows": 1 << 16,
        "sweep_min_exp": -12,
        "sweep_warm_rounds": 7,
        "refine_cells": 24,
        "service_rows": 1 << 16,
        "service_cold_per_client": 3,
        "service_warm_rounds": 8,
    },
    "tiny": {
        "figure_rows": 1 << 12,
        "figure_min_exp_1d": -8,
        "figure_min_exp_2d": -4,
        "sweep_rows": 1 << 12,
        "sweep_min_exp": -4,
        "sweep_warm_rounds": 1,
        "refine_cells": 8,
        "service_rows": 1 << 12,
        "service_cold_per_client": 1,
        "service_warm_rounds": 2,
    },
}


def bench_config(**overrides):
    """A ``BenchConfig`` with every known knob passed explicitly."""
    from repro.bench.requests import BenchConfig

    known = {f.name for f in fields(BenchConfig)}
    values = {name: value for name, value in PINNED_CONFIG.items() if name in known}
    values.update(overrides)
    return BenchConfig(**values)


def unpinned_knobs() -> list[str]:
    """``BenchConfig`` fields this benchmark does not know (left at default)."""
    from repro.bench.requests import BenchConfig

    return sorted({f.name for f in fields(BenchConfig)} - set(PINNED_CONFIG))


def map_bytes(mapdata) -> bytes:
    """Canonical bytes of a map (what byte-identity checks compare)."""
    return json.dumps(mapdata.to_dict(), sort_keys=True).encode("utf-8")


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


@dataclass
class PassStats:
    """What one timed pass produced."""

    wall_s: float = 0.0
    #: ``perf_counter`` when the timed work ended (checks come after it).
    ended: float = 0.0
    cold_s: list = field(default_factory=list)
    warm_s: list = field(default_factory=list)
    cold_cells: int = 0
    cold_time: float = 0.0
    warm_cells: int = 0
    warm_time: float = 0.0
    requests: int = 0
    attempted: int = 0
    failed: int = 0
    digests: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)


class Workload:
    """Set-up, timed passes, checks and teardown of one workload."""

    name = ""

    def __init__(self, seed: int, scale: str, tmp_root: Path, tracer=None) -> None:
        self.seed = seed
        self.sizes = SCALES[scale]
        self.scale = scale
        self.tmp_root = tmp_root
        self.tracer = tracer
        self.failures: list[str] = []

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def tag(self, request: str) -> None:
        if self.tracer is not None:
            self.tracer.set_request(request)

    def setup(self) -> None:
        """In-process set-up before the first pass (not part of a pass)."""

    def setup_probe(self) -> None:
        """What ``setup_s`` times in a fresh process."""
        self.setup()

    def run_pass(self, index: int) -> PassStats:
        raise NotImplementedError

    def check_run(self, passes: list[PassStats]) -> None:
        """Checks over the whole run (digests repeat across passes, ...)."""
        first = passes[0].digests
        for later in passes[1:]:
            for key, value in first.items():
                if later.digests.get(key) != value:
                    self.fail(f"digest of {key} differs between passes")

    def extra_check(self) -> None:
        """A check that is too expensive to run every pass."""

    def layer_metrics(self) -> dict:
        """Per-layer values only the workload itself can read."""
        return {}

    def layer_bases(self) -> dict:
        """The bases of the ratios among :meth:`layer_metrics`."""
        return {}

    def close(self) -> None:
        """Release everything set-up created (idempotent)."""


# ---------------------------------------------------------------------------
# figures
# ---------------------------------------------------------------------------


def _figures_session_class():
    from repro.bench.harness import BenchSession

    class FiguresSession(BenchSession):
        """A session that counts the map cells it hands out.

        ``computed`` counts (plan, cell) values of maps this session
        swept; ``served`` counts the values of maps it handed out again
        from memory.
        """

        def __init__(self, config, progress=None) -> None:
            super().__init__(config, progress=progress)
            self._seen: dict[int, object] = {}
            self.computed = 0
            self.served = 0

        def _count(self, mapdata):
            if id(mapdata) in self._seen:
                self.served += mapdata.times.size
            else:
                self._seen[id(mapdata)] = mapdata
                self.computed += mapdata.times.size
            return mapdata

    def counting(method_name):
        base = getattr(BenchSession, method_name)

        def method(self, *args, **kwargs):
            return self._count(base(self, *args, **kwargs))

        method.__name__ = method_name
        return method

    for method_name in (
        "single_predicate_map",
        "two_predicate_map",
        "sort_spill_map",
        "memory_sweep_map",
        "join_map",
        "estimation_map",
    ):
        setattr(FiguresSession, method_name, counting(method_name))
    return FiguresSession


def _figure_digest(result) -> str:
    hasher = hashlib.sha256()
    for name in sorted(result.artifacts):
        artifact = result.artifacts[name]
        hasher.update(name.encode())
        hasher.update(artifact if isinstance(artifact, bytes) else artifact.encode())
    hasher.update(result.series_text.encode())
    for claim in result.claims:
        hasher.update(repr(claim).encode())
    return hasher.hexdigest()[:16]


class FiguresWorkload(Workload):
    """Timed rebuilds of every figure; warm requests between their cells.

    Every pass rebuilds every figure in a fresh session.  From the
    second pass on, the session's progress callback, which the sweep
    engine calls after every cell it measures, regenerates the next warm
    figure from the previous pass's session, which no longer changes.
    So warm requests are spread over the rebuild in proportion to its
    sweep work.  They are timed on their own and left out of ``wall_s``
    and the cold time, so ``wall_s`` is the rebuild alone.  A figure is
    warm if regenerating it reads no page and sweeps no cell.
    """

    name = "figures"

    def setup(self) -> None:
        from repro.bench import figures
        from repro.bench.harness import BenchSession

        sizes = self.sizes
        self.config = bench_config(
            n_rows=sizes["figure_rows"],
            min_exp_1d=sizes["figure_min_exp_1d"],
            min_exp_2d=sizes["figure_min_exp_2d"],
            seed=self.seed,
        )
        # The module's binding of each figure function, which is the
        # wrapped one while a traced run is instrumenting ``repro``.
        self.figures = {
            figure_id: getattr(figures, build.__name__, build)
            for figure_id, build in figures.ALL_FIGURES.items()
        }
        self.session_class = _figures_session_class()
        # What set-up times: data generation and index build.  Every pass
        # builds its own systems again, as a fresh rebuild would.
        BenchSession(self.config).systems
        self.enforce_claims = self.scale == "full"
        #: The previous rebuild's session and digests.
        self.previous = None

    def _warm_server(self, stats: PassStats):
        """A progress callback that serves one warm request per call.

        Each call regenerates the next warm figure, in turn, from the
        previous rebuild's session.
        """
        warm_figures = self._warm_figures(stats)
        session, digests = self.previous
        order = itertools.cycle(warm_figures)

        def serve(event) -> None:
            figure_id, build = next(order)
            cells = session.served
            stats.attempted += 1
            began = time.perf_counter()
            try:
                result = build(session)
            except Exception as exc:  # noqa: BLE001 - reported as a failed request
                stats.warm_time += time.perf_counter() - began
                stats.failed += 1
                self.fail(f"{figure_id}: warm request raised {exc!r}")
                return
            elapsed = time.perf_counter() - began
            stats.warm_s.append(elapsed)
            stats.warm_time += elapsed
            stats.warm_cells += session.served - cells
            stats.requests += 1
            if _figure_digest(result) != digests[figure_id]:
                stats.failed += 1
                self.fail(f"{figure_id}: warm artifacts differ from cold ones")

        return serve

    def run_pass(self, index: int) -> PassStats:
        stats = PassStats()
        serve = self._warm_server(stats) if self.previous is not None else None
        session = self.session_class(self.config, progress=serve)
        for figure_id, build in self.figures.items():
            self.tag(figure_id)
            began = time.perf_counter()
            result = build(session)
            stats.cold_time += time.perf_counter() - began
            stats.digests[figure_id] = _figure_digest(result)
            stats.counts["viz.bytes_out"] = stats.counts.get("viz.bytes_out", 0) + sum(
                len(artifact) for artifact in result.artifacts.values()
            )
            stats.requests += 1
            stats.attempted += 1
            if not result.all_hold and self.enforce_claims:
                stats.failed += 1
                missed = [f"{c.claim!r} ({c.measured})" for c in result.claims if not c.holds]
                self.fail(f"{figure_id}: claims failed: {'; '.join(missed)}")
        self.tag(None)
        stats.ended = time.perf_counter()
        # The warm requests ran inside the figure builds: the rebuild alone
        # is the rest.
        stats.cold_time -= stats.warm_time
        stats.wall_s = stats.cold_time
        stats.cold_s.append(stats.cold_time)
        stats.cold_cells = session.computed
        session.progress = None
        # Release the older session before collecting.
        self.previous = None
        gc.collect()
        self.previous = (session, stats.digests)
        return stats

    def _warm_figures(self, stats: PassStats) -> list:
        """The figures the previous session regenerates without measuring.

        A figure that sweeps a private grid on every call never becomes
        warm.  This runs before the pass's timed work.
        """
        session, digests = self.previous
        warm = []
        for figure_id, build in self.figures.items():
            pages, computed = _pages_read(session), session.computed
            if _figure_digest(build(session)) != digests[figure_id]:
                stats.failed += 1
                self.fail(f"{figure_id}: regenerated artifacts differ from the rebuild's")
            if _pages_read(session) == pages and session.computed == computed:
                warm.append((figure_id, build))
        return warm


def _pages_read(session) -> int:
    return sum(system.env.disk.stats.pages_read for system in session.systems.values())


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


@dataclass
class _Phase:
    name: str
    map_name: str
    seconds: float
    mapdata: object
    hits: int
    misses: int
    writes: int


class SweepsWorkload(Workload):
    name = "sweeps"

    def setup(self) -> None:
        from repro.bench.harness import BenchSession
        from repro.bench.requests import compute_map, definition_for

        self.compute_map = compute_map
        self.definition_for = definition_for
        self.session_type = BenchSession
        sizes = self.sizes
        self.base = dict(
            n_rows=sizes["sweep_rows"],
            min_exp_2d=sizes["sweep_min_exp"],
            seed=self.seed,
            n_workers=NPROC,
        )
        # Parent-side set-up: the systems every phase's session rebuilds.
        self.session_type(bench_config(**self.base)).systems
        self.first_map = None

    def _phase(self, name: str, map_name: str, store_dir: str, **overrides) -> _Phase:
        self.tag(name)
        began = time.perf_counter()
        session = self.session_type(
            bench_config(**{**self.base, **overrides, "cell_cache_dir": store_dir})
        )
        mapdata = self.compute_map(session, self.definition_for(map_name))
        seconds = time.perf_counter() - began
        store = session.cell_store().stats()
        return _Phase(
            name,
            map_name,
            seconds,
            mapdata,
            store["cell_hits"],
            store["cell_misses"],
            store["writes"],
        )

    def run_pass(self, index: int) -> PassStats:
        sizes = self.sizes
        stats = PassStats()
        store_dir = tempfile.mkdtemp(prefix="cells-", dir=self.tmp_root)
        start = time.perf_counter()
        try:
            cold = self._phase("1-cold", "two_predicate_nojitter", store_dir)
            memory = self._phase("2-memory", "memory_sweep", store_dir)
            sort = self._phase("2-sort", "sort_spill", store_dir)
            warm: list[tuple[_Phase, _Phase]] = []

            def warm_reruns() -> None:
                # Phase 4: every cold map again, each in a fresh session,
                # served between the other phases so that the warm requests
                # are timed across the pass and not in one window.
                for _ in range(sizes["sweep_warm_rounds"]):
                    for source in (cold, memory, sort):
                        rerun = self._phase(
                            f"4-warm{len(warm)}-{source.map_name}", source.map_name, store_dir
                        )
                        warm.append((source, rerun))

            warm_reruns()
            extended = self._phase(
                "3-extend",
                "two_predicate_nojitter",
                store_dir,
                min_exp_2d=sizes["sweep_min_exp"] - 2,
            )
            warm_reruns()
            refined = self._phase(
                "5-refine",
                "estimation",
                store_dir,
                refine=True,
                refine_max_cells=sizes["refine_cells"],
            )
            warm_reruns()
            stats.ended = time.perf_counter()
            stats.wall_s = stats.ended - start
            store_bytes = sum(p.stat().st_size for p in Path(store_dir).iterdir())
        finally:
            self.tag(None)
            shutil.rmtree(store_dir, ignore_errors=True)
        reruns = [rerun for _source, rerun in warm]
        phases = [cold, memory, sort, extended, *reruns, refined]
        stats.requests = stats.attempted = len(phases)
        for phase in (cold, memory, sort, extended, refined):
            stats.cold_s.append(phase.seconds)
        for phase in reruns:
            stats.warm_s.append(phase.seconds)
        for phase in (cold, memory, sort, refined):
            stats.cold_cells += phase.misses * len(phase.mapdata.plan_ids)
            stats.cold_time += phase.seconds
        for phase in (extended, *reruns):
            stats.warm_cells += phase.hits * len(phase.mapdata.plan_ids)
            stats.warm_time += phase.seconds
        for phase in (cold, memory, sort, extended, refined):
            stats.digests[phase.name] = digest(map_bytes(phase.mapdata))
        for phase in phases:
            stats.counts[f"{phase.name}.hits"] = phase.hits
            stats.counts[f"{phase.name}.misses"] = phase.misses
            stats.counts[f"{phase.name}.writes"] = phase.writes
        stats.counts["core.cellstore.bytes_written"] = store_bytes
        self._check_pass(stats, cold, memory, sort, extended, warm, refined)
        if self.first_map is None:
            self.first_map = cold.mapdata
        return stats

    def _expect(self, stats: PassStats, phase: _Phase, hits: int, misses: int) -> None:
        writes = misses * len(phase.mapdata.plan_ids)
        got = (phase.hits, phase.misses, phase.writes)
        if got != (hits, misses, writes):
            stats.failed += 1
            self.fail(
                f"{phase.name}: store hits/misses/writes {got}, "
                f"expected {(hits, misses, writes)}"
            )

    def _check_pass(self, stats, cold, memory, sort, extended, warm, refined) -> None:
        import numpy as np

        def cells(phase: _Phase) -> int:
            return int(np.prod(phase.mapdata.grid_shape))

        grid = cells(cold)
        for phase in (cold, memory, sort):
            self._expect(stats, phase, 0, cells(phase))
        self._expect(stats, extended, grid, cells(extended) - grid)
        for source, rerun in warm:
            self._expect(stats, rerun, cells(source), 0)
            if map_bytes(rerun.mapdata) != map_bytes(source.mapdata):
                stats.failed += 1
                self.fail(f"{rerun.name}: warm map differs from the cold map")
        measured = int(refined.mapdata.measured_mask.sum())
        self._expect(stats, refined, 0, measured)
        if not 0 < measured <= self.sizes["refine_cells"]:
            stats.failed += 1
            self.fail(f"5-refine: measured {measured} cells, budget {self.sizes['refine_cells']}")
        # The extended axes run two steps further down: the cold grid sits
        # at offset (2, 2) of the extended one.
        shared = (slice(None), slice(2, None), slice(2, None))
        for array in ("times", "aborted"):
            if getattr(extended.mapdata, array)[shared].tobytes() != getattr(
                cold.mapdata, array
            ).tobytes():
                stats.failed += 1
                self.fail(f"3-extend: {array} differ from the cold map on shared cells")
        if extended.mapdata.rows[2:, 2:].tobytes() != cold.mapdata.rows.tobytes():
            stats.failed += 1
            self.fail("3-extend: rows differ from the cold map on shared cells")

    def extra_check(self) -> None:
        """The parallel, store-backed 13x13 map equals a serial store-less one."""
        self.tag("check-serial")
        session = self.session_type(bench_config(**{**self.base, "n_workers": 0}))
        serial = self.compute_map(session, self.definition_for("two_predicate_nojitter"))
        self.tag(None)
        if map_bytes(serial) != map_bytes(self.first_map):
            self.fail("parallel store-backed map differs from the serial sweep")



# ---------------------------------------------------------------------------
# service
# ---------------------------------------------------------------------------


class _Interrupted(Exception):
    """The run is stopping; clients leave their loop."""


def _prometheus_value(text: str, name: str, labels: str = "") -> float:
    pattern = re.escape(name + labels) + r" ([0-9.eE+-]+)$"
    match = re.search(pattern, text, re.MULTILINE)
    return float(match.group(1)) if match else 0.0


class _LoadGenerator:
    """A closed loop of ``NPROC`` HTTP clients, one connection each.

    Cold phase: every client posts its share of the pass's requests and
    waits for each job's ``/result``.  After a barrier, the warm phase:
    each client repeats every finished request (deduplicated), fetches
    its ``/result`` and renders it as SVG (and PNG for 2-D maps), for a
    fixed number of rounds.  After a second barrier, client 0 scrapes
    ``/metrics`` once.
    """

    def __init__(self, workload: "ServiceWorkload", requests: list) -> None:
        self.workload = workload
        self.requests = requests
        self.host, self.port = workload.server.server_address[:2]
        self.lock = threading.Lock()
        self.barrier = threading.Barrier(NPROC)
        self.results: dict[str, dict] = {}
        self.failures: list[str] = []
        self.counters = {"requests": 0, "repeats": 0, "warm_cells": 0, "render_bytes": 0}
        self.cold_latency: list[float] = []
        self.warm_latency: list[float] = []
        self.edges: dict[str, float] = {}
        self.metrics_text = ""

    def threads(self) -> list[threading.Thread]:
        return [
            threading.Thread(target=self._client, args=(k,), name=f"bench-client-{k}")
            for k in range(NPROC)
        ]

    def _call(self, conn, method: str, path: str, body=None) -> bytes:
        if self.workload.stop.is_set():
            raise _Interrupted()
        payload = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        data = response.read()
        with self.lock:
            self.counters["requests"] += 1
        if not 200 <= response.status < 300:
            raise AssertionError(f"{method} {path} -> {response.status}: {data[:200]!r}")
        return data

    def _client(self, k: int) -> None:
        conn = HTTPConnection(self.host, self.port, timeout=self.workload.http_timeout)
        wait = self.workload.http_timeout * 4
        try:
            for request in self.requests[k::NPROC]:
                self._cold(conn, request)
            self.barrier.wait(timeout=wait)
            with self.lock:
                self.edges.setdefault("warm", time.perf_counter())
            jobs = sorted(self.results)
            jobs = jobs[k:] + jobs[:k]
            for round_index in range(self.workload.sizes["service_warm_rounds"]):
                for job_id in jobs:
                    self._warm(conn, k, round_index, job_id)
            self.barrier.wait(timeout=wait)
            if k == 0:
                self.workload.tag("metrics")
                began = time.perf_counter()
                text = self._call(conn, "GET", "/metrics").decode()
                with self.lock:
                    self.warm_latency.append(time.perf_counter() - began)
                    self.edges["end"] = time.perf_counter()
                    self.metrics_text = text
        except _Interrupted:
            self.barrier.abort()
        except Exception as exc:  # noqa: BLE001 - reported as a failed operation
            self.barrier.abort()
            with self.lock:
                self.failures.append(f"client {k}: {type(exc).__name__}: {exc}")
        finally:
            conn.close()
            self.workload.tag(None)

    def _cold(self, conn, request) -> None:
        self.workload.tag(f"cold:{request.scenario}:{dict(request.overrides)}")
        began = time.perf_counter()
        reply = json.loads(self._call(conn, "POST", "/maps", request.to_dict()))
        if not reply["created"]:
            raise AssertionError(f"cold request {reply['job_id']} was not new")
        job_id = reply["job_id"]
        while True:
            state = json.loads(self._call(conn, "GET", f"/jobs/{job_id}?wait=5"))["state"]
            if state == "failed":
                raise AssertionError(f"job {job_id} failed")
            if state == "done":
                break
        body = self._call(conn, "GET", f"/jobs/{job_id}/result")
        elapsed = time.perf_counter() - began
        with self.lock:
            self.cold_latency.append(elapsed)
            self.results[job_id] = {
                "request": request,
                "body": body,
                "map": json.loads(body)["map"],
            }

    def _warm(self, conn, k: int, round_index: int, job_id: str) -> None:
        entry = self.results[job_id]
        plan = entry["map"]["plan_ids"][0]
        paths = [f"/jobs/{job_id}/result", f"/jobs/{job_id}/render/{plan}.svg"]
        if len(entry["map"]["axes"]) == 2:
            paths.append(f"/jobs/{job_id}/render/{plan}.png")
        self.workload.tag(f"warm:{k}:{round_index}:{job_id}")
        began = time.perf_counter()
        reply = json.loads(self._call(conn, "POST", "/maps", entry["request"].to_dict()))
        latencies = [time.perf_counter() - began]
        if reply["created"] or reply["job_id"] != job_id:
            raise AssertionError(f"repeat of {job_id} was not deduplicated")
        cells = rendered = 0
        for path in paths:
            began = time.perf_counter()
            data = self._call(conn, "GET", path)
            latencies.append(time.perf_counter() - began)
            if path.endswith("/result"):
                if data != entry["body"]:
                    raise AssertionError(f"result of {job_id} changed on repeat")
                cells += _payload_cells(entry["map"])
            elif not data:
                raise AssertionError(f"empty render {path}")
            else:
                rendered += len(data)
        with self.lock:
            self.counters["repeats"] += 1
            self.counters["warm_cells"] += cells
            self.counters["render_bytes"] += rendered
            self.warm_latency.extend(latencies)


class ServiceWorkload(Workload):
    name = "service"

    http_timeout = 120.0

    def setup(self) -> None:
        from repro.bench.requests import MapRequest
        from repro.service import JobManager, build_server

        self.request_type = MapRequest
        self.manager_type = JobManager
        self.build_server = build_server
        self.stop = threading.Event()
        self.manager = None
        self.server = None
        self.server_thread = None
        self.clients: list[threading.Thread] = []

    def check_run(self, passes: list[PassStats]) -> None:
        """Nothing to compare across passes: each pass asks for new maps."""

    def setup_probe(self) -> None:
        self.setup()
        store_dir = tempfile.mkdtemp(prefix="probe-", dir=self.tmp_root)
        try:
            self._start(store_dir)
        finally:
            self._stop_service()
            shutil.rmtree(store_dir, ignore_errors=True)

    def _requests(self, index: int) -> list:
        """This pass's cold requests, each on its own data seed."""
        n = NPROC * self.sizes["service_cold_per_client"]
        requests = []
        for k in range(n):
            data_seed = (self.seed * 1009 + index * 101 + k) % (1 << 31)
            if k % 2 == 0:
                requests.append(
                    self.request_type("single_predicate", {"seed": data_seed})
                )
            else:
                requests.append(
                    self.request_type(
                        "memory_sweep",
                        {"seed": data_seed, "min_exp_2d": -6 if self.scale == "full" else -3},
                    )
                )
        return requests

    def _start(self, store_dir: str) -> None:
        config = bench_config(
            n_rows=self.sizes["service_rows"],
            min_exp_1d=-16 if self.scale == "full" else -8,
            seed=self.seed,
            cell_cache_dir=store_dir,
        )
        self.manager = self.manager_type(config, workers=NPROC, queue_limit=64)
        self.server = self.build_server(self.manager)
        self.server_thread = threading.Thread(
            target=self.server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="bench-http-server",
        )
        self.server_thread.start()

    def _stop_service(self) -> None:
        """Shut the server, its thread, the manager and the clients down."""
        self.stop.set()
        for client in self.clients:
            client.join(timeout=self.http_timeout)
        self.clients = []
        if self.server is not None:
            if self.server_thread is not None and self.server_thread.is_alive():
                self.server.shutdown()
            self.server.server_close()
            self.server = None
        if self.server_thread is not None:
            self.server_thread.join(timeout=30)
            self.server_thread = None
        if self.manager is not None:
            self.manager.close(timeout=120)
            self.manager = None
        self.stop.clear()

    def run_pass(self, index: int) -> PassStats:
        stats = PassStats()
        requests = self._requests(index)
        store_dir = tempfile.mkdtemp(prefix="service-", dir=self.tmp_root)
        gc.collect()
        rss_before = _current_rss_mb()
        start = time.perf_counter()
        try:
            self._start(store_dir)
            load = _LoadGenerator(self, requests)
            self.clients = load.threads()
            for thread in self.clients:
                thread.start()
            for thread in self.clients:
                thread.join()
            self.clients = []
            end = stats.ended = time.perf_counter()
            stats.wall_s = end - start
            jobs = [self.manager.get(job_id) for job_id in sorted(load.results)]
            retained = sum(1 for job in jobs if job is not None and job.session is not None)
            queue_wait = sum(job.started - job.created for job in jobs if job and job.started)
            rss_after = _current_rss_mb()
            store_bytes = sum(p.stat().st_size for p in Path(store_dir).iterdir())
        finally:
            self._stop_service()
            shutil.rmtree(store_dir, ignore_errors=True)
        for message in load.failures:
            self.fail(message)
        counters = load.counters
        stats.failed = len(load.failures)
        stats.requests = counters["requests"]
        stats.attempted = counters["requests"] + len(load.failures)
        stats.cold_s = list(load.cold_latency)
        stats.warm_s = list(load.warm_latency)
        warm_start = load.edges.get("warm", end)
        stats.cold_time = warm_start - start
        stats.cold_cells = sum(_payload_cells(entry["map"]) for entry in load.results.values())
        stats.warm_time = load.edges.get("end", end) - warm_start
        stats.warm_cells = counters["warm_cells"]
        for position, job_id in enumerate(sorted(load.results)):
            stats.digests[f"job{position}"] = digest(
                json.dumps(load.results[job_id]["map"], sort_keys=True).encode()
            )
        submitted = _prometheus_value(load.metrics_text, "repro_jobs_submitted_total")
        deduplicated = _prometheus_value(load.metrics_text, "repro_jobs_deduplicated_total")
        completed = _prometheus_value(
            load.metrics_text, "repro_jobs_completed_total", '{state="done"}'
        )
        expected = (len(requests), counters["repeats"], len(requests))
        if not load.failures and (submitted, deduplicated, completed) != expected:
            stats.failed += 1
            self.fail(
                f"/metrics says submitted/deduplicated/completed "
                f"{(submitted, deduplicated, completed)}, clients did {expected}"
            )
        if not load.failures and len(load.results) != len(requests):
            stats.failed += 1
            self.fail(f"{len(load.results)} of {len(requests)} cold requests completed")
        stats.counts["viz.bytes_out"] = counters["render_bytes"]
        stats.counts["core.cellstore.bytes_written"] = store_bytes
        stats.counts["service.jobs_created"] = int(submitted)
        stats.counts["service.jobs_deduplicated"] = int(deduplicated)
        self.last = {
            "retained": retained,
            "queue_wait": queue_wait,
            "rss_per_job": (rss_after - rss_before) / max(1, len(load.results)),
            "dedup_ratio": deduplicated / max(1.0, submitted + deduplicated),
            "submissions": submitted + deduplicated,
            "deduplicated": deduplicated,
            "jobs": len(load.results),
        }
        return stats

    def layer_metrics(self) -> dict:
        return {
            "service.jobs_retained": self.last["retained"],
            "service.queue_wait_s": self.last["queue_wait"],
            "service.rss_per_job_mb": self.last["rss_per_job"],
            "service.dedup_ratio": self.last["dedup_ratio"],
        }

    def layer_bases(self) -> dict:
        return {
            "service.dedup_ratio": {
                "deduplicated": self.last["deduplicated"],
                "submissions": self.last["submissions"],
            },
            "service.rss_per_job_mb": {"jobs": self.last["jobs"]},
        }

    def close(self) -> None:
        self._stop_service()


def _payload_cells(payload: dict) -> int:
    """(plan, cell) values in a serialized map."""
    times = payload["times"]
    count = 0
    stack = [times]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        else:
            count += 1
    return count


def _current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        resident = int(fh.read().split()[1])
    return resident * os.sysconf("SC_PAGE_SIZE") / (1 << 20)


WORKLOADS = {
    workload.name: workload
    for workload in (FiguresWorkload, SweepsWorkload, ServiceWorkload)
}
