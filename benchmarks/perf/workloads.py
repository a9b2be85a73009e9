"""The four workloads: what runs, how it is checked, how it is torn down.

Each drives the program through its public entry points only
(``service.jobs`` builders, ``SearchEngine.step``, ``ServiceClient``,
``python -m repro serve``) with the program's defaults.  ``README.md``
says why each exists and which layers it is meant to show.

A workload object lives for one run:

* ``set_up()`` is the repeatable part of set-up, ending in one discarded
  warm-up pass; the runner calls it several times and reports the median;
* ``settle()`` runs once after the last ``set_up()``: work the measured
  state needs but that is too long to repeat (its time is in ``setup_s``);
* ``measure(seconds, recorder)`` returns the measured :class:`Window` s;
  with a recorder it alternates plain and traced work so the two can be
  compared within one run;
* ``verify(windows)`` runs the correctness checks and charges failures;
* ``layer_metrics(...)`` turns a traced run into per-layer numbers;
* ``close()`` stops whatever the workload started.
"""

from __future__ import annotations

import collections
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import layers, procstat, reference
from .sizes import FLEET_PLATFORMS, PARALLELISM, Sizes
from .spans import SpanRecorder, durations

#: a job that has not finished by then is a failed operation
JOB_TIMEOUT_S = 60.0
#: the daemon gets this long to drain before it is killed
DRAIN_TIMEOUT_S = 15.0


@dataclass
class Window:
    """One measured stretch of operations.

    ``chunk_steps`` consecutive steps of a search workload's repeat, or
    the whole closed-loop window of ``service_jobs``.  Rates are taken
    per window and the median over windows is reported, so a burst of
    interference that slows a few windows does not move the result; and
    every window carries timings of the reference kernel taken around
    it, which scale its times to reference time (:mod:`.reference`).
    """

    traced: bool = False
    ops: int = 0
    failed: int = 0
    wall_s: float = 0.0
    #: CPU of the process tree that did the work
    cpu_s: float = 0.0
    #: duration of every operation that completed
    op_s: List[float] = field(default_factory=list)
    #: timings of the reference kernel taken around the window
    reference_s: List[float] = field(default_factory=list)
    #: search label -> ``result_payload(...)["fingerprint"]`` of the repeat
    #: the window is part of
    fingerprints: Dict[str, str] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor that turns this window's times into reference time."""
        return reference.scale(self.reference_s)


def own_tree_cpu_seconds() -> float:
    """CPU of this process (precise) plus its live descendants (by tick)."""
    me = os.getpid()
    return time.process_time() + sum(
        procstat.cpu_seconds(pid) for pid in procstat.process_tree(me) if pid != me
    )


# ----------------------------------------------------------------------
# Search workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SearchPlan:
    """One search of a repeat: how to build it and what to call it."""

    label: str
    #: returns the builder's ``(space, factory)``
    build: Callable[[], Tuple[Any, Callable[[], Any]]]


class SearchWorkload:
    """Driver shared by the workloads that step a search in this process."""

    name = ""
    #: all work happens on this process's one thread, so wall ~ CPU and a
    #: gap between them means something else had the core
    serial = True

    def __init__(self, seed: int, sizes: Sizes, scratch: Any):
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch
        self.steps = sizes.search_steps

    # -- what differs between the search workloads ----------------------
    #: the correctness check :meth:`verify` reports
    check = "repeats_identical"
    #: span recorded around ``factory()`` in a traced repeat
    factory_span = "engine.build"

    def plans(self, steps: int) -> List[SearchPlan]:
        raise NotImplementedError

    def probes(self) -> Dict[str, float]:
        """Isolated timings of the layers this workload is meant to show."""
        return {}

    def prepare(self) -> None:
        """Set-up before the warm-up pass (artifact, pool)."""

    def expected_fingerprints(self, windows: List[Window]) -> Dict[str, str]:
        """What every repeat must fingerprint as: by default, what most did."""
        votes = collections.Counter(
            tuple(sorted(window.fingerprints.items())) for window in windows
        )
        return dict(votes.most_common(1)[0][0])

    # -- the shared driver ----------------------------------------------
    def set_up(self) -> None:
        self.prepare()
        self.run_repeat(max(1, self.steps // 4))  # the discarded warm-up pass

    def settle(self) -> None:
        """Nothing more: the warm-up pass leaves this process in steady state."""

    def cpu_clock(self) -> float:
        """CPU of the processes doing this workload's work, so far."""
        return time.process_time() if self.serial else own_tree_cpu_seconds()

    def run_repeat(
        self,
        steps: int,
        recorder: Optional[SpanRecorder] = None,
        tally: Optional[layers.EngineTally] = None,
    ) -> List[Window]:
        """Every planned search, built fresh and stepped to the end.

        Returns the repeat cut into windows of ``chunk_steps`` operations.
        The cuts fall on step boundaries and every moment of the repeat
        but the reference timings at the cuts is in exactly one window:
        ``factory()`` in the first, the result and its fingerprint in the
        last.  All share one ``fingerprints`` dict.
        """
        from repro.service.jobs import result_payload

        fingerprints: Dict[str, str] = {}
        windows: List[Window] = []
        wall_mark = cpu_mark = 0.0

        def cut(open_next: bool) -> None:
            """Close the open window, time the reference kernel (outside
            every window; the timing belongs to both its neighbours), open
            the next."""
            nonlocal wall_mark, cpu_mark
            wall_now, cpu_now = time.perf_counter(), self.cpu_clock()
            reference_s = reference.sample()
            if windows:
                windows[-1].wall_s = wall_now - wall_mark
                windows[-1].cpu_s = cpu_now - cpu_mark
                windows[-1].reference_s.append(reference_s)
            if open_next:
                windows.append(
                    Window(
                        traced=recorder is not None,
                        fingerprints=fingerprints,
                        reference_s=[reference_s],
                    )
                )
            wall_mark, cpu_mark = time.perf_counter(), self.cpu_clock()

        cut(open_next=True)

        for plan in self.plans(steps):
            space, factory = plan.build()
            if recorder is None:
                built = factory()
            else:
                recorder.set_op(f"{plan.label}/build")
                with recorder.span(self.factory_span):
                    built = factory()
            # dlrm_search_builder hands back the H2ONas facade
            engine = getattr(built, "search_algorithm", built)
            if recorder is not None:
                layers.install_engine_wrappers(recorder, engine, tally)
            history = []
            for step in range(steps):
                if windows[-1].ops >= self.sizes.chunk_steps:
                    cut(open_next=True)
                window = windows[-1]
                start = time.perf_counter()
                try:
                    if recorder is None:
                        record = engine.step(step)
                    else:
                        recorder.set_op(f"{plan.label}/{tally.steps + step}")
                        with recorder.span(layers.STEP_SPAN):
                            record = engine.step(step)
                except Exception:  # the run goes on; the failure is counted
                    window.errors.append(traceback.format_exc())
                    window.ops += steps - step
                    window.failed += steps - step
                    break
                window.op_s.append(time.perf_counter() - start)
                window.ops += 1
                history.append(record)
            else:
                result = engine.build_result(history)
                fingerprints[plan.label] = result_payload(space, result)["fingerprint"]
                if recorder is not None:
                    layers.collect_engine_counters(tally, engine, result)
                    tally.steps += steps
        cut(open_next=False)
        return windows

    def measure(self, seconds: float, recorder: Optional[SpanRecorder]) -> List[Window]:
        self.tally = layers.EngineTally() if recorder is not None else None
        floor = max(self.sizes.min_repeats, 2 if recorder is not None else 1)
        windows: List[Window] = []
        repeats = 0
        repeat_s = 0.0
        start = time.perf_counter()
        # Whole repeats only (the fingerprint needs the whole search), as
        # many as bring the window closest to ``seconds``.
        while repeats < floor or time.perf_counter() - start + repeat_s / 2 < seconds:
            traced = recorder is not None and repeats % 2 == 1
            repeat_start = time.perf_counter()
            windows += self.run_repeat(
                self.steps, recorder if traced else None, self.tally if traced else None
            )
            repeat_s = time.perf_counter() - repeat_start
            repeats += 1
        return windows

    def peak_rss_mb(self) -> float:
        return procstat.tree_peak_rss_mb(os.getpid())

    def verify(self, windows: List[Window]) -> Dict[str, bool]:
        expected = self.expected_fingerprints(windows)
        identical = True
        for window in windows:
            if window.fingerprints != expected:
                identical = False
                window.failed = window.ops  # a wrong answer fails the whole repeat
        return {self.check: identical}

    def layer_metrics(self, recorder: SpanRecorder, windows: List[Window]) -> Dict[str, float]:
        return {**layers.engine_metrics(recorder, self.tally), **self.probes()}

    def close(self) -> None:
        from repro.core.engine.backends import shutdown_pools

        shutdown_pools()


class SearchTrain(SearchWorkload):
    """The paper's single-step search on the real masking DLRM supernet."""

    name = "search_train"
    backend = "serial"
    workers: Optional[int] = None

    def plans(self, steps: int) -> List[SearchPlan]:
        from repro.service.jobs import dlrm_search_builder

        return [
            SearchPlan(
                "dlrm",
                lambda: dlrm_search_builder(
                    steps, self.seed, True, backend=self.backend, workers=self.workers
                ),
            )
        ]

    def probes(self) -> Dict[str, float]:
        return layers.probe_nn(self.seed, self.sizes.probe_iterations)


class SearchPooled(SearchTrain):
    """Exactly ``search_train``'s search, scored in two pool workers."""

    name = "search_pooled"
    serial = False
    backend = "processes"
    workers = PARALLELISM

    check = "equals_search_train"

    def settle(self) -> None:
        # A fresh worker's resident set grows by ~240 MB (tape buffers)
        # over its first ~300 steps, and steps take 2-3x as long while it
        # does; a search on a pool that has served searches before is
        # what this workload measures.  The pool is started by the first
        # set-up pass and kept: the warm-up passes count towards settling.
        for _ in range(self.sizes.pool_settle_repeats):
            self.run_repeat(self.steps)

    def expected_fingerprints(self, windows: List[Window]) -> Dict[str, str]:
        serial = SearchTrain(self.seed, self.sizes, self.scratch)
        return serial.run_repeat(self.steps)[0].fingerprints

    def probes(self) -> Dict[str, float]:
        return layers.probe_backend(self.seed, self.sizes.probe_iterations)


class SpecializeFleet(SearchWorkload):
    """One trained elastic artifact specialized for three hardware targets."""

    name = "specialize_fleet"
    # the factory restores the artifact's weights into a fresh supernet
    factory_span = "artifact.restore"

    def __init__(self, seed: int, sizes: Sizes, scratch: Any):
        super().__init__(seed, sizes, scratch)
        self.steps = sizes.specialize_steps
        self.artifact = scratch / "artifact"

    def prepare(self) -> None:
        from repro.runtime import save_elastic_artifact
        from repro.service.jobs import elastic_training_builder

        shutil.rmtree(self.artifact, ignore_errors=True)
        steps = self.sizes.elastic_steps
        space, schedule, factory = elastic_training_builder(
            steps, self.seed, backend="serial"
        )
        training = factory()
        training.run()
        save_elastic_artifact(
            self.artifact,
            training.supernet,
            space,
            schedule,
            trained_steps=steps,
            seed=self.seed,
        )

    def plans(self, steps: int) -> List[SearchPlan]:
        from repro.service.jobs import specialization_builder

        return [
            SearchPlan(
                platform,
                lambda platform=platform: specialization_builder(
                    self.artifact, platform, steps, self.seed, backend="serial"
                ),
            )
            for platform in FLEET_PLATFORMS
        ]


# ----------------------------------------------------------------------
# The service workload
# ----------------------------------------------------------------------
@dataclass
class JobSample:
    """One submitted job, as its client saw it."""

    index: int
    spec: Dict[str, Any]
    traced: bool
    roundtrip_s: float = 0.0
    job_id: Optional[str] = None
    #: the terminal ``JobRecord`` and the results payload
    record: Optional[Dict[str, Any]] = None
    payload: Optional[Dict[str, Any]] = None
    #: wall-clock time at which the client first saw ``done``
    seen_done_at: float = 0.0
    error: Optional[str] = None


class ServiceJobs:
    """What a tenant sees: jobs through a ``repro serve`` daemon.

    Closed loop: each of the client threads submits its next job only
    after it holds the previous job's results, so a slower daemon
    receives less load.
    """

    name = "service_jobs"
    serial = False

    def __init__(self, seed: int, sizes: Sizes, scratch: Any):
        self.seed = seed
        self.sizes = sizes
        self.scratch = scratch
        self.daemon: Optional[subprocess.Popen] = None
        self.generation = 0
        self.next_index = 0
        self.samples: List[JobSample] = []
        #: reference timings the clients took during the last ``run_clients``
        self.reference_s: List[float] = []
        self.one_shot_s: List[float] = []

    # -- daemon lifetime -------------------------------------------------
    @property
    def spool(self) -> Any:
        return self.scratch / f"spool-{self.generation}"

    def client(self) -> Any:
        from repro.service.client import ServiceClient

        # Relative to the working directory: a Unix socket path is capped
        # near 100 bytes and a checkout can sit deep.
        return ServiceClient(os.path.relpath(self.spool / "daemon.sock"))

    def set_up(self) -> None:
        self.stop_daemon()
        shutil.rmtree(self.spool, ignore_errors=True)
        self.generation += 1
        self.spool.mkdir()
        with open(self.spool / "daemon.log", "wb") as log:
            self.daemon = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "serve",
                    "--spool", str(self.spool),
                    "--socket", os.path.relpath(self.spool / "daemon.sock"),
                    "--max-concurrent", str(PARALLELISM),
                ],
                stdin=subprocess.DEVNULL,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        self.client().wait_ready(timeout=60.0, poll_s=0.02)
        self.run_clients(0.0, self.sizes.warmup_jobs, None)

    def stop_daemon(self) -> None:
        """Drain the daemon; kill it if it has not left in time."""
        daemon, self.daemon = self.daemon, None
        if daemon is None:
            return
        try:
            if daemon.poll() is None:
                try:
                    self.client().drain()
                except Exception:  # unreachable or wedged: signal it instead
                    daemon.terminate()
                daemon.wait(timeout=DRAIN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.wait()

    def settle(self) -> None:
        """Nothing more: the daemon has served its warm-up jobs."""

    def close(self) -> None:
        self.stop_daemon()

    # -- load -------------------------------------------------------------
    def job_spec(self, seed: int) -> Dict[str, Any]:
        return {
            "steps": self.sizes.job_steps,
            "seed": seed,
            "checkpoint_every": self.sizes.job_checkpoint_every,
        }

    def one_job(self, client: Any, index: int, traced: bool) -> JobSample:
        spec = self.job_spec(self.seed + index)
        sample = JobSample(index=index, spec=spec, traced=traced)
        start = time.perf_counter()
        try:
            job = client.submit(f"client-{index % PARALLELISM}", spec)
            sample.job_id = job["job_id"]
            sample.record = client.wait(sample.job_id, timeout=JOB_TIMEOUT_S, poll_s=0.02)
            sample.seen_done_at = time.time()
            if sample.record["state"] != "done":
                raise RuntimeError(
                    f"{sample.job_id} ended {sample.record['state']}: "
                    f"{sample.record.get('error')}"
                )
            sample.payload = client.results(sample.job_id)
        except Exception as error:  # the client goes on; the job is failed
            sample.error = repr(error)
        sample.roundtrip_s = time.perf_counter() - start
        return sample

    def run_clients(
        self, seconds: float, floor: int, recorder: Optional[SpanRecorder]
    ) -> List[JobSample]:
        """Closed loop of ``PARALLELISM`` clients for ``seconds``, at least
        ``floor`` jobs each; with a recorder, every other job is traced."""
        first = self.next_index
        deadline = time.perf_counter() + seconds
        streams: List[List[JobSample]] = [[] for _ in range(PARALLELISM)]
        reference_s = self.reference_s = []
        interrupted = threading.Event()

        def client_loop(lane: int) -> None:
            plain = self.client()
            if recorder is not None:
                traced = self.client()
                for verb in ("submit", "status", "results"):
                    recorder.install(traced, verb, f"service.{verb}")
            mine = streams[lane]
            while not interrupted.is_set() and (
                len(mine) < floor or time.perf_counter() < deadline
            ):
                index = first + lane + PARALLELISM * len(mine)
                if recorder is not None and len(mine) % 2 == 1:
                    recorder.set_op(f"job/{index}")
                    with recorder.span("service.job"):
                        mine.append(self.one_job(traced, index, True))
                else:
                    mine.append(self.one_job(plain, index, False))
                # between a client's jobs, while the daemon runs the other's
                reference_s.append(reference.sample())

        threads = [
            threading.Thread(
                target=client_loop, args=(lane,), name=f"client-{lane}", daemon=True
            )
            for lane in range(PARALLELISM)
        ]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                thread.join()
        finally:
            interrupted.set()  # Ctrl-C lands in join(): the clients stop submitting
        samples = [sample for stream in streams for sample in stream]
        self.next_index = first + PARALLELISM * max(
            (len(stream) for stream in streams), default=0
        )
        return samples

    def measure(self, seconds: float, recorder: Optional[SpanRecorder]) -> List[Window]:
        floor = max(self.sizes.min_jobs, 2 if recorder is not None else 1)
        wall_start = time.perf_counter()
        cpu_start = procstat.tree_cpu_seconds(self.daemon.pid)
        self.samples = self.run_clients(seconds, floor, recorder)
        wall_s = time.perf_counter() - wall_start
        cpu_s = procstat.tree_cpu_seconds(self.daemon.pid) - cpu_start
        # One window per kind of job, so traced jobs stay out of the
        # end-to-end numbers; they share the wall clock and the daemon.
        windows = []
        for traced in (False, True) if recorder is not None else (False,):
            mine = [sample for sample in self.samples if sample.traced == traced]
            share = len(mine) / len(self.samples)
            finished = [sample for sample in mine if sample.error is None]
            windows.append(
                Window(
                    traced=traced,
                    ops=len(mine),
                    failed=len(mine) - len(finished),
                    wall_s=wall_s * share,
                    cpu_s=cpu_s * share,
                    op_s=[sample.roundtrip_s for sample in finished],
                    reference_s=self.reference_s,
                    errors=[sample.error for sample in mine if sample.error is not None],
                )
            )
        return windows

    def peak_rss_mb(self) -> float:
        return procstat.tree_peak_rss_mb(self.daemon.pid)

    def verify(self, windows: List[Window]) -> Dict[str, bool]:
        """A service job's payload equals a one-shot run of the same spec."""
        from repro.service.jobs import JobSpec, one_shot_payload

        finished = [sample for sample in self.samples if sample.error is None]
        count = min(self.sizes.verified_jobs, len(finished))
        chosen = [finished[i * len(finished) // count] for i in range(count)]
        equal = bool(chosen)
        for sample in chosen:
            start = time.perf_counter()
            expected = one_shot_payload(JobSpec.from_dict(sample.spec))
            self.one_shot_s.append(time.perf_counter() - start)
            if expected["fingerprint"] != sample.payload["fingerprint"]:
                equal = False
                window = windows[1] if sample.traced else windows[0]
                window.failed += 1
                window.errors.append(f"{sample.job_id}: payload differs from one-shot")
        return {"equals_one_shot": equal}

    def layer_metrics(self, recorder: SpanRecorder, windows: List[Window]) -> Dict[str, float]:
        spec = self.job_spec(self.seed)
        measured = layers.probe_checkpoint(
            self.seed, self.sizes.job_steps, self.sizes.probe_iterations, self.scratch
        )
        measured.update(layers.probe_run_job(spec, self.scratch))
        traced = [s for s in self.samples if s.traced and s.error is None]
        if not traced or not self.one_shot_s:
            return measured

        def median_ms(values: List[float]) -> float:
            return statistics.median(values) * 1e3 if values else 0.0

        for verb in ("submit", "status", "results"):
            measured[f"service.{verb}_ms"] = median_ms(
                durations(recorder.spans, f"service.{verb}")
            )
        records = [sample.record for sample in traced]
        roundtrip_p50 = statistics.median(
            [s.roundtrip_s for s in self.samples if s.error is None]
        )
        measured.update(
            {
                "service.status_calls": len(durations(recorder.spans, "service.status"))
                / len(traced),
                "service.queue_wait_ms": median_ms(
                    [r["started_at"] - r["submitted_at"] for r in records]
                ),
                "service.run_s": statistics.median(
                    [r["finished_at"] - r["started_at"] for r in records]
                ),
                "service.finish_lag_ms": median_ms(
                    [s.seen_done_at - s.record["finished_at"] for s in traced]
                ),
                "service.spool_mb_per_job": statistics.mean(
                    layers.directory_bytes(self.spool / "runs" / s.job_id) for s in traced
                )
                / 1e6,
                "service.overhead_ratio": roundtrip_p50
                / statistics.median(self.one_shot_s),
            }
        )
        return measured


WORKLOADS = {
    workload.name: workload
    for workload in (SearchTrain, SpecializeFleet, SearchPooled, ServiceJobs)
}
