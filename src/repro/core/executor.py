"""Pluggable campaign execution engine.

Campaign episodes are embarrassingly parallel *by construction*: every
episode seed is derived order-independently from the campaign seed (see
:func:`repro.attacks.campaign.enumerate_campaign`) and a
:class:`~repro.core.platform.SimulationPlatform` owns all of its state, so
episodes share nothing at run time.  Three backends implement one
abstraction, :class:`CampaignExecutor`, and every one returns results
**bit-identical** to the serial reference for the same task list:

* :class:`SerialExecutor` — runs episodes in-process, in order.  Zero
  overhead; the reference backend.
* :class:`BatchExecutor` — steps episodes in lockstep through the
  vectorized batch engine, in one process.
* :class:`ParallelExecutor` — fans contiguous task chunks out to a
  ``concurrent.futures.ProcessPoolExecutor``, runs an *inner* in-process
  executor on each chunk in a worker and reassembles the results in
  submission order.  The inner executor is serial by default
  (``--executor parallel``) or batch (``--executor batch --jobs N``,
  the batch × jobs hybrid).

:func:`resolve_executor` maps an executor name, a worker count and a lane
cap onto one of these, and :func:`check_executor` is the one validator of
those choices.  Every backend reports progress through a thread-safe
``(done, total)`` callback (see :class:`ProgressTracker`), counted per
*episode* even when dispatch happens per chunk.

Episode payloads cross process boundaries, which is why
:class:`~repro.core.metrics.EpisodeResult` is fully picklable and carries
``to_dict``/``from_dict`` serialization.  When a payload is *not*
picklable (e.g. a lambda ``ml_factory``), :class:`ParallelExecutor`
degrades to running its inner executor in-process with a
``RuntimeWarning`` rather than failing mid-campaign — use the picklable
:class:`repro.ml.mitigation.MitigationFactory` (which carries the trained
weights) instead of a lambda so ML campaigns dispatch like the rest.

The worker-count default honours the ``REPRO_JOBS`` environment variable
(see :func:`default_jobs`), so campaigns parallelise without touching call
sites: ``REPRO_JOBS=8 python -m repro table6``.
"""

from __future__ import annotations

import abc
import os
import pickle
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor as _ProcessPool
from concurrent.futures import as_completed
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.attacks.campaign import EpisodeSpec
from repro.core.metrics import EpisodeResult
from repro.core.platform import PhaseProfile, SimulationPlatform
from repro.safety.arbitration import InterventionConfig

ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class EpisodeTask:
    """One unit of campaign work: an episode plus everything to run it.

    Attributes:
        spec: the episode to simulate.
        interventions: the safety configuration under test.
        ml_factory: builds a fresh ML controller for this episode (None
            when ``interventions.ml`` is False).  A factory rather than an
            instance so controller state can never leak across episodes —
            and so each worker process builds its own controller.
        platform_kwargs: extra :class:`SimulationPlatform` keyword
            arguments (``max_steps``, ``dt``, ...).
    """

    spec: EpisodeSpec
    interventions: InterventionConfig
    ml_factory: Optional[Callable[[], object]] = None
    platform_kwargs: Tuple[Tuple[str, object], ...] = ()

    @staticmethod
    def make(
        spec: EpisodeSpec,
        interventions: InterventionConfig,
        ml_factory: Optional[Callable[[], object]] = None,
        **platform_kwargs,
    ) -> "EpisodeTask":
        """Build a task, normalising kwargs into a hashable/picklable form."""
        return EpisodeTask(
            spec=spec,
            interventions=interventions,
            ml_factory=ml_factory,
            platform_kwargs=tuple(sorted(platform_kwargs.items())),
        )

    def build_platform(self) -> SimulationPlatform:
        """A fresh platform (and ML controller) for this episode."""
        controller = self.ml_factory() if self.ml_factory is not None else None
        return SimulationPlatform(
            self.spec,
            self.interventions,
            ml_controller=controller,
            **dict(self.platform_kwargs),
        )


def _run_chunk(
    inner: "CampaignExecutor", tasks: Sequence[EpisodeTask]
) -> List[EpisodeResult]:
    """Worker-side: run one chunk of tasks through the inner executor."""
    return inner.run(tasks)


class ProgressTracker:
    """Thread-safe ``(done, total)`` progress fan-in.

    Chunked parallel dispatch completes out of order and (depending on the
    executor implementation) may report from multiple threads; this
    serialises the counter updates and the user callback behind one lock so
    ``done`` is strictly monotonic.  ``done`` counts *episodes* but advances
    by whole chunks under parallel dispatch, so consumers must not assume
    unit increments — only that each reported value exceeds the last and
    the final call reports ``(total, total)``.
    """

    def __init__(self, total: int, callback: Optional[ProgressCallback]) -> None:
        if total < 0:
            raise ValueError(f"total must be >= 0, got {total}")
        self.total = total
        self.done = 0
        self._callback = callback
        self._lock = threading.Lock()

    def advance(self, count: int = 1) -> None:
        """Record ``count`` finished episodes and notify the callback.

        Raises:
            ValueError: if ``count`` is not positive — a zero or negative
                advance is always a caller bug (an empty chunk result
                would silently stall the ``(done, total)`` contract).
        """
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        with self._lock:
            self.done += count
            if self._callback is not None:
                self._callback(self.done, self.total)


class CampaignExecutor(abc.ABC):
    """Maps :class:`EpisodeTask`s to :class:`EpisodeResult`s, in order.

    Implementations must return results in task order and must be
    deterministic: the same task list always yields the same result list,
    regardless of scheduling.
    """

    #: Worker processes the executor runs episodes in.
    jobs: int = 1
    #: Per-phase step timing accumulates here when set.  Class-level so
    #: subclasses with bare ``__init__`` overrides stay unprofiled.
    profile: Optional[PhaseProfile] = None

    @abc.abstractmethod
    def run(
        self,
        tasks: Sequence[EpisodeTask],
        progress: Optional[ProgressCallback] = None,
    ) -> List[EpisodeResult]:
        """Execute every task and return results in task order."""

    def pool_chunk(self, total: int, jobs: int) -> int:
        """Tasks per chunk when ``jobs`` pool workers each run this executor.

        ~4 chunks per worker balance load across the pool; chunks above
        16 tasks starve the pool tail even on very large campaigns.
        """
        return min(16, max(1, total // (4 * jobs)))

    def stream_slice(self, remaining: int, jobs: int) -> int:
        """Tasks per slice when a resumed run streams results to disk.

        A few dispatch rounds across ``jobs`` workers, so streaming costs
        little parallel efficiency (see
        :func:`repro.core.scheduler.execute_shard`).
        """
        return max(8, 4 * jobs)


class SerialExecutor(CampaignExecutor):
    """In-process, in-order execution (the reference backend).

    Args:
        profile: optional :class:`PhaseProfile` to accumulate per-phase
            step timing into (``repro campaign --profile``); results are
            unaffected.
    """

    def __init__(self, profile: Optional[PhaseProfile] = None) -> None:
        self.profile = profile

    def run(
        self,
        tasks: Sequence[EpisodeTask],
        progress: Optional[ProgressCallback] = None,
    ) -> List[EpisodeResult]:
        tracker = ProgressTracker(len(tasks), progress)
        results: List[EpisodeResult] = []
        for task in tasks:
            results.append(task.build_platform().run(self.profile))
            tracker.advance()
        return results


class ParallelExecutor(CampaignExecutor):
    """Process-pool execution with chunked dispatch and ordered reassembly.

    Tasks are cut into contiguous chunks, each worker process runs the
    ``inner`` executor on its chunk, and results are reassembled in
    submission order.  Episodes are independent and every inner executor
    is bit-identical to serial on *any* task subset, so ``run`` is
    bit-identical to :class:`SerialExecutor` regardless of worker count or
    chunk boundaries.

    Args:
        jobs: worker process count (>= 1).  ``jobs=1`` short-circuits to
            ``inner`` in-process — no pool overhead, identical results.
        chunk_size: tasks per dispatched chunk.  ``None`` lets ``inner``
            choose (:meth:`CampaignExecutor.pool_chunk`): many small
            chunks for the scalar engine, one wide chunk per worker for
            the batch engine, whose lockstep amortises better the more
            lanes it steps together.
        inner: the in-process executor every worker runs (default
            :class:`SerialExecutor`; :class:`BatchExecutor` makes the
            batch × jobs hybrid).  It must not carry a profile when
            ``jobs > 1``: worker processes cannot time into it.
    """

    def __init__(
        self,
        jobs: int,
        chunk_size: Optional[int] = None,
        inner: Optional[CampaignExecutor] = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        inner = SerialExecutor() if inner is None else inner
        if jobs > 1 and inner.profile is not None:
            raise ValueError(
                "--profile times the step loop in one process, but --jobs > 1 "
                "runs episodes in the parallel executor's worker processes — "
                "drop --profile or run with --jobs 1"
            )
        self.jobs = jobs
        self.chunk_size = chunk_size
        self.inner = inner

    def stream_slice(self, remaining: int, jobs: int) -> int:
        return self.inner.stream_slice(remaining, jobs)

    @staticmethod
    def _dispatchable(tasks: Sequence[EpisodeTask]) -> bool:
        """True when every payload survives the process boundary.

        Probing only ``tasks[0]`` is not enough: campaigns mix arms, and a
        non-picklable payload (e.g. a lambda ``ml_factory`` on the ML arm)
        can sit anywhere in the list.  The expensive part of a task pickle
        is the ``ml_factory`` payload, so one representative per distinct
        factory object is probed instead of all N tasks.
        """
        seen: set = set()
        for task in tasks:
            marker = id(task.ml_factory) if task.ml_factory is not None else None
            if marker in seen:
                continue
            seen.add(marker)
            try:
                pickle.dumps(task)
            except Exception:
                return False
        return True

    def run(
        self,
        tasks: Sequence[EpisodeTask],
        progress: Optional[ProgressCallback] = None,
    ) -> List[EpisodeResult]:
        if self.jobs == 1 or len(tasks) <= 1:
            # One worker or one task: a pool adds spawn + pickling overhead
            # with zero parallelism to gain.
            return self.inner.run(tasks, progress)
        if not self._dispatchable(tasks):
            warnings.warn(
                "campaign payload is not picklable (e.g. a lambda ml_factory); "
                "falling back to in-process execution — use a module-level "
                "factory such as repro.ml.MitigationFactory to enable "
                "parallel dispatch",
                RuntimeWarning,
                stacklevel=2,
            )
            return self.inner.run(tasks, progress)

        tracker = ProgressTracker(len(tasks), progress)
        size = self.chunk_size or self.inner.pool_chunk(len(tasks), self.jobs)
        chunks = [list(tasks[i : i + size]) for i in range(0, len(tasks), size)]
        ordered: Dict[int, List[EpisodeResult]] = {}
        with _ProcessPool(max_workers=min(self.jobs, len(chunks))) as pool:
            futures = {
                pool.submit(_run_chunk, self.inner, chunk): index
                for index, chunk in enumerate(chunks)
            }
            for future in as_completed(futures):
                index = futures[future]
                chunk_results = future.result()
                ordered[index] = chunk_results
                tracker.advance(len(chunk_results))
        results: List[EpisodeResult] = []
        for index in range(len(chunks)):
            results.extend(ordered[index])
        return results


class BatchExecutor(CampaignExecutor):
    """Lockstep vectorized execution: N episodes advance together.

    One process owns all episodes and steps them in lockstep through
    :class:`repro.sim.batch_state.BatchDynamics`, which integrates every
    lane's world with NumPy-vectorized float64 math while the
    perception/control/safety stacks keep running per lane.  Results are
    **bit-identical** to :class:`SerialExecutor` (the vectorized dynamics
    replicate the scalar arithmetic exactly; see the batch_state module
    docstring), so the two backends are interchangeable — batch trades
    per-episode Python interpreter overhead for array dispatch, which pays
    off on campaign-sized episode counts.

    Episodes can only share an integrate when they share a physics period,
    so tasks are grouped by their ``dt``; episodes finish independently
    (accident or ``max_steps``) and drop out of the lockstep as they do.

    Args:
        lanes: cap on episodes stepped together (``None`` = one batch per
            ``dt`` group).  Smaller caps bound memory; larger caps
            amortise NumPy dispatch overhead better.
        profile: optional :class:`PhaseProfile` to accumulate per-phase
            step timing into (``steps`` counts lane-steps); results are
            unaffected.
    """

    def __init__(
        self,
        lanes: Optional[int] = None,
        profile: Optional[PhaseProfile] = None,
    ) -> None:
        if lanes is not None and lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        self.lanes = lanes
        self.profile = profile

    def pool_chunk(self, total: int, jobs: int) -> int:
        # One wide chunk per worker: a campaign's episodes are near-uniform
        # in cost, and the lockstep amortises better the wider it runs.
        return -(-total // jobs)

    def stream_slice(self, remaining: int, jobs: int) -> int:
        # Whole locksteps: streaming must not narrow the lockstep width.
        return self.lanes * jobs if self.lanes else max(1, remaining)

    def run(
        self,
        tasks: Sequence[EpisodeTask],
        progress: Optional[ProgressCallback] = None,
    ) -> List[EpisodeResult]:
        if not tasks:
            return []
        tracker = ProgressTracker(len(tasks), progress)
        results: List[Optional[EpisodeResult]] = [None] * len(tasks)
        groups: Dict[object, List[int]] = {}
        for index, task in enumerate(tasks):
            dt = dict(task.platform_kwargs).get("dt", 0.01)
            groups.setdefault(dt, []).append(index)
        for indices in groups.values():
            width = self.lanes or len(indices)
            for i in range(0, len(indices), width):
                self._run_batch(tasks, indices[i : i + width], results, tracker)
        return results  # type: ignore[return-value]

    def _run_batch(
        self,
        tasks: Sequence[EpisodeTask],
        indices: Sequence[int],
        results: List[Optional[EpisodeResult]],
        tracker: ProgressTracker,
    ) -> None:
        """Run one same-``dt`` group of episodes in lockstep."""
        from repro.safety.aebs import AebsConfig
        from repro.sim.batch_control import BatchControlStack
        from repro.sim.batch_hazards import BatchHazardMonitor
        from repro.sim.batch_state import BatchDynamics

        platforms = [tasks[index].build_platform() for index in indices]

        dynamics = BatchDynamics(
            [platform.world for platform in platforms],
            curvature_lookaheads=[
                platform.perception.params.curvature_lookahead
                for platform in platforms
            ],
            lead_max_ranges=[platform.sensor.max_range for platform in platforms],
            radar_leads=any(
                platform.interventions.aeb is AebsConfig.INDEPENDENT
                for platform in platforms
            ),
            human_leads=any(platform.driver is not None for platform in platforms),
        )
        stack = BatchControlStack(platforms, dynamics)
        hazards = BatchHazardMonitor(
            [platform.hazards for platform in platforms], dynamics
        )
        profile = self.profile
        clock = perf_counter if profile is not None else float
        dt = platforms[0].dt
        episodes = [platform._begin_episode() for platform in platforms]
        steps = [0] * len(platforms)
        active = list(range(len(platforms)))
        # The control phase runs before the first physics step, so the
        # step-0 world-query caches must be primed from the initial state.
        dynamics.prime(active)
        while active:
            t0 = clock()
            vector_lanes = [lane for lane in active if lane in stack.vector_set]
            stack.step_control(vector_lanes)
            for lane in active:
                if lane not in stack.vector_set:
                    platforms[lane]._control_phase(steps[lane], episodes[lane])
            t1 = clock()
            dynamics.step(active, dt)
            t2 = clock()
            width = len(active)
            stack.accumulate(vector_lanes)
            # Masked hazard screen: only lanes where the scalar monitor
            # could mark or latch something this step run it; the mask is
            # exact, so quiet lanes skip the per-lane update entirely.
            haz_flags = hazards.screen(active)
            remaining = []
            for pos, lane in enumerate(active):
                platform = platforms[lane]
                if lane in stack.vector_set:
                    # The intervention recorders already ran vectorized in
                    # step_control; only mask-flagged hazard detection
                    # remains per lane.
                    if haz_flags[pos]:
                        finished = platform._close_step(
                            steps[lane], episodes[lane]
                        )
                        hazards.refresh(lane)
                    else:
                        finished = False
                else:
                    finished = platform._after_dynamics(steps[lane], episodes[lane])
                steps[lane] += 1
                if finished or steps[lane] >= platform.max_steps:
                    if lane in stack.vector_set:
                        # Quiet steps skip the per-step counter write, so
                        # stamp the final step count before retirement.
                        episodes[lane].steps = steps[lane]
                        stack.retire(lane, episodes[lane])
                    platform._finish_episode(episodes[lane])
                    results[indices[lane]] = episodes[lane]
                    tracker.advance()
                else:
                    remaining.append(lane)
            active = remaining
            if profile is not None:
                profile.record(t0, t1, t2, perf_counter(), width)


def available_cores() -> int:
    """CPUs actually usable by this process (affinity/cgroup aware).

    The sizing input for worker fleets and parallel benchmarks:
    ``os.cpu_count()`` reports the machine, not what a container or
    ``taskset`` actually grants this process.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _env_positive_int(name: str, meaning: str) -> Optional[int]:
    """The positive integer in environment variable ``name`` (None if unset).

    Raises:
        ValueError: naming the variable, on a malformed or non-positive
            value.
    """
    raw = os.environ.get(name)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(
            f"{name} must be a positive integer ({meaning}), got {raw!r}"
        )
    return value


def default_jobs() -> int:
    """Worker-count default: the ``REPRO_JOBS`` environment variable, or 1.

    Raises:
        ValueError: on a malformed or non-positive ``REPRO_JOBS``.
    """
    return _env_positive_int("REPRO_JOBS", "worker process count") or 1


def default_batch_lanes() -> Optional[int]:
    """Batch-lane default: the ``REPRO_BATCH_LANES`` environment variable.

    ``None`` (unset) means "one batch per ``dt`` group" — no cap.  The
    variable is a default for the batch executor only; the other
    executors never read it.

    Raises:
        ValueError: on a malformed or non-positive ``REPRO_BATCH_LANES``.
    """
    return _env_positive_int("REPRO_BATCH_LANES", "lockstep lane cap")


#: Executor names accepted wherever an executor can be chosen by string
#: (``run_campaign(..., executor="batch")``, ``--executor`` on the CLI,
#: fleet worker command lines).
EXECUTOR_NAMES: Tuple[str, ...] = ("serial", "parallel", "batch")


def check_executor(
    executor: "str | CampaignExecutor | None", lanes: Optional[int] = None
) -> None:
    """Validate an executor choice and lane cap before anything runs.

    The one validator behind :func:`resolve_executor`, the worker
    backends (at construction) and the CLI.

    Args:
        executor: a :data:`EXECUTOR_NAMES` name, a ready
            :class:`CampaignExecutor` instance, or ``None``.
        lanes: an explicit lockstep lane cap, or ``None``.

    Raises:
        ValueError: on an unknown executor name, a non-positive ``lanes``,
            or an explicit ``lanes`` for anything but the ``"batch"`` name
            — no other executor steps lanes in lockstep, so the cap would
            be silently ignored.
    """
    if isinstance(executor, str) and executor not in EXECUTOR_NAMES:
        raise ValueError(
            f"unknown executor {executor!r}; expected one of "
            f"{', '.join(EXECUTOR_NAMES)}"
        )
    if lanes is None:
        return
    if lanes < 1:
        raise ValueError(f"lanes must be >= 1, got {lanes}")
    if executor != "batch":
        chosen = "no --executor" if executor is None else f"executor {executor!r}"
        raise ValueError(
            f"--lanes caps the lockstep width of --executor batch; {chosen} "
            "never uses it — drop --lanes or pass --executor batch"
        )


def resolve_executor(
    executor: "str | CampaignExecutor | None",
    jobs: Optional[int] = None,
    lanes: Optional[int] = None,
    profile: Optional[PhaseProfile] = None,
) -> CampaignExecutor:
    """Resolve an executor argument (name, instance or ``None``).

    Args:
        executor: a :data:`EXECUTOR_NAMES` name, a ready
            :class:`CampaignExecutor` instance (returned unchanged), or
            ``None`` for serial with one worker and ``"parallel"`` with
            more.
        jobs: worker count for the ``None``/``"parallel"``/``"batch"``
            cases; ``None`` defers to :func:`default_jobs` (the
            ``REPRO_JOBS`` environment variable, then 1).  More than one
            worker resolves to a :class:`ParallelExecutor` whose workers
            run the serial engine, or the batch engine for ``"batch"``
            (the batch × jobs hybrid, still bit-identical).
        lanes: lockstep lane cap for the ``"batch"`` case (per worker
            under the hybrid); ``None`` defers to
            :func:`default_batch_lanes` (the ``REPRO_BATCH_LANES``
            environment variable, then uncapped).  Rejected for every
            other executor.
        profile: a :class:`PhaseProfile` to accumulate per-phase timing
            into.  Only in-process execution can time the step loop: a
            profile with more than one worker raises.

    Raises:
        ValueError: on an unknown executor name, an inapplicable or
            non-positive ``lanes``, a non-positive ``jobs``, or
            ``profile`` with more than one worker.
    """
    check_executor(executor, lanes)
    if isinstance(executor, CampaignExecutor):
        return executor
    if executor == "serial":
        return SerialExecutor(profile=profile)
    if jobs is None:
        jobs = default_jobs()
    if executor == "batch":
        if lanes is None:
            lanes = default_batch_lanes()
        inner: CampaignExecutor = BatchExecutor(lanes=lanes, profile=profile)
    else:
        inner = SerialExecutor(profile=profile)
    if jobs == 1:
        return inner
    return ParallelExecutor(jobs, inner=inner)
