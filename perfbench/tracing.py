"""In-memory span tracing around the public functions of each layer.

The traced run patches the layer boundaries listed in :data:`LAYER_SPANS`
with thin wrappers, from the benchmark's side only: nothing under
``src/`` knows it is being traced.  Each call records one span — name,
start, end, parent span and run id, plus an optional per-call count
(lanes stepped, rows forwarded, bytes written) — into flat ``array``
columns, so a traced campaign of ~10^6 spans stays a few tens of MiB.
:meth:`Tracer.save` writes the columns out at the end of the run and
:func:`layer_metrics` derives self time, call counts and the per-layer
ratios from them.

A wrapper only times and counts; it passes arguments and results through
untouched, so a traced run produces the same output bytes as an untraced
one (``run.py`` checks this on every traced run).
"""

from __future__ import annotations

import importlib
import os
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Per-call count extractors, keyed by span name: ``(args, result) -> n``.
#: ``args[0]`` is ``self`` for methods.
_COUNTS: Dict[str, Callable[[tuple, object], float]] = {
    "executor.BatchControlStack.step_control": lambda a, r: len(a[1]),
    "sim.BatchDynamics.step": lambda a, r: len(a[1]),
    "hazards.BatchHazardMonitor.screen": lambda a, r: sum(r),
    "ml.LstmNetwork.forward": lambda a, r: a[1].shape[0],
    "cache.put": lambda a, r: os.path.getsize(r),
    "cache.get": lambda a, r: r is not None,
}

#: ``(span name, module, attribute path)`` for every wrapped boundary.
#: Module-level functions are patched where the caller looks them up (the
#: report's renderers in ``repro.analysis.report``, the ``*_arrays`` step
#: twins in ``repro.sim.batch_control``); methods are patched on their class.
LAYER_SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("analysis.run_campaign", "repro.analysis.report", "run_campaign"),
    ("analysis.fig5_series", "repro.analysis.report", "fig5_series"),
    ("analysis.fig6_series", "repro.analysis.report", "fig6_series"),
    *(
        ("analysis.render", "repro.analysis.report", fn)
        for fn in (
            "table4_driving_performance",
            "render_table4",
            "table5_lane_distance",
            "render_table5",
            "table6_rows",
            "render_table6",
            "table7_reaction_sweep",
            "render_table7",
            "table8_friction_sweep",
            "render_table8",
            "render_fig5_summary",
            "render_fig6_summary",
        )
    ),
    ("scheduler.execute_shard", "repro.core.scheduler", "execute_shard"),
    ("cache.put", "repro.core.cache", "DirectoryCacheBackend.put"),
    ("cache.get", "repro.core.cache", "DirectoryCacheBackend.get"),
    ("executor.BatchExecutor.run", "repro.core.executor", "BatchExecutor.run"),
    (
        "executor.BatchControlStack.step_control",
        "repro.sim.batch_control",
        "BatchControlStack.step_control",
    ),
    ("platform.SimulationPlatform.run", "repro.core.platform", "SimulationPlatform.run"),
    ("adas.PerceptionModel.run", "repro.adas.perception", "PerceptionModel.run"),
    ("adas.ControlsD.update", "repro.adas.controlsd", "ControlsD.update"),
    *(
        (f"adas.{fn}", "repro.sim.batch_control", fn)
        for fn in (
            "perception_head_arrays",
            "tracker_step_arrays",
            "long_plan_arrays",
            "lat_plan_arrays",
        )
    ),
    ("attacks.FaultInjectionEngine.apply", "repro.attacks.fi", "FaultInjectionEngine.apply"),
    (
        "attacks.FaultInjectionEngine.apply_values",
        "repro.attacks.fi",
        "FaultInjectionEngine.apply_values",
    ),
    ("safety.Aebs.update", "repro.safety.aebs", "Aebs.update"),
    ("safety.aebs_step_arrays", "repro.sim.batch_control", "aebs_step_arrays"),
    ("safety.LaneDepartureWarning.update", "repro.safety.ldw", "LaneDepartureWarning.update"),
    ("safety.ldw_arrays", "repro.sim.batch_control", "ldw_arrays"),
    ("safety.SafetyChecker.check", "repro.safety.panda", "SafetyChecker.check"),
    ("safety.checker_arrays", "repro.sim.batch_control", "checker_arrays"),
    ("safety.DriverModel.update", "repro.safety.driver", "DriverModel.update"),
    ("safety.Arbitrator.resolve", "repro.safety.arbitration", "Arbitrator.resolve"),
    ("ml.LstmNetwork.forward", "repro.ml.lstm", "LstmNetwork.forward"),
    ("ml.MitigationController.step", "repro.ml.mitigation", "MitigationController.step"),
    ("ml.BatchMitigation.step", "repro.sim.batch_ml", "BatchMitigation.step"),
    ("sim.World.step", "repro.sim.world", "World.step"),
    ("sim.BatchDynamics.step", "repro.sim.batch_state", "BatchDynamics.step"),
    ("sim.EgoVehicle.apply_controls", "repro.sim.vehicle", "EgoVehicle.apply_controls"),
    ("sim.BehaviorBatch.update", "repro.sim.batch_agents", "BehaviorBatch.update"),
    ("hazards.HazardMonitor.update", "repro.core.hazards", "HazardMonitor.update"),
    ("hazards.BatchHazardMonitor.screen", "repro.sim.batch_hazards", "BatchHazardMonitor.screen"),
)

#: Every distinct span name, in declaration order.
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in LAYER_SPANS))


def import_layers() -> None:
    """Import every module the tracer patches.

    Called during a traced run's set-up, so that no module loads inside a
    timed repetition when :meth:`Tracer.__enter__` looks the modules up.
    """
    for module in dict.fromkeys(module for _, module, _ in LAYER_SPANS):
        importlib.import_module(module)


class Tracer:
    """Span recorder; use as a context manager around the traced call.

    Entering patches every boundary in :data:`LAYER_SPANS`; leaving
    restores the originals, even when the traced call raises.
    """

    def __init__(self) -> None:
        self.names: List[str] = list(SPAN_NAMES)
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self.run_id = 0
        self._stack = [-1]
        self._patches: List[Tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        ids = {name: i for i, name in enumerate(self.names)}
        for span, module_name, path in LAYER_SPANS:
            owner = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls)
            # The class's own attribute, not an inherited or bound one.
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, ids[span], _COUNTS.get(span)))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name_id: int, count: Optional[Callable]):
        stack = self._stack
        name_col, parent_col, run_col = self.name, self.parent, self.run
        start_col, end_col, count_col = self.start, self.end, self.count
        tracer = self

        def traced(*args, **kwargs):
            idx = len(name_col)
            name_col.append(name_id)
            parent_col.append(stack[-1])
            run_col.append(tracer.run_id)
            end_col.append(0.0)
            count_col.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            start_col.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end_col[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count_col[idx] = count(args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def __len__(self) -> int:
        return len(self.name)

    def columns(self) -> Dict[str, np.ndarray]:
        """The spans as NumPy columns (one row per span, in start order)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "count": np.frombuffer(self.count, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        """Write every span (and the name table) to an ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.columns())


def _quantile(values: np.ndarray, q: float) -> float:
    return float(np.quantile(values, q)) if len(values) else 0.0


def layer_metrics(names: List[str], cols: Dict[str, np.ndarray]) -> Dict[str, float]:
    """Per-layer metrics derived from recorded spans.

    Self time is a span's duration minus the durations of its direct
    children.  A tick is one ``BatchDynamics.step`` call; its time runs
    from its start to the next tick's start under the same
    ``BatchExecutor.run`` (the last tick ends with the run), so it covers
    a whole lockstep iteration: dynamics, post-step tail, next control.
    """
    name, parent = cols["name"], cols["parent"]
    start, end, count = cols["start"], cols["end"], cols["count"]
    dur = end - start
    child = np.zeros(len(dur))
    nested = parent >= 0
    np.add.at(child, parent[nested], dur[nested])
    self_s = dur - child
    width = len(names)
    calls = np.bincount(name, minlength=width)
    self_sum = np.bincount(name, weights=self_s, minlength=width)
    count_sum = np.bincount(name, weights=count, minlength=width)
    ids = {n: i for i, n in enumerate(names)}

    out: Dict[str, float] = {}
    for n, i in ids.items():
        out[f"{n}.calls"] = int(calls[i])
        out[f"{n}.self_s"] = float(self_sum[i])

    def of(span: str) -> np.ndarray:
        return name == ids[span]

    def ratio(num: float, den: float) -> float:
        return float(num / den) if den else 0.0

    arms = dur[of("analysis.run_campaign")]
    out["analysis.arms"] = len(arms)
    out["analysis.arm_s.p50"] = _quantile(arms, 0.5)
    out["analysis.arm_s.max"] = float(arms.max()) if len(arms) else 0.0
    out["analysis.trace_s"] = float(
        dur[of("analysis.fig5_series") | of("analysis.fig6_series")].sum()
    )
    out["analysis.render_s"] = float(dur[of("analysis.render")].sum())
    out["cache.put.bytes"] = float(count_sum[ids["cache.put"]])
    out["cache.get.hits"] = float(count_sum[ids["cache.get"]])

    tick = np.nonzero(of("sim.BatchDynamics.step"))[0]
    widths = count[tick]
    lane_steps = float(widths.sum())
    if len(tick):
        owner = parent[tick]
        same = np.append(owner[1:] == owner[:-1], False)
        following = np.append(start[tick[1:]], 0.0)
        stop = np.where(same, following, end[owner])
        tick_ms = (stop - start[tick]) * 1e3
    else:
        tick_ms = np.zeros(0)
    out["executor.ticks"] = len(tick)
    out["executor.lane_steps"] = lane_steps
    out["executor.mean_width"] = ratio(lane_steps, len(tick))
    out["executor.ticks_w1"] = int((widths == 1).sum())
    out["executor.ticks_w2_11"] = int(((widths >= 2) & (widths <= 11)).sum())
    out["executor.ticks_w12_up"] = int((widths >= 12).sum())
    out["executor.tick_ms.p50"] = _quantile(tick_ms, 0.5)
    out["executor.tick_ms.p99"] = _quantile(tick_ms, 0.99)
    out["executor.vector_frac"] = ratio(
        count_sum[ids["executor.BatchControlStack.step_control"]], lane_steps
    )
    forward = ids["ml.LstmNetwork.forward"]
    out["ml.forward.rows_per_call"] = ratio(count_sum[forward], calls[forward])
    out["hazards.flagged_frac"] = ratio(
        count_sum[ids["hazards.BatchHazardMonitor.screen"]], lane_steps
    )
    return out


#: Units of the derived per-layer metrics (``*.calls`` are counts and
#: ``*.self_s`` seconds).
EXTRA_UNITS: Dict[str, str] = {
    "analysis.arms": "count",
    "analysis.arm_s.p50": "s",
    "analysis.arm_s.max": "s",
    "analysis.trace_s": "s",
    "analysis.render_s": "s",
    "cache.put.bytes": "bytes",
    "cache.get.hits": "count",
    "executor.ticks": "count",
    "executor.lane_steps": "count",
    "executor.mean_width": "lanes",
    "executor.ticks_w1": "count",
    "executor.ticks_w2_11": "count",
    "executor.ticks_w12_up": "count",
    "executor.tick_ms.p50": "ms",
    "executor.tick_ms.p99": "ms",
    "executor.vector_frac": "fraction",
    "ml.forward.rows_per_call": "rows",
    "hazards.flagged_frac": "fraction",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def metric_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".self_s"):
        return "s"
    return EXTRA_UNITS[name]
