"""The ``gpu`` backend: the identical lowered schedule on an array module.

The lowered schedule's control flow is static and its ops are dense batched
tensor operations, so executing it on a GPU is purely a matter of where the
arrays live.  :func:`bind_schedule` rebinds every array constant of a
prepared schedule (weight matrices, thresholds, lane-index selectors, output
gathers) onto an :class:`~repro.engine.xp.ArrayModule` and stamps the module
onto ``schedule.xp``; :class:`~repro.engine.lowering.BatchState` then
allocates its state through the same module and
:func:`~repro.engine.vectorized.execute_schedule` moves the inputs over once
per run and the spike counts back once at the end.  Probe captures transfer
per site (:class:`repro.obs.probes.ScheduleProbeRun` checks ``schedule.xp``).

The backend registers unconditionally — ``"gpu"`` always appears in
:func:`~repro.engine.registry.list_backends` — but constructing it without
any optional array module importable raises a descriptive
:class:`~repro.engine.base.EngineError`, and
:func:`~repro.engine.registry.backend_available` reports ``False``.  Passing
``module="numpy"`` explicitly runs the whole device code path on host
arrays, which is how the parity tests exercise it on machines without an
accelerator.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Union

import numpy as np

from ..core.simulator import SimulationResult
from ..mapping.program import Program
from .base import EngineError, ExecutionBackend, normalise_spike_trains
from .groups import GroupAccumulate
from .lowering import LoweredOp, LoweredSchedule, OutputGather
from .registry import register_backend
from .vectorized import (
    build_result,
    execute_schedule,
    metered_run,
    prepare_schedule,
)
from .xp import ArrayModule, first_available_module, get_array_module


def _slot_names(cls) -> list:
    names = []
    for klass in reversed(cls.__mro__):
        names.extend(getattr(klass, "__slots__", ()))
    return names


def _bind_value(value, xp: ArrayModule):
    if isinstance(value, np.ndarray):
        # integer constants (weights may be int8/int16) go over as int64:
        # torch does not promote mixed integer dtypes in a matmul
        if np.issubdtype(value.dtype, np.integer):
            return xp.asarray(value, dtype=xp.int64)
        return xp.asarray(value)
    return value


def _bind_op(op: LoweredOp, xp: ArrayModule) -> LoweredOp:
    """A copy of ``op`` with every ndarray constant moved to ``xp``.

    Generic over op kinds: slices, ints and strings pass through, index
    arrays / weights / thresholds are converted.  New op kinds need no
    changes here.
    """
    cls = type(op)
    bound = cls.__new__(cls)
    for name in _slot_names(cls):
        setattr(bound, name, _bind_value(getattr(op, name), xp))
    return bound


def bind_schedule(schedule: LoweredSchedule,
                  xp: ArrayModule) -> LoweredSchedule:
    """A copy of ``schedule`` whose constants live on ``xp``'s device.

    The returned schedule has ``schedule.xp`` set, so ``allocate`` builds
    device-resident state and the executor transfers inputs/outputs at the
    run boundary.  Every :class:`~repro.engine.groups.GroupAccumulate` is
    moved onto its dense route first, since the sparse route's
    ``scipy.sparse`` CSR only runs on the host.  Compiled plans are
    numpy-specific and are not carried over.
    """
    return replace(
        schedule,
        ops=[_bind_op(op.dense() if isinstance(op, GroupAccumulate) else op,
                      xp)
             for op in schedule.ops],
        inject_ops=[_bind_op(op, xp) for op in schedule.inject_ops],
        outputs=[
            OutputGather(slot=gather.slot,
                         lanes=_bind_value(gather.lanes, xp),
                         output_indices=_bind_value(gather.output_indices, xp))
            for gather in schedule.outputs
        ],
        xp=xp,
        plan=None,
    )


@register_backend
class GpuBackend(ExecutionBackend):
    """Runs the lowered schedule on an alternate array module (GPU-capable)."""

    name = "gpu"

    def __init__(self, program: Program, collect_stats: bool = True,
                 optimize: bool = True,
                 module: Optional[Union[str, ArrayModule]] = None):
        super().__init__(program, collect_stats=collect_stats)
        if module is None:
            xp = first_available_module()
            if xp is None:
                raise EngineError(
                    "the gpu backend needs an optional array module (cupy "
                    "with a CUDA device, or torch) but neither is "
                    "importable; install one, or pass module='numpy' to "
                    "exercise the code path on host arrays")
        elif isinstance(module, str):
            xp = get_array_module(module)
        else:
            xp = module
        self.xp = xp
        self.optimize = optimize
        self.schedule: LoweredSchedule = bind_schedule(
            prepare_schedule(program, optimize), xp)

    @classmethod
    def is_available(cls) -> bool:
        return first_available_module() is not None

    def run(self, spike_trains: np.ndarray,
            probes=None, metrics=None) -> SimulationResult:
        if metrics is not None:
            return metered_run(self, spike_trains, probes, metrics)
        spike_trains = normalise_spike_trains(spike_trains,
                                              self.program.input_size)
        frames, timesteps, _ = spike_trains.shape
        collector = None
        if probes:
            from ..obs.probes import ScheduleProbeRun

            collector = ScheduleProbeRun(probes.resolve(self.program),
                                         self.schedule, frames, timesteps)
        counts, active_axons = execute_schedule(self.schedule, spike_trains,
                                                collector)
        result = build_result(self.schedule, counts, active_axons,
                              frames, timesteps, self.collect_stats)
        if collector is not None:
            result.probes = collector.result()
        return result
