"""The benchmark's workloads, driven through the public ``repro`` API.

Each workload converts a Table III network (``repro.snn.conversion`` via
``repro.bench.seeded_benchmark_graph``), compiles it (``repro.ir.compile``)
and runs it on ``repro.engine.ExecutionEngine`` or ``repro.serve.Server``.
Every output is checked against ``repro.ir.runner.GraphSnnRunner`` on the
same spike trains, outside the timed region, and every run's simulated
cycles against ``compiled.timing.cycles_per_timestep * T``.

A workload returns a :class:`Outcome`: end-to-end metrics (measured with
the tracer off), per-layer metrics (traced run only), the frames it
attempted and failed, and the configuration it ran with.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

import numpy as np

from repro.bench import seeded_benchmark_graph
from repro.core.config import DEFAULT_ARCH
from repro.engine import ExecutionEngine, kernel_class_counts
from repro.engine.auto import select_backend_name
from repro.ir.pipeline import compile as ir_compile
from repro.ir.runner import GraphSnnRunner
from repro.obs import MetricsRegistry, ProbeSet
from repro.opt.cost import plan_metrics
from repro.power.power_model import PowerModel
from repro.serve import ServePolicy, Server
from repro.snn.encoding import deterministic_encode
from repro.timing import relative_error

from .openloop import open_loop
from .spans import Tracer

#: timesteps of every workload
TIMESTEPS = 8

#: set-ups per run: at least ``SETUP_MIN``, more while their total time
#: stays under ``SETUP_BUDGET_S``, at most ``SETUP_MAX``; ``setup_s`` is
#: their median
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 20, 2.0

#: ``mlp-serve``: offered rate (requests/s) and per-request latency limit
SERVE_RATE = 200.0
LATE_LIMIT_S = 0.050

#: ``latency_p50_ms`` and ``latency_p95_ms`` cut the measured sample into
#: consecutive windows of this many samples (one window when it is
#: smaller) and report the lowest window's percentile.  Contention from
#: other tenants of a shared machine only adds latency and comes in
#: spells, so the calmest window shows the program's own latency, while a
#: slower program is slower in every window.  The tail is p95, not p99:
#: on ``mlp-serve`` the p99 of a 10 s run is set by a handful of stalls.
WINDOW_SAMPLES = 250

#: ``mlp-serve``: untimed open-loop warm-up before the measured phase
SERVE_WARMUP_S = 1.0

#: ``mlp-serve``: requests whose stats give the ``sim_*`` metrics
SIM_FRAMES = 16

#: the op classes of the engine's schedule vocabulary
OP_CLASSES = ("Accumulate", "DirectEject", "DirectPsAdd", "Eject",
              "FilterPacket", "Fire", "FusedAccumulate", "InjectInput",
              "MakePsPacket", "MakeSpikePacket", "PsAdd")

#: which layer each compile pass belongs to (the rest are ``ir``)
PASS_LAYER = {"lower": "engine", "optimize": "engine",
              "congestion-placement": "opt", "multicast-delivery": "opt",
              "reduction-tree": "opt"}


@dataclass
class Outcome:
    end_to_end: Dict[str, float] = field(default_factory=dict)
    per_layer: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    config: Dict[str, object] = field(default_factory=dict)


class Checker:
    """Reference spike counts of the input pool, and the frame cycle count.

    A frame fails when its spike counts differ from the abstract runner's
    or its batch's simulated cycles differ from the timing model's.
    Failures are counted and printed; they never stop the run.
    """

    def __init__(self, graph, trains: np.ndarray, cycles_per_frame: int):
        result = GraphSnnRunner(graph).run_spike_trains(trains)
        self.reference = result.spike_counts
        self.cycles_per_frame = cycles_per_frame
        self.mismatches = 0

    def failures(self, frames: np.ndarray, counts: np.ndarray,
                 cycles: int) -> int:
        """How many of ``frames`` (pool indices) came out wrong."""
        wrong = np.any(counts != self.reference[frames], axis=1)
        expected = self.cycles_per_frame * len(frames)
        if cycles != expected:
            print(f"MISMATCH: {len(frames)} frames simulated {cycles} "
                  f"cycles, timing model says {expected}")
            wrong[:] = True
        elif wrong.any():
            print(f"MISMATCH: spike counts differ from GraphSnnRunner on "
                  f"pool frames {frames[wrong].tolist()}")
        bad = int(wrong.sum())
        self.mismatches += bad
        return bad

    def served(self, frame: int, response) -> int:
        """:meth:`failures` of one served ``InferenceResponse``."""
        return self.failures(np.array([frame]),
                             response.spike_counts[None, :],
                             int(response.stats.cycles))


def percentile_ms(seconds: List[float], q: float) -> float:
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


def windowed_ms(seconds: List[float], q: float) -> float:
    """Lowest ``q``-th percentile over windows of ``WINDOW_SAMPLES``."""
    windows = np.array_split(np.asarray(seconds),
                             max(1, len(seconds) // WINDOW_SAMPLES))
    return min(percentile_ms(window, q) for window in windows)


def sim_metrics(stats) -> Dict[str, float]:
    """Simulated Shenjing cycles and modelled energy per frame."""
    return {
        "sim_cycles_per_frame": stats.cycles / stats.frames,
        "sim_uj_per_frame":
            PowerModel().frame_energy_from_stats(stats) * 1e6,
    }


def compile_traced(graph, tracer: Tracer, registry, to: str,
                   **options):
    """``repro.ir.compile`` in an ``ir.compile-<to>`` span, its PassRecords
    as child spans; ``registry`` is the ``metrics=`` MetricsRegistry."""
    start = time.perf_counter()
    with tracer.span(f"ir.compile-{to}") as index:
        compiled = ir_compile(graph, DEFAULT_ARCH, to=to, metrics=registry,
                              **options)
    tracer.add_pass_records(compiled.trace, index, start, PASS_LAYER)
    return compiled


def compile_layers(model, sim_stats, tracer: Tracer,
                   **options) -> Dict[str, float]:
    """Per-layer numbers of the snn, ir, opt, mapping, timing and engine
    passes of a traced run.

    Compiles once more to ``"schedule"`` (outside the set-up being
    measured) so the PassRecords include the engine's ``lower`` and
    ``optimize``.
    """
    registry = MetricsRegistry()
    compiled = compile_traced(model.graph, tracer, registry, to="schedule",
                              **options)
    seconds = {record.name: record.seconds for record in compiled.trace}
    noc = plan_metrics(compiled.routes)
    ops = kernel_class_counts(compiled.schedule.ops)
    convert = next(span for span in tracer.spans
                   if span.name == "snn.convert")
    layers = {
        "snn.convert_s": convert.seconds,
        "ir.logical-map_s": seconds["logical-map"],
        "ir.route-pack_s": seconds["route-pack"],
        "ir.emit-program_s": seconds["emit-program"],
        "ir.instructions_per_timestep": compiled.program.instruction_count,
        "opt.congestion-placement_s": seconds.get("congestion-placement",
                                                  0.0),
        "opt.total_hops": noc.total_hops,
        "opt.wave_depth": noc.wave_depth,
        "mapping.cores": compiled.program.used_tiles,
        "mapping.chips": compiled.placement.chips_used(),
        "mapping.waves": compiled.routes.wave_count(),
        "timing.cycles_per_timestep": compiled.timing.cycles_per_timestep,
        "timing.model_error": relative_error(
            compiled.timing.cycles_for(sim_stats.frames), sim_stats.cycles),
        "engine.lower_s": seconds["lower"],
        "engine.optimize_s": seconds["optimize"],
        "engine.ops_per_timestep": len(compiled.schedule.ops),
    }
    for name in OP_CLASSES:
        layers[f"engine.ops.{name}"] = ops.get(name, 0)
    unknown = sorted(set(ops) - set(OP_CLASSES))
    if unknown:
        print(f"note: op classes outside the metric list: {unknown}")
    return layers


def timed_median(call: Callable[[], object], repeats: int) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def repeat_setup(build: Callable[[Tracer], "object"],
                 tracer: Tracer):
    """Build repeatedly; returns (median set-up seconds, last model).

    Each model but the last is closed and dropped before the next is
    built, so peak memory is that of one set-up.  Only the first set-up
    records spans.
    """
    seconds: List[float] = []
    model = build(tracer)
    seconds.append(model.setup_s)
    quiet = Tracer(False, tracer.run_id)
    while len(seconds) < SETUP_MIN or (
            sum(seconds) < SETUP_BUDGET_S and len(seconds) < SETUP_MAX):
        model.close()
        del model
        gc.collect()
        model = build(quiet)
        seconds.append(model.setup_s)
    return statistics.median(seconds), model


# ----------------------------------------------------------------------
# Engine workloads: cnn-infer, resnet-vec (and resnet-batch)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineSpec:
    network: str
    backend: str
    batch: int
    pool: int
    single_frames: bool
    optimize_noc: bool = False
    probes: bool = False
    #: traced run only: frames of one batch run by ``auto`` and by
    #: ``vectorized`` (0 = skip), to show whether auto's crossover pays
    auto_frames: int = 0


@dataclass
class EngineModel:
    graph: object
    trains: np.ndarray
    compiled: object
    engine: ExecutionEngine
    setup_s: float

    def close(self) -> None:
        self.engine.close()


def build_engine(spec: EngineSpec, seed: int, tracer: Tracer) -> EngineModel:
    """Builder -> conversion -> compile -> backend -> one warm-up inference.

    Generating the input pool is excluded from the set-up time.
    """
    start = time.perf_counter()
    with tracer.span("snn.convert"):
        graph, rng = seeded_benchmark_graph(spec.network, TIMESTEPS,
                                            seed=seed)
    converted = time.perf_counter()
    trains = deterministic_encode(rng.random((spec.pool, graph.input_size)),
                                  TIMESTEPS)
    resumed = time.perf_counter()
    compiled = compile_traced(graph, tracer, None, to="program",
                              optimize_noc=spec.optimize_noc)
    with tracer.span("engine.build"):
        engine = ExecutionEngine(compiled.program, backend=spec.backend)
        backend = engine.backend()
        if spec.backend == "auto" and \
                backend.select(spec.batch) == "sharded":
            backend.delegate("sharded").warm_pool()
    warmup = spec.batch if spec.backend == "auto" else 1
    with tracer.span("engine.warmup"):
        engine.run(trains[:warmup])
    done = time.perf_counter()
    return EngineModel(graph, trains, compiled, engine,
                       (converted - start) + (done - resumed))


@dataclass
class EnginePhase:
    single_s: List[float] = field(default_factory=list)
    batch_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def run_engine_phase(spec: EngineSpec, model: EngineModel, seconds: float,
                     tracer: Tracer, checker: Checker) -> EnginePhase:
    """Closed-loop single frames (first half), then batches of ``batch``."""
    phase = EnginePhase()
    probes = ProbeSet.firing_rates() if spec.probes else None
    pool = model.trains.shape[0]

    def execute(frames: np.ndarray, name: str) -> float:
        phase.attempted += len(frames)
        start = time.perf_counter()
        try:
            with tracer.span(name):
                result = model.engine.run(model.trains[frames],
                                          probes=probes)
        except Exception as exc:  # a raising run fails its frames
            print(f"FAILED: {name} on pool frames {frames.tolist()}: "
                  f"{type(exc).__name__}: {exc}")
            phase.failed += len(frames)
            return time.perf_counter() - start
        elapsed = time.perf_counter() - start
        bad = checker.failures(frames, result.spike_counts,
                               int(result.stats.cycles))
        if probes is not None and not result.probes.firing_rates():
            print("MISMATCH: probes attached but no firing rates returned")
            bad = len(frames)
        phase.failed += bad
        return elapsed

    budget = seconds / 2 if spec.single_frames else 0.0
    deadline = time.perf_counter() + budget
    index = 0
    while spec.single_frames and (time.perf_counter() < deadline
                                  or len(phase.single_s) < 8):
        phase.single_s.append(
            execute(np.array([index % pool]), "engine.run-1frame"))
        index += 1
    deadline = time.perf_counter() + seconds - budget
    index = 0
    while time.perf_counter() < deadline or len(phase.batch_s) < 3:
        first = (index * spec.batch) % pool
        frames = np.arange(first, first + spec.batch)
        phase.batch_s.append(execute(frames, "engine.run-batch"))
        index += 1
    return phase


def engine_workload(spec: EngineSpec, seed: int, seconds: float,
                    tracer: Tracer) -> Outcome:
    setup_s, model = repeat_setup(
        lambda t: build_engine(spec, seed, t), tracer)
    outcome = Outcome()
    try:
        timing = model.compiled.timing
        checker = Checker(model.graph, model.trains,
                          timing.cycles_per_timestep * TIMESTEPS)
        # untimed warm-up batch: its fixed frames give the simulated stats
        warm = model.engine.run(model.trains[:spec.batch])
        checker.failures(np.arange(spec.batch), warm.spike_counts,
                         int(warm.stats.cycles))
        sim_stats = warm.stats
        quiet = Tracer(False, tracer.run_id)
        phase = run_engine_phase(spec, model, seconds, quiet, checker)
        latencies = phase.single_s or phase.batch_s
        outcome.end_to_end = {
            "setup_s": setup_s,
            "latency_p50_ms": windowed_ms(latencies, 50),
            "latency_p95_ms": windowed_ms(latencies, 95),
            "throughput_fps": spec.batch / statistics.median(phase.batch_s),
            "ontime_frac": 1.0 - phase.failed / phase.attempted,
            **sim_metrics(sim_stats),
        }
        outcome.attempted, outcome.failed = phase.attempted, phase.failed
        backend = model.engine.backend()
        outcome.config = {
            "backend": spec.backend,
            "backend_used": getattr(backend, "last_selection", None)
            or spec.backend,
            "auto_would_choose": select_backend_name(spec.batch),
            "batch": spec.batch,
            "single_frame_samples": len(phase.single_s),
            "batch_samples": len(phase.batch_s),
        }
        if tracer.enabled:
            traced = run_engine_phase(spec, model, seconds, tracer, checker)
            outcome.attempted += traced.attempted
            outcome.failed += traced.failed
            outcome.per_layer = engine_layers(spec, model, phase, traced,
                                              sim_stats, tracer, checker)
    finally:
        model.close()
    outcome.mismatches = checker.mismatches
    return outcome


def engine_layers(spec: EngineSpec, model: EngineModel,
                  untraced: EnginePhase, traced: EnginePhase, sim_stats,
                  tracer: Tracer, checker: Checker) -> Dict[str, float]:
    """Per-layer numbers of an engine workload's traced run."""
    layers = compile_layers(model, sim_stats, tracer,
                            optimize_noc=spec.optimize_noc)
    one = model.trains[:1]
    vectorized = model.engine.backend("vectorized")
    if traced.single_s:
        layers["engine.run_1frame_ms"] = 1e3 * statistics.median(
            traced.single_s)
    else:
        with tracer.span("engine.run-1frame"):
            layers["engine.run_1frame_ms"] = \
                1e3 * timed_median(lambda: vectorized.run(one), 5)
    layers["engine.run_batch_s"] = statistics.median(traced.batch_s)
    key = "single_s" if spec.single_frames else "batch_s"
    layers["trace.overhead_frac"] = (
        statistics.median(getattr(traced, key))
        / statistics.median(getattr(untraced, key)) - 1.0)
    batch = model.trains[:spec.batch]
    if spec.probes:
        with tracer.span("obs.probe-overhead"):
            plain = timed_median(lambda: vectorized.run(batch), 2)
            probed = timed_median(
                lambda: vectorized.run(batch,
                                       probes=ProbeSet.firing_rates()), 2)
        layers["obs.probe_overhead"] = probed / plain - 1.0
    if spec.auto_frames:
        frames = np.arange(spec.auto_frames)
        trains = model.trains[frames]
        with tracer.span("engine.auto-batch"):
            auto = model.engine.backend("auto")
            if auto.select(spec.auto_frames) == "sharded":
                sharded = auto.delegate("sharded")
                start = time.perf_counter()
                sharded.warm_pool()
                layers["engine.warm_pool_s"] = time.perf_counter() - start
            start = time.perf_counter()
            result = auto.run(trains)
            layers["engine.auto_batch_s"] = time.perf_counter() - start
        checker.failures(frames, result.spike_counts,
                         int(result.stats.cycles))
        print(f"auto ran {spec.auto_frames} frames on {auto.last_selection}")
        with tracer.span("engine.vectorized-batch"):
            start = time.perf_counter()
            result = vectorized.run(trains)
            layers["engine.vectorized_batch_s"] = \
                time.perf_counter() - start
        checker.failures(frames, result.spike_counts,
                         int(result.stats.cycles))
    return layers


# ----------------------------------------------------------------------
# mlp-serve
# ----------------------------------------------------------------------
SERVE_NETWORK = "mnist-mlp"
SERVE_POOL = 256


@dataclass
class ServeModel:
    graph: object
    trains: np.ndarray
    server: Server
    session: object
    setup_s: float

    @property
    def compiled(self):
        return self.session.compiled

    def close(self) -> None:
        self.server.close()


def build_serve(seed: int, tracer: Tracer) -> ServeModel:
    """Builder -> conversion -> ``Server.load`` -> one served request."""
    start = time.perf_counter()
    with tracer.span("snn.convert"):
        graph, rng = seeded_benchmark_graph(SERVE_NETWORK, TIMESTEPS,
                                            seed=seed)
    converted = time.perf_counter()
    trains = deterministic_encode(rng.random((SERVE_POOL, graph.input_size)),
                                  TIMESTEPS)
    resumed = time.perf_counter()
    server = Server(policy=ServePolicy())
    with tracer.span("serve.load"):
        session = server.load(graph)
    with tracer.span("serve.warmup"):
        session.infer(trains[0])
    done = time.perf_counter()
    return ServeModel(graph, trains, server, session,
                      (converted - start) + (done - resumed))


@dataclass
class Served:
    """What the client keeps of one response (see ``open_loop``)."""

    ok: bool
    queued_s: float
    server_s: float
    batch_size: int
    backend: str


@dataclass
class ServePhase:
    requests: list
    counters: Dict[str, float]
    ok: np.ndarray
    duration_s: float


SERVE_COUNTERS = ("serve/rejected", "serve/deadline_missed",
                  "serve/degraded")

#: ``mlp-serve``: untimed bursts that coalesce into batches of this size,
#: so OpenBLAS's first multi-threaded calls (0.4-0.65 s each on a 2-CPU
#: machine) happen before the measured phase
WARM_BURSTS = (64, 64, 32, 32)


def serve_counters(model: ServeModel) -> Dict[str, float]:
    counters = model.server.metrics.snapshot().counters
    return {name: counters[name].value if name in counters else 0.0
            for name in SERVE_COUNTERS}


def run_serve_phase(model: ServeModel, seconds: float, tracer: Tracer,
                    checker: Checker) -> ServePhase:
    """Open loop at ``SERVE_RATE`` for ``seconds``; checks every response."""
    before = serve_counters(model)
    session, trains = model.session, model.trains

    def digest(request, response) -> Served:
        return Served(checker.served(request.frame, response) == 0,
                      response.queued_seconds,
                      response.latency_seconds, response.batch_size,
                      response.backend)

    requests = open_loop(
        lambda frame: session.submit(trains[frame], deadline=LATE_LIMIT_S),
        digest, trains.shape[0], SERVE_RATE, seconds, tracer)
    after = serve_counters(model)
    ok = np.array([r.response is not None and r.response.ok
                   for r in requests])
    first = requests[0].due
    last = max(request.seen for request in requests)
    return ServePhase(requests,
                      {name: after[name] - before[name] for name in after},
                      ok, last - first)


def serve_workload(seed: int, seconds: float, tracer: Tracer) -> Outcome:
    setup_s, model = repeat_setup(lambda t: build_serve(seed, t), tracer)
    outcome = Outcome()
    try:
        timing = model.compiled.timing
        checker = Checker(model.graph, model.trains,
                          timing.cycles_per_timestep * TIMESTEPS)
        # closed-loop pass over fixed frames: the simulated stats
        sim_stats = None
        for frame in range(SIM_FRAMES):
            response = model.session.infer(model.trains[frame])
            checker.served(frame, response)
            sim_stats = response.stats if sim_stats is None \
                else sim_stats.merge(response.stats)
        for size in WARM_BURSTS:
            pending = [model.session.submit(model.trains[frame])
                       for frame in range(size)]
            for frame, handle in enumerate(pending):
                checker.served(frame, handle.result())
        quiet = Tracer(False, tracer.run_id)
        run_serve_phase(model, SERVE_WARMUP_S, quiet, checker)
        gc.collect()
        phase = run_serve_phase(model, seconds, quiet, checker)
        latency = np.array([r.latency for r in phase.requests])
        ontime = phase.ok & (latency <= LATE_LIMIT_S)
        outcome.end_to_end = {
            "setup_s": setup_s,
            "latency_p50_ms": windowed_ms(latency, 50),
            "latency_p95_ms": windowed_ms(latency, 95),
            "throughput_fps": int(phase.ok.sum()) / phase.duration_s,
            "ontime_frac": float(ontime.mean()),
            **sim_metrics(sim_stats),
        }
        outcome.attempted = len(phase.requests)
        outcome.failed = int((~phase.ok).sum())
        backends = sorted({r.response.backend for r in phase.requests
                           if r.response is not None})
        outcome.config = {
            "backend": "repro.serve.Server",
            "backend_used": ",".join(backends),
            "policy": model.session.policy.as_dict(),
            "offered_rate": SERVE_RATE,
            "requests": len(phase.requests),
        }
        if tracer.enabled:
            traced = run_serve_phase(model, seconds, tracer, checker)
            outcome.attempted += len(traced.requests)
            outcome.failed += int((~traced.ok).sum())
            outcome.per_layer = serve_layers(model, phase, traced,
                                             sim_stats, tracer)
    finally:
        model.close()
    outcome.mismatches = checker.mismatches
    return outcome


def serve_layers(model: ServeModel, untraced: ServePhase, traced: ServePhase,
                 sim_stats, tracer: Tracer) -> Dict[str, float]:
    """Per-layer numbers of the serving workload's traced run."""
    layers = compile_layers(model, sim_stats, tracer)
    vectorized = model.session.engine.backend("vectorized")
    one = model.trains[:1]
    with tracer.span("engine.run-1frame"):
        layers["engine.run_1frame_ms"] = \
            1e3 * timed_median(lambda: vectorized.run(one), 20)
    served = [r for r in traced.requests if r.response is not None]
    queued = [r.response.queued_s for r in served]
    run_s = [r.response.server_s - r.response.queued_s for r in served]
    handoff = [(r.seen - r.submitted) - r.response.server_s
               for r in served]
    batches = sum(1.0 / r.response.batch_size for r in served)
    lag = [r.submitted - r.due for r in traced.requests]
    layers.update({
        "serve.queue_wait_p50_ms": percentile_ms(queued, 50),
        "serve.queue_wait_p99_ms": percentile_ms(queued, 99),
        "serve.batch_run_ms": percentile_ms(run_s, 50),
        "serve.handoff_p50_ms": percentile_ms(handoff, 50),
        "serve.handoff_p99_ms": percentile_ms(handoff, 99),
        "serve.batch_size_mean": len(served) / batches,
        "serve.rejected": traced.counters["serve/rejected"],
        "serve.deadline_missed": traced.counters["serve/deadline_missed"],
        "serve.degraded": traced.counters["serve/degraded"],
        "serve.client_lag_ms": percentile_ms(lag, 99),
    })
    latency = [r.latency for r in untraced.requests]
    traced_latency = [r.latency for r in traced.requests]
    layers["trace.overhead_frac"] = (
        statistics.median(traced_latency) / statistics.median(latency) - 1.0)
    return layers


# ----------------------------------------------------------------------
WORKLOADS: Dict[str, Callable[[int, float, Tracer], Outcome]] = {
    "cnn-infer": lambda seed, seconds, tracer: engine_workload(
        EngineSpec("mnist-cnn", "vectorized", batch=16, pool=64,
                   single_frames=True), seed, seconds, tracer),
    "mlp-serve": serve_workload,
    "resnet-vec": lambda seed, seconds, tracer: engine_workload(
        EngineSpec("cifar-resnet-small", "vectorized", batch=64, pool=256,
                   single_frames=False, optimize_noc=True, probes=True,
                   auto_frames=256),
        seed, seconds, tracer),
    # Not in BENCHMARK.json: auto picks sharded at 256 frames, whose batch
    # time swings by an order of magnitude on a 2-CPU machine (README.md,
    # "Dropped").
    "resnet-batch": lambda seed, seconds, tracer: engine_workload(
        EngineSpec("cifar-resnet-small", "auto", batch=256, pool=512,
                   single_frames=False, optimize_noc=True, probes=True),
        seed, seconds, tracer),
}
