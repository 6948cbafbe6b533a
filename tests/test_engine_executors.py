"""Executor variants: fused CPU plans, array modules and the gpu backend.

The engine's parity contract (bit-identical spike counts, predictions,
``ExecutionStats`` and probes) must hold for every *executor* variant of the
vectorized/sharded backends — plain interpreter, fused plan, numba (when
importable) — and for the ``gpu`` backend on every array module.  These
tests also pin the plan compiler's guarantees: packet-pair collapsing,
overflow-check elision soundness (checks that remain still raise the
identical errors), preallocated register/working buffers, and the ``auto``
policy's accelerator preference.
"""

import numpy as np
import pytest

from repro.apps.networks import ALL_BUILDERS
from repro.core.config import DEFAULT_ARCH
from repro.core.neuron_core import NeuronCoreError
from repro.engine import (
    EngineError,
    GpuBackend,
    assert_backend_parity,
    backend_available,
    create_backend,
    list_backends,
)
from repro.engine.auto import AutoBackend, DEGRADATION_CHAIN, select_backend_name
from repro.engine.kernels import (
    EXECUTORS,
    HAVE_NUMBA,
    _collapse_packet_pairs,
    analyse_check_elision,
    compile_plan,
    resolve_executor,
)
from repro.engine.lowering import (
    Eject,
    MakePsPacket,
    MakeSpikePacket,
    PsAdd,
    weight_bounds,
)
from repro.engine.optimize import DirectEject, DirectPsAdd
from repro.engine.vectorized import prepare_schedule
from repro.engine.xp import (
    NUMPY,
    ArrayModule,
    detected_array_modules,
    ensure_host,
    first_available_module,
    get_array_module,
)
from repro.mapping.compiler import compile_network
from repro.obs import ProbeSet
from repro.snn import deterministic_encode
from repro.snn.conversion import ConversionConfig, convert_ann_to_graph

SMALL_BUILDERS = sorted(name for name in ALL_BUILDERS
                        if name.endswith("-small"))


@pytest.fixture
def dense_program(arch, dense_snn):
    return compile_network(dense_snn, arch).program


@pytest.fixture
def conv_program(conv_arch, conv_snn):
    return compile_network(conv_snn, conv_arch).program


def executor_variants(workers=2):
    """Parity specs for every executor variant testable in this env."""
    variants = [
        "vectorized",
        ("vectorized-fused", "vectorized", {"executor": "fused"}),
        ("sharded-fused", "sharded", {"executor": "fused",
                                      "workers": workers}),
        ("gpu-numpy", "gpu", {"module": "numpy"}),
    ]
    if HAVE_NUMBA:
        variants.append(("vectorized-numba", "vectorized",
                         {"executor": "numba"}))
    if first_available_module() is not None:
        variants.append(("gpu-auto", "gpu", {}))
    return variants


# ----------------------------------------------------------------------
# Array-module abstraction
# ----------------------------------------------------------------------
class TestArrayModules:
    def test_numpy_always_resolves_to_singleton(self):
        assert get_array_module("numpy") is NUMPY
        assert NUMPY.name == "numpy"
        assert NUMPY.device is False

    def test_unknown_module_rejected(self):
        with pytest.raises(EngineError, match="unknown array module"):
            get_array_module("jax")

    def test_detected_modules_reports_all_names(self):
        detected = detected_array_modules()
        assert set(detected) == {"numpy", "cupy", "torch"}
        assert detected["numpy"] == str(np.__version__)
        for name in ("cupy", "torch"):
            assert detected[name] is None or isinstance(detected[name], str)

    def test_numpy_module_contract(self):
        xp = NUMPY
        zeros = xp.zeros((2, 3), xp.int64)
        assert zeros.shape == (2, 3) and zeros.dtype == np.int64
        dst = xp.zeros((2,), xp.int64)
        xp.copyto(dst, np.array([1.0, 2.0]))  # unsafe cast must be allowed
        np.testing.assert_array_equal(dst, [1, 2])
        out = xp.where(np.array([True, False]), np.array([5, 6]), 0)
        np.testing.assert_array_equal(out, [5, 0])
        assert xp.to_host(zeros) is not None

    def test_ensure_host_numpy_passthrough(self):
        array = np.arange(3)
        assert ensure_host(array) is array

    def test_ensure_host_duck_types_device_arrays(self):
        class FakeCupy:
            def get(self):
                return np.array([1, 2])

        class FakeTorch:
            def detach(self):
                return self

            def cpu(self):
                return self

            def numpy(self):
                return np.array([3, 4])

        np.testing.assert_array_equal(ensure_host(FakeCupy()), [1, 2])
        np.testing.assert_array_equal(ensure_host(FakeTorch()), [3, 4])
        np.testing.assert_array_equal(ensure_host([5, 6]), [5, 6])

    def test_weight_bounds_hull_includes_zero(self):
        weights = np.array([[3, -2], [4, -1]])
        lo, hi = weight_bounds(weights)
        assert (lo, hi) == (-3, 7)
        assert weight_bounds(np.zeros((0, 4))) == (0, 0)
        # all-positive columns still include 0 (axons may all be silent)
        assert weight_bounds(np.array([[2], [3]])) == (0, 5)


# ----------------------------------------------------------------------
# Executor validation
# ----------------------------------------------------------------------
class TestExecutorValidation:
    def test_known_names(self):
        assert set(EXECUTORS) == {"plain", "fused", "numba"}
        assert resolve_executor("plain") == "plain"
        assert resolve_executor("fused") == "fused"

    def test_unknown_executor_rejected(self, dense_program):
        with pytest.raises(EngineError, match="unknown executor"):
            create_backend("vectorized", dense_program, executor="bogus")
        with pytest.raises(EngineError, match="unknown executor"):
            create_backend("sharded", dense_program, executor="bogus")

    @pytest.mark.skipif(HAVE_NUMBA, reason="numba is importable here")
    def test_numba_executor_requires_numba(self, dense_program):
        with pytest.raises(EngineError, match="requires the optional numba"):
            create_backend("vectorized", dense_program, executor="numba")

    def test_plain_executor_takes_no_plan(self, dense_program):
        schedule = prepare_schedule(dense_program)
        assert schedule.plan is None
        with pytest.raises(EngineError, match="plain"):
            compile_plan(schedule, "plain")


# ----------------------------------------------------------------------
# Bit-exact parity across executor variants
# ----------------------------------------------------------------------
class TestExecutorParity:
    def test_dense_parity_with_stats_and_probes(self, dense_program,
                                                dense_snn, dense_inputs):
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        report = assert_backend_parity(
            dense_program, trains, probes=ProbeSet.full(),
            backends=["reference"] + executor_variants())
        assert report.baseline.stats.active_axons > 0

    def test_conv_parity_with_stats_and_probes(self, conv_program, conv_snn,
                                               conv_inputs):
        trains = deterministic_encode(conv_inputs, conv_snn.timesteps)
        assert_backend_parity(conv_program, trains, probes=ProbeSet.full(),
                              backends=["reference"] + executor_variants())

    def test_single_worker_sharded_fused(self, dense_program, dense_snn,
                                         dense_inputs):
        trains = deterministic_encode(dense_inputs[:2], dense_snn.timesteps)
        assert_backend_parity(
            dense_program, trains,
            backends=["vectorized",
                      ("sharded-fused-1", "sharded",
                       {"executor": "fused", "workers": 1})])

    def test_unoptimized_fused_parity(self, dense_program, dense_snn,
                                      dense_inputs):
        """The fused plan is bit-exact on *unoptimized* schedules too (the
        collapse pass does the optimizer's packet fusion itself there)."""
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        assert_backend_parity(
            dense_program, trains,
            backends=[("plain-unopt", "vectorized", {"optimize": False}),
                      ("fused-unopt", "vectorized",
                       {"optimize": False, "executor": "fused"})])

    @pytest.mark.parametrize("name", SMALL_BUILDERS)
    def test_small_builder_sweep(self, name, rng):
        from repro.ir import compile as ir_compile

        model = ALL_BUILDERS[name]()
        calibration = rng.random((2,) + model.input_shape)
        graph = convert_ann_to_graph(
            model, calibration,
            ConversionConfig(timesteps=4, max_calibration_samples=2))
        program = ir_compile(graph, DEFAULT_ARCH).program
        trains = deterministic_encode(rng.random((2, graph.input_size)), 4)
        assert_backend_parity(program, trains,
                              backends=executor_variants(workers=2))


# ----------------------------------------------------------------------
# Overflow checks survive fusion where they cannot be proven safe
# ----------------------------------------------------------------------
def overflow_program():
    """A 1-tile program whose partial sums provably overflow ps_bits=6."""
    from repro.core import ArchitectureConfig, CoreAccumulate, SpikeFire
    from repro.core.tile import TileCoordinate
    from repro.mapping.program import (
        InputBinding, OutputBinding, Program, TileConfig,
    )

    arch = ArchitectureConfig(core_inputs=4, core_neurons=4, chip_rows=2,
                              chip_cols=2, ps_bits=6, sram_banks=4)
    tile = TileCoordinate(0, 0)
    program = Program(arch=arch, rows=1, cols=1, input_size=4, output_size=4)
    weights = np.full((4, 4), arch.weight_max, dtype=np.int16)
    program.add_tile_config(TileConfig(
        tile=tile, weights=weights, thresholds=np.full(4, 4, dtype=np.int64)))
    program.input_bindings.append(InputBinding(tile=tile, indices=np.arange(4)))
    program.new_phase("acc").new_group().add(tile, CoreAccumulate())
    program.new_phase("fire").new_group().add(tile, SpikeFire(use_noc_sum=False))
    program.output_bindings.append(OutputBinding(
        tile=tile, lanes=(0, 1, 2, 3), output_indices=(0, 1, 2, 3)))
    return program


class TestOverflowChecksKept:
    @pytest.mark.parametrize("spec", [
        ("vectorized", {"executor": "fused"}),
        ("sharded", {"executor": "fused", "workers": 1}),
        ("gpu", {"module": "numpy"}),
    ])
    def test_overflow_still_raises_identical_error(self, spec):
        name, options = spec
        program = overflow_program()
        trains = np.ones((2, 3, 4), dtype=bool)  # 4 axons * 15 = 60 > 31
        with pytest.raises(NeuronCoreError,
                           match=r"overflowed the 6-bit range \[-32, 31\]"):
            create_backend(name, program, **options).run(trains)

    def test_unprovable_check_not_elided(self):
        program = overflow_program()
        plan = prepare_schedule(program, executor="fused").plan
        assert plan.total_checks >= 1
        assert plan.elided_checks < plan.total_checks


# ----------------------------------------------------------------------
# Plan compilation: collapsing, elision, buffers, preallocation
# ----------------------------------------------------------------------
class TestPlanCompilation:
    def test_bench_mlp_plan_elides_checks(self):
        from repro.bench import mlp_bench_case

        program, _ = mlp_bench_case(frames=2, timesteps=2)
        plan = prepare_schedule(program, executor="fused").plan
        assert plan.executor == "fused"
        assert plan.total_checks > 0
        # every partial sum of the bench MLP is statically bounded
        assert plan.elided_checks > 0
        assert plan.buffers
        assert "fused" in plan.describe()
        assert plan.uses_numba == HAVE_NUMBA

    def test_plan_buffers_reused_across_runs(self, dense_program, dense_snn,
                                             dense_inputs):
        backend = create_backend("vectorized", dense_program,
                                 executor="fused")
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        first = backend.run(trains)
        second = backend.run(trains)
        np.testing.assert_array_equal(first.spike_counts,
                                      second.spike_counts)

    def test_adjacent_ps_pair_collapses(self):
        idx = np.arange(3)
        ops = [
            MakePsPacket(slot=0, reg=0, idx=idx, use_sum_buf=False, width=4),
            PsAdd(slot=1, reg=0, idx=idx, add=True, consecutive=False,
                  ps_min=-32, ps_max=31, where="(0, 1)"),
        ]
        collapsed, count = _collapse_packet_pairs(ops)
        assert count == 1
        assert len(collapsed) == 1
        assert isinstance(collapsed[0], DirectPsAdd)
        assert collapsed[0].src_slot == 0 and collapsed[0].slot == 1

    def test_adjacent_spike_pair_collapses(self):
        idx = np.arange(2)
        ops = [
            MakeSpikePacket(slot=0, reg=0, idx=idx, width=4),
            Eject(slot=1, reg=0, lanes=idx, offset=0),
        ]
        collapsed, count = _collapse_packet_pairs(ops)
        assert count == 1
        assert isinstance(collapsed[0], DirectEject)

    def test_multi_reader_register_not_collapsed(self):
        idx = np.arange(3)
        ops = [
            MakePsPacket(slot=0, reg=0, idx=idx, use_sum_buf=False, width=4),
            PsAdd(slot=1, reg=0, idx=idx, add=True, consecutive=False,
                  ps_min=-32, ps_max=31, where="(0, 1)"),
            PsAdd(slot=2, reg=0, idx=idx, add=False, consecutive=False,
                  ps_min=-32, ps_max=31, where="(0, 2)"),
        ]
        collapsed, count = _collapse_packet_pairs(ops)
        assert count == 0
        assert len(collapsed) == 3

    def test_unknown_op_kind_keeps_every_check(self, dense_program):
        class MysteryOp:
            pass

        schedule = prepare_schedule(dense_program)
        assert analyse_check_elision(schedule,
                                     list(schedule.ops) + [MysteryOp()]) is None

    def test_registers_preallocated_from_reg_nets(self, dense_program):
        from repro.engine.groups import ungroup
        from repro.engine.optimize import _effects

        for optimize in (False, True):
            schedule = prepare_schedule(dense_program, optimize)
            assert len(schedule.reg_nets) == schedule.n_regs
            assert set(schedule.reg_nets) <= {"ps", "spike"}
            touched = {reg for op in ungroup(schedule.ops)
                       for effects in _effects(op)
                       for kind, reg in effects if kind == "reg"}
            # the lowered schedule allocates every register, the optimized
            # one exactly the registers its ops touch
            live = (set(schedule.live_regs) if optimize
                    else set(range(schedule.n_regs)))
            assert touched <= live
            if optimize:
                assert live == touched
            state = schedule.allocate(3)
            for index, (net, reg) in enumerate(zip(schedule.reg_nets,
                                                    state.regs)):
                if index not in live:
                    assert reg is None
                    continue
                assert reg is not None
                assert reg.shape[0] == 3
                assert reg.dtype == (np.int64 if net == "ps" else np.bool_)

    def test_plan_rides_through_pickling(self, dense_program):
        import pickle

        schedule = prepare_schedule(dense_program, executor="fused")
        clone = pickle.loads(pickle.dumps(schedule))
        assert clone.plan is not None
        assert len(clone.plan.kernels) == len(schedule.plan.kernels)
        assert clone.plan.buffers == schedule.plan.buffers


# ----------------------------------------------------------------------
# The gpu backend and the auto policy
# ----------------------------------------------------------------------
class TestGpuBackend:
    def test_registered_unconditionally(self):
        assert "gpu" in list_backends()
        assert backend_available("vectorized") is True

    def test_numpy_module_exercises_device_path(self, dense_program,
                                                dense_snn, dense_inputs):
        backend = GpuBackend(dense_program, module="numpy")
        assert backend.schedule.xp is NUMPY
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        result = backend.run(trains)
        with create_backend("vectorized", dense_program) as vec:
            baseline = vec.run(trains)
        np.testing.assert_array_equal(result.spike_counts,
                                      baseline.spike_counts)
        assert result.stats.summary() == baseline.stats.summary()

    @pytest.mark.skipif(first_available_module() is not None,
                        reason="an optional array module is importable")
    def test_unavailable_without_optional_modules(self, dense_program):
        assert backend_available("gpu") is False
        with pytest.raises(EngineError, match="cupy|torch"):
            GpuBackend(dense_program)

    @pytest.mark.gpu
    def test_real_module_parity(self, dense_program, dense_snn,
                                dense_inputs):
        module = first_available_module()
        if module is None:
            pytest.skip("no optional array module (cupy/torch) importable")
        trains = deterministic_encode(dense_inputs, dense_snn.timesteps)
        assert_backend_parity(
            dense_program, trains, probes=ProbeSet.full(),
            backends=["vectorized",
                      (f"gpu-{module.name}", "gpu", {"module": module})])


class TestAutoPolicy:
    def test_prefers_gpu_for_large_batches_on_device(self):
        assert select_backend_name(1000, workers=8, device=True) == "gpu"
        assert select_backend_name(512, workers=8, device=True) == "gpu"

    def test_without_device_policy_unchanged(self):
        assert select_backend_name(1000, workers=8, device=False) == "sharded"
        assert select_backend_name(100, workers=8, device=False) == "vectorized"
        assert select_backend_name(1, device=False) == "reference"

    def test_reference_beats_gpu_for_debug_batches(self):
        assert select_backend_name(1, device=True) == "reference"

    def test_below_gpu_threshold_falls_through(self):
        assert select_backend_name(300, workers=8, device=True) == "sharded"
        assert select_backend_name(100, workers=1, device=True) == "vectorized"

    def test_gpu_threshold_configurable(self):
        assert select_backend_name(600, workers=1, device=True,
                                   gpu_min_frames=1000) == "vectorized"
        assert select_backend_name(600, workers=1, device=True,
                                   gpu_min_frames=600) == "gpu"

    def test_auto_backend_select_forwards_device(self, dense_program):
        with AutoBackend(dense_program, device=True) as backend:
            assert backend.select(600) == "gpu"
        with AutoBackend(dense_program, device=False, workers=8) as backend:
            assert backend.select(600) == "sharded"

    def test_degradation_chain_excludes_gpu(self):
        assert DEGRADATION_CHAIN == ("sharded", "vectorized", "reference")
