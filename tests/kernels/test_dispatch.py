"""Dispatcher: the pin/fused/numpy rule, fallbacks, warn-once logging."""

import logging

import numpy as np
import pytest

from repro.hw.pe import PEConfig
from repro.kernels import KernelDispatcher, get_backend, reset_dispatcher
from repro.kernels.base import GemmTask
from repro.kernels.dispatch import choose_backend, get_dispatcher
from repro.quant.config import QuantConfig
from repro.quant.packing import pack_tensor


def _task(rng, dtype="bitmod_fp4", m=2, k=3, d=64, pe_config=None):
    cfg = QuantConfig(dtype=dtype, group_size=32)
    return GemmTask(
        x=rng.standard_normal((m, d)).astype(np.float16),
        packed=pack_tensor(rng.standard_normal((k, d)), cfg),
        dtype=cfg.resolve_dtype(),
        pe_config=pe_config or PEConfig(),
    )


#: PE configs the fused float32 backend declines: a non-24-bit
#: accumulator, and a guard width whose lane sum overflows float32.
EXOTIC_PE = [PEConfig(acc_mantissa_bits=20), PEConfig(guard_bits=12)]


@pytest.fixture(autouse=True)
def _fresh_dispatcher(monkeypatch):
    monkeypatch.delenv("REPRO_KERNEL_BACKEND", raising=False)
    yield
    reset_dispatcher()


class TestResolution:
    def test_explicit_backend_wins(self, rng):
        assert KernelDispatcher().resolve(_task(rng), backend="numpy").name == "numpy"

    def test_unknown_backend_fails_loudly(self, rng):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            KernelDispatcher().resolve(_task(rng), backend="not-a-backend")

    def test_env_override(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
        assert KernelDispatcher().resolve(_task(rng)).name == "reference"

    def test_explicit_backend_beats_env(self, rng, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_BACKEND", "reference")
        assert KernelDispatcher().resolve(_task(rng), backend="numpy").name == "numpy"

    @pytest.mark.parametrize("dtype", ["bitmod_fp4", "bitmod_fp3", "int6_sym", "fp4"])
    def test_default_is_fused(self, rng, dtype):
        assert KernelDispatcher().resolve(_task(rng, dtype=dtype)).name == "fused"

    @pytest.mark.parametrize("pe_config", EXOTIC_PE, ids=["acc20", "guard12"])
    def test_exotic_pe_config_resolves_to_numpy(self, rng, pe_config):
        """Only the integer-exact numpy backend runs configs outside the
        fused backend's float32 exactness proof."""
        task = _task(rng, pe_config=pe_config)
        assert get_backend("fused").supports(task) is not None
        assert KernelDispatcher().resolve(task).name == "numpy"

    @pytest.mark.parametrize("pe_config", EXOTIC_PE, ids=["acc20", "guard12"])
    def test_unsupporting_pin_falls_back_to_numpy(self, rng, pe_config):
        task = _task(rng, pe_config=pe_config)
        assert KernelDispatcher().resolve(task, backend="fused").name == "numpy"


class TestChooseBackend:
    """The policy function on its own, with no env or dispatcher state."""

    def test_no_pin_picks_fused(self, rng):
        assert choose_backend(_task(rng)).name == "fused"

    def test_supported_pin_wins(self, rng):
        assert choose_backend(_task(rng), "reference").name == "reference"

    @pytest.mark.parametrize("pe_config", EXOTIC_PE, ids=["acc20", "guard12"])
    def test_declined_pin_and_no_pin_pick_numpy(self, rng, pe_config):
        task = _task(rng, pe_config=pe_config)
        assert choose_backend(task, "fused").name == "numpy"
        assert choose_backend(task).name == "numpy"

    def test_unknown_pin_raises(self, rng):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            choose_backend(_task(rng), "not-a-backend")


class TestRun:
    def test_run_counts_dispatches(self, rng):
        from repro import obs

        obs.reset()
        disp = KernelDispatcher()
        res = disp.run(_task(rng), backend="numpy")
        assert res.output.shape == (2, 3)
        disp.run(_task(rng))
        counters = obs.snapshot()["counters"]
        assert counters["kernels.dispatch{backend=numpy}"] == 1
        assert counters["kernels.dispatch{backend=fused}"] == 1

    def test_all_resolved_backends_agree(self, rng):
        disp = KernelDispatcher()
        task = _task(rng)
        ref = get_backend("reference").run(task)
        for name in ("numpy", "fused"):
            res = disp.run(task, backend=name)
            np.testing.assert_array_equal(res.output, ref.output)
            assert res.pe_cycles == ref.pe_cycles

    @pytest.mark.parametrize("lanes", [2, 4, 8])
    @pytest.mark.parametrize("dtype", ["bitmod_fp3", "bitmod_fp4", "int4_sym"])
    def test_backends_agree_across_lane_counts(self, lanes, dtype):
        """The fused backend unrolls its lane max/sum over ``lanes``:
        every lane count of the paper-pareto ``pe_lanes`` axis must give
        the reference outputs and cycles, over varied scale codes and
        special-value selectors and a padded last group.  Activations
        span 2**-14..2**9, so alignment and accumulation both round."""
        rng = np.random.default_rng(lanes * 100 + len(dtype))
        cfg = QuantConfig(dtype=dtype, group_size=32)
        w = rng.standard_normal((5, 80)) * np.exp(2.0 * rng.standard_normal((5, 1)))
        w[:, 40:] *= 9.0  # second group column: a different scale per row
        x = rng.standard_normal((3, 80)) * 2.0 ** rng.integers(-14, 10, (3, 80))
        task = GemmTask(
            x=x.astype(np.float16),
            packed=pack_tensor(w, cfg),
            dtype=cfg.resolve_dtype(),
            pe_config=PEConfig(lanes=lanes),
        )
        assert len(np.unique(task.sf_codes())) > 3
        if task.packed.sv_selectors is not None:
            assert len(np.unique(task.packed.sv_selectors)) > 1
        ref = get_backend("reference").run(task)
        for name in ("numpy", "fused"):
            assert get_backend(name).supports(task) is None
            res = get_backend(name).run(task)
            np.testing.assert_array_equal(res.output, ref.output)
            assert res.pe_cycles == ref.pe_cycles


@pytest.fixture()
def _propagating_repro_logs():
    """Undo ``obs.setup_logging``'s propagate=False so caplog's
    root-attached handler sees ``repro.*`` records (order-independent)."""
    root = logging.getLogger("repro")
    before = root.propagate
    root.propagate = True
    yield
    root.propagate = before


@pytest.mark.usefixtures("_propagating_repro_logs")
class TestWarnings:
    def _fallback_warnings(self, caplog):
        return [r for r in caplog.records if "cannot run this task" in r.getMessage()]

    def test_declined_pin_warns_once(self, rng, caplog):
        disp = reset_dispatcher()
        task = _task(rng, pe_config=PEConfig(acc_mantissa_bits=20))
        with caplog.at_level(logging.WARNING, logger="repro.kernels.dispatch"):
            disp.resolve(task, backend="fused")
            disp.resolve(task, backend="fused")
        (warning,) = self._fallback_warnings(caplog)
        assert "24-bit accumulator" in warning.getMessage()
        assert "falling back to 'numpy'" in warning.getMessage()

    def test_reset_rearms_the_warning(self, rng, caplog):
        task = _task(rng, pe_config=PEConfig(acc_mantissa_bits=20))
        with caplog.at_level(logging.WARNING, logger="repro.kernels.dispatch"):
            reset_dispatcher().resolve(task, backend="fused")
            reset_dispatcher().resolve(task, backend="fused")
        assert len(self._fallback_warnings(caplog)) == 2

    def test_supported_pin_and_default_do_not_warn(self, rng, caplog):
        disp = reset_dispatcher()
        with caplog.at_level(logging.WARNING, logger="repro.kernels.dispatch"):
            disp.resolve(_task(rng))
            disp.resolve(_task(rng), backend="numpy")
            disp.resolve(_task(rng, pe_config=PEConfig(acc_mantissa_bits=20)))
        assert self._fallback_warnings(caplog) == []


class TestProcessWide:
    def test_get_dispatcher_is_singleton(self):
        disp = reset_dispatcher()
        assert get_dispatcher() is disp
        assert reset_dispatcher() is not disp
