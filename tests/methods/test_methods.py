"""Tests for the software-only PTQ methods."""

import numpy as np
import pytest

from repro.methods import (
    AWQ,
    GPTQ,
    OmniQuant,
    QuaRot,
    RTN,
    SmoothQuant,
    collect_calibration,
    hadamard_matrix,
    random_orthogonal,
    smooth_scales,
)
from repro.models.transformer import CausalLM
from repro.models.zoo import get_model_config
from repro.quant.config import QuantConfig, quantize_tensor


@pytest.fixture(scope="module")
def model():
    return CausalLM(get_model_config("llama-2-7b"), seed=0)


@pytest.fixture(scope="module")
def calib(model):
    return collect_calibration(model, batch=1, seq=48)


def _layer(model, calib):
    name = "layers.0.q_proj"
    return name, model.weights[name], calib[name]


def _out_err(w, w_q, x):
    return float(np.mean(((w_q - w) @ x.T) ** 2))


class TestCalibration:
    def test_covers_all_linears(self, model, calib):
        assert set(calib) == set(model.named_linears())

    def test_activation_shapes(self, model, calib):
        for name, w in model.named_linears().items():
            assert calib[name].shape[1] == w.shape[1]


class TestRTN:
    def test_matches_plain_quantize(self, model, calib):
        name, w, x = _layer(model, calib)
        cfg = QuantConfig(dtype="int4_asym")
        got = RTN(cfg).quantize_weight(name, w, x)
        np.testing.assert_array_equal(got, quantize_tensor(w, cfg).w_deq)


class TestAWQ:
    def test_no_worse_than_rtn_on_output_error(self, model, calib):
        name, w, x = _layer(model, calib)
        cfg = QuantConfig(dtype="int3_asym")
        rtn = quantize_tensor(w, cfg).w_deq
        awq = AWQ(cfg).quantize_weight(name, w, x)
        assert _out_err(w, awq, x) <= _out_err(w, rtn, x) + 1e-12

    def test_alpha_zero_only_grid_reduces_to_rtn(self, model, calib):
        name, w, x = _layer(model, calib)
        cfg = QuantConfig(dtype="int4_asym")
        awq = AWQ(cfg, alpha_grid=[0.0]).quantize_weight(name, w, x)
        np.testing.assert_allclose(awq, quantize_tensor(w, cfg).w_deq)

    def test_composes_with_bitmod(self, model, calib):
        name, w, x = _layer(model, calib)
        cfg = QuantConfig(dtype="bitmod_fp3")
        awq = AWQ(cfg).quantize_weight(name, w, x)
        assert np.isfinite(awq).all()


class TestGPTQ:
    def test_better_than_rtn_on_output_error(self, model, calib):
        name, w, x = _layer(model, calib)
        cfg = QuantConfig(dtype="int3_asym")
        rtn = quantize_tensor(w, cfg).w_deq
        gptq = GPTQ(cfg).quantize_weight(name, w, x)
        assert _out_err(w, gptq, x) < _out_err(w, rtn, x)

    def test_weight_error_may_grow_but_output_error_shrinks(self, model, calib):
        """GPTQ trades weight-space error for output-space error."""
        name, w, x = _layer(model, calib)
        cfg = QuantConfig(dtype="int3_asym")
        gptq = GPTQ(cfg).quantize_weight(name, w, x)
        assert np.isfinite(gptq).all()

    @pytest.mark.parametrize("dtype", ["int4_sym", "fp4", "bitmod_fp4"])
    def test_supports_multiple_dtypes(self, model, calib, dtype):
        name, w, x = _layer(model, calib)
        cfg = QuantConfig(dtype=dtype)
        out = GPTQ(cfg).quantize_weight(name, w, x)
        assert out.shape == w.shape and np.isfinite(out).all()

    def test_output_stays_on_group_grid(self, model, calib):
        """Error feedback moves weights between grid points, never off
        the grid: each 128-wide int3 group holds at most 8 values."""
        name, w, x = _layer(model, calib)
        out = GPTQ(QuantConfig(dtype="int3_asym")).quantize_weight(name, w, x)
        groups = out.reshape(w.shape[0], -1, 128)
        assert max(
            len(np.unique(g)) for row in groups for g in row
        ) <= 8


class TestOmniQuant:
    def test_no_worse_than_rtn(self, model, calib):
        name, w, x = _layer(model, calib)
        cfg = QuantConfig(dtype="int3_asym")
        rtn = quantize_tensor(w, cfg).w_deq
        omni = OmniQuant(cfg).quantize_weight(name, w, x)
        assert _out_err(w, omni, x) <= _out_err(w, rtn, x) + 1e-12

    def test_clip_grid_of_one_is_rtn(self, model, calib):
        name, w, x = _layer(model, calib)
        cfg = QuantConfig(dtype="int4_asym")
        omni = OmniQuant(cfg, clip_grid=[1.0]).quantize_weight(name, w, x)
        np.testing.assert_allclose(omni, quantize_tensor(w, cfg).w_deq)


class TestSmoothQuant:
    def test_smoothing_preserves_function(self, model):
        """Unquantized smoothed model computes the same logits."""
        sq = SmoothQuant(QuantConfig(dtype="int4_asym"))
        smoothed = sq.smooth_model(model)
        toks = np.arange(16)
        np.testing.assert_allclose(
            smoothed.logits(toks), model.logits(toks), rtol=1e-8, atol=1e-8
        )

    def test_smooth_scales_normalized(self, rng):
        x = rng.standard_normal((64, 32))
        ws = [rng.standard_normal((16, 32))]
        s = smooth_scales(x, ws)
        assert np.exp(np.mean(np.log(s))) == pytest.approx(1.0)

    def test_act_bits_enabled_on_quantized_model(self, model):
        sq = SmoothQuant(QuantConfig(dtype="int4_asym"), act_bits=8)
        q = sq.quantize_model(model)
        assert q.act_quant_bits == 8

    def test_migration_tames_act_outliers(self, model, calib):
        """After smoothing, the worst activation column shrinks."""
        name = "layers.0.q_proj"
        x = calib[name]
        sq = SmoothQuant(QuantConfig(dtype="int4_asym"))
        smoothed = sq.smooth_model(model)
        x_s = collect_calibration(smoothed, batch=1, seq=48)[name]
        assert np.max(np.abs(x_s)) < np.max(np.abs(x))


class TestQuaRot:
    def test_hadamard_orthogonal(self):
        h = hadamard_matrix(64)
        np.testing.assert_allclose(h @ h.T, np.eye(64), atol=1e-12)

    def test_hadamard_requires_pow2(self):
        with pytest.raises(ValueError):
            hadamard_matrix(48)

    def test_random_orthogonal(self):
        q = random_orthogonal(40, seed=3)
        np.testing.assert_allclose(q @ q.T, np.eye(40), atol=1e-10)

    def test_rotation_cancels_without_quantization(self, model, calib):
        name, w, x = _layer(model, calib)

        class NoQuant(QuaRot):
            def quantize_weight(self, name, w, x):
                rot = self._rotation(w.shape[1])
                return (w @ rot) @ rot.T

        out = NoQuant(QuantConfig(dtype="int4_asym")).quantize_weight(name, w, x)
        np.testing.assert_allclose(out, w, atol=1e-10)

    def test_rotation_gaussianizes(self, model, calib):
        """Rotation reduces weight kurtosis (outlier spreading)."""
        name, w, x = _layer(model, calib)
        qr = QuaRot(QuantConfig(dtype="int4_asym"))
        rot = qr._rotation(w.shape[1])
        wr = w @ rot

        def kurt(a):
            a = (a - a.mean()) / a.std()
            return float(np.mean(a**4))

        assert kurt(wr) < kurt(w)


class TestModelLevel:
    @pytest.mark.parametrize("factory", [RTN, AWQ, OmniQuant, QuaRot])
    def test_quantize_model_replaces_all_linears(self, model, calib, factory):
        method = factory(QuantConfig(dtype="int4_asym"))
        q = method.quantize_model(model, calib)
        changed = sum(
            not np.array_equal(q.weights[n], model.weights[n])
            for n in model.named_linears()
        )
        assert changed == len(model.named_linears())
