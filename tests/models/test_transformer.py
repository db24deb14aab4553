"""Tests for the CausalLM substrate."""

import numpy as np
import pytest

from repro.models.layers import rope_cache, sinusoidal_positions
from repro.models.transformer import CausalLM
from repro.models.zoo import get_model_config, list_models


@pytest.fixture(scope="module")
def llama():
    return CausalLM(get_model_config("llama-2-7b"), seed=0)


@pytest.fixture(scope="module")
def tokens(llama):
    rng = np.random.default_rng(0)
    return rng.integers(0, llama.config.sim_vocab, size=(2, 24))


class TestForward:
    def test_logits_shape(self, llama, tokens):
        out = llama.logits(tokens)
        assert out.shape == (2, 24, llama.config.sim_vocab)

    def test_1d_tokens_accepted(self, llama):
        out = llama.logits(np.arange(8))
        assert out.shape == (1, 8, llama.config.sim_vocab)

    def test_deterministic(self, llama, tokens):
        np.testing.assert_array_equal(llama.logits(tokens), llama.logits(tokens))

    def test_causal(self, llama, tokens):
        """Changing a future token leaves earlier logits unchanged."""
        t2 = tokens.copy()
        t2[:, -1] = (t2[:, -1] + 1) % llama.config.sim_vocab
        a = llama.logits(tokens)
        b = llama.logits(t2)
        np.testing.assert_allclose(a[:, :-1], b[:, :-1])
        assert not np.allclose(a[:, -1], b[:, -1])

    @pytest.mark.parametrize("name", list_models())
    def test_every_zoo_model_runs(self, name):
        model = CausalLM(get_model_config(name), seed=0)
        out = model.logits(np.arange(12))
        assert np.isfinite(out).all()
        assert 0.2 < out.std() < 5.0  # healthy logit scale

    def test_gqa_kv_heads(self):
        cfg = get_model_config("yi-6b")
        assert cfg.sim_kv_heads < cfg.sim_heads
        model = CausalLM(cfg, seed=0)
        assert np.isfinite(model.logits(np.arange(8))).all()


class TestQuantizerInterface:
    def test_named_linears_excludes_norms_and_embeddings(self, llama):
        names = set(llama.named_linears())
        assert not any(n.endswith("_norm") for n in names)
        assert "embed" not in names and "lm_head" not in names
        assert f"layers.0.q_proj" in names

    def test_apply_quantizer_returns_copy(self, llama, tokens):
        before = llama.logits(tokens)
        clone = llama.apply_quantizer(lambda n, w: np.zeros_like(w))
        after = llama.logits(tokens)
        np.testing.assert_array_equal(before, after)  # original intact
        assert not np.allclose(clone.logits(tokens), before)

    def test_quantizer_receives_names(self, llama):
        seen = []

        def fn(name, w):
            seen.append(name)
            return w

        llama.apply_quantizer(fn)
        assert len(seen) == len(llama.named_linears())

    def test_collect_activations_shapes(self, llama, tokens):
        acts = llama.collect_activations(tokens)
        cfg = llama.config
        assert acts["layers.0.q_proj"].shape == (
            tokens.size,
            cfg.sim_hidden,
        )
        assert acts[f"layers.0.down_proj"].shape[1] == cfg.sim_intermediate


class TestActivationQuantization:
    def test_act_quant_changes_logits(self, llama, tokens):
        import copy

        q = copy.copy(llama)
        q.act_quant_bits = 4
        base = llama.logits(tokens)
        quant = q.logits(tokens)
        assert not np.allclose(base, quant)

    def test_int8_acts_are_mild(self, llama, tokens):
        import copy

        q = copy.copy(llama)
        q.act_quant_bits = 8
        base = llama.logits(tokens)
        diff = np.abs(q.logits(tokens) - base).mean()
        assert 0 < diff < 0.1 * np.abs(base).mean()


class TestPositionTables:
    @pytest.mark.parametrize("name", ["opt-1.3b", "llama-2-7b"])
    def test_grown_table_slices_equal_fresh(self, name):
        """Growing with slack keeps every row bit-identical to a table
        built fresh at the requested length."""
        cfg = get_model_config(name)
        model = CausalLM(cfg, seed=0)
        for n in (1, 7, 8, 33, 100, 513, 1025):
            grown = model._position_tables(n)
            if cfg.family == "opt":
                fresh = (sinusoidal_positions(n, cfg.sim_hidden),)
            else:
                fresh = rope_cache(n, cfg.sim_head_dim())
            for g, f in zip(grown, fresh):
                assert g.shape[0] >= n
                assert g[:n].tobytes() == f.tobytes()

    def test_decode_reuses_the_table(self):
        model = CausalLM(get_model_config("opt-1.3b"), seed=0)
        _, cache = model.prefill(np.arange(8))
        table = model._position_tables(9)[0]
        model.decode_step(np.array([3]), [cache])
        assert model._position_tables(10)[0] is table
