"""Tests for the task harness, memory profiler, and statistics."""

import numpy as np
import pytest

from repro.eval.memory import profile_memory
from repro.eval.stats import profile_granularity
from repro.eval.tasks import TASKS, DiscriminativeEvaluator
from repro.models.layers import softmax
from repro.models.zoo import get_model_config
from repro.quant.config import QuantConfig, quantize_tensor


def full_log_softmax_scores(evaluator, model):
    """Choice scores from a log-softmax over every position (the
    scoring before it was cut to the positions that are read)."""
    spec = evaluator.spec
    tokens = np.concatenate([it.tokens for it in evaluator.items], axis=0)
    log_probs = np.log(np.maximum(softmax(model.logits(tokens), axis=-1), 1e-30))
    start, seq = evaluator.items[0].cont_start, tokens.shape[1]
    pos = np.arange(start, seq)
    scores = []
    for i in range(evaluator.n_items):
        rows = slice(i * spec.n_choices, (i + 1) * spec.n_choices)
        cont_lp = log_probs[rows][:, pos - 1, :][
            np.arange(spec.n_choices)[:, None], np.arange(len(pos))[None, :],
            tokens[rows][:, pos],
        ]
        scores.append(cont_lp.mean(axis=1))
    return np.array(scores)


@pytest.fixture(scope="module")
def small_hella():
    return DiscriminativeEvaluator(get_model_config("llama-2-7b"), "hellaswag", n_items=8)


@pytest.fixture(scope="module")
def hella():
    return DiscriminativeEvaluator(
        get_model_config("llama-2-7b"), "hellaswag", n_items=64
    )


class TestTasks:
    def test_three_tasks_defined(self):
        assert set(TASKS) == {"hellaswag", "winogrande", "piqa"}

    def test_fp16_accuracy_near_anchor(self, hella):
        target = get_model_config("llama-2-7b").fp16_acc["hellaswag"] / 100
        assert abs(hella.fp16_accuracy - target) < 0.12

    def test_items_have_choices(self, hella):
        for item in hella.items:
            assert item.tokens.shape[0] == 4
            assert 0 <= item.label < 4

    def test_choices_share_prompt(self, hella):
        for item in hella.items[:8]:
            prompt = item.tokens[:, : item.cont_start]
            assert np.all(prompt == prompt[0])

    def test_identity_quantizer_matches_fp16(self, hella):
        acc = hella.evaluate_quantizer(lambda n, w: w)
        assert acc == pytest.approx(hella.fp16_accuracy * 100)

    def test_quantization_degrades_mostly(self, hella):
        cfg = QuantConfig(dtype="int3_asym")
        acc = hella.evaluate_quantizer(
            lambda n, w: quantize_tensor(w, cfg).w_deq
        )
        assert acc <= hella.fp16_accuracy * 100

    def test_4bit_milder_than_3bit(self, hella):
        accs = {}
        for dt in ("int4_asym", "int3_asym"):
            cfg = QuantConfig(dtype=dt)
            accs[dt] = hella.evaluate_quantizer(
                lambda n, w: quantize_tensor(w, cfg).w_deq
            )
        assert accs["int4_asym"] >= accs["int3_asym"]

    @pytest.mark.parametrize("dtype", [None, "int3_asym"])
    def test_scores_and_picks_equal_full_log_softmax(self, small_hella, dtype):
        small = small_hella
        model = small.model
        if dtype is not None:
            cfg = QuantConfig(dtype=dtype)
            model = model.apply_quantizer(lambda n, w: quantize_tensor(w, cfg).w_deq)
        want = full_log_softmax_scores(small, model)
        assert np.array_equal(small._choice_scores(model), want)
        assert np.array_equal(small._score_items(model), np.argmax(want, axis=1))

    def test_unknown_task(self):
        with pytest.raises(KeyError):
            DiscriminativeEvaluator(get_model_config("opt-1.3b"), "mmlu")


class TestMemoryProfile:
    def test_weights_dominate(self):
        cfg = get_model_config("llama-2-7b")
        for task in ("discriminative", "generative"):
            p = profile_memory(cfg, task)
            assert p.weight_bytes > 4 * p.activation_bytes

    def test_generative_gap_larger(self):
        """Fig. 1: the weight/activation gap widens for generation."""
        cfg = get_model_config("opt-1.3b")
        disc = profile_memory(cfg, "discriminative")
        gen = profile_memory(cfg, "generative")
        assert gen.weight_fraction > disc.weight_fraction

    def test_weight_bits_reduce_traffic(self):
        cfg = get_model_config("opt-1.3b")
        p16 = profile_memory(cfg, "generative", weight_bits=16)
        p4 = profile_memory(cfg, "generative", weight_bits=4)
        assert p4.weight_bytes == pytest.approx(p16.weight_bytes / 4)

    def test_bad_task(self):
        with pytest.raises(ValueError):
            profile_memory(get_model_config("opt-1.3b"), "chat")


class TestGranularityStats:
    def test_fig2_ordering(self):
        """tensor >> channel > group for both max and range."""
        stats = profile_granularity(get_model_config("opt-1.3b"))
        assert stats["tensor"].norm_max > stats["channel"].norm_max
        assert stats["channel"].norm_max > stats["group"].norm_max
        assert stats["tensor"].norm_range > stats["group"].norm_range

    def test_range_roughly_double_max(self):
        stats = profile_granularity(get_model_config("llama-2-7b"))
        g = stats["group"]
        assert 1.2 < g.norm_range / g.norm_max < 2.2
