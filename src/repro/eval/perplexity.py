"""Perplexity proxy for quantized models.

The paper reports Wikitext-2 / C4 perplexity of quantized LLMs.  We
have no trained checkpoints, so we use the decomposition described in
DESIGN.md: weight-only quantization perturbs the model's output
distribution, and the induced perplexity ratio is (to second order)
an exponential in the average divergence between the original and the
perturbed token distributions::

    PPL_quant ~= PPL_fp16 * exp(k * D)

* ``PPL_fp16`` is pinned to the paper's published FP16 anchor for the
  model/dataset (Table VI), keeping the tables directly comparable.
* ``D`` is **measured**: the mean KL divergence between the FP16 and
  quantized models' next-token distributions over the synthetic
  corpus, from real forward passes through the really-quantized
  weights.
* ``k`` (:data:`SENSITIVITY`) is one global constant, calibrated once
  so that a reference configuration (per-group INT4-Asym, the
  workhorse of the software-PTQ literature) lands at the paper's
  average degradation.  Nothing is fitted per datatype or per model —
  every comparison in the reproduced tables comes out of measured
  divergences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from repro.models.config import ModelConfig
from repro.models.layers import softmax
from repro.models.transformer import CausalLM
from repro.models.workers import fan_out, pool_size
from repro.pipeline.context import get_ppl_context
from repro.quant.config import QuantConfig, quantize_tensor

__all__ = ["SENSITIVITY", "PerplexityEvaluator", "kl_divergence_mean"]

#: Global divergence-to-perplexity sensitivity (see module docstring).
SENSITIVITY = 5.0


def kl_divergence_mean(logits_p: np.ndarray, logits_q: np.ndarray) -> float:
    """Mean over positions of ``KL(softmax(p) || softmax(q))``.

    The per-position terms are computed in slices of the leading axis
    on the worker pool (every operator works row by row), then averaged
    in one ``np.mean`` over all of them.
    """
    logits_p, logits_q = np.atleast_2d(logits_p, logits_q)
    k = max(1, min(len(logits_p), pool_size()))
    parts = zip(np.array_split(logits_p, k), np.array_split(logits_q, k))
    terms = fan_out(lambda pq: _kl_terms(*pq), parts)
    return float(np.mean(np.concatenate(terms)))


def _kl_terms(logits_p: np.ndarray, logits_q: np.ndarray) -> np.ndarray:
    """Per-position ``KL(softmax(p) || softmax(q))`` over the last axis."""
    # Three temporaries, each reused operator by operator; the values
    # are those of ``sum(p * (log(max(p, 1e-30)) - log_softmax(q)))``.
    p = softmax(logits_p, axis=-1)
    log_q = np.subtract(logits_q, np.max(logits_q, axis=-1, keepdims=True))
    work = np.exp(log_q)
    log_q -= np.log(np.sum(work, axis=-1, keepdims=True))
    np.maximum(p, 1e-30, out=work)
    np.log(work, out=work)
    work -= log_q
    work *= p
    return np.sum(work, axis=-1)


QuantizeFn = Callable[[str, np.ndarray], np.ndarray]


@dataclass
class PerplexityResult:
    """One perplexity measurement."""

    model: str
    dataset: str
    ppl: float
    divergence: float
    fp16_ppl: float

    @property
    def delta(self) -> float:
        return self.ppl - self.fp16_ppl


class PerplexityEvaluator:
    """Evaluates quantization schemes on one model/dataset pair.

    A thin view over the shared pipeline context: the FP16 reference
    model and its logits are built once *per process* per
    (model, dataset, seed, batch, seq) and shared by every evaluator —
    and every experiment — that asks for the same pair (mirroring how
    the paper evaluates many datatypes against one checkpoint).
    Cross-run caching of evaluation results lives one layer up, in
    :mod:`repro.pipeline.engine`.
    """

    def __init__(
        self,
        config: ModelConfig,
        dataset: str = "wikitext",
        seed: int = 0,
        batch: int = 4,
        seq: int = 128,
        sensitivity: float = SENSITIVITY,
    ):
        ctx = get_ppl_context(config, dataset, seed=seed, batch=batch, seq=seq)
        self.config = config
        self.dataset = dataset
        self.sensitivity = sensitivity
        self.model = ctx.model
        self.tokens = ctx.tokens
        self.fp16_logits = ctx.fp16_logits
        self.fp16_ppl = ctx.fp16_ppl

    # ------------------------------------------------------------------
    def evaluate_model(self, quantized: CausalLM) -> PerplexityResult:
        """Perplexity of an already-quantized model."""
        q_logits = quantized.logits(self.tokens)
        d = kl_divergence_mean(self.fp16_logits, q_logits)
        ppl = self.fp16_ppl * float(np.exp(self.sensitivity * d))
        return PerplexityResult(
            model=self.config.name,
            dataset=self.dataset,
            ppl=ppl,
            divergence=d,
            fp16_ppl=self.fp16_ppl,
        )

    def evaluate_quantizer(self, quantize: QuantizeFn) -> PerplexityResult:
        """Quantize every block linear with ``quantize`` and evaluate."""
        return self.evaluate_model(self.model.apply_quantizer(quantize))

    def evaluate_config(self, qconfig: Union[QuantConfig, str]) -> PerplexityResult:
        """Evaluate a plain round-to-nearest :class:`QuantConfig`."""
        if isinstance(qconfig, str):
            qconfig = QuantConfig(dtype=qconfig)

        def quantize(_name: str, w: np.ndarray) -> np.ndarray:
            return quantize_tensor(w, qconfig).w_deq

        return self.evaluate_quantizer(quantize)

    def fp16_result(self) -> PerplexityResult:
        """The (trivially exact) FP16 row of a table."""
        return PerplexityResult(
            model=self.config.name,
            dataset=self.dataset,
            ppl=self.fp16_ppl,
            divergence=0.0,
            fp16_ppl=self.fp16_ppl,
        )
