"""Model configurations for the LLM substrate.

Each :class:`ModelConfig` carries two sets of dimensions:

* **full** dimensions — the real architecture of the paper's models
  (hidden size, layer count, head counts, FFN size, vocabulary).  The
  hardware simulator and the memory profiler consume these, because
  cycle counts and DRAM traffic must reflect the real model sizes.
* **sim** dimensions — a scaled-down version instantiated as an actual
  numpy transformer for quantization experiments.  Quantization error
  is a property of weight *distributions*, not of parameter count, so
  a faithful distribution at small scale preserves the comparisons.

It also carries :class:`WeightProfile`, the per-family weight
distribution statistics (tail heaviness, per-channel scale spread,
outlier rate, per-group asymmetry) that drive the synthetic weight
generator, and the paper's published FP16 anchors (perplexity and task
accuracy) used to pin the intercepts of the evaluation proxies — see
DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

__all__ = ["WeightProfile", "ModelConfig", "GEMMShape"]


@dataclass(frozen=True)
class WeightProfile:
    """Distribution statistics of a model family's weight tensors.

    Parameters
    ----------
    tail_df:
        Degrees of freedom of the Student-t body; smaller = heavier
        tails = harder to quantize (OPT ~ heaviest, Llama-2 mildest).
    channel_spread:
        Log-normal sigma of per-output-channel scales.
    outlier_rate:
        Fraction of weights replaced by large outliers.
    outlier_mag:
        Outlier magnitude in units of the channel scale.
    group_shift:
        Magnitude of per-group mean shifts (in sigmas); produces the
        asymmetric groups that reward asymmetric datatypes (paper
        Section II-C).
    act_outlier_rate:
        Fraction of hidden channels carrying outsized activations
        (realized as norm-gain outliers, the mechanism behind OPT's
        famous activation outliers).  Weight error on these input
        columns is amplified, which is what makes some models collapse
        at 3-bit and is the phenomenon AWQ/SmoothQuant exploit.
    act_outlier_mag:
        Gain multiplier of those channels.
    """

    tail_df: float = 6.0
    channel_spread: float = 0.3
    outlier_rate: float = 0.0005
    outlier_mag: float = 8.0
    group_shift: float = 0.15
    act_outlier_rate: float = 0.01
    act_outlier_mag: float = 4.0


@dataclass(frozen=True)
class GEMMShape:
    """One weight-stationary GEMM: ``(M x K) @ (K x N)``.

    ``count`` is how many times the GEMM appears per transformer block
    (e.g. Q/K/V projections) and ``repeat`` how many blocks carry it.
    """

    name: str
    m: int
    k: int
    n: int
    count: int = 1
    repeat: int = 1

    @property
    def weight_elements(self) -> int:
        return self.k * self.n * self.count * self.repeat

    @property
    def macs(self) -> int:
        return self.m * self.k * self.n * self.count * self.repeat


@dataclass(frozen=True)
class ModelConfig:
    """Architecture + distribution profile of one benchmark LLM."""

    name: str
    family: str
    # --- full-size architecture (drives the hardware simulator) ---
    hidden: int = 2048
    n_layers: int = 24
    n_heads: int = 32
    n_kv_heads: int = 32
    intermediate: int = 8192
    vocab: int = 50272
    gated_mlp: bool = False  # Llama/Yi use gated SiLU MLPs (3 matrices)
    tied_embeddings: bool = False
    # --- scaled-down simulation architecture ---
    sim_hidden: int = 256
    sim_layers: int = 4
    sim_heads: int = 8
    sim_kv_heads: int = 8
    sim_intermediate: int = 1024
    sim_vocab: int = 2048
    # --- weight distribution profile ---
    profile: WeightProfile = field(default_factory=WeightProfile)
    # --- published FP16 anchors (paper Tables VI/VII) ---
    fp16_ppl: Dict[str, float] = field(default_factory=dict)
    fp16_acc: Dict[str, float] = field(default_factory=dict)

    def cache_key(self) -> str:
        """Stable content digest over every architecture / profile /
        anchor field — two zoo revisions that change any of them key
        to different pipeline cache entries.

        Computed once per instance: the instance is frozen, so the
        digest is kept in its ``__dict__`` (not a field, so ``==``,
        ``repr`` and :func:`~repro.pipeline.keys.canonical` never see
        it); ``dataclasses.replace`` makes a new instance and digests
        afresh."""
        key = self.__dict__.get("_cache_key")
        if key is None:
            from repro.pipeline.keys import stable_digest

            key = stable_digest(self)
            object.__setattr__(self, "_cache_key", key)
        return key

    @property
    def head_dim(self) -> int:
        return self.hidden // self.n_heads

    @property
    def params_billions(self) -> float:
        return self.num_parameters / 1e9

    @property
    def num_parameters(self) -> int:
        """Approximate full-size parameter count (weights only)."""
        total = self.vocab * self.hidden  # embedding
        if not self.tied_embeddings:
            total += self.vocab * self.hidden  # LM head
        total += sum(g.weight_elements for g in self.block_gemms(m=1))
        return total

    @property
    def streamed_weight_elements(self) -> int:
        """Weights read *in full* every forward pass: the decoder-block
        matrices plus the LM head.  The embedding table is accessed by
        row lookup (``m`` rows per pass) and is excluded here."""
        total = self.vocab * self.hidden  # LM head (tied or not)
        total += sum(g.weight_elements for g in self.block_gemms(m=1))
        return total

    # ------------------------------------------------------------------
    def block_gemms(self, m: int) -> List[GEMMShape]:
        """Weight GEMMs of the transformer blocks at batch-rows ``m``.

        ``m`` is the number of activation rows: the prompt length for
        prefill / discriminative tasks, or 1 for a single decode step.
        """
        h = self.hidden
        kv = self.n_kv_heads * self.head_dim
        gemms = [
            GEMMShape("q_proj", m, h, h, 1, self.n_layers),
            GEMMShape("k_proj", m, h, kv, 1, self.n_layers),
            GEMMShape("v_proj", m, h, kv, 1, self.n_layers),
            GEMMShape("o_proj", m, h, h, 1, self.n_layers),
        ]
        if self.gated_mlp:
            gemms += [
                GEMMShape("gate_proj", m, h, self.intermediate, 1, self.n_layers),
                GEMMShape("up_proj", m, h, self.intermediate, 1, self.n_layers),
                GEMMShape("down_proj", m, self.intermediate, h, 1, self.n_layers),
            ]
        else:
            gemms += [
                GEMMShape("fc1", m, h, self.intermediate, 1, self.n_layers),
                GEMMShape("fc2", m, self.intermediate, h, 1, self.n_layers),
            ]
        return gemms

    def lm_head_gemm(self, m: int) -> GEMMShape:
        return GEMMShape("lm_head", m, self.hidden, self.vocab, 1, 1)

    def attention_gemms(self, m: int, context: int) -> List[GEMMShape]:
        """Activation-activation GEMMs of self-attention (QK^T and PV).

        These do not read weights; the simulator treats them as INT8
        (keys/values quantized, Section IV-B discussion).
        """
        hd = self.head_dim
        return [
            GEMMShape("qk", m, hd, context, self.n_heads, self.n_layers),
            GEMMShape("pv", m, context, hd, self.n_heads, self.n_layers),
        ]

    def weight_bytes(self, bits_per_weight: float = 16.0) -> float:
        """Total weight storage in bytes at the given precision."""
        return self.num_parameters * bits_per_weight / 8.0

    # ------------------------------------------------------------------
    def sim_head_dim(self) -> int:
        return self.sim_hidden // self.sim_heads

    def sim_shapes(self) -> Dict[str, Tuple[int, int]]:
        """Weight matrix shapes ``(out, in)`` of the sim-scale model."""
        h = self.sim_hidden
        kv = self.sim_kv_heads * self.sim_head_dim()
        shapes = {
            "q_proj": (h, h),
            "k_proj": (kv, h),
            "v_proj": (kv, h),
            "o_proj": (h, h),
        }
        if self.gated_mlp:
            shapes["gate_proj"] = (self.sim_intermediate, h)
            shapes["up_proj"] = (self.sim_intermediate, h)
            shapes["down_proj"] = (h, self.sim_intermediate)
        else:
            shapes["fc1"] = (self.sim_intermediate, h)
            shapes["fc2"] = (h, self.sim_intermediate)
        return shapes
