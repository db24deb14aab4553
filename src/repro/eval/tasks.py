"""Discriminative (zero-shot) task harness.

Stand-in for LM-Evaluation-Harness on HellaSwag / WinoGrande / Piqa.
A task item is a prompt plus ``n_choices`` candidate continuations;
the model picks the continuation with the highest average token
log-likelihood, exactly the LM-eval scoring rule.

Construction (see DESIGN.md):

* wrong continuations differ from the correct one in a few token
  positions, where the substituted tokens are chosen to be
  *implausible under the FP16 model* (drawn from a low quantile of
  the model's own next-token distribution).  This mirrors real
  benchmarks — HellaSwag's wrong endings are clearly wrong, not
  random — and produces the realistic margin distribution where most
  items are easy and a tail of items sits near the decision boundary;
* gold labels are planted such that the FP16 model scores the paper's
  published accuracy for the model/task: it gets the credit on an
  ``accuracy``-sized random subset of items and is deliberately
  mislabeled elsewhere;
* a quantized model is scored by running its *own* forward passes —
  accuracy drops when quantization flips choices on correctly-labelled
  items (and can occasionally gain on mislabelled ones, just like real
  quantization results sometimes beat FP16, cf. Table VII).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.models.config import ModelConfig
from repro.models.corpus import sample_tokens
from repro.models.layers import softmax
from repro.models.transformer import CausalLM

__all__ = ["TaskSpec", "TASKS", "TaskItem", "DiscriminativeEvaluator"]


@dataclass(frozen=True)
class TaskSpec:
    """Shape of one benchmark task."""

    name: str
    n_choices: int
    prompt_len: int
    cont_len: int
    #: tokens substituted between choices
    n_substitutions: int
    #: quantile band of the model's next-token distribution from which
    #: wrong-answer tokens are drawn (lower = more obviously wrong =
    #: wider margins).  The band's upper end supplies the boundary
    #: items that quantization can flip.
    quantile_band: tuple
    seed: int


TASKS = {
    "hellaswag": TaskSpec("hellaswag", 4, 48, 24, 4, (0.02, 0.45), seed=11),
    "winogrande": TaskSpec("winogrande", 2, 32, 8, 2, (0.05, 0.50), seed=22),
    "piqa": TaskSpec("piqa", 2, 40, 16, 3, (0.02, 0.45), seed=33),
}


@dataclass
class TaskItem:
    """One multiple-choice item: ``(n_choices, prompt+cont)`` tokens."""

    tokens: np.ndarray  # (n_choices, prompt_len + cont_len)
    cont_start: int
    label: int


class DiscriminativeEvaluator:
    """Zero-shot accuracy evaluation for one model/task pair."""

    def __init__(
        self,
        config: ModelConfig,
        task: str,
        n_items: int = 128,
        seed: int = 0,
    ):
        if task not in TASKS:
            known = ", ".join(sorted(TASKS))
            raise KeyError(f"unknown task {task!r}; known: {known}")
        self.config = config
        self.spec = TASKS[task]
        self.n_items = n_items
        self.model = CausalLM(config, seed=seed)
        self.items = self._build_items()
        self._plant_labels()

    # ------------------------------------------------------------------
    def _build_items(self) -> List[TaskItem]:
        spec = self.spec
        vocab = self.config.sim_vocab
        rng = np.random.default_rng(spec.seed)
        total_len = spec.prompt_len + spec.cont_len
        base = sample_tokens(
            "wikitext", vocab, self.n_items, total_len, seed_offset=spec.seed
        )
        # FP16 logits on the base sequences drive the implausible-token
        # selection: token ranks are taken at the position *predicting*
        # each substituted slot.
        logits = self.model.logits(base)
        order = np.argsort(logits, axis=-1)  # ascending logit rank

        q_lo, q_hi = spec.quantile_band
        items = []
        for i in range(self.n_items):
            choices = np.tile(base[i], (spec.n_choices, 1))
            for c in range(1, spec.n_choices):
                # Substitutions sit at the tail of the continuation so
                # the shared prefix cancels exactly in score margins.
                pos = rng.choice(
                    np.arange(total_len - spec.cont_len // 2, total_len),
                    size=min(spec.n_substitutions, spec.cont_len // 2),
                    replace=False,
                )
                q = rng.uniform(q_lo, q_hi)
                ranks = int(q * vocab)
                choices[c, pos] = order[i, pos - 1, ranks]
            items.append(
                TaskItem(tokens=choices, cont_start=spec.prompt_len, label=0)
            )
        return items

    def _score_items(self, model: CausalLM) -> np.ndarray:
        """``(n_items,)`` arg-max choice of ``model`` on every item."""
        return np.argmax(self._choice_scores(model), axis=1)

    def _choice_scores(self, model: CausalLM) -> np.ndarray:
        """``(n_items, n_choices)`` mean continuation log-likelihoods."""
        spec = self.spec
        tokens = np.concatenate([it.tokens for it in self.items], axis=0)
        start = self.items[0].cont_start
        seq = tokens.shape[1]
        pos = np.arange(start, seq)
        # Only the positions predicting a continuation token are read,
        # and the log-softmax works row by row, so it runs on those.
        log_probs = np.log(
            np.maximum(softmax(model.logits(tokens)[:, start - 1 : seq - 1], axis=-1), 1e-30)
        )
        scores = np.empty((self.n_items, spec.n_choices))
        for i in range(self.n_items):
            rows = slice(i * spec.n_choices, (i + 1) * spec.n_choices)
            cont_lp = log_probs[rows][
                np.arange(spec.n_choices)[:, None], np.arange(len(pos))[None, :],
                tokens[rows][:, pos],
            ]
            scores[i] = cont_lp.mean(axis=1)
        return scores

    def _plant_labels(self) -> None:
        """Assign gold labels so FP16 hits the published accuracy."""
        target = self.config.fp16_acc.get(self.spec.name, 75.0) / 100.0
        fp16_picks = self._score_items(self.model)
        rng = np.random.default_rng(self.spec.seed + 7)
        correct = rng.random(self.n_items) < target
        for i, item in enumerate(self.items):
            if correct[i]:
                item.label = int(fp16_picks[i])
            else:
                others = [
                    c for c in range(self.spec.n_choices) if c != fp16_picks[i]
                ]
                item.label = int(rng.choice(others))
        self.fp16_accuracy = float(np.mean(fp16_picks == self.labels()))

    def labels(self) -> np.ndarray:
        return np.asarray([it.label for it in self.items])

    # ------------------------------------------------------------------
    def evaluate_model(self, model: CausalLM) -> float:
        """Accuracy (%) of ``model`` on the planted-label task."""
        picks = self._score_items(model)
        return 100.0 * float(np.mean(picks == self.labels()))

    def evaluate_quantizer(self, quantize) -> float:
        return self.evaluate_model(self.model.apply_quantizer(quantize))
