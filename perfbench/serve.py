"""The two serving workloads: ``decode-batch`` and ``prefix-chat``.

Both serve a ``bitmod_fp4`` artifact of ``opt-1.3b`` that the run packs,
writes and reloads itself (that is its set-up), with the default
:class:`~repro.serve.prefix.PrefixKVCache` attached.

Token timing: the scheduler step that produces a token is the moment it
exists, so each token is stamped when its step returns.  TTFT is the
first stamp minus the moment the request was *due*; every gap between
two consecutive stamps of one request is one TBT sample.
"""

from __future__ import annotations

import asyncio
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.load import PoissonArrivals, Workload
from repro.load.traffic import RequestSpec, TrafficModel
from repro.models import CausalLM, get_model_config
from repro.quant import QuantConfig
from repro.serve import (
    ContinuousBatcher,
    GenerationConfig,
    InferenceEngine,
    PrefixKVCache,
    Request,
    ServeServer,
    load_artifact,
    save_artifact,
)
from repro.serve.errors import DeadlineExceeded, Overloaded

from perfbench.outcome import Outcome
from perfbench.stats import median, percentile, share

MODEL = "opt-1.3b"
DTYPE = "bitmod_fp4"
#: Set-up is repeated this many times per run; the median is reported.
SETUP_REPEATS = 5

# decode-batch: one offline batch of unique prompts, all queued at t0.
# Prompt lengths are fixed and spread so decode contexts fill every
# bucket of the models layer (<128, 128-511, >=512); the seed picks the
# tokens.
DECODE_PROMPT_LENS = tuple(range(24, 417, 56))
DECODE_NEW_TOKENS = 160
DECODE_CHECK_STREAMS = 2
#: The tail is p90, not p99: the top 1% of gaps are the few that share a
#: step with a prompt prefill, and where p99 falls among them moves with
#: the prompt draw.
DECODE_TAIL_PCT = 90

# prefix-chat: Poisson open loop at a fixed rate.  Saturation on the
# reference box (2 vCPUs) is ~15 req/s.  At 4-6 req/s the TTFT median sat
# on the knee between requests that find the server idle and those that
# wait behind a step, and moved 15-25% between identical runs; at 3 req/s
# it sits in the idle mode and moves ~4%.
CHAT_RATE_RPS = 3.0
#: A request meets the SLO when its TTFT (from when it was due) and
#: every gap between its output tokens stay within these limits.
TTFT_LIMIT_MS = 250.0
TBT_LIMIT_MS = 100.0
#: A run whose median generator lateness exceeds this is not a result:
#: the generator, not the server, would be setting the TTFT.
LATENESS_P50_BOUND_MS = 20.0
CHAT_CHECK_STREAMS = 3
#: Every run sends at least this many requests, so the TTFT p90 has ten
#: samples beyond it.
CHAT_MIN_REQUESTS = 100
CHAT_TAIL_PCT = 90


#: The arrival schedule and every request's shape (kind, lengths, which
#: shared prefix) come from this fixed seed; the run's ``--seed`` picks
#: every token.  Drawing the schedule per seed made the TTFT median and
#: the TBT tail of 180-request runs differ by 15-20% between seeds, which
#: would hide any change smaller than that.
SCHEDULE_SEED = 2025


class ChatMix(TrafficModel):
    """80% shared-prefix chat turns, 20% long unique documents.

    Chat turns (interactive tier) append a 4-16 token suffix to one of
    4 shared 128-token prefixes and decode 8-16 tokens; documents
    (batch tier) are 96-192 unique tokens and decode 4-8.  The two
    kinds come in exact proportion; the ``rng`` the workload passes in
    draws the shapes and ``token_seed`` draws the tokens.
    """

    n_prefixes = 4
    prefix_tokens = 128
    doc_share = 0.2

    def __init__(self, token_seed: int):
        self.token_seed = token_seed

    def _make(self, n, rng, vocab):
        tok = np.random.default_rng(self.token_seed)
        prefixes = [
            tok.integers(0, vocab, size=self.prefix_tokens, dtype=np.int64)
            for _ in range(self.n_prefixes)
        ]
        n_docs = round(n * self.doc_share)
        specs = []
        for is_doc in rng.permutation([True] * n_docs + [False] * (n - n_docs)):
            if is_doc:
                prompt = tok.integers(0, vocab, size=int(rng.integers(96, 193)), dtype=np.int64)
                new_tokens, tier = int(rng.integers(4, 9)), "batch"
            else:
                prefix = prefixes[int(rng.integers(self.n_prefixes))]
                suffix = tok.integers(0, vocab, size=int(rng.integers(4, 17)), dtype=np.int64)
                prompt = np.concatenate([prefix, suffix])
                new_tokens, tier = int(rng.integers(8, 17)), "interactive"
            specs.append(
                RequestSpec(arrival_s=0.0, prompt=prompt, max_new_tokens=new_tokens, tier=tier)
            )
        return specs


# ----------------------------------------------------------------------
def setup_engine(seed: int, out_dir: Path, outcome: Outcome, repeats: int = SETUP_REPEATS):
    """Pack, write, reload and wrap the artifact; time it ``repeats`` times."""
    times = []
    for i in range(repeats):
        t0 = time.perf_counter()
        model = CausalLM(get_model_config(MODEL), seed=seed)
        path = out_dir / f"{MODEL}-{i}.rsrv"
        save_artifact(path, model, QuantConfig(dtype=DTYPE))
        artifact = load_artifact(path)
        engine = InferenceEngine.from_artifact(artifact, prefix_cache=PrefixKVCache())
        times.append(time.perf_counter() - t0)
        path.unlink()
    outcome.put("setup_s", median(times), "s", len(times))
    return engine, artifact


class TokenClock:
    """Stamps every token a batcher produces with its step's end time."""

    def __init__(self, batcher: ContinuousBatcher):
        self.stamps: Dict[int, List[float]] = defaultdict(list)
        self.submitted: Dict[int, float] = {}
        self.decodes_per_step: List[int] = []
        self.queue_wait_s: List[float] = []
        step, submit = batcher.step, batcher.submit

        def stamped_step():
            started = time.monotonic()
            report = step()
            now = time.monotonic()
            for rid in report.prefilled:
                self.queue_wait_s.append(started - self.submitted[rid])
                self.stamps[rid].append(now)
            for rid in report.decoded:
                self.stamps[rid].append(now)
            self.decodes_per_step.append(len(report.decoded))
            return report

        def recorded_submit(request):
            state = submit(request)
            self.submitted[request.request_id] = request.submitted_at
            return state

        batcher.step = stamped_step
        batcher.submit = recorded_submit

    @staticmethod
    def detach(batcher: ContinuousBatcher) -> None:
        """Drop the stamping wrappers; they close over the batcher, and
        the reference cycle would keep every finished sequence's KV cache
        alive until the garbage collector happens to run."""
        del batcher.step, batcher.submit

    def gaps_s(self, rid: int) -> List[float]:
        stamps = self.stamps[rid]
        return [b - a for a, b in zip(stamps, stamps[1:])]


def _serve_facts(outcome: Outcome, clocks: List[TokenClock], engine, prompt_tokens: int,
                 reused_tokens: int) -> None:
    outcome.facts.update(
        decodes_per_step=[n for c in clocks for n in c.decodes_per_step],
        queue_wait_s=[w for c in clocks for w in c.queue_wait_s],
        prefix_stats=engine.prefix_cache.stats(),
        prompt_tokens=prompt_tokens,
        prefix_reused_tokens=reused_tokens,
    )


# ----------------------------------------------------------------------
# decode-batch
# ----------------------------------------------------------------------
def _run_batch(engine: InferenceEngine, prompts: List[np.ndarray]) -> dict:
    batcher = ContinuousBatcher(engine)
    clock = TokenClock(batcher)
    t0 = time.monotonic()
    for rid, prompt in enumerate(prompts):
        batcher.submit(
            Request(
                request_id=rid,
                prompt=prompt,
                generation=GenerationConfig(max_new_tokens=DECODE_NEW_TOKENS),
                submitted_at=t0,
            )
        )
    while batcher.has_work:
        batcher.step()
    TokenClock.detach(batcher)
    end = max(stamps[-1] for stamps in clock.stamps.values())
    tokens = {rid: list(batcher.finished(rid).seq.generated) for rid in range(len(prompts))}
    return {
        "clock": clock,
        "tokens": tokens,
        "ttft_s": [clock.stamps[rid][0] - t0 for rid in tokens],
        "tok_s": sum(len(t) for t in tokens.values()) / (end - t0),
        "reused": batcher.metrics.prefill_reused,
    }


def decode_batch(seed: int, seconds: float, out_dir: Path) -> Outcome:
    outcome = Outcome()
    engine, artifact = setup_engine(seed, out_dir, outcome)
    vocab = engine.model.config.sim_vocab
    rng = np.random.default_rng(seed)
    batches, prompts_all = [], []
    started = time.monotonic()
    last = 0.0
    # Whole batches only: start another while it fits in the budget.
    while not batches or time.monotonic() - started + last <= seconds:
        t0 = time.monotonic()
        prompts = [rng.integers(0, vocab, size=n, dtype=np.int64) for n in DECODE_PROMPT_LENS]
        prompts_all.append(prompts)
        batches.append(_run_batch(engine, prompts))
        last = time.monotonic() - t0

    # The unit of work is one output token: its latency is the gap from
    # the request's previous token (TBT), its rate the decode tokens/s.
    gaps = [g for b in batches for rid in b["tokens"] for g in b["clock"].gaps_s(rid)]
    rates = [b["tok_s"] for b in batches]
    outcome.put("throughput_per_s", median(rates), "1/s", len(rates))
    tbt_ms = [g * 1e3 for g in gaps]
    outcome.put("latency_p50_ms", percentile(tbt_ms, 50), "ms", len(tbt_ms))
    outcome.put("latency_tail_ms", percentile(tbt_ms, DECODE_TAIL_PCT), "ms", len(tbt_ms))

    n_requests = sum(len(b["tokens"]) for b in batches)
    short = sum(
        1 for b in batches for t in b["tokens"].values() if len(t) != DECODE_NEW_TOKENS
    )
    outcome.attempted, outcome.failed = n_requests, short
    outcome.check(short == 0, f"{short} requests did not generate {DECODE_NEW_TOKENS} tokens")
    for b in batches:
        for rid, toks in b["tokens"].items():
            outcome.check(
                len(b["clock"].stamps[rid]) == len(toks),
                f"request {rid}: {len(b['clock'].stamps[rid])} stamps for {len(toks)} tokens",
            )

    # A seeded sample of streams must equal solo generation on an
    # engine without a prefix cache.
    solo = InferenceEngine.from_artifact(artifact)
    pick = np.random.default_rng(seed + 1)
    for _ in range(DECODE_CHECK_STREAMS):
        bi = int(pick.integers(len(batches)))
        rid = int(pick.integers(len(DECODE_PROMPT_LENS)))
        expect = solo.generate(
            prompts_all[bi][rid], GenerationConfig(max_new_tokens=DECODE_NEW_TOKENS)
        ).generated
        outcome.check(
            batches[bi]["tokens"][rid] == expect,
            f"batch {bi} request {rid}: stream differs from solo generate",
        )

    outcome.record.update(
        batches=len(batches),
        batch_tok_s=rates,
        tail_pct=DECODE_TAIL_PCT,
        tbt_ms_p99=percentile(tbt_ms, 99),
        ttft_ms_p50=median([t * 1e3 for b in batches for t in b["ttft_s"]]),
        phases={"batch": {"sent": n_requests, "succeeded": n_requests - short, "failed": short}},
    )
    _serve_facts(
        outcome,
        [b["clock"] for b in batches],
        engine,
        prompt_tokens=sum(int(p.size) for ps in prompts_all for p in ps),
        reused_tokens=sum(b["reused"] for b in batches),
    )
    return outcome


# ----------------------------------------------------------------------
# prefix-chat
# ----------------------------------------------------------------------
async def _open_loop(server: ServeServer, specs) -> List[dict]:
    """Send each request when due, whatever the server's state."""
    start = time.monotonic() + 0.05

    async def fire(index: int, spec) -> dict:
        due = start + spec.arrival_s
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        rec = {"index": index, "due": due, "sent": time.monotonic(), "arrival_s": spec.arrival_s}
        try:
            rid = await server.submit(
                spec.prompt,
                GenerationConfig(max_new_tokens=spec.max_new_tokens),
                deadline_s=spec.deadline_s,
                tier=spec.tier,
            )
            rec["rid"] = rid
            result = await server.result(rid)
        except Overloaded:
            rec["outcome"] = "shed"
        except DeadlineExceeded:
            rec["outcome"] = "expired"
        except Exception as exc:  # noqa: BLE001 - counted as failed, kept in the record
            rec["outcome"] = "error"
            rec["error"] = repr(exc)
        else:
            rec["outcome"] = "completed"
            rec["tokens"] = list(result.tokens)
        return rec

    tasks = [asyncio.create_task(fire(i, spec)) for i, spec in enumerate(specs)]
    return list(await asyncio.gather(*tasks))


def prefix_chat(seed: int, seconds: float, out_dir: Path) -> Outcome:
    outcome = Outcome()
    engine, artifact = setup_engine(seed, out_dir, outcome)
    workload = Workload(
        arrivals=PoissonArrivals(CHAT_RATE_RPS),
        traffic=ChatMix(token_seed=seed),
        n_requests=max(CHAT_MIN_REQUESTS, round(CHAT_RATE_RPS * seconds)),
        seed=SCHEDULE_SEED,
        vocab=engine.model.config.sim_vocab,
    )
    specs = workload.build()

    async def main():
        server = ServeServer(engine)
        clock = TokenClock(server.batcher)
        await server.start()
        try:
            records = await _open_loop(server, specs)
        finally:
            await server.stop()
            TokenClock.detach(server.batcher)
        return server, clock, records

    server, clock, records = asyncio.run(main())

    ttft_ms, tbt_ms, lateness, met = [], [], [], 0
    for rec in records:
        lateness.append(rec["sent"] - rec["due"])
        if rec["outcome"] != "completed":
            continue
        rid = rec["rid"]
        stamps = clock.stamps[rid]
        outcome.check(
            len(stamps) == len(rec["tokens"]),
            f"request {rec['index']}: {len(stamps)} stamps for {len(rec['tokens'])} tokens",
        )
        rec["ttft_ms"] = (stamps[0] - rec["due"]) * 1e3
        gaps = [g * 1e3 for g in clock.gaps_s(rid)]
        ttft_ms.append(rec["ttft_ms"])
        tbt_ms.extend(gaps)
        if rec["ttft_ms"] <= TTFT_LIMIT_MS and all(g <= TBT_LIMIT_MS for g in gaps):
            met += 1

    sent = len(records)
    counts = {k: sum(1 for r in records if r["outcome"] == k)
              for k in ("completed", "shed", "expired", "error")}
    unaccounted = sent - sum(counts.values())
    failed = sent - counts["completed"]
    outcome.attempted, outcome.failed = sent, failed

    # The unit of work is one request: its latency is the TTFT from when
    # it was due; the rate is goodput, requests that met the SLO per
    # second of the arrival schedule (a failed request is a miss).
    schedule_s = specs[-1].arrival_s
    outcome.put("latency_p50_ms", percentile(ttft_ms, 50), "ms", len(ttft_ms))
    outcome.put("latency_tail_ms", percentile(ttft_ms, CHAT_TAIL_PCT), "ms", len(ttft_ms))
    outcome.put("throughput_per_s", met / schedule_s, "1/s", sent)

    lateness_ms = [x * 1e3 for x in lateness]
    late_p50 = median(lateness_ms)
    outcome.check(unaccounted == 0, f"{unaccounted} requests unaccounted for")
    outcome.check(counts["error"] == 0, f"{counts['error']} requests raised errors")
    outcome.check(
        late_p50 <= LATENESS_P50_BOUND_MS,
        f"generator lateness p50 {late_p50:.1f} ms exceeds {LATENESS_P50_BOUND_MS} ms",
    )

    # A seeded sample of completed chat turns (the requests that hit the
    # prefix cache) must equal a cache-off engine's greedy output.
    plain = InferenceEngine.from_artifact(artifact)
    chat = [r for r in records
            if r["outcome"] == "completed" and specs[r["index"]].tier == "interactive"]
    pick = np.random.default_rng(seed + 1)
    for i in pick.choice(len(chat), size=min(CHAT_CHECK_STREAMS, len(chat)), replace=False):
        rec = chat[int(i)]
        spec = specs[rec["index"]]
        expect = plain.generate(
            spec.prompt, GenerationConfig(max_new_tokens=spec.max_new_tokens)
        ).generated
        outcome.check(rec["tokens"] == expect,
                      f"request {rec['index']}: stream differs from a cache-off engine")

    half = specs[-1].arrival_s / 2
    phases = {}
    for label, chosen in (
        ("first_half", [r for r in records if r["arrival_s"] <= half]),
        ("second_half", [r for r in records if r["arrival_s"] > half]),
    ):
        ok = [r for r in chosen if r["outcome"] == "completed"]
        phases[label] = {
            "sent": len(chosen),
            "succeeded": len(ok),
            "failed": len(chosen) - len(ok),
            "ttft_ms_p50": median([r["ttft_ms"] for r in ok]),
        }
    outcome.record.update(
        trace_digest=workload.digest(),
        rate_rps=CHAT_RATE_RPS,
        outcomes=counts,
        unaccounted=unaccounted,
        lateness_ms_p50=late_p50,
        lateness_ms_max=max(lateness_ms),
        tail_pct=CHAT_TAIL_PCT,
        schedule_s=schedule_s,
        # TBT is in the record only: its tail is set by the few gaps that
        # share a step with a document prefill, and it varied 27% (IQR
        # over median) across 10 identical runs.
        tbt_ms_p50=percentile(tbt_ms, 50),
        tbt_ms_p99=percentile(tbt_ms, 99),
        tbt_samples=len(tbt_ms),
        slo={"ttft_limit_ms": TTFT_LIMIT_MS, "tbt_limit_ms": TBT_LIMIT_MS, "met": met,
             "attainment": share(met, sent)},
        phases=phases,
    )
    reused = server.metrics.prefill_reused
    _serve_facts(outcome, [clock], engine,
                 prompt_tokens=sum(s.prompt_len for s in specs), reused_tokens=reused)
    outcome.facts.update(
        shed=counts["shed"], expired=counts["expired"], sent=sent, lateness_s=lateness
    )
    return outcome
