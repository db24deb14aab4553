"""Chaos leg: real-time load under injected decode stalls.

CI runs this with ``$REPRO_FAULTS`` carrying a ``serve.decode`` delay
plan; run standalone, the test installs an equivalent plan itself.
The stalls are wall-clock sleeps, so the trace goes straight to a
started :class:`~repro.serve.server.ServeServer` (the real-time
path), every request in flight at once.  The assertion:
stalled decodes push requests past their deadlines, the scheduler
evicts them as structured ``DeadlineExceeded``, and the accounting
still balances to zero lost.
"""

import asyncio
import os

import pytest

from repro.load import PoissonArrivals, SharedPrefixChat, Workload
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, FaultSpec
from repro.serve import InferenceEngine
from repro.serve.engine import GenerationConfig
from repro.serve.errors import DeadlineExceeded
from repro.serve.server import ServeServer


@pytest.fixture()
def decode_stall_plan():
    """Use the ambient $REPRO_FAULTS plan when CI provides one;
    otherwise install a local decode-stall plan for this test."""
    installed = None
    if not os.environ.get("REPRO_FAULTS"):
        installed = FaultPlan(
            [
                FaultSpec(
                    site="serve.decode",
                    action="delay",
                    delay_s=0.02,
                    times=10**9,
                    p=0.5,
                )
            ]
        )
        faults.set_fault_plan(installed)
    yield
    if installed is not None:
        faults.clear_fault_plan()


class TestDecodeStallUnderLoad:
    def test_deadline_eviction_under_injected_stalls(
        self, tiny_model, decode_stall_plan
    ):
        engine = InferenceEngine(tiny_model)
        workload = Workload(
            arrivals=PoissonArrivals(2000.0),
            traffic=SharedPrefixChat(
                n_prefixes=2,
                prefix_tokens=24,
                suffix_tokens=(2, 4),
                max_new_tokens=(16, 24),
                deadline_s=0.05,
            ),
            n_requests=40,
            seed=0,
            vocab=512,
        )
        server = ServeServer(engine, max_batch_tokens=128)

        async def main():
            await server.start()
            try:
                return await asyncio.gather(
                    *(
                        server.generate(
                            spec.prompt,
                            GenerationConfig(max_new_tokens=spec.max_new_tokens),
                            deadline_s=spec.deadline_s,
                            tier=spec.tier,
                        )
                        for spec in workload.build()
                    ),
                    return_exceptions=True,
                )
            finally:
                await server.stop()

        outcomes = asyncio.run(main())
        expired = [o for o in outcomes if isinstance(o, DeadlineExceeded)]
        completed = [o for o in outcomes if not isinstance(o, BaseException)]
        # Stalls make the deadline unmeetable for most of the stream.
        assert len(expired) > 0
        # Degradation stays structured: no lost requests, no raw errors.
        assert len(outcomes) == 40
        assert len(expired) + len(completed) == 40
        # Expired requests were cancelled mid-flight, not completed:
        # their futures failed, so no tokens reached the client.
        done = {r.request_id for r in completed}
        evicted = {e.request_id for e in expired}
        assert not done & evicted and len(done | evicted) == 40
