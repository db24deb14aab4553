"""The multi-chip interconnect cost model and the simulator on meshes."""

import pytest

from repro import obs
from repro.dse.space import DesignSpace, DatatypeChoice
from repro.hw.baselines import make_accelerator
from repro.hw.multichip import (
    TOPOLOGIES,
    CollectiveOp,
    LinkSpec,
    collective_seconds,
    mesh_error,
    pass_collectives,
    wire_bytes_per_device,
)
from repro.hw.simulator import simulate, simulate_plan
from repro.models.zoo import get_model_config, list_models

LINK = LinkSpec()


@pytest.fixture(scope="module")
def bitmod():
    return make_accelerator("bitmod")


@pytest.fixture(scope="module")
def llama():
    return get_model_config("llama-2-7b")


class TestLinkSpec:
    def test_defaults(self):
        assert LINK.gbps == 100.0 and LINK.latency_us == 1.0

    @pytest.mark.parametrize("kw", [{"gbps": 0}, {"gbps": -1}, {"latency_us": -1}])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            LinkSpec(**kw)


class TestWireBytes:
    def test_single_device_is_free(self):
        assert wire_bytes_per_device("all_reduce", 1024, 1) == 0.0
        assert wire_bytes_per_device("all_gather", 1024, 1) == 0.0

    def test_schedule_optimal_fractions(self):
        # Ring all-reduce: 2(n-1)/n * B per device; all-gather half that.
        assert wire_bytes_per_device("all_reduce", 1000, 4) == pytest.approx(1500)
        assert wire_bytes_per_device("all_gather", 1000, 4) == pytest.approx(750)
        assert wire_bytes_per_device("send", 1000, 2) == 1000

    def test_send_moves_full_payload_at_one_device(self):
        """Pipeline sends are point-to-point (``n=1``): the whole
        payload crosses the link."""
        assert wire_bytes_per_device("send", 1000, 1) == 1000.0
        assert wire_bytes_per_device("send", 1000, 1, "fully_connected") == 1000.0

    def test_op_wire_bytes_is_n_devices_worth(self):
        ops = pass_collectives(4, 256, 2048, 16, 2, 2) + [CollectiveOp("send", 512.0, 1)]
        assert {op.op for op in ops} == {"all_reduce", "all_gather", "send"}
        for op in ops:
            for topology in TOPOLOGIES:
                assert op.wire_bytes(topology) == op.n * wire_bytes_per_device(
                    op.op, op.payload_bytes, op.n, topology
                )

    def test_bytes_topology_invariant(self):
        """Both topologies run schedule-optimal collectives — only time
        differs."""
        for op in ("all_reduce", "all_gather"):
            ring = wire_bytes_per_device(op, 4096, 8, "ring")
            fc = wire_bytes_per_device(op, 4096, 8, "fully_connected")
            assert ring == fc

    def test_unknown_op_and_topology(self):
        with pytest.raises(ValueError, match="unknown collective"):
            wire_bytes_per_device("broadcast", 1, 2)
        with pytest.raises(ValueError, match="unknown topology"):
            wire_bytes_per_device("all_reduce", 1, 2, "torus")


class TestCollectiveSeconds:
    def test_fully_connected_beats_ring_beyond_two(self):
        for n in (4, 8):
            ring = collective_seconds("all_reduce", 1 << 20, n, LINK, "ring")
            fc = collective_seconds(
                "all_reduce", 1 << 20, n, LINK, "fully_connected"
            )
            assert fc < ring

    def test_two_device_topologies_coincide(self):
        """At n=2 the ring *is* fully connected: identical time."""
        ring = collective_seconds("all_reduce", 1 << 20, 2, LINK, "ring")
        fc = collective_seconds("all_reduce", 1 << 20, 2, LINK, "fully_connected")
        assert ring == pytest.approx(fc)

    def test_send_charges_full_payload_plus_hop(self):
        s = collective_seconds("send", 1e9, 1, LINK)
        assert s == pytest.approx(1e9 / (LINK.gbps * 1e9) + LINK.latency_us * 1e-6)


class TestSimulateMesh:
    def test_single_chip_has_no_interconnect(self, bitmod, llama):
        for task in ("discriminative", "generative"):
            r = simulate(llama, bitmod, task, 4)
            assert (r.shards, r.stages) == (1, 1)
            assert r.interconnect_bytes == 0.0 and r.interconnect_cycles == 0.0

    def test_scaling_curve_monotone(self, bitmod, llama):
        """More shards: less per-chip time, more interconnect bytes."""
        results = [
            simulate(llama, bitmod, "generative", 4, shards=s) for s in (1, 2, 4, 8)
        ]
        compute = [r.cycles - r.interconnect_cycles for r in results]
        assert compute == sorted(compute, reverse=True)
        wire = [r.interconnect_bytes for r in results]
        assert wire == sorted(wire)
        assert wire[0] == 0.0 and wire[1] > 0.0

    def test_topology_changes_time_not_bytes(self, bitmod, llama):
        ring = simulate(llama, bitmod, "generative", 4, shards=8, topology="ring")
        fc = simulate(
            llama, bitmod, "generative", 4, shards=8, topology="fully_connected"
        )
        assert ring.interconnect_bytes == fc.interconnect_bytes
        assert fc.interconnect_cycles < ring.interconnect_cycles
        assert fc.cycles < ring.cycles

    def test_pipeline_charges_sends(self, bitmod, llama):
        r = simulate(llama, bitmod, "generative", 4, stages=2)
        assert r.interconnect_bytes > 0
        assert (r.shards, r.stages) == (1, 2)

    def test_divisibility_validation(self, bitmod):
        cfg = get_model_config("llama-3-8b")  # 8 KV heads
        with pytest.raises(ValueError, match="KV heads"):
            simulate(cfg, bitmod, "generative", 4, shards=16)
        with pytest.raises(ValueError, match="pipeline"):
            simulate(cfg, bitmod, "generative", 4, stages=64)
        with pytest.raises(ValueError, match="at least 1x1"):
            simulate(cfg, bitmod, "generative", 4, shards=0)
        with pytest.raises(ValueError, match="unknown topology"):
            simulate(cfg, bitmod, "generative", 4, shards=2, topology="mesh")
        with pytest.raises(ValueError, match="unknown topology"):
            simulate(cfg, bitmod, "generative", 4, topology="mesh")

    def test_energy_sums_all_chips(self, bitmod, llama):
        """Sharding splits the weights: total DRAM energy stays ~flat,
        it does not multiply by the device count."""
        one = simulate(llama, bitmod, "generative", 4)
        four = simulate(llama, bitmod, "generative", 4, shards=4)
        assert four.energy.dram_uj == pytest.approx(one.energy.dram_uj, rel=0.3)

    def test_every_gemm_gets_a_span(self, bitmod, llama):
        """Weight and attention GEMMs alike, on every stage of a mesh."""
        with obs.capture(tracing=True) as cap:
            simulate(llama, bitmod, "discriminative", 4, shards=2, stages=2)
        gemms = [s["args"]["name"] for s in cap.spans if s["name"] == "hw.gemm"]
        per_stage = [g.name for g in llama.block_gemms(1)] + ["qk", "pv"]
        assert sorted(gemms) == sorted(2 * per_stage + ["lm_head"])
        (top,) = [s for s in cap.spans if s["name"] == "hw.simulate"]
        assert (top["args"]["shards"], top["args"]["stages"]) == (2, 2)

    def test_plan_reports_mean_bits(self, bitmod, llama):
        gemm_bits = {"q_proj": 4.0, "k_proj": 4.0}
        r = simulate_plan(llama, bitmod, "generative", gemm_bits, shards=2)
        assert 4.0 < r.weight_bits < 16.0
        assert r.shards == 2


class TestMeshError:
    def test_valid_meshes(self, llama):
        assert mesh_error(llama, 1, 1) is None
        assert mesh_error(llama, 8, 2) is None

    def test_dse_skips_with_the_simulator_reason(self, bitmod):
        """One rule: every (model, shards) pair the DSE rejects carries
        exactly the message :func:`simulate` raises for it."""
        n_rejected = 0
        for model in list_models():
            space = DesignSpace(
                name="mesh-rule",
                datatypes=(DatatypeChoice(4, "bitmod_fp4"),),
                models=(model,),
                shards=(1, 3, 16, 64),
            )
            _points, skipped = space.points()
            for params, reason in skipped:
                with pytest.raises(ValueError) as err:
                    simulate(
                        get_model_config(model), bitmod, "generative", 4,
                        shards=params["shards"],
                    )
                assert str(err.value) == reason
                n_rejected += 1
        assert n_rejected > len(list_models())
