"""Design-space expansion, constraints, and iso-area normalization."""

import json

import pytest

from repro.dse.space import (
    PRESETS,
    DatatypeChoice,
    DesignSpace,
    get_preset,
    load_space,
    paper_tile_costs,
)
from repro.hw.baselines import AREA_BUDGET_UM2, iso_area_grid, make_accelerator


def _space(**kw):
    defaults = dict(
        name="t",
        arch_axes=(("pe_lanes", (2, 4)),),
        datatypes=(DatatypeChoice(4, "bitmod_fp4"),),
        models=("opt-1.3b",),
    )
    defaults.update(kw)
    return DesignSpace(**defaults)


class TestConstruction:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="not a sweepable"):
            _space(arch_axes=(("warp_cores", (1, 2)),))

    def test_iso_area_grid_axes_rejected(self):
        with pytest.raises(ValueError, match="derived by the iso-area fit"):
            _space(arch_axes=(("pe_rows", (16, 32)),))

    def test_grid_axes_allowed_without_iso_area(self):
        s = _space(arch_axes=(("pe_rows", (16, 32)),), iso_area=False)
        points, skipped = s.points()
        assert {p.arch.pe_rows for p in points} == {16, 32}

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="has no values"):
            _space(arch_axes=(("pe_lanes", ()),))

    def test_no_models_rejected(self):
        with pytest.raises(ValueError, match="no models"):
            _space(models=())

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            _space(tasks=("training",))


class TestExpansion:
    def test_counts_are_cartesian(self):
        s = _space(
            arch_axes=(("pe_lanes", (2, 4)), ("dram_gbps", (25.6, 51.2))),
            datatypes=(
                DatatypeChoice(4, "bitmod_fp4"),
                DatatypeChoice(6, "int6_sym"),
            ),
            tasks=("discriminative", "generative"),
        )
        assert s.n_candidates() == 2 * 2 * 2 * 1 * 2
        points, skipped = s.points()
        assert len(points) + len(skipped) * 1 >= s.n_candidates() // 1 - len(skipped)
        assert len(points) == 16  # nothing violates constraints here

    def test_unsupported_bits_skipped_with_reason(self):
        s = _space(datatypes=(DatatypeChoice(7, "int8_sym"),))
        points, skipped = s.points()
        assert points == []
        assert "supported precisions" in skipped[0][1]

    def test_zero_frequency_skipped_with_reason(self):
        s = _space(arch_axes=(("frequency_ghz", (0.0, 1.0)),))
        points, skipped = s.points()
        assert len(points) == 1
        assert any("frequency_ghz" in reason for _p, reason in skipped)

    def test_zero_buffer_skipped_with_reason(self):
        s = _space(arch_axes=(("weight_buffer_kb", (0, 512)),))
        points, skipped = s.points()
        assert len(points) == 1
        assert any("weight_buffer_kb" in reason for _p, reason in skipped)

    def test_tiny_buffer_fails_tile_fit(self):
        s = _space(
            arch_axes=(("weight_buffer_kb", (1, 512)),),
            datatypes=(DatatypeChoice(8, "int8_sym"),),
        )
        points, skipped = s.points()
        assert len(points) == 1
        assert any("double-buffer" in reason for _p, reason in skipped)

    def test_quick_flag_propagates(self):
        points, _ = _space(quick=True).points()
        assert all(p.quick for p in points)


class TestIsoArea:
    def test_grid_is_tile_integral(self):
        for lanes in (2, 4, 8):
            for ppt in (32, 64, 128):
                s = _space(
                    arch_axes=(
                        ("pe_lanes", (lanes,)),
                        ("pes_per_tile", (ppt,)),
                    )
                )
                (p,), _ = s.points()
                assert p.arch.n_pes % p.arch.pes_per_tile == 0

    def test_area_stays_within_budget(self):
        for lanes in (2, 4, 8):
            s = _space(arch_axes=(("pe_lanes", (lanes,)),))
            (p,), _ = s.points()
            assert p.arch.compute_area_um2() <= 1.06 * AREA_BUDGET_UM2

    def test_wider_pes_mean_fewer_pes(self):
        s = _space(arch_axes=(("pe_lanes", (2, 4, 8)),))
        points, _ = s.points()
        n_by_lanes = {p.arch.pe_lanes: p.arch.n_pes for p in points}
        assert n_by_lanes[2] > n_by_lanes[4] > n_by_lanes[8]

    def test_default_combo_matches_paper_accelerator(self):
        """lanes=4 / tile=64 reproduces make_accelerator('bitmod')."""
        from repro.hw.baselines import make_accelerator

        s = _space(arch_axes=())
        (p,), _ = s.points()
        ref = make_accelerator("bitmod").arch
        assert p.arch.n_pes == ref.n_pes
        assert p.arch.pe_rows == ref.pe_rows
        assert p.arch.pe_area_um2 == pytest.approx(ref.pe_area_um2)

    def test_paper_accelerator_grids(self):
        """The one fit gives the paper accelerators their grids."""
        grids = {
            name: (make_accelerator(name).arch.pe_rows, make_accelerator(name).arch.pe_cols)
            for name in ("bitmod", "ant", "olive")
        }
        assert grids == {"bitmod": (32, 32), "ant": (36, 32), "olive": (32, 32)}

    def test_fit_trims_to_whole_tiles(self):
        pe_area = make_accelerator("bitmod").arch.pe_area_um2
        for ppt in (48, 64, 96):
            rows, cols = iso_area_grid(pe_area, 0.0, ppt)
            assert cols == 32 and (rows * cols) % ppt == 0

    def test_fit_rejects_an_oversize_tile(self):
        with pytest.raises(ValueError, match="exceeds the iso-area budget"):
            iso_area_grid(AREA_BUDGET_UM2, 0.0, 64)


class TestSerialization:
    def test_roundtrip(self):
        s = _space(
            arch_axes=(("pe_lanes", (2, 4)), ("dram_gbps", (25.6,))),
            tasks=("generative",),
            quick=True,
        )
        assert DesignSpace.from_dict(s.to_dict()) == s

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown design-space keys"):
            DesignSpace.from_dict({"name": "x", "turbo": True})

    def test_load_space_file(self, tmp_path):
        path = tmp_path / "space.json"
        path.write_text(json.dumps(_space().to_dict()))
        assert load_space(path) == _space()


class TestPresets:
    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown DSE preset"):
            get_preset("hyperspace")

    def test_quick_override(self):
        assert get_preset("smoke", quick=True).quick
        assert not get_preset("smoke").quick

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_presets_expand_validly(self, name):
        points, _skipped = get_preset(name).points()
        assert len(points) >= 1

    def test_paper_pareto_is_at_least_200_points(self):
        points, _ = get_preset("paper-pareto").points()
        assert len(points) >= 200


class TestTileCosts:
    def test_paper_tile_costs_published_numbers(self):
        fp16, bitmod = paper_tile_costs()
        assert fp16.total_area == pytest.approx(95498.0)
        assert bitmod.total_area == pytest.approx(99509.0)
