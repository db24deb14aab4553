"""Tests for the precision policy, the CLI runner, and the ablations."""

import json

import pytest

from repro.experiments.policy import choose_weight_bits
from repro.experiments.runner import main, run_experiment


class TestPolicy:
    def test_fp16_always_16(self):
        assert choose_weight_bits("fp16", "opt-1.3b", "generative") == 16

    def test_bitmod_configs(self):
        assert choose_weight_bits("bitmod", "yi-6b", "discriminative") == 4
        assert choose_weight_bits("bitmod", "yi-6b", "generative") == 3
        assert choose_weight_bits("bitmod", "yi-6b", "generative", lossless=True) == 6

    def test_ant_olive_fall_back_within_supported(self):
        for accel in ("ant", "olive"):
            bits = choose_weight_bits(accel, "llama-2-7b", "generative")
            assert bits in (4, 8)

    def test_strict_threshold_forces_8bit(self):
        assert choose_weight_bits("ant", "opt-1.3b", "generative", threshold=0.0) == 8

    def test_loose_threshold_allows_4bit(self):
        assert choose_weight_bits("ant", "llama-2-13b", "generative", threshold=1e9) == 4

    def test_unknown_accel(self):
        with pytest.raises(KeyError):
            choose_weight_bits("gpu", "opt-1.3b", "generative")


@pytest.fixture(autouse=True)
def _fresh_engine_singleton():
    """main() reconfigures the global engine; reset afterwards (closes
    any worker pool, drops memos) so other tests fall back to the
    env-default (session tmp) cache."""
    yield
    from repro import pipeline

    pipeline.reset()


class TestRunnerCLI:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "table06" in out and "fig07" in out

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 1

    def test_runs_experiment(self, capsys):
        assert main(["table10"]) == 0
        assert "Table X" in capsys.readouterr().out

    def test_unknown_experiment_lists_known(self):
        with pytest.raises(KeyError, match="unknown experiment 'table99'"):
            main(["table99"])

    def test_json_output(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        assert main(["table10", "--json", str(out_dir), "--cache-dir", str(tmp_path / "c")]) == 0
        payload = json.loads((out_dir / "table10.json").read_text())
        assert payload["experiment"] == "table10"
        assert payload["columns"][0] == "design"
        assert payload["rows"]
        meta = json.loads((out_dir / "_run_meta.json").read_text())
        assert meta["experiments"] == ["table10"]
        assert meta["wall_seconds"] > 0
        assert {"hits", "misses", "hit_rate", "computed"} <= set(meta["cache"])
        dispatch = meta["numpy_dispatch"]
        assert isinstance(dispatch, list)
        assert all(isinstance(target, str) for target in dispatch)

    def test_no_cache_flag(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(["table10", "--no-cache", "--cache-dir", str(cache)]) == 0
        assert not cache.exists() or list(cache.rglob("*.json")) == []

    def test_jobs_flag_accepted(self, tmp_path, capsys):
        assert main(["fig01", "--quick", "--jobs", "2", "--cache-dir", str(tmp_path)]) == 0
        assert "Fig. 1" in capsys.readouterr().out

    def test_dse_subcommand_delegates(self, capsys):
        assert main(["dse", "--list-presets"]) == 0
        assert "paper-pareto" in capsys.readouterr().out

    def test_dse_subcommand_after_flags(self, capsys):
        """Flag-first ordering must still reach the dse surface."""
        assert main(["--no-cache", "dse", "--list-presets"]) == 0
        assert "paper-pareto" in capsys.readouterr().out

    def test_dse_as_option_value_is_not_the_subcommand(
        self, tmp_path, capsys, monkeypatch
    ):
        """A literal `--json dse` names an output dir, not the subcommand."""
        monkeypatch.chdir(tmp_path)
        assert (
            main(["table10", "--json", "dse", "--cache-dir", str(tmp_path / "c")])
            == 0
        )
        assert (tmp_path / "dse" / "table10.json").exists()


class TestAblations:
    def test_group_size_tradeoff(self):
        r = run_experiment("ablation_group_size", quick=True)
        rows = {row[1]: row for row in r.rows}
        # Smaller groups: better (or equal) PPL, more metadata bits.
        assert rows[64][2] <= rows[128][2] + 0.05
        assert rows[64][3] > rows[128][3]

    def test_encoding_booth_fixed_vs_naive_tail(self):
        r = run_experiment("ablation_encoding", quick=True)
        for row in r.rows:
            bits, booth_terms, naive_mean, naive_p99, _ = row
            assert booth_terms == (bits + 1) // 2
            # Naive has a data-dependent tail reaching past Booth's
            # fixed schedule.
            assert naive_p99 > booth_terms
