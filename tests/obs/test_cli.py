"""Tests for ``bitmod-repro obs`` and the runner's --trace/--metrics."""

import json

import pytest

from repro.obs.cli import main as obs_main
from repro.obs.trace import Tracer, write_trace


@pytest.fixture
def trace_jsonl(tmp_path):
    t = Tracer(enabled=True)
    with t.span("outer", k=1):
        with t.span("inner"):
            pass
    return write_trace(tmp_path / "trace.jsonl", t.spans())


class TestObsCli:
    def test_no_command_prints_help(self, capsys):
        assert obs_main([]) == 1
        assert "summarize" in capsys.readouterr().out

    def test_summarize(self, trace_jsonl, capsys):
        assert obs_main(["summarize", str(trace_jsonl)]) == 0
        out = capsys.readouterr().out
        assert "outer" in out
        assert "inner" in out
        assert "2 spans, 2 names, 1 process(es)" in out

    def test_summarize_top_truncates(self, trace_jsonl, capsys):
        assert obs_main(["summarize", str(trace_jsonl), "--top", "1"]) == 0
        assert "1 more span names" in capsys.readouterr().out

    def test_summarize_missing_file(self, tmp_path, capsys):
        assert obs_main(["summarize", str(tmp_path / "nope.jsonl")]) == 2
        assert "error" in capsys.readouterr().err

    def test_convert_roundtrips_json_loads(self, trace_jsonl, tmp_path, capsys):
        dest = tmp_path / "chrome.json"
        assert obs_main(["convert", str(trace_jsonl), str(dest)]) == 0
        doc = json.loads(dest.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e.get("ph") == "X"}
        assert names == {"outer", "inner"}
        # The converted file is itself summarizable.
        assert obs_main(["summarize", str(dest)]) == 0

    def test_diff_snapshots(self, tmp_path, capsys):
        before = {"counters": {"pipeline.cache.hits": 0}, "gauges": {}, "histograms": {}}
        after = {"counters": {"pipeline.cache.hits": 24}, "gauges": {}, "histograms": {}}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(before))
        b.write_text(json.dumps(after))
        assert obs_main(["diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "pipeline.cache.hits: 0 -> 24 (+24)" in out

    def test_diff_accepts_run_meta(self, tmp_path, capsys):
        snap = {"counters": {"n": 1}, "gauges": {}, "histograms": {}}
        meta = {"experiments": ["fig07"], "metrics": snap}
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(meta))
        b.write_text(json.dumps(snap))
        assert obs_main(["diff", str(a), str(b)]) == 0
        assert "no metric changes" in capsys.readouterr().out


class TestRunnerDispatch:
    def test_obs_subcommand_reached_from_runner(self, trace_jsonl, capsys):
        from repro.experiments.runner import main as runner_main

        assert runner_main(["obs", "summarize", str(trace_jsonl)]) == 0
        assert "outer" in capsys.readouterr().out

    def test_value_option_does_not_eat_subcommand_name(self, tmp_path):
        from repro.experiments.runner import _subcommand_index

        # "--json obs" is an option value, not the obs subcommand.
        assert _subcommand_index(["--json", "obs", "fig07"], "obs") == -1
        assert _subcommand_index(["obs", "summarize", "x"], "obs") == 0
        assert _subcommand_index(["--quick", "dse"], "dse") == 1

    def test_bad_log_level_rejected(self, capsys):
        from repro.experiments.runner import main as runner_main

        assert runner_main(["fig07", "--log-level", "nope"]) == 2
        assert "error" in capsys.readouterr().err


def _interrupt(*args, **kwargs):
    raise KeyboardInterrupt


class TestInterruptedRunsWriteOutputs:
    """Ctrl-C exits 130 and still writes --metrics and --trace."""

    def test_runner(self, tmp_path, monkeypatch):
        from repro.experiments import runner

        monkeypatch.setattr(runner, "run_experiment", _interrupt)
        metrics, trace = tmp_path / "m.json", tmp_path / "t.jsonl"
        rc = runner.main(
            ["--no-cache", "--quick", "fig07",
             "--metrics", str(metrics), "--trace", str(trace)]
        )
        assert rc == 130
        assert isinstance(json.loads(metrics.read_text()), dict)
        assert trace.exists()

    def test_dse(self, tmp_path, monkeypatch):
        import repro.dse.sweep
        from repro.dse.cli import main as dse_main

        monkeypatch.setattr(repro.dse.sweep, "run_sweep", _interrupt)
        metrics, trace = tmp_path / "m.json", tmp_path / "t.jsonl"
        rc = dse_main(
            ["--preset", "smoke", "--quick", "--no-cache",
             "--metrics", str(metrics), "--trace", str(trace)]
        )
        assert rc == 130
        assert isinstance(json.loads(metrics.read_text()), dict)
        assert trace.exists()
