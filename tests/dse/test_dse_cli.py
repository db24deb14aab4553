"""``bitmod-repro dse`` CLI: the kernel-backend pin of --functional-check."""

import json

import pytest

from repro.dse.cli import main


@pytest.fixture
def one_point_space(tmp_path):
    """One datatype, one model, no arch axes: a single accuracy cell."""
    path = tmp_path / "space.json"
    path.write_text(json.dumps({
        "name": "cli-one-point",
        "arch_axes": {},
        "datatypes": [{"bits": 4, "dtype": "bitmod_fp4", "granularity": "group"}],
        "models": ["opt-1.3b"],
        "tasks": ["generative"],
        "quick": True,
    }))
    return str(path)


def test_functional_check_with_pinned_backend(one_point_space, capsys):
    rc = main([
        "--space", one_point_space, "--no-cache",
        "--functional-check", "--kernel-backend", "numpy",
    ])
    assert rc == 0
    assert "backend=numpy" in capsys.readouterr().out


def test_unknown_kernel_backend_exits_2(one_point_space, capsys):
    rc = main([
        "--space", one_point_space, "--no-cache",
        "--functional-check", "--kernel-backend", "numba",
    ])
    assert rc == 2
    assert "unknown kernel backend" in capsys.readouterr().err
