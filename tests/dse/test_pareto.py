"""Dominance and frontier edge cases for repro.dse.pareto."""

import math

import numpy as np
import pytest

from repro.dse.pareto import dominates, pareto_front, pareto_indices


class TestDominates:
    def test_strict_dominance(self):
        assert dominates((1.0, 1.0), (2.0, 2.0), ("min", "min"))
        assert not dominates((2.0, 2.0), (1.0, 1.0), ("min", "min"))

    def test_partial_improvement_is_enough(self):
        assert dominates((1.0, 2.0), (1.0, 3.0), ("min", "min"))

    def test_tradeoff_no_dominance(self):
        a, b = (1.0, 3.0), (3.0, 1.0)
        assert not dominates(a, b, ("min", "min"))
        assert not dominates(b, a, ("min", "min"))

    def test_exact_tie_dominates_neither_way(self):
        assert not dominates((1.0, 2.0), (1.0, 2.0), ("min", "min"))

    def test_max_sense_flips(self):
        assert dominates((5.0,), (3.0,), ("max",))
        assert not dominates((5.0,), (3.0,), ("min",))

    def test_mixed_senses(self):
        # Lower ppl, higher speedup dominates.
        assert dominates((5.0, 9.0), (6.0, 8.0), ("min", "max"))
        assert not dominates((5.0, 7.0), (6.0, 8.0), ("min", "max"))

    def test_nan_never_dominates(self):
        nan = float("nan")
        assert not dominates((nan, 1.0), (2.0, 2.0), ("min", "min"))
        assert not dominates((1.0, 1.0), (nan, 2.0), ("min", "min"))

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            dominates((1.0,), (2.0,), ("down",))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominates((1.0, 2.0), (1.0, 2.0), ("min",))


class TestParetoIndices:
    def test_simple_front(self):
        rows = [(1.0, 2.0), (2.0, 1.0), (2.0, 2.0)]
        assert pareto_indices(rows, ("min", "min")) == [0, 1]

    def test_all_ties_all_kept(self):
        rows = [(1.0, 1.0)] * 3
        assert pareto_indices(rows, ("min", "min")) == [0, 1, 2]

    def test_single_objective_degenerate(self):
        rows = [(3.0,), (1.0,), (2.0,), (1.0,)]
        # Minimization: every row achieving the minimum survives.
        assert pareto_indices(rows, ("min",)) == [1, 3]
        assert pareto_indices(rows, ("max",)) == [0]

    def test_maximization_both_axes(self):
        rows = [(1.0, 5.0), (5.0, 1.0), (0.5, 0.5)]
        assert pareto_indices(rows, ("max", "max")) == [0, 1]

    def test_nan_rows_dropped_but_harmless(self):
        nan = float("nan")
        rows = [(nan, 0.0), (1.0, 1.0), (2.0, 2.0)]
        assert pareto_indices(rows, ("min", "min")) == [1]

    def test_empty(self):
        assert pareto_indices([], ("min", "min")) == []

    def test_input_order_preserved(self):
        rows = [(2.0, 1.0), (1.0, 2.0)]
        assert pareto_indices(rows, ("min", "min")) == [0, 1]


class TestParetoOracle:
    """pareto_indices agrees with the brute-force definition of the
    frontier on random rows with ties."""

    @pytest.mark.parametrize(
        "senses", [("min", "min"), ("min", "max"), ("max", "min", "min")]
    )
    def test_matches_brute_force(self, senses):
        rng = np.random.default_rng(len(senses) * 7 + senses.count("max"))
        rows = [
            tuple(float(v) for v in r)
            for r in np.round(rng.random((200, len(senses))), 1)
        ]
        expected = [
            i for i, a in enumerate(rows)
            if not any(dominates(b, a, senses) for b in rows)
        ]
        assert pareto_indices(rows, senses) == expected
        assert 0 < len(expected) < len(rows)


class TestParetoFront:
    def test_named_objectives(self):
        records = [
            {"ppl": 5.0, "edp": 10.0},
            {"ppl": 6.0, "edp": 5.0},
            {"ppl": 6.0, "edp": 12.0},
        ]
        front = pareto_front(records, ("ppl", "edp"), ("min", "min"))
        assert front == records[:2]

    def test_missing_key_counts_as_nan(self):
        records = [{"ppl": 5.0, "edp": 1.0}, {"ppl": 4.0}]
        front = pareto_front(records, ("ppl", "edp"), ("min", "min"))
        assert front == [records[0]]

    def test_unknown_objective_key_rejected(self):
        """A typo'd objective must not yield a silent empty frontier."""
        records = [{"ppl": 5.0, "edp": 1.0}]
        with pytest.raises(KeyError, match="'epd'"):
            pareto_front(records, ("ppl", "epd"), ("min", "min"))

    def test_none_value_counts_as_nan(self):
        """Sim-only sweep records carry ppl=None; must not crash."""
        records = [{"ppl": None, "edp": 1.0}, {"ppl": 5.0, "edp": 2.0}]
        front = pareto_front(records, ("ppl", "edp"), ("min", "min"))
        assert front == [records[1]]

    def test_fig09_style_frontier(self):
        """The DSE frontier reproduces the Fig. 9 hand-rolled check:
        no rival point may dominate the best BitMoD point."""
        points = [
            {"accel": "bitmod", "ppl": 5.5, "edp": 0.10},
            {"accel": "bitmod", "ppl": 5.8, "edp": 0.06},
            {"accel": "ant", "ppl": 5.6, "edp": 0.30},
            {"accel": "olive", "ppl": 6.4, "edp": 0.25},
        ]
        front = pareto_front(points, ("ppl", "edp"), ("min", "min"))
        assert all(p["accel"] == "bitmod" for p in front)
        assert math.isclose(min(p["edp"] for p in front), 0.06)
