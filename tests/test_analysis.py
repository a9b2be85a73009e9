"""Tests for Pareto/bucketing/formatting analysis utilities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    bucketize,
    format_table,
    geometric_mean,
    hypervolume_2d,
    pareto_front,
)


class TestParetoFront:
    def test_dominated_points_removed(self):
        points = [(0.9, 10.0), (0.8, 12.0), (0.95, 8.0)]  # (quality, cost)
        front = pareto_front(points, quality=lambda p: p[0], cost=lambda p: p[1])
        assert front == [(0.95, 8.0)]

    def test_trade_off_points_kept(self):
        points = [(0.9, 10.0), (0.95, 20.0), (0.85, 5.0)]
        front = pareto_front(points, quality=lambda p: p[0], cost=lambda p: p[1])
        assert set(front) == set(points)

    def test_duplicates_survive(self):
        points = [(0.9, 10.0), (0.9, 10.0)]
        front = pareto_front(points, quality=lambda p: p[0], cost=lambda p: p[1])
        assert len(front) == 2

    def test_empty(self):
        assert pareto_front([], quality=lambda p: p, cost=lambda p: p) == []

    @given(
        st.lists(
            st.tuples(st.floats(0, 1), st.floats(0.1, 10)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_front_is_mutually_nondominated(self, points):
        front = pareto_front(points, quality=lambda p: p[0], cost=lambda p: p[1])
        assert front  # never empty for non-empty input
        for a in front:
            for b in front:
                if a is b:
                    continue
                strictly_dominates = (
                    b[0] >= a[0] and b[1] <= a[1] and (b[0] > a[0] or b[1] < a[1])
                )
                assert not strictly_dominates


class TestHypervolume:
    def test_single_point(self):
        hv = hypervolume_2d([(0.5, 1.0)], reference=(0.0, 2.0))
        assert hv == pytest.approx(0.5 * 1.0)

    def test_dominating_front_has_larger_volume(self):
        ref = (0.0, 10.0)
        weak = [(0.5, 5.0)]
        strong = [(0.7, 4.0)]
        assert hypervolume_2d(strong, ref) > hypervolume_2d(weak, ref)

    def test_points_outside_reference_ignored(self):
        assert hypervolume_2d([(0.5, 20.0)], reference=(0.0, 10.0)) == 0.0

    def test_two_point_front(self):
        ref = (0.0, 10.0)
        hv = hypervolume_2d([(0.8, 6.0), (0.5, 2.0)], ref)
        # cheap segment [2,6) at q=0.5 plus [6,10) at q=0.8
        assert hv == pytest.approx(0.5 * 4 + 0.8 * 4)


class TestBucketize:
    def test_means_per_bucket(self):
        items = [(0.1, 1.0), (0.15, 3.0), (0.9, 10.0)]
        stats = bucketize(items, key=lambda p: p[0], value=lambda p: p[1], num_buckets=2)
        assert len(stats) == 2
        assert stats[0].mean_value == pytest.approx(2.0)
        assert stats[1].mean_value == pytest.approx(10.0)

    def test_single_value_collapse(self):
        items = [(0.5, 1.0), (0.5, 3.0)]
        stats = bucketize(items, key=lambda p: p[0], value=lambda p: p[1])
        assert len(stats) == 1
        assert stats[0].count == 2

    def test_empty(self):
        assert bucketize([], key=lambda p: p, value=lambda p: p) == []

    def test_invalid_buckets(self):
        with pytest.raises(ValueError):
            bucketize([(1, 1)], key=lambda p: p[0], value=lambda p: p[1], num_buckets=0)

    def test_counts_cover_all_items(self):
        rng = np.random.default_rng(0)
        items = [(float(rng.uniform()), float(rng.normal())) for _ in range(100)]
        stats = bucketize(items, key=lambda p: p[0], value=lambda p: p[1], num_buckets=5)
        assert sum(s.count for s in stats) == 100


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_identity(self):
        assert geometric_mean([3.0]) == pytest.approx(3.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            geometric_mean([])

    @given(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_bounded_by_min_max(self, values):
        gm = geometric_mean(values)
        assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


class TestFormatting:
    def test_table_alignment(self):
        out = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")

    def test_table_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["x", "y"]])

    def test_scientific_for_extremes(self):
        out = format_table(["v"], [[1.5e12]])
        assert "e+12" in out


class TestAsciiScatter:
    def test_basic_render(self):
        from repro.analysis import ascii_scatter

        out = ascii_scatter(
            {"a": [(0.0, 0.0), (1.0, 1.0)], "b": [(0.5, 0.5)]},
            width=20,
            height=6,
        )
        assert "a=a" in out and "b=b" in out
        assert out.count("\n") >= 6

    def test_markers_unique(self):
        from repro.analysis.ascii_plot import _unique_markers

        markers = _unique_markers(["alpha", "apple", "avocado"])
        assert len(set(markers.values())) == 3

    def test_collision_star(self):
        from repro.analysis import ascii_scatter

        out = ascii_scatter(
            {"a": [(0.5, 0.5)], "b": [(0.5, 0.5)]}, width=20, height=6
        )
        assert "*" in out

    def test_constant_axis_handled(self):
        from repro.analysis import ascii_scatter

        out = ascii_scatter({"a": [(1.0, 2.0), (1.0, 2.0)]}, width=20, height=6)
        assert "a=a" in out

    def test_validation(self):
        from repro.analysis import ascii_scatter

        with pytest.raises(ValueError):
            ascii_scatter({}, width=20, height=6)
        with pytest.raises(ValueError):
            ascii_scatter({"a": [(0, 0)]}, width=5, height=2)

    def test_positive_data_keeps_positive_axes(self):
        from repro.analysis import ascii_scatter

        out = ascii_scatter({"a": [(1.0, 0.1), (2.0, 5.0)]}, width=30, height=8)
        # No axis label is negative for all-positive data (the axis
        # separator line of dashes does not count).
        labels = [
            line for line in out.splitlines() if "+" in line or line.strip()[:1].isdigit()
        ]
        assert not any(line.strip().startswith("-") for line in labels)
