"""Additional formatting edge-case tests."""

import pytest

from repro.analysis import format_table
from repro.analysis.tables import _cell


class TestCellFormatting:
    def test_zero(self):
        assert _cell(0.0) == "0"

    def test_small_magnitude_scientific(self):
        assert "e-" in _cell(1.5e-7)

    def test_negative_values(self):
        assert _cell(-2.5).startswith("-")

    def test_plain_ints_and_strings(self):
        assert _cell(42) == "42"
        assert _cell("abc") == "abc"

    def test_bools_pass_through(self):
        assert _cell(True) == "True"

    def test_mid_range_float_compact(self):
        out = _cell(1234.5678)
        assert "e" not in out and len(out) <= 8


class TestTableEdges:
    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert out.splitlines()[0].startswith("a")
        assert len(out.splitlines()) == 2

    def test_wide_cells_set_column_width(self):
        out = format_table(["h"], [["a-very-long-cell"]])
        header, sep, row = out.splitlines()
        assert len(sep) == len("a-very-long-cell")
