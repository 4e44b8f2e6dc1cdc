import io
import re
from datetime import datetime

import numpy as np
import pytest

from cete import (
    ByDateRange,
    FirstCompleteRun,
    parse_pm25_csv,
    read_columns,
    select_window,
    to_series_matrix,
)
from cete.errors import (
    CategoricalColumnError,
    EmptyInputError,
    MalformedRowError,
    NoCompleteRunError,
    NonMonotonicTimeError,
    SchemaMismatchError,
    UnknownColumnError,
    WindowHasMissingError,
)
from cete.ingest import PM25_HEADER
from conftest import synth_pm25_csv


def parse_text(text):
    return parse_pm25_csv(io.StringIO(text))


class TestParse:
    def test_parses_synthetic_file(self):
        table = parse_text(synth_pm25_csv(48))
        assert len(table) == 48
        assert table.columns["No"][0] == 1
        assert table.timestamps[0].item() == datetime(2010, 1, 1, 0)
        assert table.timestamps[47].item() == datetime(2010, 1, 2, 23)

    def test_na_parses_as_missing(self):
        table = parse_text(synth_pm25_csv(5, missing={2}))
        assert np.isnan(table.columns["pm2.5"][2])
        assert not np.isnan(table.columns["TEMP"][2])

    def test_na_allowed_in_any_numeric_column(self):
        table = parse_text(synth_pm25_csv(5, missing_temp={1}))
        assert np.isnan(table.columns["TEMP"][1])
        assert not np.isnan(table.columns["pm2.5"][1])

    @pytest.mark.parametrize("column", ["pm2.5", "TEMP", "Iws", "Ir"])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_token_rejected(self, column, token):
        # NaN means NA alone: a literal nan must not pass as a missing value
        lines = synth_pm25_csv(5).splitlines()
        fields = lines[3].split(",")
        fields[PM25_HEADER.index(column)] = token
        lines[3] = ",".join(fields)
        with pytest.raises(MalformedRowError, match=column) as exc:
            parse_text("\n".join(lines) + "\n")
        assert exc.value.line == 4

    def test_header_mismatch_rejected(self):
        text = synth_pm25_csv(3).replace("pm2.5", "PM25")
        with pytest.raises(SchemaMismatchError):
            parse_text(text)

    def test_empty_input_rejected(self):
        with pytest.raises(SchemaMismatchError):
            parse_text("")

    def test_wrong_field_count_rejected(self):
        text = synth_pm25_csv(3)
        lines = text.splitlines()
        lines[2] = lines[2] + ",extra"
        with pytest.raises(MalformedRowError) as exc:
            parse_text("\n".join(lines) + "\n")
        assert exc.value.line == 3

    def test_non_numeric_field_rejected(self):
        text = synth_pm25_csv(3)
        lines = text.splitlines()
        lines[1] = lines[1].replace("1020.0", "high")
        with pytest.raises(MalformedRowError):
            parse_text("\n".join(lines) + "\n")

    def test_hour_out_of_range_rejected(self):
        bad = ("1,2010,1,1,24,50.0,-5.0,2.0,1020.0,NW,1.75,0,0")
        header = synth_pm25_csv(0).strip()
        with pytest.raises(MalformedRowError, match="hour"):
            parse_text(header + "\n" + bad + "\n")

    def test_impossible_date_rejected(self):
        bad = ("1,2010,2,30,0,50.0,-5.0,2.0,1020.0,NW,1.75,0,0")
        header = synth_pm25_csv(0).strip()
        with pytest.raises(MalformedRowError, match="date"):
            parse_text(header + "\n" + bad + "\n")

    def test_time_gap_rejected(self):
        text = synth_pm25_csv(6)
        lines = text.splitlines()
        del lines[3]  # drop one hour: gap between neighbors
        with pytest.raises(NonMonotonicTimeError):
            parse_text("\n".join(lines) + "\n")

    def test_accepts_path_input(self, make_pm25_file):
        path = make_pm25_file(4)
        assert len(parse_pm25_csv(path)) == 4

    def test_canonical_file_row_count(self, pm25_table):
        assert len(pm25_table) == 43824


class TestLinesAfterBlankRow:
    """Whole-column checks still name the file line of the faulty row."""

    @staticmethod
    def text_with_fault(field=None, token=None):
        # line 1 is the header, lines 2-4 the first rows, line 5 is blank;
        # the row of index 5 (hour 05:00) then sits on line 8
        lines = synth_pm25_csv(10).splitlines()
        lines.insert(4, "")
        if field is not None:
            fields = lines[7].split(",")
            fields[field:field + 1] = [token]  # field 13 appends one
            lines[7] = ",".join(fields)
        return "\n".join(lines) + "\n"

    def test_blank_row_skipped(self):
        assert len(parse_text(self.text_with_fault())) == 10

    @pytest.mark.parametrize("field, token, match", [
        (13, "extra", "expected 13 fields"),
        (4, "24", "hour 24 out of range"),
        (3, "32", "invalid date"),
        (7, "warm", "column TEMP"),
    ], ids=["field-count", "hour", "date", "number"])
    def test_malformed_row_line(self, field, token, match):
        with pytest.raises(MalformedRowError, match=match) as exc:
            parse_text(self.text_with_fault(field, token))
        assert exc.value.line == 8

    def test_time_gap_line_and_timestamps(self):
        # row 5 claims 06:00, so it does not follow row 4 (04:00) by one hour
        text = self.text_with_fault(4, "6")
        with pytest.raises(NonMonotonicTimeError) as exc:
            parse_text(text)
        assert str(exc.value) == (
            "line 8: timestamp 2010-01-01 06:00:00 does not follow "
            "2010-01-01 04:00:00 by one hour"
        )


class TestReadColumns:
    @pytest.mark.parametrize("text", ["", "\ufeff"])
    def test_empty_input_rejected_at_line_1(self, text):
        with pytest.raises(MalformedRowError) as exc:
            read_columns(io.StringIO(text), ("a",))
        assert (exc.value.line, exc.value.reason) == (1, "empty input")

    # a header alone, or one followed by blank lines only
    @pytest.mark.parametrize("text", ["a,b\n", "a,b", "a,b\n\n\n"])
    def test_header_without_data_rows_rejected(self, text):
        with pytest.raises(EmptyInputError, match="non-empty"):
            read_columns(io.StringIO(text), ("a",))

    def test_byte_order_mark_is_not_part_of_the_first_name(self):
        matrix = read_columns(io.StringIO("\ufeffa,b\n1,2\n3,4\n"), ("a", "b"))
        assert matrix.labels == ("a", "b")
        assert matrix.values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_requested_column_named_twice_rejected_at_line_1(self):
        with pytest.raises(MalformedRowError) as exc:
            read_columns(io.StringIO("X,Y,X\n1,2,3\n4,5,6\n"), ("X", "Y"))
        assert str(exc.value) == "line 1: column(s) X named more than once"

    def test_unrequested_column_may_be_named_twice(self):
        matrix = read_columns(io.StringIO("X,Y,Y\n1,2,3\n4,5,6\n"), ("X",))
        assert matrix.values.tolist() == [[1.0], [4.0]]

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_token_named_by_file_line(self, token):
        # the blank line 3 is skipped, so the bad row sits on line 4
        with pytest.raises(MalformedRowError) as exc:
            read_columns(io.StringIO(f"a,b\n1,2\n\n2,{token}\n"), ("a", "b"))
        assert str(exc.value) == \
            f"line 4: column b: not a finite number: {token!r}"


class TestSelectWindow:
    def test_first_complete_run_skips_missing(self):
        table = parse_text(synth_pm25_csv(11, missing={2}))
        window = select_window(table, FirstCompleteRun(5))
        assert window == slice(3, 8)

    def test_first_complete_run_prefers_earliest(self):
        table = parse_text(synth_pm25_csv(20, missing={7}))
        window = select_window(table, FirstCompleteRun(5))
        assert window == slice(0, 5)

    def test_no_complete_run(self):
        table = parse_text(synth_pm25_csv(10))
        with pytest.raises(NoCompleteRunError):
            select_window(table, FirstCompleteRun(10**6))

    def test_run_length_must_be_positive(self):
        table = parse_text(synth_pm25_csv(3))
        with pytest.raises(ValueError,
                           match=r"^run length must be >= 1, got 0$"):
            select_window(table, FirstCompleteRun(0))

    def test_run_length_must_be_an_integer(self):
        table = parse_text(synth_pm25_csv(3))
        for n in (2.5, True):
            with pytest.raises(TypeError, match=re.escape(
                    f"run length must be an integer, got {n!r}")):
                select_window(table, FirstCompleteRun(n))

    def test_completeness_respects_requested_columns(self):
        table = parse_text(synth_pm25_csv(14, missing_temp={4}))
        pm_only = select_window(table, FirstCompleteRun(8))
        assert pm_only == slice(0, 8)
        both = select_window(table, FirstCompleteRun(8),
                             required_columns=("pm2.5", "TEMP"))
        assert both == slice(5, 13)

    def test_date_range_selects_slice(self):
        table = parse_text(synth_pm25_csv(48))
        window = select_window(table, ByDateRange(
            start=datetime(2010, 1, 1, 10), end=datetime(2010, 1, 1, 19)))
        assert window == slice(10, 20)

    def test_date_range_with_missing_value_rejected(self):
        table = parse_text(synth_pm25_csv(48, missing={12}))
        with pytest.raises(WindowHasMissingError):
            select_window(table, ByDateRange(
                start=datetime(2010, 1, 1, 10), end=datetime(2010, 1, 1, 19)))

    def test_date_range_outside_data_rejected(self):
        table = parse_text(synth_pm25_csv(24))
        with pytest.raises(NoCompleteRunError):
            select_window(table, ByDateRange(
                start=datetime(2015, 1, 1), end=datetime(2015, 1, 2)))

    def test_unknown_policy_rejected(self):
        table = parse_text(synth_pm25_csv(5))
        with pytest.raises(TypeError, match="unknown window policy"):
            select_window(table, slice(0, 2))

    def test_unknown_required_column(self):
        table = parse_text(synth_pm25_csv(5))
        with pytest.raises(UnknownColumnError):
            select_window(table, FirstCompleteRun(2),
                          required_columns=("humidity",))

    def test_categorical_required_column_rejected(self):
        table = parse_text(synth_pm25_csv(5))
        with pytest.raises(CategoricalColumnError):
            select_window(table, FirstCompleteRun(2),
                          required_columns=("cbwd",))

    def test_random_missing_patterns_yield_complete_windows(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(20, 120))
            missing = set(map(int, rng.choice(n, size=rng.integers(0, n // 4),
                                              replace=False)))
            table = parse_text(synth_pm25_csv(n, missing=missing))
            run = int(rng.integers(1, 8))
            try:
                window = select_window(table, FirstCompleteRun(run))
            except NoCompleteRunError:
                # verify no qualifying run exists at all
                longest = best = 0
                for i in range(n):
                    best = 0 if i in missing else best + 1
                    longest = max(longest, best)
                assert longest < run
                continue
            assert window == slice(window.start, window.start + run)
            assert not np.isnan(table.columns["pm2.5"][window]).any()


class TestToSeriesMatrix:
    def test_extracts_requested_columns_in_order(self):
        table = parse_text(synth_pm25_csv(30))
        window = select_window(table, FirstCompleteRun(10))
        m = to_series_matrix(table, window, ["TEMP", "pm2.5"])
        assert (m.T, m.d) == (10, 2)
        assert m.labels == ("TEMP", "pm2.5")

    def test_round_trip_values_exact(self):
        table = parse_text(synth_pm25_csv(30))
        window = select_window(table, FirstCompleteRun(10))
        m = to_series_matrix(table, window,
                             ["DEWP", "TEMP", "PRES", "Iws", "pm2.5"])
        assert m.d == 5
        assert window == slice(0, 10)
        assert np.array_equal(m.values[:, 0], table.columns["DEWP"][window])
        assert np.array_equal(m.values[:, 4], table.columns["pm2.5"][window])

    @pytest.mark.parametrize("window", [slice(1490, 1510), slice(0, 10, 2),
                                        slice(20, 10)],
                             ids=["past_end", "stepped", "reversed"])
    def test_window_outside_table_rejected(self, window):
        table = parse_text(synth_pm25_csv(1500))
        with pytest.raises(ValueError, match=re.escape(
                f"window {window} is not a row range of a table with "
                f"1500 rows")):
            to_series_matrix(table, window, ["pm2.5"])

    def test_unknown_column_rejected(self):
        table = parse_text(synth_pm25_csv(10))
        window = select_window(table, FirstCompleteRun(5))
        with pytest.raises(UnknownColumnError):
            to_series_matrix(table, window, ["NO2"])

    def test_categorical_column_rejected(self):
        table = parse_text(synth_pm25_csv(10))
        window = select_window(table, FirstCompleteRun(5))
        with pytest.raises(CategoricalColumnError):
            to_series_matrix(table, window, ["cbwd", "pm2.5"])

    def test_missing_value_in_window_rejected(self):
        table = parse_text(synth_pm25_csv(10, missing_temp={3}))
        window = select_window(table, FirstCompleteRun(6))  # pm2.5 only
        with pytest.raises(WindowHasMissingError):
            to_series_matrix(table, window, ["TEMP"])
