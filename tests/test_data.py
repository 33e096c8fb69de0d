"""Tests for ingestion, normalization, splitting, windowing, the synthetic
generator, and metrics."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from csv_files import write_csv
from etsfore import data
from etsfore.errors import ConfigError, DataError, DimensionError, ParseError


def make_series(T, m=2, seed=0):
    return data.Series(np.random.default_rng(seed).normal(size=(T, m)))


class TestCsv:
    def test_small_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1.5,2\n3,4.25\n")
        s = data.load_csv(str(p))
        assert s.length == 2 and s.channels == 2
        np.testing.assert_array_equal(s.values, [[1.5, 2], [3, 4.25]])

    def test_timestamp_column_detected(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("time,v\n2024-01-01T00:00:00,1.0\n2024-01-02T00:00:00,2.0\n")
        s = data.load_csv(str(p))
        np.testing.assert_array_equal(s.values, [[1.0], [2.0]])

    def test_nan_row_names_line(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a\n1.0\nNaN\n2.0\n")
        with pytest.raises(ParseError, match="line 3"):
            data.load_csv(str(p))

    def test_non_numeric_names_line(self, tmp_path):
        # float() reads `1_0` as 10.0 and Arabic-Indic digits as 12.0; loadtxt does not
        p = tmp_path / "t.csv"
        for cell, error in [("oops", "malformed row: expected 2 fields, 2 float values"),
                            ("1_0", "malformed row: expected 2 fields, 2 float values"),
                            ("\u0661\u0662", "non-ASCII text")]:
            p.write_text(f"a,b\n1,2\n3,{cell}\n", encoding="utf-8")
            with pytest.raises(ParseError, match=f"line 3: {error}"):
                data.load_csv(str(p))

    def test_cells_both_readers_accept_load(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("a,b,c\n+5,1e3, 1.5 \n")
        np.testing.assert_array_equal(data.load_csv(str(p)).values, [[5.0, 1000.0, 1.5]])

    @pytest.mark.parametrize("space", ["\u00a0", "\u2003", "\u3000", "\u0085"])
    @pytest.mark.parametrize("kind", ["plain", "instance"])
    def test_non_ascii_around_a_value_is_rejected_by_both_readers(self, tmp_path, kind, space):
        # loadtxt, unlike float(), would read the padded cell as 1.5
        p = tmp_path / "t.csv"
        head = {
            "plain": "a,b\n1,2\n",
            "instance": f"{data.SYNTH_MAGIC} lookback=1 horizon=1 instances=2\n0,1,2\n",
        }[kind]
        p.write_text(f"{head}1,{space}1.5{space}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="line 3: non-ASCII text"):
            data.read_dataset(str(p))

    # one body under both kinds' first lines: a plain header of three
    # channels, or instances of one lookback and one horizon step
    HEADS = {"plain": "i,a,b\n",
             "instance": f"{data.SYNTH_MAGIC} lookback=1 horizon=1 instances={{n}}\n"}

    @pytest.mark.parametrize("kind", ["plain", "instance"])
    def test_first_bad_line_is_named_whatever_its_fault(self, tmp_path, kind):
        # a NaN on line 3 parses, so it was once passed over for the short row on line 4
        p = tmp_path / "t.csv"
        p.write_text(self.HEADS[kind].format(n=3) + "0,1,2\n1,nan,2\n2,1\n")
        with pytest.raises(ParseError, match="line 3: non-finite value"):
            data.read_dataset(str(p))

    @pytest.mark.parametrize("text, error", [
        ("time,v\n2024-01-01,1\nnot-a-time,2\n2024-01-03,3\n2024-01-04,x\n",
         "line 3: bad timestamp 'not-a-time'"),
        ("time,v\n2024-01-02,1\n2024-01-01,2\n2024-01-03,nan\n",
         "line 3: timestamp '2024-01-01' does not come after '2024-01-02'"),
        (f"{data.SYNTH_MAGIC} lookback=1 horizon=1 instances=3\n0,1,2\n2,1,2\n2,1,x\n",
         "line 3: expected instance 1, found instance 2"),
        (f"{data.SYNTH_MAGIC} lookback=1 horizon=1 instances=1\n0,1,2\n1,1,2\n2,1\n",
         "line 3: row past the last instance, instance 0"),
    ], ids=["plain-bad-time", "plain-time-order", "instance-order", "instance-past-the-last"])
    def test_kind_check_fault_before_a_malformed_line_is_named(self, tmp_path, text, error):
        # the row parser's fallback names the last line; a row before it that
        # parses but fails its kind's own check comes first
        p = tmp_path / "t.csv"
        p.write_text(text)
        with pytest.raises(ParseError, match=re.escape(f"{p}: {error}")):
            data.read_dataset(str(p))

    @pytest.mark.parametrize("cell, value", [
        ("+5", 5.0), ("1e3", 1000.0), (" 1.5 ", 1.5), ("1_0", None),
        ("\u0661\u0662", None), ("\u00a01.5\u00a0", None), ("nan", None), ("inf", None),
        ("0x10", None), ('"4"', None), ("", None),
    ])
    @pytest.mark.parametrize("kind", ["plain", "instance"])
    def test_one_cell_grammar_for_both_kinds(self, tmp_path, kind, cell, value):
        p = tmp_path / "t.csv"
        p.write_text(self.HEADS[kind].format(n=2) + f"0,1,2\n1,1,{cell}\n", encoding="utf-8")
        if value is None:
            with pytest.raises(ParseError, match="line 3: "):
                data.read_dataset(str(p))
        else:
            assert data.read_dataset(str(p)).values.ravel()[-1] == value

    @pytest.mark.parametrize("text, error", [
        ("a\n1\n\n2\n", "line 3: malformed row: expected 1 fields, 1 float values"),
        ("a\n1\n2\n\n", "line 4: malformed row"),
        ("a,b\n1,2\r3,4\n5,6\n", "line 2: malformed row: expected 2 fields, 2 float values"),
        # the header would take the next line in as one more column name
        ("a\r1\n2\n", "line 1: bare CR line break"),
        # loadtxt would cut the cell to fit a fixed text width, leaving a valid time
        ("time,v\n2024-01-01,1\n2024-01-02T00:00:00." + "0" * 100 + "junk,2\n",
         "line 3: bad timestamp '2024-01-02T00:00:00.000"),
    ], ids=["blank-line", "blank-last-line", "bare-cr", "bare-cr-header", "long-timestamp"])
    def test_plain_line_faults_name_their_line(self, tmp_path, text, error):
        p = tmp_path / "t.csv"
        p.write_text(text, newline="")
        with pytest.raises(ParseError, match=re.escape(error)):
            data.load_csv(str(p))

    def test_digits_alone_are_values_not_timestamps(self, tmp_path):
        # 20240101 is also an ISO-8601 date, YYYYMMDD
        p = tmp_path / "t.csv"
        p.write_text("day,v\n20240101,1\n20240102,2\n")
        np.testing.assert_array_equal(data.load_csv(str(p)).values,
                                      [[20240101.0, 1.0], [20240102.0, 2.0]])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("")
        with pytest.raises(DataError):
            data.load_csv(str(p))

    def test_write_read_roundtrip(self, tmp_path):
        s = make_series(10, 3)
        p = tmp_path / "t.csv"
        write_csv(s.values, str(p), timestamps=[f"2024-01-{d + 1:02d}T00:00:00" for d in range(10)])
        np.testing.assert_array_equal(data.load_csv(str(p)).values, s.values)

    def test_last_line_without_line_break_names_it(self, tmp_path):
        # "3,40000" cut to "3,4" would otherwise load as 4.0
        p = tmp_path / "t.csv"
        p.write_text("a,b\n1,2\n3,4")
        with pytest.raises(ParseError, match="line 3: no line break at the end"):
            data.load_csv(str(p))

    def test_increasing_timestamps_of_one_kind_load(self, tmp_path):
        p = tmp_path / "t.csv"
        for stamps in (["2024-01-01", "2024-01-01T00:00:01", "2024-03-01"],
                       ["2024-01-01T00:00:00+05:00", "2024-01-01T00:00:00+00:00",
                        "2024-01-01T02:00:00Z"],
                       # longer than any fixed text width
                       ["2024-01-01", "2024-01-02T00:00:00." + "0" * 100, "2024-01-03"]):
            p.write_text("time,v\n" + "".join(f"{ts},{i}\n" for i, ts in enumerate(stamps)))
            np.testing.assert_array_equal(data.load_csv(str(p)).values, [[0.0], [1.0], [2.0]])

    @pytest.mark.parametrize("prev, ts, error", [
        ("2024-01-03", "2024-01-01", "does not come after '2024-01-03'"),
        ("2024-01-01", "2024-01-01", "does not come after '2024-01-01'"),
        # the same instant written with two offsets repeats it
        ("2024-01-01T05:00:00+05:00", "2024-01-01T00:00:00+00:00", "does not come after"),
        ("2024-01-01", "2024-01-02T00:00:00+05:00", "mixes naive and UTC-offset times with '2024-01-01'"),
        ("2024-01-01T00:00:00Z", "2024-01-02", "mixes naive and UTC-offset times"),
    ])
    def test_out_of_order_or_mixed_timestamp_names_line(self, tmp_path, prev, ts, error):
        p = tmp_path / "t.csv"
        p.write_text(f"time,v\n2023-12-31{prev[10:]},0\n{prev},1\n{ts},2\n")
        with pytest.raises(ParseError, match=f"line 4: timestamp '{re.escape(ts)}' {re.escape(error)}"):
            data.load_csv(str(p))

    @staticmethod
    @st.composite
    def series(draw):
        T, m = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        values = draw(hnp.arrays(np.float64, (T, m),
                                 elements=st.floats(allow_nan=False, allow_infinity=False)))
        stamped = draw(st.booleans())
        ts = [f"2024-01-01T{h:02d}:00:00" for h in range(T)] if stamped else None
        return values, ts

    @settings(max_examples=60, deadline=None)
    @given(series())
    def test_every_prefix_loads_leading_rows_or_raises(self, tmp_path_factory, s):
        values, ts = s
        p = tmp_path_factory.getbasetemp() / "prefix.csv"
        write_csv(values, str(p), timestamps=ts)
        full = p.read_bytes()
        for cut in range(len(full) + 1):
            p.write_bytes(full[:cut])
            try:
                back = data.load_csv(str(p))
            except DataError:
                continue
            k = back.length
            assert back.values.tobytes() == values[:k].tobytes(), f"prefix of {cut} bytes"


class TestNormalize:
    def test_train_split_mean_near_zero(self):
        s = make_series(200, 3, seed=1)
        stats = data.compute_stats(s.values)
        normed = data.normalize(s.values, stats)
        assert np.abs(normed.mean(axis=0)).max() < 1e-10

    def test_constant_channel_guarded(self):
        values = np.column_stack([np.full(10, 5.0), np.arange(10.0)])
        stats = data.compute_stats(values)
        assert stats.std[0] == 1.0
        normed = data.normalize(values, stats)
        np.testing.assert_array_equal(normed[:, 0], np.zeros(10))


@pytest.mark.parametrize("kind", ["plain", "instance"])
class TestSplitStats:
    """Each kind's split_windows computes train statistics only when none are given."""

    @staticmethod
    def dataset(kind):
        if kind == "plain":
            return make_series(100, 1, seed=7)
        return data.synth_generate(10, 0.05, seed=2, lookback=4, horizon=2)

    @pytest.fixture()
    def stats_calls(self, monkeypatch):
        calls = []
        compute = data.compute_stats
        monkeypatch.setattr(data, "compute_stats", lambda v: calls.append(1) or compute(v))
        return calls

    def test_none_computes_once(self, kind, stats_calls):
        self.dataset(kind).split_windows(4, 2, 1, data.SplitSpec())
        assert len(stats_calls) == 1

    def test_given_stats_are_applied_not_computed(self, kind, stats_calls):
        stats = data.NormStats(mean=np.array([0.5]), std=np.array([2.0]))
        ds = self.dataset(kind)
        raw = ds.split_windows(4, 2, 1, data.SplitSpec(), data.NormStats(np.zeros(1), np.ones(1)))
        stats_calls.clear()
        got = ds.split_windows(4, 2, 1, data.SplitSpec(), stats)
        assert stats_calls == []
        assert got[3] is stats
        for raw_pairs, pairs in zip(raw[:3], got[:3]):
            for r, p in zip(raw_pairs, pairs, strict=True):
                np.testing.assert_array_equal(p.lookback, (r.lookback - 0.5) / 2.0)
                np.testing.assert_array_equal(p.target, (r.target - 0.5) / 2.0)


def part_lengths(spec, n):
    return [len(range(n)[part]) for part in spec.bounds(n)]


class TestSplit:
    def test_60_20_20(self):
        assert part_lengths(data.SplitSpec(0.6, 0.2, 0.2), 100) == [60, 20, 20]

    def test_70_10_20_floor(self):
        assert part_lengths(data.SplitSpec(0.7, 0.1, 0.2), 10) == [7, 1, 2]

    def test_concatenation_is_identity(self):
        s = make_series(57, 2, seed=3)
        parts = [s.values[part] for part in data.SplitSpec().bounds(s.length)]
        np.testing.assert_array_equal(np.vstack(parts), s.values)

    def test_too_short_states_requirement(self):
        s = make_series(30)
        with pytest.raises(DataError, match="every part needs >= 24 steps"):
            s.split_windows(20, 4, 2, data.SplitSpec())

    def test_series_windows_stay_inside_their_part(self):
        s = make_series(100, 2, seed=6)
        train, val, test, stats = s.split_windows(4, 2, 2, data.SplitSpec(0.6, 0.2, 0.2))
        # a part of n steps has n - 6 + 1 windows; none straddles two parts
        assert (len(train), len(val), len(test)) == (55, 15, 15)
        np.testing.assert_array_equal(stats.mean, s.values[:60].mean(axis=0))
        for pairs, start in ((train, 0), (val, 60), (test, 80)):
            for i, p in enumerate(pairs):
                raw = s.values[start + i : start + i + 6]
                np.testing.assert_array_equal(p.lookback, data.normalize(raw[:4], stats))
                np.testing.assert_array_equal(p.target, data.normalize(raw[4:], stats))

    def test_normalizes_each_part_once(self, monkeypatch):
        calls = []
        normalize = data.normalize
        monkeypatch.setattr(data, "normalize", lambda *a: calls.append(1) or normalize(*a))
        make_series(100, 2, seed=6).split_windows(4, 2, 2, data.SplitSpec(0.6, 0.2, 0.2))
        assert len(calls) == 3

    def test_fraction_validation(self):
        with pytest.raises(ConfigError, match="split fractions must be positive"):
            data.SplitSpec(0.7, 0.0, 0.3)
        with pytest.raises(ConfigError, match="split fractions must sum to 1"):
            data.SplitSpec(0.5, 0.2, 0.2)


class TestWindows:
    def test_count_formula(self):
        pairs = data.window_dataset(make_series(10).values, 4, 2)
        assert len(pairs) == 5

    def test_first_window_indices(self):
        values = make_series(10, 1, seed=4).values
        pairs = data.window_dataset(values, 4, 2)
        np.testing.assert_array_equal(pairs[0].lookback, values[0:4])
        np.testing.assert_array_equal(pairs[0].target, values[4:6])
        assert pairs[0].origin == 4

    def test_too_short(self):
        # the length rule, naming the split, belongs to Series.split_windows
        assert data.window_dataset(make_series(5).values, 4, 2) == []

    def test_contiguity(self):
        values = make_series(20, 1, seed=5).values
        for p in data.window_dataset(values, 6, 3):
            np.testing.assert_array_equal(
                np.vstack([p.lookback, p.target]), values[p.origin - 6 : p.origin + 3]
            )

    def test_instance_array_gives_window_pairs(self):
        ds = data.synth_generate(4, 0.05, seed=1, lookback=6, horizon=2)
        pairs = data.window_dataset(ds.values, 6, 2)
        assert len(pairs) == 4
        for got, want, v in zip(pairs, ds.window_pairs(), ds.values, strict=True):
            assert got.origin == want.origin == 6
            assert got.lookback.tobytes() == want.lookback.tobytes() == v[:6].tobytes()
            assert got.target.tobytes() == want.target.tobytes() == v[6:].tobytes()

    def test_series_windows_are_views_of_each_series(self):
        values = make_series(3 * 9, 2, seed=2).values.reshape(3, 9, 2)
        pairs = data.window_dataset(values, 4, 2)
        assert [p.origin for p in pairs] == [4, 5, 6, 7] * 3
        for i, p in enumerate(pairs):
            assert np.shares_memory(p.lookback, values[i // 4])
            assert np.shares_memory(p.target, values[i // 4])


@pytest.mark.parametrize("kind", ["plain", "instance"])
class TestOnePath:
    """Both kinds normalize each split part once and cut views of it."""

    @pytest.fixture()
    def normalized(self, monkeypatch):
        parts, normalize = [], data._normalize_dataset

        def recorded(values, stats):
            parts.append(normalize(values, stats))
            return parts[-1]

        monkeypatch.setattr(data, "_normalize_dataset", recorded)
        return parts

    def test_each_part_normalized_once_and_windows_are_views(self, kind, normalized):
        ds = TestSplitStats.dataset(kind)
        *windows, _ = ds.split_windows(4, 2, 1, data.SplitSpec())
        assert len(normalized) == 3
        for part, pairs in zip(normalized, windows, strict=True):
            assert pairs
            for p in pairs:
                assert np.shares_memory(p.lookback, part) and np.shares_memory(p.target, part)


class TestSynth:
    def test_trend_midpoint(self):
        assert data.synth_trend(np.array([192.0]))[0] == pytest.approx(0.5)

    def test_seasonal_at_zero(self):
        assert data.synth_seasonal(np.array([0.0]))[0] == pytest.approx(0.3)

    def test_noiseless_deterministic_in_instance(self):
        a = data.synth_generate(5, 0.0, seed=1)
        b = data.synth_generate(5, 0.0, seed=99)
        np.testing.assert_array_equal(a.values, b.values)
        t = np.arange(1, 241)
        expect = data.synth_trend(t) + data.synth_seasonal(t + 3)
        np.testing.assert_allclose(a.values[3, :, 0], expect)

    def test_seeded_noise_reproducible(self):
        a = data.synth_generate(4, 0.05, seed=7)
        b = data.synth_generate(4, 0.05, seed=7)
        np.testing.assert_array_equal(a.values, b.values)

    def test_csv_roundtrip(self, tmp_path):
        ds = data.synth_generate(3, 0.05, seed=9, lookback=20, horizon=5)
        p = tmp_path / "synth.csv"
        data.write_synth_csv(ds, str(p))
        back = data.read_dataset(str(p))
        assert isinstance(back, data.SynthDataset)
        np.testing.assert_array_equal(back.values, ds.values)
        assert (back.lookback, back.horizon) == (20, 5)

    def test_csv_layout_is_one_row_per_instance(self, tmp_path):
        values = np.array([[0.5, -0.0, 1e-300], [2.0, 1 / 3, -7.0]])[..., None]
        p = tmp_path / "s.csv"
        data.write_synth_csv(data.SynthDataset(values, lookback=2, horizon=1), str(p))
        assert p.read_bytes() == (b"# etsfore-synth lookback=2 horizon=1 instances=2\n"
                                  b"0,0.5,-0,1e-300\r\n"
                                  b"1,2,0.33333333333333331,-7\r\n")

    @staticmethod
    def write_rows(path, rows, n=2, lookback=3, horizon=1):
        lines = [f"{data.SYNTH_MAGIC} lookback={lookback} horizon={horizon} instances={n}"]
        lines += [",".join(map(str, r)) for r in rows]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @staticmethod
    def full_rows(n=2, T=4):
        return [(i, *(10 * i + t for t in range(1, T + 1))) for i in range(n)]

    def test_reversed_rows_name_line_2(self, tmp_path):
        rows = self.full_rows()[::-1]
        with pytest.raises(ParseError, match="line 2: expected instance 0, found instance 1$"):
            data.read_synth_csv(self.write_rows(tmp_path / "s.csv", rows))

    @pytest.mark.parametrize("bad", [(2, 1, 2, 3, 4), (-1, 1, 2, 3, 4), (10**400, 1, 2, 3, 4)])
    def test_instance_out_of_range_names_line(self, tmp_path, bad):
        rows = self.full_rows()
        rows[1] = bad
        # an index too large for int64 cannot be the expected instance
        match = ("line 3: malformed row" if bad[0] > 2**63 else
                 f"line 3: expected instance 1, found instance {bad[0]}$")
        with pytest.raises(ParseError, match=match):
            data.read_synth_csv(self.write_rows(tmp_path / "s.csv", rows))

    @pytest.mark.parametrize("t", [0, 5])
    def test_t_out_of_range_names_line(self, tmp_path, t):
        # a value's step t is its place in the row, so steps past 1..T are a
        # row of the wrong length: the index and t values, T = 4
        rows = self.full_rows()
        rows[1] = (1, *range(1, t + 1))
        with pytest.raises(ParseError, match="line 3: malformed row: expected 5 fields, "
                                             "an integer index and 4 float values$"):
            data.read_synth_csv(self.write_rows(tmp_path / "s.csv", rows))

    def test_row_past_the_last_cell_names_line(self, tmp_path):
        rows = self.full_rows() + [(2, 1, 2, 3, 4)]
        with pytest.raises(ParseError, match="line 4: row past the last instance, instance 1$"):
            data.read_synth_csv(self.write_rows(tmp_path / "s.csv", rows))

    @pytest.mark.parametrize("row", [
        "0,4,9,4",  # would load 4.0, 9.0 if the 4th field were dropped
        "0,4",
        "",
        "0.0,4,4",  # an index that is not an integer literal
        '0,"4",4',  # quoting, which write_synth_csv never does
        "0,4,4x",
    ])
    def test_malformed_row_names_line(self, tmp_path, row):
        # rows of instance index and T = 2 values, 3 fields
        rows = self.full_rows(T=2)
        rows[0] = (row,)
        with pytest.raises(ParseError, match="line 2: malformed row: expected 3 fields, "
                                             "an integer index and 2 float values$"):
            data.read_synth_csv(self.write_rows(tmp_path / "s.csv", rows, lookback=1))

    def test_repeated_cell_names_line(self, tmp_path):
        rows = self.full_rows(n=3)
        rows.insert(1, rows[0])
        with pytest.raises(ParseError, match="line 3: expected instance 1, found instance 0$"):
            data.read_synth_csv(self.write_rows(tmp_path / "s.csv", rows, n=3))

    def test_truncated_file_names_missing_instance(self, tmp_path):
        ds = data.synth_generate(3, 0.05, seed=9, lookback=20, horizon=5)
        p = tmp_path / "synth.csv"
        data.write_synth_csv(ds, str(p))
        lines = p.read_text().splitlines(keepends=True)
        p.write_text("".join(lines[:-1]))
        with pytest.raises(ParseError, match=r"no row for instance 2 \(2 rows for 3 instances\)"):
            data.read_synth_csv(str(p))

    def write_meta(self, path, meta):
        path.write_text(f"{data.SYNTH_MAGIC} {meta}\n0,0.5,0.5,0.5,0.5\n", encoding="utf-8")
        return str(path)

    def test_missing_instances_key_named(self, tmp_path):
        p = self.write_meta(tmp_path / "s.csv", "lookback=3 horizon=1")
        with pytest.raises(ParseError, match="line 1: missing metadata key 'instances'"):
            data.read_synth_csv(p)

    def test_metadata_token_without_equals(self, tmp_path):
        p = self.write_meta(tmp_path / "s.csv", "lookback=3 horizon=1 instances=1 x")
        with pytest.raises(ParseError, match="line 1: metadata token 'x' is not key=value"):
            data.read_synth_csv(p)

    def test_non_integer_lookback_named(self, tmp_path):
        p = self.write_meta(tmp_path / "s.csv", "lookback=x horizon=1 instances=1")
        with pytest.raises(ParseError, match="line 1: bad metadata value lookback='x'"):
            data.read_synth_csv(p)

    @pytest.mark.parametrize("key", ["lookback", "horizon", "instances"])
    def test_non_positive_size_named(self, tmp_path, key):
        meta = {"lookback": 3, "horizon": 1, "instances": 1, key: 0}
        line = " ".join(f"{k}={v}" for k, v in meta.items())
        with pytest.raises(ParseError, match=f"line 1: metadata {key}=0 must be positive"):
            data.read_synth_csv(self.write_meta(tmp_path / "s.csv", line))

    @pytest.mark.parametrize("key, value, error", [
        # integers are plain digits, the ETSFORE_SEED rule
        ("lookback", "1_2", "bad metadata value lookback='1_2'"),
        ("lookback", "\u0663", "bad metadata value lookback='\u0663'"),
        ("lookback", "+3", r"bad metadata value lookback='\+3'"),
        ("lookback", "-2", "bad metadata value lookback='-2'"),
    ])
    def test_metadata_value_grammar(self, tmp_path, key, value, error):
        meta = {"lookback": 3, "horizon": 1, "instances": 1, key: value}
        line = " ".join(f"{k}={v}" for k, v in meta.items())
        with pytest.raises(ParseError, match=f"line 1: {error}$"):
            data.read_synth_csv(self.write_meta(tmp_path / "s.csv", line))

    def test_repeated_metadata_key_named(self, tmp_path):
        p = self.write_meta(tmp_path / "s.csv", "lookback=3 horizon=1 instances=1 instances=2")
        with pytest.raises(ParseError, match="line 1: repeated metadata key 'instances'$"):
            data.read_synth_csv(p)

    def test_unknown_metadata_keys_named(self, tmp_path):
        p = self.write_meta(tmp_path / "s.csv", "lookback=3 horizon=1 instances=1 scale=2")
        error = (r"unknown metadata keys \['scale'\]; "
                 r"the keys are \['lookback', 'horizon', 'instances'\]$")
        with pytest.raises(ParseError, match=f"line 1: {error}"):
            data.read_synth_csv(p)

    def test_non_ascii_metadata_separator_named(self, tmp_path):
        p = self.write_meta(tmp_path / "s.csv", "lookback=3\u00a0horizon=1 instances=1")
        with pytest.raises(ParseError, match="line 1: non-ASCII text$"):
            data.read_synth_csv(p)

    def test_older_cell_per_line_layout_fails_at_line_1(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_bytes(b"# etsfore-synth lookback=1 horizon=1 noise=0.05 seed=0 instances=1\n"
                      b"instance,t,value\r\n0,1,0.5\r\n0,2,0.25\r\n")
        with pytest.raises(ParseError, match=r"line 1: unknown metadata keys \['noise', 'seed'\]"):
            data.read_synth_csv(str(p))

    @staticmethod
    @st.composite
    def datasets(draw):
        n, L, H = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
        values = draw(hnp.arrays(np.float64, (n, L + H, 1),
                                 elements=st.floats(allow_nan=False, allow_infinity=False)))
        return data.SynthDataset(values, L, H)

    @staticmethod
    def same(a, b):
        return (a.values.tobytes(), a.values.shape, a.lookback, a.horizon) == (
            b.values.tobytes(), b.values.shape, b.lookback, b.horizon)

    @settings(max_examples=150, deadline=None)
    @given(datasets())
    def test_write_read_roundtrip_is_bitwise(self, tmp_path_factory, ds):
        """Values include -0.0, subnormals and the largest finite floats."""
        p = tmp_path_factory.getbasetemp() / "roundtrip.csv"
        data.write_synth_csv(ds, str(p))
        assert self.same(data.read_synth_csv(str(p)), ds)

    @settings(max_examples=40, deadline=None)
    @given(datasets())
    def test_every_truncation_loads_completely_or_raises(self, tmp_path_factory, ds):
        p = tmp_path_factory.getbasetemp() / "truncated.csv"
        data.write_synth_csv(ds, str(p))
        full = p.read_bytes()
        for cut in range(len(full)):
            p.write_bytes(full[:cut])
            try:
                back = data.read_synth_csv(str(p))
            except ParseError:
                continue
            assert self.same(back, ds), f"prefix of {cut} of {len(full)} bytes"

    @staticmethod
    def replacement_lines(i: str, values: list[str]):
        """Strings to put in place of the data line `i,v_1,...,v_T`: near
        misses of it, and any text or bytes without a line break."""
        row = ",".join(values)
        v, rest = values[-1], ",".join([i, *values[:-1]])
        near = [f" {i} ,{row} ", f"+{i},{row}", f"{i},{row},", f"{i},{row[:-len(v) - 1]}",
                f'"{i}",{row}', f"{i}.0,{row}", f"{i}_0,{row}", f"{rest},{v}x", f"{rest},nan",
                "", f"{rest},{v}0", f"{int(i) + 1},{row}", f"{10**30},{row}", f"{rest},{v}\x00",
                f"{rest},\u00a0{v}", f"{rest},{v}\u3000"]
        return st.one_of(
            st.sampled_from(near).map(str.encode),
            st.text(st.characters(codec="utf-8", exclude_characters="\r\n")).map(str.encode),
            st.binary().map(lambda b: b.replace(b"\r", b"").replace(b"\n", b"")),
        )

    @settings(max_examples=200, deadline=None)
    @given(datasets(), st.data())
    def test_replaced_line_loads_as_its_row_or_is_named(self, tmp_path_factory, ds, drawn):
        p = tmp_path_factory.getbasetemp() / "replaced.csv"
        data.write_synth_csv(ds, str(p))
        lines = p.read_bytes().splitlines(keepends=True)
        k = drawn.draw(st.integers(1, len(lines) - 1))  # line k + 1 of the file
        i, *values = lines[k].decode().removesuffix("\r\n").split(",")
        new = drawn.draw(self.replacement_lines(i, values))
        lines[k] = new + b"\r\n"
        p.write_bytes(b"".join(lines))
        try:
            back = data.read_synth_csv(str(p))
        except ParseError as e:
            assert f": line {k + 1}: " in str(e), str(e)
            return
        # it loads only as the row of the instance it replaced
        fields = new.decode().split(",")
        assert int(fields[0]) == int(i)
        expect = ds.values.copy()
        expect[int(i), :, 0] = [float(v) for v in fields[1:]]
        assert self.same(back, data.SynthDataset(expect, ds.lookback, ds.horizon))

    @settings(max_examples=100, deadline=None)
    @given(datasets().filter(lambda ds: len(ds.values) > 1), st.data())
    def test_swapped_lines_name_the_earlier_line(self, tmp_path_factory, ds, drawn):
        p = tmp_path_factory.getbasetemp() / "swapped.csv"
        data.write_synth_csv(ds, str(p))
        lines = p.read_bytes().splitlines(keepends=True)
        a, b = sorted(drawn.draw(st.lists(st.integers(1, len(lines) - 1), min_size=2,
                                          max_size=2, unique=True)))
        lines[a], lines[b] = lines[b], lines[a]
        p.write_bytes(b"".join(lines))
        with pytest.raises(ParseError, match=f": line {a + 1}: expected instance {a - 1}, "
                                             f"found instance {b - 1}$"):
            data.read_synth_csv(str(p))

    def test_window_pairs_shapes(self):
        ds = data.synth_generate(2, 0.0, seed=0, lookback=12, horizon=3)
        pairs = ds.window_pairs()
        assert len(pairs) == 2
        assert pairs[0].lookback.shape == (12, 1)
        assert pairs[0].target.shape == (3, 1)

    def test_split_windows_by_instance_index(self):
        ds = data.synth_generate(10, 0.05, seed=2, lookback=12, horizon=3)
        train, val, test, stats = ds.split_windows(12, 3, 1, data.SplitSpec())
        assert (len(train), len(val), len(test)) == (7, 1, 2)
        np.testing.assert_allclose(stats.mean, ds.values[:7, :12].mean(axis=(0, 1)))
        for i, p in enumerate(train + val + test):
            np.testing.assert_array_equal(p.lookback, data.normalize(ds.values[i, :12], stats))
            np.testing.assert_array_equal(p.target, data.normalize(ds.values[i, 12:], stats))

    @pytest.mark.parametrize("horizon, channels, fractions, error, message", [
        (4, 1, (0.7, 0.1, 0.2), DataError, "dataset windows are 12/3, config wants 12/4"),
        (3, 2, (0.7, 0.1, 0.2), DataError, "data has 1 channels, the model config wants 2"),
        (3, 1, (0.8, 0.1, 0.1), DataError, "5 instances cannot be split"),
    ])
    def test_split_windows_rejects(self, horizon, channels, fractions, error, message):
        ds = data.synth_generate(5, 0.0, seed=0, lookback=12, horizon=3)
        with pytest.raises(error, match=message):
            ds.split_windows(12, horizon, channels, data.SplitSpec(*fractions))


class TestMetrics:
    def test_perfect_prediction(self):
        x = np.random.default_rng(7).normal(size=(4, 2))
        assert data.metrics(x, x) == (0.0, 0.0)

    def test_simple_values(self):
        mse, mae = data.metrics(np.array([[0.0]]), np.array([[2.0]]))
        assert (mse, mae) == (4.0, 2.0)

    def test_nonnegative(self):
        rng = np.random.default_rng(8)
        mse, mae = data.metrics(rng.normal(size=(5, 3)), rng.normal(size=(5, 3)))
        assert mse >= 0 and mae >= 0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            data.metrics(np.zeros((2, 2)), np.zeros((3, 2)))
