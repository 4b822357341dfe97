"""The column-wise panel loader against a row-by-row reference parser.

``reference_load`` is the documented CSV grammar written as a plain
``csv.reader`` loop, with the messages the loader has always used.  On every
generated file, valid or not, ``load_panel`` must return the same arrays or
raise the same error class, line number and message.
"""

import csv
import io
import os
import re
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from condid import event_study
from condid.errors import CondidError, InsufficientDataError, PanelParseError
from condid.event_study import (
    PANEL_HEADER,
    PanelData,
    estimate_event_study,
    load_panel,
)

from _oracles import estimate_or_refusal, write_panel

PERIOD = re.compile(r"[+-]?[0-9]+")
NUMBER = re.compile(
    r"[+-]?(?:(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|inf|infinity|nan)",
    re.IGNORECASE,
)


def reference_load(path) -> PanelData:
    """One record at a time: header, field count, period, treatment, outcome."""
    units, periods, treatments, outcomes = [], [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise PanelParseError("empty file", line=1)
        if tuple(h.strip() for h in header) != PANEL_HEADER:
            raise PanelParseError(
                f"expected header {','.join(PANEL_HEADER)!r}, got {','.join(header)!r}",
                line=1,
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise PanelParseError(f"expected 4 fields, got {len(row)}", line=lineno)
            unit, period_s, treat_s, outcome_s = (f.strip() for f in row)
            if not (PERIOD.fullmatch(period_s) and -(2**63) <= int(period_s) < 2**63):
                raise PanelParseError(f"period {period_s!r} is not an integer", line=lineno)
            if treat_s not in ("0", "1"):
                raise PanelParseError(f"treatment {treat_s!r} must be 0 or 1", line=lineno)
            if not NUMBER.fullmatch(outcome_s):
                raise PanelParseError(f"outcome {outcome_s!r} is not a number", line=lineno)
            units.append(unit)
            periods.append(int(period_s))
            treatments.append(treat_s == "1")
            outcomes.append(float(outcome_s))
    if not units:
        raise InsufficientDataError("panel contains no observations")
    return PanelData(
        unit=np.array(units, dtype=object),
        period=np.array(periods, dtype=int),
        treatment=np.array(treatments, dtype=bool),
        outcome=np.array(outcomes, dtype=float),
    )


def verdict(loader, path):
    """The arrays a loader returns, or the error it raises."""
    try:
        panel = loader(path)
    except CondidError as exc:
        return type(exc).__name__, getattr(exc, "line", None), str(exc)
    return (
        panel.unit.tolist(),
        panel.period.tolist(),
        panel.treatment.tolist(),
        panel.outcome.tolist(),
    )


def assert_same_verdict(path):
    expected = verdict(reference_load, path)
    assert verdict(load_panel, path) == expected
    return expected


# --- generated files ------------------------------------------------------------

LABEL_CHARS = st.sampled_from(list('abcXYZ019,"# é\t\r\n'))
PAD = st.sampled_from(["", " ", "  ", "\t", "\u3000"])
TERMINATOR = st.sampled_from(["\n", "\r\n", "\r"])


def unit_labels(count):
    """``count`` distinct labels without surrounding whitespace."""
    texts = st.lists(st.text(LABEL_CHARS, max_size=6), min_size=count, max_size=count)
    return texts.map(lambda ts: [f"{i}:{t}".rstrip() for i, t in enumerate(ts)])


@st.composite
def rendered_field(draw, text):
    """``text`` padded with whitespace and quoted when it must be, or at random."""
    pad_left, pad_right = draw(PAD), draw(PAD)
    if any(c in text for c in ',"\r\n') or draw(st.booleans()):
        return '"' + (pad_left + text + pad_right).replace('"', '""') + '"'
    return pad_left + text + pad_right


@st.composite
def panel_files(draw):
    """A valid panel (K = 1..4) as rendered CSV records, with the 1-based
    line number of every data record."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(2, 3))
    labels = draw(unit_labels(2 * n))
    rows = []
    for t in range(-k, 2):
        for d in (0, 1):
            for i in range(n):
                y = draw(st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False))
                y_text = draw(st.sampled_from([repr(y), f"{y:.6e}", f"{y:g}"]))
                rows.append([labels[d * n + i], str(t), str(d), y_text])
    rows = draw(st.permutations(rows))
    records, lines = [], []
    for row in rows:
        while draw(st.integers(0, 9)) == 0:
            records.append("")  # blank line
        fields = [draw(rendered_field(f)) for f in row]
        records.append(",".join(fields))
        lines.append(len(records) + 1)
    return rows, records, lines


def write_records(path, records, terminator):
    # one terminator per file: "\r" before a blank "\n" line would read as "\r\n"
    text = "".join(r + terminator for r in [",".join(PANEL_HEADER), *records])
    path.write_bytes(text.encode("utf-8"))
    return path


CORRUPTIONS = {
    1: ["", "x", "1.0", "1e0", "1_0", "١", "--1", "9223372036854775808"],
    2: ["", "01", "yes", "2", "1.0", "+1", "00"],
    3: ["", "abc", "1_0", "0x1", "1e", "١", "1.5.2", "--1"],
}


# the smallest valid panel already has 12 rows of several drawn fields each
PANEL_SETTINGS = dict(deadline=None, suppress_health_check=[HealthCheck.large_base_example])


class TestAgainstReference:
    @settings(max_examples=60, **PANEL_SETTINGS)
    @given(data=st.data(), case=panel_files())
    def test_valid_files_load_like_reference(self, tmp_path_factory, data, case):
        rows, records, _ = case
        path = write_records(
            tmp_path_factory.mktemp("p") / "panel.csv", records, data.draw(TERMINATOR)
        )
        with mock.patch.object(
            event_study, "_raise_first_bad_line", side_effect=AssertionError("slow path ran")
        ):
            loaded = assert_same_verdict(path)
        units, periods, treatments, outcomes = loaded
        assert units == [r[0] for r in rows]
        assert periods == [int(r[1]) for r in rows]
        assert treatments == [r[2] == "1" for r in rows]
        assert outcomes == [float(r[3]) for r in rows]

    @settings(max_examples=100, **PANEL_SETTINGS)
    @given(data=st.data(), case=panel_files())
    def test_one_corrupted_field_names_its_line(self, tmp_path_factory, data, case):
        rows, records, lines = case
        j = data.draw(st.integers(0, len(rows) - 1))
        row = list(rows[j])
        column = data.draw(st.sampled_from([1, 2, 3, "count"]))
        if column == "count":
            row = row[:3] if data.draw(st.booleans()) else row + ["extra"]
        else:
            row[column] = data.draw(st.sampled_from(CORRUPTIONS[column]))
        bad = list(records)
        bad[lines[j] - 2] = ",".join(data.draw(rendered_field(f)) for f in row)
        path = write_records(
            tmp_path_factory.mktemp("p") / "panel.csv", bad, data.draw(TERMINATOR)
        )
        name, line, _ = assert_same_verdict(path)
        assert (name, line) == ("PanelParseError", lines[j])

    @settings(max_examples=300, deadline=None)
    @given(
        rows=st.lists(
            st.lists(st.text(st.sampled_from(list('019+-.eE_ ,"#\t\r\n\x00\x1c\xa0١xinaf')),
                             max_size=5),
                     min_size=3, max_size=5),
            max_size=6,
        ),
        terminator=TERMINATOR,
    )
    def test_arbitrary_text_gets_the_reference_verdict(self, tmp_path_factory, rows, terminator):
        # raw joins: stray quotes, embedded line breaks and odd whitespace
        # exercise the tokenizer itself
        body = "".join(",".join(row) + terminator for row in rows)
        path = tmp_path_factory.mktemp("p") / "panel.csv"
        path.write_bytes((",".join(PANEL_HEADER) + "\n" + body).encode("utf-8"))
        assert_same_verdict(path)


class TestLoaderEdges:
    def _write(self, tmp_path, body: bytes):
        path = tmp_path / "panel.csv"
        path.write_bytes(b"unit,period,treatment,outcome\n" + body)
        return path

    @pytest.mark.parametrize("line", [2, 5, 40])
    def test_invalid_utf8_names_its_line(self, tmp_path, line):
        good = [f"u{i},{t},{d},0.5\n".encode() for t in (-1, 0, 1) for d in (0, 1) for i in range(8)]
        good[line - 2] = b"bad\xff\xfe" + good[line - 2]
        with pytest.raises(PanelParseError, match=f"line {line}: not valid UTF-8") as err:
            load_panel(self._write(tmp_path, b"".join(good)))
        assert err.value.line == line

    def test_invalid_utf8_in_header(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_bytes(b"unit,per\xc3iod,treatment,outcome\n")
        with pytest.raises(PanelParseError, match="line 1: not valid UTF-8"):
            load_panel(path)

    def test_earlier_parse_error_wins_over_bad_bytes(self, tmp_path):
        body = b"a,-1,0,x\n" + b"\xff,0,0,1\n"
        with pytest.raises(PanelParseError, match="line 2: outcome 'x'"):
            load_panel(self._write(tmp_path, body))

    def test_label_longer_than_csv_field_limit(self, tmp_path):
        # the tokenizer has no field size limit, so the reporter lifts csv's
        label = "u" * (csv.field_size_limit() + 10)
        body = f"{label},-1,0,1.0\nb,-1,0,oops\n".encode()
        limit = csv.field_size_limit()
        with pytest.raises(PanelParseError, match="line 3"):
            load_panel(self._write(tmp_path, body))
        assert csv.field_size_limit() == limit

    def test_header_longer_than_csv_field_limit(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("unit" + " " * csv.field_size_limit() + ",period,treatment,outcome\n")
        with pytest.raises(PanelParseError, match="line 1: field larger than field limit"):
            load_panel(path)

    def test_bad_row_after_a_byte_order_mark_names_its_line(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_bytes(b"\xef\xbb\xbfunit,period,treatment,outcome\na,x,0,1.0\n")
        with pytest.raises(PanelParseError, match="^line 2: period 'x'"):
            load_panel(path)

    def test_blank_lines_count_towards_line_numbers(self, tmp_path):
        body = b"\n\r\na,-1,0,1.0\n\nb,zero,0,1.0\n"
        with pytest.raises(PanelParseError, match="line 6: period 'zero'"):
            load_panel(self._write(tmp_path, body))

    def test_quoted_line_break_is_one_record(self, tmp_path):
        body = b'"a\nb",-1,0,1.0\nc,-1,yes,1.0\n'
        with pytest.raises(PanelParseError, match="line 3: treatment 'yes'"):
            load_panel(self._write(tmp_path, body))

    @pytest.mark.parametrize("bad", ["1_0", "١", "9223372036854775808"])
    def test_period_grammar_is_ascii_int64(self, tmp_path, bad):
        with pytest.raises(PanelParseError, match="line 2: period"):
            load_panel(self._write(tmp_path, f"a,{bad},0,1.0\n".encode()))

    @pytest.mark.parametrize("bad", ["1_0.5", "١", "0x10"])
    def test_outcome_grammar_is_ascii_float(self, tmp_path, bad):
        with pytest.raises(PanelParseError, match="line 2: outcome"):
            load_panel(self._write(tmp_path, f"a,-1,0,{bad}\n".encode()))

    @pytest.mark.parametrize("bad", ["01", "+1", "1.0", "", "yes"])
    def test_treatment_grammar_is_exactly_0_or_1(self, tmp_path, bad):
        with pytest.raises(PanelParseError) as err:
            load_panel(self._write(tmp_path, f"a,-1,{bad},1.0\n".encode()))
        assert str(err.value) == f"line 2: treatment {bad!r} must be 0 or 1"

    def test_treatment_is_stripped(self, tmp_path):
        rows = [f"{g}{i},{t}, {d} ,{t}" for t in (-1, 0, 1) for d, g in enumerate("ct") for i in (0, 1)]
        panel = load_panel(self._write(tmp_path, "\n".join(rows).encode()))
        assert panel.treatment.dtype == bool
        assert panel.treatment.tolist() == ([False] * 2 + [True] * 2) * 3


# --- how the body is read ---------------------------------------------------------


def write_k1_panel(path, units, header=",".join(PANEL_HEADER)):
    """A K = 1 panel over periods -1, 0, 1: ``units[:2]`` control and
    ``units[2:]`` treated, a label quoted where it holds a line break."""
    lines = [header]
    for t in (-1, 0, 1):
        for d, group in ((0, units[:2]), (1, units[2:])):
            for unit in group:
                field = f'"{unit}"' if any(c in unit for c in "\r\n") else unit
                lines.append(f"{field},{t},{d},{t + 0.5 * d}")
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    return path


def verdict_through_a_pipe(path):
    """``load_panel``'s verdict on the bytes of ``path`` fed through a FIFO."""
    pipe = path.with_name("pipe")
    os.mkfifo(pipe)

    def feed():
        with open(pipe, "wb") as fh:
            fh.write(path.read_bytes())

    piped = []
    threads = [
        threading.Thread(target=feed, daemon=True),
        threading.Thread(target=lambda: piped.append(verdict(load_panel, pipe)), daemon=True),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    # a second open of the pipe would wait for a writer that has gone
    assert not any(thread.is_alive() for thread in threads)
    return piped[0]


LARGE_ROWS = 20 * 10_000


def write_large_panel(path):
    """K = 8, 20 (group, period) cells of 10 000 rows, labels unique within
    a cell: 20 000 labels."""
    n_cell, k = 10_000, 8
    rng = np.random.default_rng(1)
    text = [",".join(PANEL_HEADER) + "\n"]
    for t in range(-k, 2):
        for d, group in ((0, "C"), (1, "T")):
            y = rng.standard_normal(n_cell).tolist()
            text += [f"{group}{i},{t},{d},{v!r}\n" for i, v in enumerate(y)]
    path.write_text("".join(text))
    return path


class TestBodyRead:
    UNITS = ["c0", "c1", "t0", "t1"]

    def test_quoted_line_breaks_in_labels_stay_apart(self, tmp_path):
        # a text read with universal newlines turns a quoted CR or CRLF into
        # LF, which would make these three one label and the panel a
        # duplicate-row error
        units = ["a\r\nb", "a\nb", "a\rb", "t1"]
        panel = load_panel(write_k1_panel(tmp_path / "panel.csv", units))
        assert panel.unit.tolist() == units * 3

    def test_header_over_two_lines_keeps_the_first_data_row(self, tmp_path):
        path = write_k1_panel(
            tmp_path / "panel.csv", self.UNITS, header='"unit\n",period,treatment,outcome'
        )
        panel = load_panel(path)
        assert panel.unit.tolist() == self.UNITS * 3
        assert panel.period.tolist() == [-1] * 4 + [0] * 4 + [1] * 4

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_loads_like_the_file(self, tmp_path):
        path = write_k1_panel(tmp_path / "panel.csv", self.UNITS)
        assert verdict_through_a_pipe(path) == verdict(load_panel, path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_malformed_panel_through_a_pipe_names_its_line(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"unit,period,treatment,outcome\na,x,0,1\n")
        # the report re-reads the bytes the parse saw, not a second open
        expected = ("PanelParseError", 2, "line 2: period 'x' is not an integer")
        assert verdict_through_a_pipe(bad) == verdict(load_panel, bad) == expected

    @pytest.mark.parametrize("good", [True, False], ids=["valid", "malformed"])
    def test_descriptor_stays_open(self, tmp_path, good):
        path = write_k1_panel(tmp_path / "panel.csv", self.UNITS)
        if not good:
            path.write_bytes(path.read_bytes().replace(b"c0,-1,0,", b"c0,x,0,", 1))
        fd = os.open(path, os.O_RDONLY)
        try:
            got = verdict(load_panel, fd)
            os.fstat(fd)  # still open
        finally:
            os.close(fd)
        if good:
            assert got == verdict(load_panel, path)
        else:
            assert got == ("PanelParseError", 2, "line 2: period 'x' is not an integer")

    @pytest.mark.parametrize("kind", [os.fsencode, str, lambda path: os.open(path, os.O_RDONLY)],
                             ids=["bytes", "str", "descriptor"])
    def test_every_kind_of_path_loads(self, tmp_path, kind):
        path = write_k1_panel(tmp_path / "panel.csv", self.UNITS)
        source = kind(path)
        try:
            assert verdict(load_panel, source) == verdict(load_panel, path)
        finally:
            if isinstance(source, int):  # load_panel leaves a descriptor open
                os.close(source)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz", ".lzma"])
    def test_plain_text_under_a_compressed_name(self, tmp_path, suffix):
        # np.loadtxt would open such a name with a decompressor
        path = write_k1_panel(tmp_path / "panel.csv", self.UNITS)
        named = tmp_path / f"panel.csv{suffix}"
        named.write_bytes(path.read_bytes())
        assert verdict(load_panel, named) == verdict(load_panel, path)

    def test_a_relative_name_that_parses_as_a_url_is_a_file(self, tmp_path, monkeypatch):
        # "http://localhost/panel.csv" names the file http:/localhost/panel.csv;
        # numpy would fetch such a name, if relative, from the network
        path = write_k1_panel(tmp_path / "panel.csv", self.UNITS)
        (tmp_path / "http:" / "localhost").mkdir(parents=True)
        (tmp_path / "http:" / "localhost" / "panel.csv").write_bytes(path.read_bytes())
        monkeypatch.chdir(tmp_path)
        with mock.patch("urllib.request.urlopen", side_effect=AssertionError("opened a URL")):
            assert verdict(load_panel, "http://localhost/panel.csv") == verdict(load_panel, path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["http:", "panel.csv"]

    def test_every_row_of_a_label_holds_one_str(self, tmp_path):
        # "c0" bare, padded and quoted: one label spelt three ways is one object
        path = write_k1_panel(tmp_path / "panel.csv", self.UNITS)
        text = path.read_text().replace("c0,-1,", " c0 ,-1,").replace("c0,0,", '"c0",0,')
        path.write_text(text)
        panel = load_panel(path)
        assert panel.unit.tolist() == self.UNITS * 3
        assert len({id(u) for u in panel.unit}) == len(set(panel.unit))

    def test_peak_memory_per_row(self, tmp_path):
        # measured: 33.0 traced bytes per row
        path = write_large_panel(tmp_path / "panel.csv")
        load_panel(path)  # imports and caches outside the measurement
        tracemalloc.start()
        try:
            panel = load_panel(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert panel.n_rows == LARGE_ROWS
        assert peak / panel.n_rows < 40

    def test_peak_memory_per_row_with_a_line_break_in_a_label(self, tmp_path):
        # measured: 33.0 traced bytes per row; the body of the read by name
        # is dropped before the handle is read again (65.1 while both lived,
        # at 25 bytes a row)
        path = write_large_panel(tmp_path / "panel.csv")
        path.write_text(path.read_text().replace("\nC0,", '\n"C\n0",'))
        load_panel(path)
        tracemalloc.start()
        try:
            panel = load_panel(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert panel.n_rows == LARGE_ROWS and "C\n0" in set(panel.unit)
        assert peak / panel.n_rows < 44

    def test_validation_adds_at_most_6_bytes_per_row(self, tmp_path):
        # measured: 5.0 traced bytes per row, one exact 32-bit key a row and
        # one block of rows at a time, on the codes the parse produced
        panel = load_panel(write_large_panel(tmp_path / "panel.csv"))
        columns = dict(unit=panel._units, period=panel.period, treatment=panel.treatment,
                       outcome=panel.outcome)
        tracemalloc.start()
        try:
            PanelData(**columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / panel.n_rows <= 6

    def test_coding_a_unit_column_adds_at_most_12_bytes_per_row(self, tmp_path):
        # measured: 10.5 traced bytes per row: the validation above, a
        # 32-bit code a row and the label table of 20 000 entries
        panel = load_panel(write_large_panel(tmp_path / "panel.csv"))
        columns = dict(unit=panel.unit, period=panel.period, treatment=panel.treatment,
                       outcome=panel.outcome)
        tracemalloc.start()
        try:
            coded = PanelData(**columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coded.unit.tolist() == columns["unit"].tolist()
        assert peak / panel.n_rows <= 12

    def test_estimation_adds_a_fixed_amount_of_memory(self, tmp_path):
        # measured: 0.6 MB; the cell codes and residuals are one block of
        # rows at a time, and the cell counts come from validation
        panel = load_panel(write_large_panel(tmp_path / "panel.csv"))
        expected = estimate_event_study(panel)
        tracemalloc.start()
        try:
            bundle = estimate_event_study(panel)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(bundle.beta, expected.beta)
        assert peak <= 2**20


# --- the bound on the rows numpy allocates -------------------------------------------

BLOCK = event_study._COUNT_BLOCK


def nonempty_lines(data: bytes) -> int:
    return sum(1 for line in re.split(rb"\r\n|\r|\n", data) if line)


def render_k1_panel(terminators, pad=0, blank=""):
    """A K = 1 panel of 12 records after its header, record ``j`` ended by
    ``terminators[j % len(terminators)]`` and followed by ``blank``; ``pad``
    blank LF lines follow the header."""
    records = [",".join(PANEL_HEADER)]
    for t in (-1, 0, 1):
        for d, group in enumerate("ct"):
            for i in (0, 1):
                records.append(f"{group}{i},{t},{d},{t + 0.5 * d}")
    ends = [terminators[j % len(terminators)] for j in range(len(records))]
    ends[0] += "\n" * pad
    return "".join(r + e + (blank if j else "") for j, (r, e) in enumerate(zip(records, ends)))


class TestRowBound:
    """numpy sizes the body by ``_nonempty_lines``: a count one short drops
    the last record without an error."""

    def load_counting_rows(self, path):
        """The ``max_rows`` of each body read of ``path`` by name; a pipe and
        a descriptor read the body once, under the same bound."""
        seen = []
        load_body = event_study._load_body

        def spy(source, labels, skiprows=0, max_rows=None):
            seen.append(max_rows)
            return load_body(source, labels, skiprows, max_rows)

        expected = verdict(reference_load, path)
        assert len(expected[0]) == 12
        with mock.patch.object(event_study, "_load_body", spy):
            assert verdict(load_panel, path) == expected
            by_name = seen[:]
            if hasattr(os, "mkfifo"):
                seen.clear()
                assert verdict_through_a_pipe(path) == expected
                assert seen == by_name[:1]
            seen.clear()
            fd = os.open(path, os.O_RDONLY)
            try:
                assert verdict(load_panel, fd) == expected
            finally:
                os.close(fd)
            assert seen == by_name[:1]
        data = path.read_bytes()
        with open(path, "rb") as fh:
            assert event_study._nonempty_lines(fh) == nonempty_lines(data)
        assert event_study._nonempty_lines(io.BytesIO(data)) == nonempty_lines(data)
        return by_name

    @pytest.mark.parametrize(
        "terminators",
        [["\r"], ["\r\n"], ["\n", "\r", "\r\n"], ["\r\n", "\r", "\n"]],
        ids=["CR", "CRLF", "mixed", "mixed2"],
    )
    def test_every_line_ending_loads_every_record(self, tmp_path, terminators):
        path = tmp_path / "panel.csv"
        path.write_bytes(render_k1_panel(terminators).encode())
        # no blank lines: the bound is exactly the body's records
        assert self.load_counting_rows(path) == [12]

    @pytest.mark.parametrize("terminator", ["\n", "\r", "\r\n"])
    def test_no_final_terminator(self, tmp_path, terminator):
        path = tmp_path / "panel.csv"
        path.write_bytes(render_k1_panel([terminator]).rstrip("\r\n").encode())
        assert self.load_counting_rows(path) == [12]

    @pytest.mark.parametrize("blank", ["\n", "\r\n", "\r", "\n\r\n\r"], ids=repr)
    def test_blank_lines(self, tmp_path, blank):
        path = tmp_path / "panel.csv"
        path.write_bytes(render_k1_panel(["\n"], blank=blank).encode())
        # a blank line holds no record, and numpy allocates no row for it
        assert self.load_counting_rows(path) == [12]

    # where the first record's CRLF falls: wholly before the block edge,
    # split across it, or just after the record's last byte at the edge
    @pytest.mark.parametrize("cr_at", [BLOCK - 2, BLOCK - 1, BLOCK])
    def test_line_break_at_the_block_edge(self, tmp_path, cr_at):
        header, first = render_k1_panel(["\r\n"]).split("\r\n")[:2]
        pad = cr_at - len(header) - 2 - len(first)
        data = render_k1_panel(["\r\n"], pad=pad).encode()
        assert data[cr_at : cr_at + 2] == b"\r\n"
        path = tmp_path / "panel.csv"
        path.write_bytes(data)
        assert self.load_counting_rows(path) == [12]

    @pytest.mark.parametrize(
        "units, bound",
        [(["a\r\nb", "a\nb", "a\rb", "t1"], 21), (["a\n\nb", "c1", "t0", "t1"], 15)],
        ids=["CRLF-LF-CR", "empty-line"],
    )
    def test_quoted_line_breaks_in_a_label(self, tmp_path, units, bound):
        # each non-empty line of a label counts, so the bound exceeds the 12
        # records; a label with a line break is then read again through the
        # handle, under the same bound
        path = write_k1_panel(tmp_path / "panel.csv", units)
        assert self.load_counting_rows(path) == [bound, bound]


# --- estimation invariances and round trip ----------------------------------------


@st.composite
def panels(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(2, 5))
    cells = [(t, d) for t in range(-k, 2) for d in (0, 1)]
    period = np.repeat([t for t, _ in cells], n)
    treatment = np.repeat([d for _, d in cells], n).astype(bool)
    outcome = np.array(
        draw(st.lists(st.floats(-1e3, 1e3), min_size=period.size, max_size=period.size))
    )
    labels = draw(unit_labels(2 * n))
    unit = np.array([labels[int(d) * n + i % n] for i, d in enumerate(treatment)], dtype=object)
    return PanelData(unit=unit, period=period, treatment=treatment, outcome=outcome)


class TestEstimationInvariance:
    @settings(max_examples=100, deadline=None)
    @given(panel=panels(), data=st.data())
    def test_row_permutation(self, panel, data):
        order = np.array(data.draw(st.permutations(range(panel.n_rows))))
        permuted = PanelData(
            unit=panel.unit[order], period=panel.period[order],
            treatment=panel.treatment[order], outcome=panel.outcome[order],
        )
        a, b = estimate_or_refusal(panel), estimate_or_refusal(permuted)
        if isinstance(a, str):
            assert b == a
            return
        scale = max(1.0, float(np.abs(panel.outcome).max()))
        np.testing.assert_allclose(b.beta, a.beta, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(
            b.sigma.entries, a.sigma.entries, rtol=1e-10, atol=1e-12 * scale**2
        )

    @settings(max_examples=50, deadline=None)
    @given(panel=panels(), data=st.data())
    def test_unit_relabelling(self, panel, data):
        names = sorted(set(panel.unit.tolist()))
        renamed = data.draw(st.permutations([f"id{i}" for i in range(len(names))]))
        mapping = dict(zip(names, renamed))
        relabelled = PanelData(
            unit=np.array([mapping[u] for u in panel.unit], dtype=object),
            period=panel.period, treatment=panel.treatment, outcome=panel.outcome,
        )
        a, b = estimate_or_refusal(panel), estimate_or_refusal(relabelled)
        if isinstance(a, str):
            assert b == a
            return
        np.testing.assert_array_equal(b.beta, a.beta)
        np.testing.assert_array_equal(b.sigma.entries, a.sigma.entries)

    @settings(max_examples=100, deadline=None)
    @given(panel=panels())
    def test_write_then_load_round_trips(self, tmp_path_factory, panel):
        path = tmp_path_factory.mktemp("p") / "panel.csv"
        write_panel(path, panel)
        loaded = load_panel(path)
        assert loaded.unit.tolist() == panel.unit.tolist()
        np.testing.assert_array_equal(loaded.period, panel.period)
        np.testing.assert_array_equal(loaded.treatment, panel.treatment)
        np.testing.assert_array_equal(loaded.outcome, panel.outcome)

    @pytest.mark.parametrize("label", [" u1", "u1 ", "u1\t"])
    def test_write_refuses_labels_that_do_not_round_trip(self, tmp_path, label):
        # two control and two treated units over periods -1, 0, 1
        units = [label, "c1", "t0", "t1"]
        panel = PanelData(
            unit=np.array([u for u in units for _ in range(3)], dtype=object),
            period=np.tile([-1, 0, 1], 4),
            treatment=np.repeat([0, 0, 1, 1], 3),
            outcome=np.arange(12.0),
        )
        path = tmp_path / "panel.csv"
        with pytest.raises(ValueError, match="whitespace"):
            write_panel(path, panel)
        assert not path.exists()


class TestUnitColumn:
    """A panel holds its unit column as codes into a table of labels; ``unit``
    reads back the given column, each label as its first spelling."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["object", "str", "int", "spellings"]))
    def test_unit_reads_back_the_given_column(self, data, kind):
        k, n = data.draw(st.integers(1, 3)), data.draw(st.integers(2, 4))
        period = np.repeat(np.arange(-k, 2), 2 * n)
        treatment = np.tile(np.repeat([False, True], n), k + 2)
        index = [int(d) * n + i % n for i, d in enumerate(treatment)]
        if kind == "int":
            ints = st.integers(-(2**63), 2**63 - 1)
            labels = data.draw(st.lists(ints, min_size=2 * n, max_size=2 * n, unique=True))
            given = [labels[j] for j in index]
        elif kind == "spellings":
            # label j spelt as an int, a float or, for 0 and 1, a bool: equal
            # dict keys, so one unit
            given = [data.draw(st.sampled_from([int, float, bool][: 3 if j < 2 else 2]))(j)
                     for j in index]
        else:
            labels = data.draw(unit_labels(2 * n))
            given = [labels[j] for j in index]
        unit = np.array(given, dtype={"str": str, "int": np.int64}.get(kind, object))
        order = data.draw(st.permutations(range(unit.size)))
        unit, period, treatment = unit[order], period[order], treatment[order]
        panel = PanelData(unit=unit, period=period, treatment=treatment, outcome=np.zeros(unit.size))
        assert panel.unit.dtype == unit.dtype and panel.unit.shape == unit.shape
        assert panel.unit.tolist() == unit.tolist()
        first = {}
        expected = [first.setdefault(u, u) for u in unit.tolist()]
        assert [(type(u), u) for u in panel.unit.tolist()] == [(type(u), u) for u in expected]

    @settings(max_examples=30, **PANEL_SETTINGS)
    @given(data=st.data(), case=panel_files())
    def test_a_loaded_panel_holds_one_object_per_label(self, tmp_path_factory, data, case):
        rows, records, _ = case
        path = write_records(
            tmp_path_factory.mktemp("p") / "panel.csv", records, data.draw(TERMINATOR)
        )
        unit = load_panel(path).unit
        assert unit.dtype == object
        assert len({id(u) for u in unit}) == len(set(unit.tolist())) == len({r[0] for r in rows})
