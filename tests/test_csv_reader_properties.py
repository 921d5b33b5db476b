"""Property test: the CLI's CSV reader is the row-by-row ``csv`` reader.

``cli._read_csv_columns`` parses the body with numpy's C parser and falls
back to ``float()`` per cell where the two could disagree. Over random
frames -- float formats numpy refuses and ``float()`` takes (``1_000``,
full-width digits) and the reverse (ASCII separators as padding), quoting,
a byte order mark, CRLF and lone CR line ends, blank lines, unnamed text
columns and ragged rows -- it returns the columns of
``oracles.read_csv_columns`` bit for bit, or raises its ``ValueError``
message. Examples are derandomized and no example database is kept.
"""

import os

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from harchow import cli  # noqa: E402
from oracles import read_csv_columns  # noqa: E402

SETTINGS = settings(derandomize=True, database=None, max_examples=300, deadline=None)

finite = st.floats(allow_nan=False, allow_infinity=False)
numbers = st.one_of(
    finite.map(lambda v: "%.17g" % v),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
    finite.map(lambda v: "%E" % v),
    st.sampled_from([
        ".5", "-.25", "+.5", "5.", " 1.5 ", "\t2", "1e5", "1E+05", "inf",
        "-Infinity", "nan", "-nan", "1e500", "-1e500", "1e-400", "-0",
    ]),
)
odd = st.sampled_from([
    "1_000", "１２", "٣", "", "  ", "#1", "abc", "1 2", '1"2',
    "0x10", "1\x1c", "\x1f2", "\xa01.5", "1.5 ", "1,5", "1\n5", "1\x00",
])
texts = st.sampled_from(["a, b", "note", "", 'say "hi"', "1", "line\r\nbreak", "\x1e"])


def _quoted(field: str, quote: bool) -> str:
    return '"' + field.replace('"', '""') + '"' if quote else field


@st.composite
def frames(draw):
    """A CSV file as bytes, and the column names asked for. Half the frames
    are clean; the others have one fault: an odd field, a ragged row, or a
    name missing or named twice."""
    width = draw(st.integers(1, 4))
    header = [f"c{i}" for i in range(width)]
    named = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    names = [h for h, keep in zip(header, named) if keep] or header[:1]
    names = list(draw(st.permutations(names)))
    fault = draw(st.sampled_from(["none", "none", "none", "field", "ragged", "names"]))
    rows = [
        [draw(numbers if h in names else st.one_of(numbers, texts)) for h in header]
        for _ in range(draw(st.integers(0 if fault == "none" else 1, 4)))
    ]
    if fault == "field":
        row = draw(st.sampled_from(rows))
        row[draw(st.integers(0, width - 1))] = draw(odd)
    elif fault == "ragged":
        row = draw(st.sampled_from(rows))
        row.append("1") if draw(st.booleans()) else row.pop()
    elif fault == "names":
        header[-1] = draw(st.sampled_from(["absent", header[0]]))
    lines = [
        ",".join(_quoted(f, draw(st.integers(0, 3)) == 0) for f in row)
        for row in [header] + rows
    ]
    for _ in range(draw(st.integers(0, 2))):  # blank lines
        lines.insert(draw(st.integers(0, len(lines))), "")
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from([end, ""]))
    bom = b"\xef\xbb\xbf" if draw(st.booleans()) else b""
    return bom + text.encode("utf-8"), names


def _outcome(reader, path, names):
    try:
        columns = reader(path, names)
    except ValueError as exc:
        return "refused", str(exc)
    return "read", {
        n: (c.dtype.str, c.shape, c.flags.c_contiguous, c.view(np.int64).tolist())
        for n, c in columns.items()
    }


@pytest.fixture(scope="module")
def path(tmp_path_factory):
    return os.path.join(tmp_path_factory.mktemp("frames"), "frame.csv")


@SETTINGS
@given(frame=frames())
def test_reader_is_the_csv_module_reader(path, frame):
    content, names = frame
    with open(path, "wb") as fh:
        fh.write(content)
    assert _outcome(cli._read_csv_columns, path, names) == _outcome(
        read_csv_columns, path, names
    )
