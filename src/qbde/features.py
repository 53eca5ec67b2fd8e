"""Log ingestion and per-user-day behavior features.

Five CSV logs are consumed (UTF-8, comma separated, header row,
timestamps ``MM/DD/YYYY HH:MM:SS``).  Columns are matched by header name,
so files with extra columns parse unchanged.  The expected headers are:

    login.csv    id,date,user,pc,activity            Logon / Logoff
    http.csv     id,date,user,pc,url                 every row is a visit
    device.csv   id,date,user,pc,size,activity       Connect / Disconnect
    email.csv    id,date,user,pc,to,activity         Send (View is skipped)
    file.csv     id,date,user,pc,filename,activity   File Open/Write/...

``size`` on device rows is the transferred byte count; logs without that
column still parse, with the size feature degraded to zero.

Each (user, day) with any activity becomes one 16-feature vector.  The
``_on``/``_out`` suffix splits counts by the working-time window
(default 08:00-18:00, half-open), ``weekend`` flags Saturday/Sunday, and
``size`` totals the day's device transfer bytes.
"""

from __future__ import annotations

import csv
import io
import math
import re
import sys
from dataclasses import dataclass, field
from datetime import date, datetime, time, timedelta
from itertools import chain
from pathlib import Path

import numpy as np

from .checkpoint import (convert_cells, float_fields, read_csv, text_fields,
                         write_blocks, write_columns)
from .errors import SchemaError

FEATURE_NAMES = (
    "login_on", "loginoff_on", "login_out", "loginoff_out", "weekend",
    "http_on", "http_out", "connect_on", "disconnect_on", "connect_out",
    "disconnect_out", "size", "send_on", "send_out", "file_on", "file_off",
)
N_FEATURES = len(FEATURE_NAMES)
_FEATURE_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}

LOG_FILES = ("login.csv", "http.csv", "device.csv", "email.csv", "file.csv")
TIMESTAMP_FMT = "%m/%d/%Y %H:%M:%S"

LABEL_NORMAL = "normal"
LABEL_ABNORMAL = "abnormal"
_LABELS = (LABEL_NORMAL, LABEL_ABNORMAL)


@dataclass
class BehaviorVector:
    """One user-day: 16 features, optionally a ground-truth label."""

    user: str
    day: date
    features: np.ndarray
    label: str | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        if self.features.shape != (N_FEATURES,):
            raise ValueError(f"expected {N_FEATURES} features, got "
                             f"{self.features.shape}")


@dataclass
class ParseReport:
    """Per-file row accounting: parsed events, malformed rows, rows with an
    unknown activity value, and known-but-unmapped rows (e.g. email View)."""

    rows: dict = field(default_factory=dict)
    events: dict = field(default_factory=dict)
    malformed: dict = field(default_factory=dict)
    unknown_activity: dict = field(default_factory=dict)
    ignored: dict = field(default_factory=dict)

    def total_events(self) -> int:
        return sum(self.events.values())

    def entries(self) -> dict:
        """These counts as ``qbde-parse-report`` entries."""
        entries = {}
        for name in sorted(self.rows):
            for count in ("rows", "events", "malformed", "unknown_activity",
                          "ignored"):
                entries[f"file.{name}.{count}"] = getattr(self, count)[name]
        entries["events.total"] = self.total_events()
        return entries


@dataclass
class Dataset:
    """Chronological train/test rows plus per-user normalization state.

    ``stats`` maps user -> (per-feature min, per-feature max) computed on
    that user's training rows; ``excluded`` holds abnormal-labelled rows
    dropped from the training window; ``clipped`` counts the test values
    that fell outside [0, 1] before clipping.
    """

    train: list
    test: list
    stats: dict | None = None
    excluded: list = field(default_factory=list)
    clipped: int = 0


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

# Event kinds by code (the position here), each with the (working-time,
# off-hours) pair of features it counts toward.
_KIND_TO_FEATURE = {
    "login": ("login_on", "login_out"),
    "logoff": ("loginoff_on", "loginoff_out"),
    "http": ("http_on", "http_out"),
    "device_connect": ("connect_on", "connect_out"),
    "device_disconnect": ("disconnect_on", "disconnect_out"),
    "email_send": ("send_on", "send_out"),
    "file_op": ("file_on", "file_off"),
}
KINDS = tuple(_KIND_TO_FEATURE)
_KIND_FEATURES = np.array([[_FEATURE_INDEX[on], _FEATURE_INDEX[out]]
                           for on, out in _KIND_TO_FEATURE.values()])
_IGNORED, _UNKNOWN = -1, -2
_N_DAYS = date.max.toordinal() + 1  # above every day ordinal

# The byte columns of a canonical stamp's digits and separators, and
# the weights that read its date as the integer MMDDYYYY and its time as a
# second of the day.
_STAMP_DIGITS = np.array([0, 1, 3, 4, 6, 7, 8, 9, 11, 12, 14, 15, 17, 18])
_STAMP_SEPS = np.array([2, 5, 10, 13, 16])
_SEP_CODES = np.frombuffer(b"// ::", np.uint8)
_DATE_WEIGHTS = 10 ** np.arange(7, -1, -1, dtype=np.int64)
_SECOND_WEIGHTS = np.array([36000, 3600, 600, 60, 10, 1], dtype=np.int64)
# A size's digit weights by its length, 0 to 16 bytes: none unless 1 to 15.
_SIZE_WEIGHTS = np.array([[10 ** (k - 1 - j) if j < k < 16 else 0 for j in range(15)]
                          for k in range(17)])
# Masks that keep the first 0 to 8 bytes of a little-endian uint64.
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)

# Logs are read in chunks of whole lines of about _CHUNK_BYTES.  Each chunk
# pays a fixed cost in numpy calls however many rows it holds.  A sweep of
# parse_logs over 64 KiB to 4 MiB found 256 and 512 KiB fastest, within
# noise of each other, and the smaller holds half as much (BENCH_26.json).
# The csv.reader fallback joins its records in batches of about
# _BATCH_BYTES instead: its per-record loop dominates, so larger batches
# save nothing and cost memory.  A column is keyed by fixed-width bytes
# only while it spans at most _KEY_CELLS cells (8 bytes of offsets each),
# a bound that does not grow with the chunk.
_CHUNK_BYTES = 1 << 18
_BATCH_BYTES = 1 << 16
_KEY_CELLS = 8 << 16
_PAD = 19  # zero bytes after a chunk's text, so no fixed-width read runs off it
_FIRST_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)?")
_WORKING_HOURS = re.compile(r"\s*([0-9]{2}):([0-9]{2})\s*-\s*([0-9]{2}):([0-9]{2})\s*")
_NO_EVENTS = (*[np.empty(0, np.int64)] * 4, np.empty(0))


@dataclass
class Events:
    """Parsed events as parallel columns in file order: user (an index into
    ``user_names``), day ordinal, second of the day, kind (an index into
    ``KINDS``) and device transfer size (0 for other kinds)."""

    user_names: list
    user: np.ndarray
    day: np.ndarray
    second: np.ndarray
    kind: np.ndarray
    size: np.ndarray

    def __len__(self) -> int:
        return len(self.kind)


def _parse_size(text: str) -> int:
    if text.strip() == "":
        return 0
    size = float(text)
    if not 0.0 <= size < math.inf:
        raise ValueError(f"size {text!r} is not a finite byte count >= 0")
    return int(size)


def _activity_kind(source: str, activity: str) -> int:
    """Kind code of a raw activity value, ``_IGNORED`` for received mail
    (no feature counts it) or ``_UNKNOWN``."""
    act = activity.strip().lower()
    if source == "email" and act == "view":
        return _IGNORED
    kind = {"login": {"logon": "login", "logoff": "logoff"}.get(act),
            "http": "http",
            "device": {"connect": "device_connect",
                       "disconnect": "device_disconnect"}.get(act),
            "email": "email_send" if act in ("send", "") else None,
            "file": "file_op" if act in ("", "open", "write", "copy", "delete")
            or act.startswith("file") else None}[source]
    return _UNKNOWN if kind is None else KINDS.index(kind)


def _read_stamp(stamp: str) -> tuple[int, int]:
    """(day ordinal, second of the day) of a stripped stamp, as strptime
    reads it; ``_parse_plain`` reads canonical stamps from their bytes."""
    when = datetime.strptime(stamp, TIMESTAMP_FMT)
    return when.toordinal(), (when.hour * 60 + when.minute) * 60 + when.second


def _text_chunks(path: Path, handle):
    """The text of a log opened in binary mode, in chunks of whole lines of
    about ``_CHUNK_BYTES`` each; bytes that are not UTF-8 raise
    ``SchemaError`` naming their line.  A line longer than a chunk waits
    as a list of blocks, joined once when it ends, so reading it takes
    time linear in its length."""
    offset, waiting = 0, []  # read, not yet cut: no LF, and a CR only in the first
    while True:
        block = handle.read(_CHUNK_BYTES)
        # cut after the last LF, or the last CR in a log whose lines end
        # at CR; only the new block can hold an LF, and only the first
        # waiting block a CR, left there by a cut at an LF
        cut = block.rfind(b"\n") + 1 or block.rfind(b"\r") + 1
        if cut:
            raw, waiting = b"".join([*waiting, block[:cut]]), [block[cut:]]
        elif block and waiting and (cut := waiting[0].rfind(b"\r") + 1):
            raw, waiting = waiting[0][:cut], [waiting[0][cut:], block]
        elif block:
            waiting.append(block)
            continue
        else:
            raw, waiting = b"".join(waiting), []
            if not raw:
                return
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SchemaError(
                f"{path}: line {_line_number(handle, offset + exc.start)}: not UTF-8 "
                f"(byte 0x{raw[exc.start]:02x}: {exc.reason})") from exc
        yield text
        offset += len(raw)


def _line_number(handle, offset: int) -> int:
    """The line of a binary file that holds byte ``offset``, counting CR,
    LF and CR LF as one line end each, as csv does."""
    handle.seek(0)
    line = 1
    for raw in handle:  # each ends at an LF, so no CR LF is split
        if offset < len(raw):
            raw = raw[:offset]
        line += raw.count(b"\n") + raw.count(b"\r") - raw.count(b"\r\n")
        offset -= len(raw)
        if offset <= 0:
            return line
    return line


def _lines(texts):
    """The lines of each text in turn, split as a file opened with
    ``newline=""`` splits them."""
    for text in texts:
        yield from io.StringIO(text, newline="")


def _plain_fields(text: str, width: int) -> tuple | None:
    """The table ``_parse_plain`` reads, if csv would split each line of
    ``text`` at every comma into ``width`` fields: no quote (the caller
    checks), no carriage return but one that ends a line before its LF, no
    NUL (which csv rejects before Python 3.11) and no line over
    ``csv.field_size_limit()`` bytes.  None for any other text.  The table
    is the UTF-8 bytes of ``text``, then zeros, as ``uint8``; the start and
    stop byte offsets of the fields of its non-blank lines as ``(rows,
    width)`` arrays; and False, since no field holds a NUL."""
    code = np.frombuffer(text.encode() + bytes(_PAD), np.uint8)
    ends = np.flatnonzero(code == 10)
    if text and text[-1] != "\n":
        ends = np.append(ends, len(code) - _PAD)  # a last line without its newline
    length = np.diff(ends, prepend=-1) - 1
    if "\r" in text:  # a line whose LF has a CR before it ends one byte earlier
        crlf = code[ends - 1] == 13
        if np.count_nonzero(code == 13) != np.count_nonzero(crlf) or text[-1] == "\r":
            return None  # a lone CR ends a line too
        ends, length = ends - crlf, length - crlf
    if "\0" in text or length.max(initial=0) > csv.field_size_limit():
        return None
    row = length > 0  # a blank line is not a row
    ends = ends[row]
    commas = np.flatnonzero(code == 44)
    if len(commas) != len(ends) * (width - 1):
        return None
    # a comma or LF is its own byte in UTF-8; each line holds its commas if
    # each row's group of them lies within it
    commas = commas.reshape(len(ends), max(width - 1, 0))
    begins = ends - length[row]
    if width > 1 and ((commas[:, 0] < begins) | (commas[:, -1] > ends)).any():
        return None
    seps = np.column_stack((begins - 1, commas, ends))
    return code, seps[:, :-1] + 1, seps[:, 1:], False


def _distinct(code: np.ndarray, start: np.ndarray, stop: np.ndarray, nul: bool) -> tuple:
    """The distinct values of a column's fields (``code[start:stop]`` each),
    decoded, and each field's index among them.  A field of up to 8 bytes
    is keyed by one ``uint64`` read from an 8-byte window; a column with a
    longer field by fixed-width bytes.  Both drop a field's trailing NULs,
    so a column whose fields may hold one (``nul``), or that spans more
    than ``_KEY_CELLS`` cells, is keyed by ``bytes``."""
    length = stop - start
    width = int(length.max(initial=0))
    if nul or len(start) * width > _KEY_CELLS:
        text = code.tobytes()
        keys = np.array([text[i:j] for i, j in zip(start.tolist(), stop.tolist())], object)
    elif width <= 8:
        keys = np.ndarray((len(code) - 7,), "<u8", code, 0, (1,))[start] & _LOW_BYTES[length]
    else:
        cells = start[:, None] + np.arange(width)
        keys = (code.take(cells, mode="clip") * (cells < stop[:, None])).view(f"S{width}")
    distinct, index = np.unique(keys, return_inverse=True)
    if distinct.dtype.kind == "u":
        distinct = distinct.astype("<u8").view("S8")
    return [raw.decode() for raw in distinct.tolist()], index.ravel()


def _parse_rows(reader, width: int, *args):
    """The parts ``_parse_plain`` returns for the records of a ``csv.reader``,
    in tables of about ``_BATCH_BYTES`` characters each.  A blank record is
    not a row; the others are cut or padded to ``width`` fields, as
    ``csv.DictReader`` reads them, and each line csv rejects is one
    malformed row.  A field's offsets come from its record, since a quoted
    field may hold a comma or a line end."""
    width = max(width, 1)  # an empty header: one field, no user, every row malformed
    blank, fields, size, n_bad = [""] * width, [], 0, 0

    def table():
        text = "".join(fields)
        if text.isascii():  # each field's length is its UTF-8 length
            coded, data = fields, text.encode()
        else:
            coded = [field.encode() for field in fields]
            data = b"".join(coded)
        length = np.fromiter(map(len, coded), np.int64, len(coded)).reshape(-1, width)
        stop = length.cumsum().reshape(-1, width)
        return np.frombuffer(data + bytes(_PAD), np.uint8), stop - length, stop, b"\0" in data

    while True:
        try:
            for rec in reader:
                if len(rec) != width:
                    if not rec:
                        continue  # a blank line is not a row
                    rec = (rec + blank)[:width]
                fields += rec
                size += len("".join(rec))
                if size >= _BATCH_BYTES:
                    yield _parse_plain(table(), width, *args)
                    fields, size = [], 0
            break
        except csv.Error:  # a field over csv.field_size_limit(), say;
            n_bad += 1     # the reader resumes at the next line
    yield _parse_plain(table(), width, *args)
    yield _NO_EVENTS, n_bad, 0, 0


def _parse_plain(table: tuple, width: int, pick: tuple, source: str, users: dict) -> tuple:
    """The event columns (user, day, second, kind, size) of the rows of
    ``table`` (see ``_plain_fields``) and the counts of its malformed,
    unknown and ignored rows, decoded a column at a time from each field's
    bytes: users, activities and dates once per distinct value, canonical
    stamps and sizes of 1 to 15 ASCII digits from their bytes.  Any other
    stamp goes through strptime, and any other size through
    ``_parse_size``."""
    code, start, stop, nul = table
    n = len(start)
    i_user, i_date, i_act, i_size = pick
    if not n or i_user >= width or i_date >= width:  # no user or no date:
        return _NO_EVENTS, n, 0, 0                   # every row is malformed
    names, user = _distinct(code, start[:, i_user], stop[:, i_user], nul)
    names = [name.strip() for name in names]
    ok = np.array([name != "" for name in names])[user]
    # the 19 bytes from each offset of the chunk on, zeros past its text
    cells = np.ndarray((len(code) - 18, 19), np.uint8, code, 0, (1, 1))
    at, to = start[:, i_date], stop[:, i_date]
    stamp = cells[at]
    digits = stamp[:, _STAMP_DIGITS] - 48  # unsigned: bytes below '0' wrap
    canonical = ((to - at == 19) & (digits < 10).all(axis=1)
                 & (stamp[:, _STAMP_SEPS] == _SEP_CODES).all(axis=1))
    digits = digits.astype(np.int64)
    second = digits[:, 8:] @ _SECOND_WEIGHTS
    day = np.zeros(n, np.int64)
    rows = np.flatnonzero(canonical)
    dates, which = np.unique(digits[rows, :8] @ _DATE_WEIGHTS, return_inverse=True)
    ordinals = []  # 0 for a date like 02/30 or a year 0000, which strptime rejects
    for mmddyyyy in dates.tolist():
        month_day, year = divmod(mmddyyyy, 10000)
        try:
            ordinals.append(date(year, *divmod(month_day, 100)).toordinal())
        except ValueError:
            ordinals.append(0)
    day[rows] = np.array(ordinals, np.int64)[which]
    hms = digits[rows, 8:]
    ok[rows] &= ((day[rows] > 0) & (hms[:, 0] * 10 + hms[:, 1] < 24)
                 & (hms[:, 2] < 6) & (hms[:, 4] < 6))
    for i in np.flatnonzero(ok & ~canonical).tolist():
        try:
            day[i], second[i] = _read_stamp(code[at[i]:to[i]].tobytes().decode().strip())
        except ValueError:
            ok[i] = False
    size = np.zeros(n)
    if source == "device" and i_size < width:
        at, to = start[:, i_size], stop[:, i_size]
        weights = _SIZE_WEIGHTS[np.minimum(to - at, 16)]
        figures = cells[at, :15] - 48
        plain = (weights[:, 0] > 0) & ((figures < 10) | (weights == 0)).all(axis=1)
        size[plain] = (figures[plain] * weights[plain]).sum(axis=1)
        for i in np.flatnonzero(ok & ~plain).tolist():
            try:
                size[i] = _parse_size(code[at[i]:to[i]].tobytes().decode())
            except ValueError:
                ok[i] = False
    acts, act = (_distinct(code, start[:, i_act], stop[:, i_act], nul) if i_act < width
                 else ([""], np.zeros(n, np.intp)))
    kind = np.array([_activity_kind(source, raw) for raw in acts], np.int64)[act]
    event = ok & (kind >= 0)
    picked = user[event]
    codes = np.zeros(len(names), np.int64)
    for i in dict.fromkeys(picked.tolist()):  # in order of first appearance
        codes[i] = users.setdefault(names[i], len(users))
    known = kind[ok]
    return ((codes[picked], day[event], second[event], kind[event], size[event]),
            n - len(known), int(np.sum(known == _UNKNOWN)),
            int(np.sum(known == _IGNORED)))


def _parse_file(path: Path, source: str, report: ParseReport, users: dict,
                columns: list) -> None:
    """Stream one log in chunks, appending each chunk's event columns to
    ``columns`` and counting the log's rows in ``report``.  Every row is
    decoded by ``_parse_plain``.  A plain chunk (see ``_plain_fields``) is
    split by its commas and line ends, any other chunk by ``csv.reader``
    through ``_parse_rows``; from the first quote on, so is the rest of the
    file, since a quoted field may span lines."""
    with open(path, "rb") as handle:
        chunks = _text_chunks(path, handle)
        text = next(chunks, "")
        head = _FIRST_LINE.match(text).group()
        quoted = '"' in head  # a quoted header may span lines
        reader = csv.reader(_lines(chain([text], chunks)) if quoted else [head])
        try:
            header = next(reader, [])
        except csv.Error as exc:
            raise SchemaError(f"{path}: line 1: {exc}") from exc
        # a repeated name reads its last column; a missing one reads as
        # empty, like a column past the end of a short row
        where = {name: i for i, name in enumerate(header)}
        pick = tuple(where.get(name, sys.maxsize)
                     for name in ("user", "date", "activity", "size"))
        width = len(header)
        args = width, pick, source, users
        if quoted:
            parts = list(_parse_rows(reader, *args))
        else:
            parts = []
            for text in chain([text[len(head):]], chunks):
                if '"' in text:
                    parts += _parse_rows(csv.reader(_lines(chain([text], chunks))), *args)
                    break
                table = _plain_fields(text, width)
                parts += (_parse_rows(csv.reader(_lines([text])), *args) if table is None
                          else [_parse_plain(table, *args)])
    columns += (part[0] for part in parts)
    n_events = sum(len(part[0][0]) for part in parts)
    n_bad, n_unknown, n_ignored = (sum(part[i] for part in parts) for i in (1, 2, 3))
    report.rows[source] = n_events + n_bad + n_unknown + n_ignored
    report.events[source] = n_events
    report.malformed[source] = n_bad
    report.unknown_activity[source] = n_unknown
    report.ignored[source] = n_ignored


def parse_logs(log_dir: str | Path) -> tuple[Events, ParseReport]:
    """Stream the five standard CSV files under ``log_dir`` once each.

    Rows read as ``csv.DictReader`` reads them.  Malformed rows (bad
    timestamp or size, missing user, a field csv rejects) and rows with
    unknown activity values are counted in the report and skipped; a
    missing or unreadable file raises ``OSError``, and a file that is not
    UTF-8 raises ``SchemaError``.
    """
    report, users, columns = ParseReport(), {}, []
    for filename in LOG_FILES:
        _parse_file(Path(log_dir) / filename, filename.split(".")[0], report,
                    users, columns)
    user, day, second, kind, size = (np.concatenate(part)
                                     for part in zip(_NO_EVENTS, *columns))
    return Events(list(users), user, day, second, kind, size), report


# --------------------------------------------------------------------------
# Daily aggregation
# --------------------------------------------------------------------------

def parse_working_hours(value: str) -> tuple[time, time]:
    """The half-open [start, end) window of an "HH:MM-HH:MM" string, two
    ASCII digits each, with spaces allowed around the parts."""
    match = _WORKING_HOURS.fullmatch(str(value))
    if match is None:
        raise ValueError(f"working hours must look like '08:00-18:00', got {value!r}")
    h0, m0, h1, m1 = map(int, match.groups())
    start, end = time(h0, m0), time(h1, m1)
    if not start < end:
        raise ValueError("working hours must satisfy start < end")
    return start, end


def extract_daily(events: Events,
                  working_hours: str = "08:00-18:00") -> list[BehaviorVector]:
    """Aggregate events into one 16-feature vector per (user, day).

    Only days with at least one event produce a vector; output is sorted
    by (user, day).  Counts and size totals are summed in event order; a
    size total that overflows raises ``SchemaError`` naming user and day.
    """
    start, end = ((t.hour * 60 + t.minute) * 60
                  for t in parse_working_hours(working_hours))
    off = (events.second < start) | (events.second >= end)
    names = sorted(events.user_names)
    rank = {name: i for i, name in enumerate(names)}
    user = np.array([rank[name] for name in events.user_names], dtype=np.int64)
    keys, key_of = np.unique(user[events.user] * _N_DAYS + events.day,
                             return_inverse=True)
    n = len(keys)
    feature = _KIND_FEATURES[events.kind, off.astype(np.intp)]
    counts = np.bincount(key_of * N_FEATURES + feature, minlength=n * N_FEATURES)
    table = counts.reshape(n, N_FEATURES).astype(float)
    day = keys % _N_DAYS
    table[:, _FEATURE_INDEX["weekend"]] = (day - 1) % 7 >= 5  # day 1 is a Monday
    sizes = np.bincount(key_of, weights=events.size, minlength=n)
    if not np.isfinite(sizes).all():
        u, d = divmod(int(keys[np.argmin(np.isfinite(sizes))]), _N_DAYS)
        raise SchemaError(f"user {names[u]} on {date.fromordinal(d)}: device "
                          f"size total is not finite")
    table[:, _FEATURE_INDEX["size"]] = sizes
    return [BehaviorVector(names[u], date.fromordinal(d), vec)
            for u, d, vec in zip((keys // _N_DAYS).tolist(), day.tolist(), table)]


# --------------------------------------------------------------------------
# Split and normalization
# --------------------------------------------------------------------------

def rows_by_user(rows) -> dict[str, list]:
    """Each user's rows in their given order, users sorted."""
    by_user: dict[str, list] = {}
    for row in rows:
        by_user.setdefault(row.user, []).append(row)
    return dict(sorted(by_user.items()))


def split(rows: list[BehaviorVector], train_days: int,
          test_days: int) -> Dataset:
    """Chronological per-user split: the earliest ``train_days`` rows feed
    training (abnormal-labelled ones are excluded and reported), the next
    ``test_days`` rows form the test set, any later rows are dropped."""
    if train_days < 1 or test_days < 0:
        raise ValueError("need train_days >= 1 and test_days >= 0")
    train, test, excluded = [], [], []
    for user, user_rows in rows_by_user(rows).items():
        user_rows = sorted(user_rows, key=lambda r: r.day)
        if len(user_rows) < train_days + test_days:
            raise ValueError(
                f"user {user} has {len(user_rows)} rows, needs at least "
                f"{train_days + test_days}")
        for row in user_rows[:train_days]:
            (excluded if row.label == LABEL_ABNORMAL else train).append(row)
        test.extend(user_rows[train_days:train_days + test_days])
    return Dataset(train=train, test=test, excluded=excluded)


def normalize(dataset: Dataset) -> Dataset:
    """Min-max scale every feature to [0, 1] per user.

    Statistics come from the training rows only; test rows reuse them and
    are clipped into [0, 1], with the out-of-range values counted in
    ``clipped`` since leaving the training range is itself evidence of
    anomaly.  A feature that is constant in training maps to 0.
    """
    if not dataset.train:
        raise ValueError("cannot normalize an empty training set")
    stats = {}
    for user, rows in rows_by_user(dataset.train).items():
        x = np.stack([row.features for row in rows])
        stats[user] = np.min(x, axis=0), np.max(x, axis=0)
    code = {user: i for i, user in enumerate(stats)}
    lo = np.stack([lo for lo, _ in stats.values()])
    span = np.stack([hi for _, hi in stats.values()]) - lo
    safe = np.where(span > 0, span, 1.0)

    def transform(rows: list) -> tuple[list, int]:
        """``rows`` scaled as one matrix, each by its user's statistics,
        and the number of values clipped into [0, 1]."""
        try:
            which = np.array([code[row.user] for row in rows], dtype=np.intp)
        except KeyError as exc:
            raise ValueError(f"user {exc.args[0]} has no training rows") from None
        x = np.stack([row.features for row in rows]) if rows else lo[which]
        scaled = np.where(span[which] > 0, (x - lo[which]) / safe[which], 0.0)
        return ([BehaviorVector(row.user, row.day, values, row.label)
                 for row, values in zip(rows, np.clip(scaled, 0.0, 1.0))],
                np.count_nonzero((scaled < 0.0) | (scaled > 1.0)))

    test, clipped = transform(dataset.test)
    return Dataset(train=transform(dataset.train)[0], test=test, stats=stats,
                   excluded=list(dataset.excluded), clipped=clipped)


def to_simplex(values) -> np.ndarray:
    """Each row of an (n, 16) matrix of [0,1]-scaled features L1-normalized
    onto the probability simplex; an all-zero row maps to the uniform
    distribution."""
    x = np.asarray(values, dtype=float)
    if x.ndim != 2 or x.shape[1] != N_FEATURES:
        raise ValueError(f"expected rows of {N_FEATURES} values, got shape {x.shape}")
    scale = x.sum(axis=1, keepdims=True)
    out = x / np.where(scale > 0.0, scale, 1.0)
    out[scale[:, 0] <= 0.0] = 1.0 / N_FEATURES
    return out


# --------------------------------------------------------------------------
# Feature and label files
# --------------------------------------------------------------------------

def write_features_csv(path: str | Path, rows: list[BehaviorVector],
                       comment: str | None = None) -> None:
    """One line per row, each distinct user, day, value and label
    formatted once."""
    x = np.array([row.features for row in rows]).reshape(-1, N_FEATURES)
    write_columns(path, ["user", "day", *FEATURE_NAMES, "label"], [
        text_fields([row.user for row in rows]),
        text_fields([row.day for row in rows], lambda day: day.isoformat()),
        *float_fields(x).T.tolist(), text_fields([row.label or "" for row in rows])],
        comment)


def check_user_id(user: str) -> str:
    """``user``, if it can be a key and an item of a space-separated list
    in ``detect_summary.txt`` and part of a file name (``loss_<user>.csv``,
    ``qgan-<user>.ckpt``): no whitespace, ``=``, ``/`` or ``\\``."""
    if any(c.isspace() or c in "=/\\" for c in user):
        raise ValueError(f"user id {user!r} contains whitespace, '=' or a "
                         "path separator")
    return user


def _check_label(label: str, allowed: tuple = _LABELS) -> str:
    if label not in allowed:
        raise ValueError(f"label {label!r} is not {' or '.join(map(repr, allowed))}")
    return label


def _feature_label(label: str) -> str | None:
    return _check_label(label, (*_LABELS, "")) or None


def _feature_row(rec: list[str]) -> BehaviorVector:
    values = np.array([float(x) for x in rec[2:2 + N_FEATURES]])
    if not np.isfinite(values).all():
        raise ValueError("feature values must be finite")
    return BehaviorVector(check_user_id(rec[0]), date.fromisoformat(rec[1]), values,
                          _feature_label(rec[-1]))


def _feature_columns(cols: list) -> tuple[list[BehaviorVector], int]:
    """The rows of these feature columns and the index of the first that
    ``_feature_row`` rejects: a bad float reads as NaN, and every row
    holding a non-finite value is rejected."""
    n = len(cols[0])
    cells = [*chain.from_iterable(cols[2:2 + N_FEATURES])]
    x = np.fromiter(convert_cells(cells, float, math.nan)[0], float, len(cells))
    x = x.reshape(N_FEATURES, n).T.copy()
    finite = np.isfinite(x).all(axis=1)
    users, first_user = convert_cells(cols[0], check_user_id)
    days, first_day = convert_cells(cols[1], date.fromisoformat)
    labels, first_label = convert_cells(cols[-1], _feature_label)
    first = min(first_user, first_day, first_label,
                n if finite.all() else int(finite.argmin()))
    return [*map(BehaviorVector, users, days, x, labels)], first


def read_features_csv(path: str | Path) -> list[BehaviorVector]:
    return read_csv(
        path, "features",
        lambda header: header[:2] == ["user", "day"]
        and tuple(header[2:2 + N_FEATURES]) == FEATURE_NAMES,
        N_FEATURES + 3, _feature_columns, _feature_row)


def _label_row(rec: list[str]) -> tuple:
    return (rec[0], date.fromisoformat(rec[1])), _check_label(rec[2])


def _label_columns(cols: list) -> tuple[dict, int]:
    days, first_day = convert_cells(cols[1], date.fromisoformat)
    labels, first_label = convert_cells(cols[2], _check_label)
    return dict(zip(zip(cols[0], days), labels)), min(first_day, first_label)


def read_labels_csv(path: str | Path) -> dict[tuple[str, date], str]:
    return read_csv(path, "labels", lambda header: header == ["user", "day", "label"],
                    3, _label_columns, _label_row)


def attach_labels(rows: list[BehaviorVector],
                  labels: dict[tuple[str, date], str]) -> None:
    for row in rows:
        row.label = labels.get((row.user, row.day), row.label)


# --------------------------------------------------------------------------
# Synthetic log generator
# --------------------------------------------------------------------------

SYNTH_START = date(2011, 1, 3)   # the first synthetic day, a Monday


@dataclass
class SynthConfig:
    n_users: int = 1
    n_days: int = 300
    anomaly_rate: float = 0.05
    seed: int = 0
    out_dir: str | Path = "data"
    working_hours: str = "08:00-18:00"

    def __post_init__(self):
        if not 0.0 <= self.anomaly_rate <= 0.2:
            raise ValueError("anomaly_rate must be in [0, 0.2]")
        if self.n_users < 1 or self.n_days < 1:
            raise ValueError("need at least one user and one day")
        if self.n_days > date.max.toordinal() - SYNTH_START.toordinal() + 1:
            raise ValueError(f"{self.n_days} days from {SYNTH_START} run past "
                             f"{date.max}")


@dataclass
class SynthResult:
    labels: dict       # (user, day) -> label, as labels.csv holds it
    row_counts: dict   # source -> rows written to its log


# Per-user daily Poisson rates: (feature, low, high), drawn in this order.
_SYNTH_RATES = (
    ("login_on", 3.0, 6.0), ("loginoff_on", 3.0, 6.0), ("login_out", 0.1, 0.3),
    ("loginoff_out", 0.1, 0.3), ("http_on", 40.0, 80.0), ("http_out", 0.3, 0.8),
    ("connect_on", 2.0, 5.0), ("connect_out", 0.08, 0.2), ("send_on", 8.0, 20.0),
    ("send_out", 0.1, 0.4), ("file_on", 6.0, 15.0), ("file_off", 0.1, 0.4))
# Extra off-hours events of an anomalous day, drawn in this order; the
# connect burst also adds as many disconnects.
_SYNTH_BURST = (("login_out", 3, 8), ("loginoff_out", 2, 6), ("http_out", 10, 30),
                ("connect_out", 2, 5), ("send_out", 5, 15), ("file_off", 8, 20))
# Single-row events in timestamp draw order: (feature, log).
_SYNTH_EVENTS = (
    ("login_on", "login"), ("login_out", "login"), ("loginoff_on", "login"),
    ("loginoff_out", "login"), ("http_on", "http"), ("http_out", "http"),
    ("send_on", "email"), ("send_out", "email"), ("file_on", "file"), ("file_off", "file"))
_FILE_OPS = ("File Open", "File Write", "File Copy", "File Delete")
_SYNTH_HEADERS = {
    "login": ["id", "date", "user", "pc", "activity"],
    "http": ["id", "date", "user", "pc", "url"],
    "device": ["id", "date", "user", "pc", "size", "activity"],
    "email": ["id", "date", "user", "pc", "to", "activity"],
    "file": ["id", "date", "user", "pc", "filename", "activity"],
}
# The fields after ``pc`` of a non-device row, by the row's index j among its
# log's rows in draw order (the activity, for a login row): each log's
# cycle of them, whose length is the period of j in its fields.
_SYNTH_TAILS = {
    "login": [("Logon",), ("Logoff",)],
    "http": [(f"http://site{j % 7}.example.com/p{j % 13}",) for j in range(91)],
    "email": [(f"peer{j}@example.com", "Send") for j in range(5)],
    "file": [(f"doc{j % 9}.docx", _FILE_OPS[j % 4]) for j in range(36)],
}
# What each value a user-day draws is, by slot: 0-9 the timestamps of
# _SYNTH_EVENTS in order, 10 a transfer size, 11 an oversized one, 12 and
# 13 a connect's timestamp and 14 and 15 a disconnect's, in and out of
# working time.  The draw bounds by slot index the user's ``lo``/``hi``:
# 0 a working-time second, 1 an off-hours one (counted with the window cut
# out), 2 a transfer size, 3 an oversized one.
_SLOT_BOUND = np.array([0, 1] * 5 + [2, 3, 0, 1, 0, 1])
_SLOT_LOG = np.array([LOG_FILES.index(f"{source}.csv") for _, source in _SYNTH_EVENTS]
                     + [-1, -1] + [LOG_FILES.index("device.csv")] * 4, np.int8)
# A day draws these segments in order, each repeated by its count: its
# slots (-1 pads a one-slot segment), then the rate and the burst feature
# whose drawn counts sum to its count.  So the events' timestamps come
# first, then each connect's size and timestamp (plain, burst, then the
# other off-hours ones), then the disconnects' timestamps.
_SEGMENT_TABLE = (
    *(((slot, -1), f, f) for slot, (f, _) in enumerate(_SYNTH_EVENTS)),
    ((10, 12), "connect_on", None),
    ((11, 13), None, "connect_out"),
    ((10, 13), "connect_out", None),
    ((14, -1), "connect_on", None),
    ((15, -1), "connect_out", "connect_out"))
_SEGMENTS = np.array([slots for slots, _, _ in _SEGMENT_TABLE], np.int8)
_RATE_SEGMENTS = np.array([[int(f == rate) for f, _, _ in _SYNTH_RATES]
                           for _, rate, _ in _SEGMENT_TABLE])
_BURST_SEGMENTS = np.array([[int(f == burst) for f, _, _ in _SYNTH_BURST]
                            for _, _, burst in _SEGMENT_TABLE])

_BLOCK_ROWS = 8192  # synth logs are written in blocks of this many rows
_POW10 = 10 ** np.arange(19, dtype=np.int64)
_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), "<u2")  # "00"-"99"
_STAMP_CELLS = np.frombuffer(b"00/00/0000 00:00:00", np.uint8)


def _text_cells(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """ASCII ``texts`` as zero-padded fixed-width bytes, and their lengths."""
    return np.array(texts, "S"), np.array([len(text) for text in texts])


def _digit_count(values: np.ndarray) -> np.ndarray:
    """The number of decimal digits of each value >= 0 (1 for 0)."""
    return np.maximum(np.searchsorted(_POW10, values, side="right"), 1)


def _number_cells(values: np.ndarray, digits: np.ndarray) -> tuple:
    """Each value >= 0 written in its ``digits`` decimal places, zero filled
    on the left: ``(cells, keep)`` for ``_join_cells``, with the digits
    right-aligned in the cells."""
    pairs = -(-int(digits.max(initial=1)) // 2)
    cells = _PAIRS.take(np.stack([values // 100 ** k % 100
                                  for k in range(pairs - 1, -1, -1)], 1))
    return (cells.view(np.uint8), np.arange(2 * pairs) >= 2 * pairs - digits[:, None])


def _stamp_cells(seconds: np.ndarray) -> np.ndarray:
    """Seconds from ``SYNTH_START`` as ``TIMESTAMP_FMT`` stamps, an
    ``(n, 19)`` ``uint8`` table."""
    day, second = np.divmod(seconds, 86400)
    when = np.datetime64(SYNTH_START, "D") + day
    year, month = when.astype("M8[Y]"), when.astype("M8[M]")
    century, decade = np.divmod(year.astype(np.int64) + 1970, 100)
    hour, second = np.divmod(second, 3600)
    # the two-digit numbers of _STAMP_DIGITS: MM/DD/YYYY HH:MM:SS
    numbers = np.stack(((month - year).astype(np.int64) + 1,
                        (when - month).astype(np.int64) + 1, century, decade,
                        hour, second // 60, second % 60), 1)
    cells = np.tile(_STAMP_CELLS, (len(seconds), 1))
    cells[:, _STAMP_DIGITS] = _PAIRS.take(numbers).view(np.uint8)
    return cells


def _join_cells(fields: list) -> np.ndarray:
    """The rows of ``fields``, each a pair of ``(n, width)`` cells and a
    mask of the cells to keep (None for all), as one flat ``uint8`` array:
    row by row, each field's kept cells in turn."""
    cells = np.concatenate([cells for cells, _ in fields], axis=1)
    keep = np.concatenate([np.broadcast_to(True, cells.shape) if keep is None else keep
                           for cells, keep in fields], axis=1)
    return cells[keep]


def _text_field(table: tuple, index: np.ndarray) -> tuple:
    """The ``_join_cells`` field of the texts ``index`` picks from a
    ``_text_cells`` table."""
    texts, length = table
    width = texts.dtype.itemsize
    return (texts.take(index).view(np.uint8).reshape(len(index), width),
            np.arange(width) < length.take(index)[:, None])


def _synth_rows(letter: str, first: int, seconds: np.ndarray, fields: list) -> np.ndarray:
    """The bytes of log rows ``first``, ``first + 1``, ...: each row's id
    (``letter`` and its index in at least 7 digits), its stamp (``seconds``
    from ``SYNTH_START``), then the rest of its ``fields`` (see
    ``_join_cells``)."""
    n = len(seconds)
    index = np.arange(first, first + n)
    return _join_cells([(np.full((n, 1), ord(letter), np.uint8), None),
                        _number_cells(index, np.maximum(_digit_count(index), 7)),
                        (np.full((n, 1), ord(","), np.uint8), None),
                        (_stamp_cells(seconds), None), *fields])


def _log_blocks(letter: str, order: np.ndarray, when: np.ndarray, user: np.ndarray,
                owners: tuple, size: np.ndarray | None, tail: np.ndarray, tails: tuple):
    """The bytes of a synth log's rows in ``order``, ``_BLOCK_ROWS`` at a
    time: id, stamp (``when``), the user's and pc's cells (``owners``), the
    transfer size of a device row, then its cells in ``tails``."""
    for first in range(0, len(order), _BLOCK_ROWS):
        rows = order[first:first + _BLOCK_ROWS]
        fields = [_text_field(owners, user[rows])]
        if size is not None:
            fields.append(_number_cells(size[rows], _digit_count(size[rows])))
        fields.append(_text_field(tails, tail[rows]))
        yield _synth_rows(letter, first, when[rows], fields)


def synth_generate(cfg: SynthConfig) -> SynthResult:
    """Write five CSV logs plus labels.csv with per-user Poisson activity.

    Normal days concentrate activity inside working hours with a small
    out-of-hours trickle (so no feature is constant over a long training
    window).  Anomalous days, drawn per day with ``anomaly_rate``, add
    out-of-hours logins, oversized device transfers and bursts of email
    and file activity.  Each user-day takes at most four array draws (the
    anomaly flag, the Poisson counts, the burst sizes, then every timestamp
    and transfer size), which consume the random stream exactly as one
    scalar draw per value in the same order would.  Byte-identical output
    for identical configs.  Returns each user-day's label and each log's
    row count.

    The draws are kept as arrays, with each value's slot (see
    ``_SLOT_BOUND``).  Each log is sorted by time alone, stably, so rows
    that share a second keep their draw order (user by user, by index),
    and written in blocks of ``_BLOCK_ROWS`` rows of bytes.
    """
    rng = np.random.default_rng(cfg.seed)
    start_h, end_h = parse_working_hours(cfg.working_hours)
    s0 = start_h.hour * 3600 + start_h.minute * 60
    s1 = end_h.hour * 3600 + end_h.minute * 60
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    days = [SYNTH_START + timedelta(days=d) for d in range(cfg.n_days)]
    # Anomalous days are quiet during working hours: the malicious activity
    # happens off-hours while daytime use drops away.
    damp = (np.ones(len(_SYNTH_RATES)),
            np.array([0.4 if f.endswith("_on") else 1.0 for f, _, _ in _SYNTH_RATES]))
    burst_lo, burst_hi = np.array([b[1:] for b in _SYNTH_BURST]).T

    labels: dict[tuple[str, date], str] = {}
    draws, slots, n_draws = [], [], []

    for u in range(cfg.n_users):
        user = f"U{u:04d}"
        rates = np.array([rng.uniform(lo, hi) for _, lo, hi in _SYNTH_RATES])
        rates = (rates * damp[0], rates * damp[1])
        size_hi = int(rng.uniform(400_000, 900_000))
        lo = np.array([s0, 0, 50_000, 20_000_000])[_SLOT_BOUND]
        hi = np.array([s1, 86400 - (s1 - s0), size_hi, 80_000_000])[_SLOT_BOUND]
        user_draws, user_slots = [], []

        for d in days:
            abnormal = bool(rng.random() < cfg.anomaly_rate)
            labels[user, d] = LABEL_ABNORMAL if abnormal else LABEL_NORMAL
            counts = rng.poisson(rates[abnormal])
            counts[0] = max(1, counts[0])  # login_on: every day has data
            segment = _RATE_SEGMENTS @ counts
            if abnormal:
                segment += _BURST_SEGMENTS @ rng.integers(burst_lo, burst_hi)
            slot = _SEGMENTS.repeat(segment, axis=0).ravel()
            slot = slot[slot >= 0]
            user_draws.append(rng.integers(lo[slot], hi[slot]))
            user_slots.append(slot)

        slot = np.concatenate(user_slots)
        value = np.concatenate(user_draws)
        day = np.repeat(np.arange(cfg.n_days), list(map(len, user_slots)))
        # timestamps become seconds from SYNTH_START; sizes stay as drawn
        bound = _SLOT_BOUND[slot]
        value += np.where(bound < 2, day * 86400 + (s1 - s0) * ((bound == 1) & (value >= s0)), 0)
        draws.append(value)
        slots.append(slot.astype(np.int8))
        n_draws.append(len(slot))

    draw, slot = np.concatenate(draws), np.concatenate(slots)
    del draws, slots
    small = np.min_scalar_type(cfg.n_users - 1)  # user indices in the fewest bytes
    owner = np.repeat(np.arange(cfg.n_users, dtype=small), n_draws)
    owners = _text_cells([f",U{u:04d},PC-{u:04d}," for u in range(cfg.n_users)])
    log_of = _SLOT_LOG[slot]

    row_counts = {}
    for k, name in enumerate(LOG_FILES):
        source = name.split(".")[0]
        at = np.flatnonzero(log_of == k)
        if source == "device":
            tail = (slot[at] >= 14).astype(np.int8)  # Connect, Disconnect
            size = np.where(tail, 0, draw[at - 1])   # a connect's size precedes it
            tails = [",Connect\n", ",Disconnect\n"]
        else:
            cycle = _SYNTH_TAILS[source]
            tail = slot[at] // 2 if source == "login" else np.arange(len(at)) % len(cycle)
            tails, size = [",".join(fields) + "\n" for fields in cycle], None
        when, who = draw[at], owner[at]
        order = np.argsort(when, kind="stable")
        del at
        write_blocks(out_dir / name, _SYNTH_HEADERS[source],
                     _log_blocks(source[0].upper(), order, when, who, owners, size,
                                 tail, _text_cells(tails)))
        row_counts[source] = len(order)

    keys = sorted(labels)
    write_columns(out_dir / "labels.csv", ["user", "day", "label"], [
        text_fields([user for user, _ in keys]),
        text_fields([day for _, day in keys], lambda day: day.isoformat()),
        text_fields([labels[key] for key in keys])])
    return SynthResult(labels, row_counts)
