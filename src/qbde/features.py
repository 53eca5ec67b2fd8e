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
from dataclasses import dataclass, field, replace
from datetime import date, datetime, time, timedelta
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .checkpoint import read_csv, write_csv
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
    dropped from the training window; ``clipped`` records test values that
    fell outside [0, 1] before clipping, as (user, day, feature, value).
    """

    train: list
    test: list
    stats: dict | None = None
    excluded: list = field(default_factory=list)
    clipped: list = field(default_factory=list)


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

_CANONICAL_STAMP = re.compile(r"(\d\d/\d\d/\d\d\d\d) (\d\d):(\d\d):(\d\d)", re.ASCII)
_HOUR_S = {f"{h:02d}": 3600 * h for h in range(24)}
_MINUTE_S = {f"{m:02d}": 60 * m for m in range(60)}
_SECOND_S = {f"{s:02d}": s for s in range(60)}
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

_CHUNK_BYTES = 1 << 16  # logs are read in chunks of whole lines of about this size
_PAD = 19  # zero bytes after a chunk's text, so no fixed-width read runs off it
_FIRST_LINE = re.compile(r"[^\r\n]*(?:\r\n?|\n)?")
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


def _calendar_day(date_part: str, days: dict) -> int:
    """The ordinal of a canonical ``MM/DD/YYYY`` date (ASCII digits) through
    the ``days`` cache; ``ValueError`` for a date like 02/30 or a year 0000,
    where strptime's ``%m/%d/%Y`` gives one too."""
    day = days.get(date_part)
    if day is None:
        day = days[date_part] = date(int(date_part[6:]), int(date_part[:2]),
                                     int(date_part[3:5])).toordinal()
    return day


def _read_stamp(stamp: str, days: dict) -> tuple[int, int]:
    """(day ordinal, second of the day) of a stripped stamp.  A canonical
    ASCII ``MM/DD/YYYY HH:MM:SS`` stamp is read field by field (``KeyError``
    for hour 24, say); any other stamp gets strptime's verdict."""
    match = _CANONICAL_STAMP.fullmatch(stamp)
    if match:
        date_part, hh, mm, ss = match.groups()
        return (_calendar_day(date_part, days),
                _HOUR_S[hh] + _MINUTE_S[mm] + _SECOND_S[ss])
    when = datetime.strptime(stamp, TIMESTAMP_FMT)
    return when.toordinal(), (when.hour * 60 + when.minute) * 60 + when.second


def _text_chunks(path: Path, handle):
    """The text of a log opened in binary mode, in chunks of whole lines of
    about ``_CHUNK_BYTES`` each; bytes that are not UTF-8 raise
    ``SchemaError`` naming their line."""
    offset, rest = 0, b""
    while True:
        block = handle.read(_CHUNK_BYTES)
        raw = rest + block
        if not raw:
            return
        # cut after the last LF, or the last CR in a log whose lines end
        # at CR; a longer line waits for the next block
        cut = (raw.rfind(b"\n") + 1 or raw.rfind(b"\r") + 1) if block else len(raw)
        if not cut:
            rest = raw
            continue
        raw, rest = raw[:cut], raw[cut:]
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
    """The UTF-8 bytes of ``text``, then zeros, as ``uint8``, and the start
    and stop byte offsets of the fields of its non-blank lines as ``(rows,
    width)`` arrays, if csv would split each line at every comma into
    ``width`` fields: no quote (the caller checks), no carriage return but
    one that ends a line before its LF, no NUL (which csv rejects before
    Python 3.11) and no line over ``csv.field_size_limit()`` bytes.  None
    for any other text."""
    if "\0" in text:
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):   # a lone CR ends a line too
            return None
        text = text.replace("\r\n", "\n")
    code = np.frombuffer(text.encode() + bytes(_PAD), np.uint8)
    ends = np.flatnonzero(code == 10)
    if text and text[-1] != "\n":
        ends = np.append(ends, len(code) - _PAD)  # a last line without its newline
    length = np.diff(ends, prepend=-1) - 1
    if length.max(initial=0) > csv.field_size_limit():
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
    return code, seps[:, :-1] + 1, seps[:, 1:]


def _distinct(code: np.ndarray, start: np.ndarray, stop: np.ndarray) -> tuple:
    """The distinct values of a column's fields (``code[start:stop]`` each),
    decoded, and each field's index among them.  A field of up to 8 bytes
    is keyed by one ``uint64`` read from an 8-byte window; a column with a
    longer field by fixed-width bytes, or past a size bound by ``bytes``."""
    length = stop - start
    width = int(length.max(initial=0))
    if width <= 8:
        keys = np.ndarray((len(code) - 7,), "<u8", code, 0, (1,))[start] & _LOW_BYTES[length]
    elif len(start) * width <= 8 * len(code):
        cells = start[:, None] + np.arange(width)
        keys = (code.take(cells, mode="clip") * (cells < stop[:, None])).view(f"S{width}")
    else:
        text = code.tobytes()
        keys = np.array([text[i:j] for i, j in zip(start.tolist(), stop.tolist())], object)
    distinct, index = np.unique(keys, return_inverse=True)
    if width <= 8:
        distinct = distinct.astype("<u8").view("S8")  # no field holds a NUL
    return [raw.decode() for raw in distinct.tolist()], index.ravel()


def _parse_rows(reader, pick: tuple, source: str, days: dict, kinds: dict,
                users: dict) -> tuple:
    """Decode every record of a ``csv.reader`` row by row: the event columns
    (user, day, second, kind, size) and the counts of malformed, unknown
    and ignored rows."""
    i_user, i_date, i_act, i_size = pick
    flat, n_bad, n_unknown, n_ignored = [], 0, 0, 0
    while True:
        try:
            for rec in reader:
                if not rec:
                    continue  # a blank line is not a row
                n = len(rec)
                user = rec[i_user].strip() if i_user < n else ""
                stamp = rec[i_date].strip() if i_date < n else ""
                try:
                    if not user or not stamp:
                        raise ValueError("missing user or date")
                    day, second = _read_stamp(stamp, days)
                    size = _parse_size(rec[i_size] if i_size < n else "") \
                        if source == "device" else 0
                except (KeyError, ValueError):
                    n_bad += 1
                    continue
                raw = rec[i_act] if i_act < n else ""
                kind = kinds.get(raw)
                if kind is None:
                    kind = kinds[raw] = _activity_kind(source, raw)
                if kind < 0:
                    n_unknown += kind == _UNKNOWN
                    n_ignored += kind == _IGNORED
                    continue
                flat += (users.setdefault(user, len(users)), day, second, kind, size)
            break
        except csv.Error:  # a field over csv.field_size_limit(), say;
            n_bad += 1     # the reader resumes at the next line
    table = np.array(flat, dtype=float).reshape(-1, 5)
    return (*table[:, :4].T.astype(np.int64), table[:, 4]), n_bad, n_unknown, n_ignored


def _parse_plain(table: tuple, width: int, pick: tuple, source: str, days: dict,
                 kinds: dict, users: dict) -> tuple:
    """What ``_parse_rows`` returns for the rows of ``table`` (see
    ``_plain_fields``), decoded a column at a time from each field's bytes:
    users, activities and dates once per distinct value, canonical stamps
    and sizes of 1 to 15 ASCII digits from their bytes.  Any other stamp or
    size goes through the per-row rules."""
    code, start, stop = table
    n = len(start)
    i_user, i_date, i_act, i_size = pick
    if not n or i_user >= width or i_date >= width:  # no user or no date:
        return _NO_EVENTS, n, 0, 0                   # every row is malformed
    names, user = _distinct(code, start[:, i_user], stop[:, i_user])
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
    _, first, which = np.unique(digits[rows, :8] @ _DATE_WEIGHTS,
                                return_index=True, return_inverse=True)
    ordinals = []
    for i in rows[first].tolist():
        try:
            ordinals.append(_calendar_day(stamp[i, :10].tobytes().decode(), days))
        except ValueError:
            ordinals.append(0)
    day[rows] = np.array(ordinals, np.int64)[which]
    hms = digits[rows, 8:]
    ok[rows] &= ((day[rows] > 0) & (hms[:, 0] * 10 + hms[:, 1] < 24)
                 & (hms[:, 2] < 6) & (hms[:, 4] < 6))
    for i in np.flatnonzero(ok & ~canonical).tolist():
        try:
            day[i], second[i] = _read_stamp(code[at[i]:to[i]].tobytes().decode().strip(), days)
        except (KeyError, ValueError):
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
    acts, act = (_distinct(code, start[:, i_act], stop[:, i_act]) if i_act < width
                 else ([""], np.zeros(n, np.intp)))
    for raw in set(acts).difference(kinds):
        kinds[raw] = _activity_kind(source, raw)
    kind = np.array([kinds[raw] for raw in acts], np.int64)[act]
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
                days: dict, columns: list) -> None:
    """Stream one log in chunks, appending each chunk's event columns to
    ``columns`` and counting the log's rows in ``report``.  A plain chunk
    (see ``_plain_fields``) is decoded a column at a time, any other chunk
    row by row; from the first quote on, the rest of the file goes row by
    row, since a quoted field may span lines."""
    kinds: dict[str, int] = {}
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
        args = pick, source, days, kinds, users
        if quoted:
            parts = [_parse_rows(reader, *args)]
        else:
            parts = []
            for text in chain([text[len(head):]], chunks):
                if '"' in text:
                    parts.append(_parse_rows(
                        csv.reader(_lines(chain([text], chunks))), *args))
                    break
                table = _plain_fields(text, width)
                parts.append(_parse_rows(csv.reader(_lines([text])), *args)
                             if table is None else _parse_plain(table, width, *args))
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
    report, users, days, columns = ParseReport(), {}, {}, []
    for filename in LOG_FILES:
        _parse_file(Path(log_dir) / filename, filename.split(".")[0], report,
                    users, days, columns)
    user, day, second, kind, size = (np.concatenate(part)
                                     for part in zip(_NO_EVENTS, *columns))
    return Events(list(users), user, day, second, kind, size), report


# --------------------------------------------------------------------------
# Daily aggregation
# --------------------------------------------------------------------------

def parse_working_hours(value: str) -> tuple[time, time]:
    """The half-open [start, end) window of an "HH:MM-HH:MM" string."""
    parts = str(value).split("-")
    if len(parts) != 2:
        raise ValueError(f"working hours must look like '08:00-18:00', got {value!r}")

    def one(text):
        hh, _, mm = text.strip().partition(":")
        return time(int(hh), int(mm or 0))

    start, end = map(one, parts)
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
    are clipped into [0, 1], with each out-of-range value recorded in
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

    def transform(rows: list, clip_log=None) -> list:
        """``rows`` scaled as one matrix, each by its user's statistics."""
        try:
            which = np.array([code[row.user] for row in rows], dtype=np.intp)
        except KeyError as exc:
            raise ValueError(f"user {exc.args[0]} has no training rows") from None
        x = np.stack([row.features for row in rows]) if rows else lo[which]
        scaled = np.where(span[which] > 0, (x - lo[which]) / safe[which], 0.0)
        if clip_log is not None:
            for i, j in zip(*np.nonzero((scaled < 0.0) | (scaled > 1.0))):
                clip_log.append((rows[i].user, rows[i].day, FEATURE_NAMES[j],
                                 float(scaled[i, j])))
        return [replace(row, features=values)
                for row, values in zip(rows, np.clip(scaled, 0.0, 1.0))]

    clipped: list = []
    return Dataset(
        train=transform(dataset.train),
        test=transform(dataset.test, clipped),
        stats=stats,
        excluded=list(dataset.excluded),
        clipped=clipped,
    )


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
    write_csv(path, ["user", "day", *FEATURE_NAMES, "label"],
              ([row.user, row.day.isoformat(), *row.features.tolist(),
                row.label or ""] for row in rows), comment)


def check_user_id(user: str) -> str:
    """``user``, if it can be a key and an item of a space-separated list
    in ``detect_summary.txt`` and part of a file name (``loss_<user>.csv``,
    ``qgan-<user>.ckpt``): no whitespace, ``=``, ``/`` or ``\\``."""
    if any(c.isspace() or c in "=/\\" for c in user):
        raise ValueError(f"user id {user!r} contains whitespace, '=' or a "
                         "path separator")
    return user


def _feature_row(rec: list[str]) -> BehaviorVector:
    values = np.array([float(x) for x in rec[2:2 + N_FEATURES]])
    if not np.isfinite(values).all():
        raise ValueError("feature values must be finite")
    return BehaviorVector(check_user_id(rec[0]), date.fromisoformat(rec[1]),
                          values, rec[-1] or None)


def read_features_csv(path: str | Path) -> list[BehaviorVector]:
    return read_csv(
        path, "features",
        lambda header: header[:2] == ["user", "day"]
        and tuple(header[2:2 + N_FEATURES]) == FEATURE_NAMES,
        N_FEATURES + 3, _feature_row)


def read_labels_csv(path: str | Path) -> dict[tuple[str, date], str]:
    return dict(read_csv(
        path, "labels", lambda header: header == ["user", "day", "label"], 3,
        lambda rec: ((rec[0], date.fromisoformat(rec[1])), rec[2])))


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
    paths: dict
    labels: dict
    truth: dict        # (user, day) -> raw 16-feature vector the logs encode
    row_counts: dict


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
# Single-row events in timestamp draw order: (feature, log, activity).
_SYNTH_EVENTS = (
    ("login_on", "login", "Logon"), ("login_out", "login", "Logon"),
    ("loginoff_on", "login", "Logoff"), ("loginoff_out", "login", "Logoff"),
    ("http_on", "http", None), ("http_out", "http", None),
    ("send_on", "email", "Send"), ("send_out", "email", "Send"),
    ("file_on", "file", None), ("file_off", "file", None))
_FILE_OPS = ("File Open", "File Write", "File Copy", "File Delete")
_TWO_DIGITS = tuple(f"{i:02d}" for i in range(60))


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
    for identical configs; the returned ``truth`` holds exactly the daily
    counts the logs encode.
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

    tables: dict[str, list] = {name.split(".")[0]: [] for name in LOG_FILES}
    labels: dict[tuple[str, date], str] = {}
    truth: dict[tuple[str, date], np.ndarray] = {}

    for u in range(cfg.n_users):
        user = f"U{u:04d}"
        pc = f"PC-{u:04d}"
        rates = np.array([rng.uniform(lo, hi) for _, lo, hi in _SYNTH_RATES])
        size_hi = int(rng.uniform(400_000, 900_000))
        # Bounds by draw code: 0 a working-time second, 1 an off-hours one
        # (counted with the window cut out), 2 a transfer size, 3 a burst one.
        lo = np.array([s0, 0, 50_000, 20_000_000])
        hi = np.array([s1, 86400 - (s1 - s0), size_hi, 80_000_000])

        for d, day in enumerate(days):
            abnormal = bool(rng.random() < cfg.anomaly_rate)
            counts = dict(zip((f for f, _, _ in _SYNTH_RATES),
                              rng.poisson(rates * damp[abnormal]).tolist()))
            counts["login_on"] = max(1, counts["login_on"])  # every day has data
            burst = 0
            if abnormal:
                extra = rng.integers(burst_lo, burst_hi).tolist()
                for (feat, _, _), k in zip(_SYNTH_BURST, extra):
                    counts[feat] += k
                burst = extra[3]  # connects whose transfers are oversized
            counts["disconnect_on"] = counts["connect_on"]
            counts["disconnect_out"] = counts["connect_out"]

            # The day's draws in the scalar order: the events' timestamps,
            # each connect's size then timestamp, the disconnects' timestamps.
            codes = []
            for feat, _, _ in _SYNTH_EVENTS:
                codes += [int(not feat.endswith("_on"))] * counts[feat]
            codes += ([2, 0] * counts["connect_on"] + [3, 1] * burst
                      + [2, 1] * (counts["connect_out"] - burst)
                      + [0] * counts["disconnect_on"] + [1] * counts["disconnect_out"])
            codes = np.array(codes)
            draws = rng.integers(lo[codes], hi[codes])
            off = (codes == 1) & (draws >= s0)
            # timestamps become seconds from SYNTH_START; sizes stay as drawn
            draws += np.where(codes < 2, d * 86400 + (s1 - s0) * off, 0)
            values = iter(draws.tolist())

            for feat, source, activity in _SYNTH_EVENTS:
                table = tables[source]
                for when in islice(values, counts[feat]):
                    j = len(table)
                    if source == "http":
                        rest = (f"http://site{j % 7}.example.com/p{j % 13}",)
                    elif source == "file":
                        rest = (f"doc{j % 9}.docx", _FILE_OPS[j % 4])
                    elif source == "email":
                        rest = (f"peer{j % 5}@example.com", activity)
                    else:
                        rest = (activity,)
                    table.append((when, user, pc, *rest))
            size = 0
            for _ in range(counts["connect_on"] + counts["connect_out"]):
                size_k, when = next(values), next(values)
                size += size_k
                tables["device"].append((when, user, pc, str(size_k), "Connect"))
            for when in values:
                tables["device"].append((when, user, pc, "0", "Disconnect"))

            vec = np.zeros(N_FEATURES)
            for feat, count in counts.items():
                vec[_FEATURE_INDEX[feat]] = count
            vec[_FEATURE_INDEX["weekend"]] = 1.0 if day.weekday() >= 5 else 0.0
            vec[_FEATURE_INDEX["size"]] = size
            truth[(user, day)] = vec
            labels[(user, day)] = LABEL_ABNORMAL if abnormal else LABEL_NORMAL

    headers = {
        "login": ["id", "date", "user", "pc", "activity"],
        "http": ["id", "date", "user", "pc", "url"],
        "device": ["id", "date", "user", "pc", "size", "activity"],
        "email": ["id", "date", "user", "pc", "to", "activity"],
        "file": ["id", "date", "user", "pc", "filename", "activity"],
    }
    prefix = [day.strftime("%m/%d/%Y ") for day in days]

    def stamp(seconds: int) -> str:
        d, s = divmod(seconds, 86400)
        return (f"{prefix[d]}{_TWO_DIGITS[s // 3600]}:{_TWO_DIGITS[s // 60 % 60]}"
                f":{_TWO_DIGITS[s % 60]}")

    paths, row_counts = {}, {}
    for source, rows in tables.items():
        rows.sort()  # by time, then the other fields
        path, letter = out_dir / f"{source}.csv", source[0].upper()
        write_csv(path, headers[source],
                  ([f"{letter}{i:07d}", stamp(when), *rest]
                   for i, (when, *rest) in enumerate(rows)))
        paths[source] = path
        row_counts[source] = len(rows)

    labels_path = out_dir / "labels.csv"
    write_csv(labels_path, ["user", "day", "label"],
              ([user, day.isoformat(), label]
               for (user, day), label in sorted(labels.items())))
    paths["labels"] = labels_path
    return SynthResult(paths, labels, truth, row_counts)
