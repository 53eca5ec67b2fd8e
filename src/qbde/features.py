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
import math
import re
import sys
from dataclasses import dataclass, field, replace
from datetime import date, datetime, time, timedelta
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


def _parse_file(path: Path, source: str, report: ParseReport, users: dict,
                days: dict, flat: list) -> None:
    """Stream one log, extending ``flat`` by (user, day, second, kind, size)
    per event and counting its rows in ``report``.  A canonical ASCII
    ``MM/DD/YYYY HH:MM:SS`` stamp is read field by field, its date through
    ``days`` (filled by strptime, which rejects 02/30); any other stamp
    gets strptime's verdict."""
    start, n_bad, n_unknown, n_ignored = len(flat), 0, 0, 0
    kinds: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
        except csv.Error as exc:
            raise SchemaError(f"{path}: line 1: {exc}") from exc
        # a repeated name reads its last column; a missing one reads as
        # empty, like a column past the end of a short row
        where = {name: i for i, name in enumerate(header)}
        i_user, i_date, i_act, i_size = (where.get(name, sys.maxsize) for name in
                                         ("user", "date", "activity", "size"))
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
                        match = _CANONICAL_STAMP.fullmatch(stamp)
                        if match:
                            date_part, hh, mm, ss = match.groups()
                            day = days.get(date_part) or days.setdefault(
                                date_part,
                                datetime.strptime(date_part, "%m/%d/%Y").toordinal())
                            second = _HOUR_S[hh] + _MINUTE_S[mm] + _SECOND_S[ss]
                        else:
                            when = datetime.strptime(stamp, TIMESTAMP_FMT)
                            day = when.toordinal()
                            second = (when.hour * 60 + when.minute) * 60 + when.second
                        size = _parse_size(rec[i_size] if i_size < n else "") \
                            if source == "device" else 0
                    except (KeyError, ValueError):  # KeyError: hour 24, say
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
    n_events = (len(flat) - start) // 5
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
    missing or unreadable file raises ``OSError``.
    """
    report, users, days, flat = ParseReport(), {}, {}, []
    for filename in LOG_FILES:
        _parse_file(Path(log_dir) / filename, filename.split(".")[0], report,
                    users, days, flat)
    table = np.array(flat, dtype=float).reshape(-1, 5)
    user, day, second, kind = table[:, :4].T.astype(np.int64)
    return Events(list(users), user, day, second, kind, table[:, 4]), report


# --------------------------------------------------------------------------
# Daily aggregation
# --------------------------------------------------------------------------

def parse_working_hours(value) -> tuple[time, time]:
    """Accepts "HH:MM-HH:MM", a (start, end) pair of hours/"HH:MM" strings,
    or datetime.time values; returns the half-open [start, end) window."""
    if isinstance(value, str):
        parts = value.split("-")
        if len(parts) != 2:
            raise ValueError(f"working hours must look like '08:00-18:00', got {value!r}")
        value = tuple(parts)
    start, end = value

    def one(v):
        if isinstance(v, time):
            return v
        if isinstance(v, int):
            return time(v, 0)
        hh, _, mm = str(v).strip().partition(":")
        return time(int(hh), int(mm or 0))

    start, end = one(start), one(end)
    if not start < end:
        raise ValueError("working hours must satisfy start < end")
    return start, end


def extract_daily(events: Events,
                  working_hours=("08:00", "18:00")) -> list[BehaviorVector]:
    """Aggregate events into one 16-feature vector per (user, day).

    Only days with at least one event produce a vector; output is sorted
    by (user, day).  Counts and size totals are summed in event order; a
    size total that overflows raises ``SchemaError`` naming user and day.
    """
    start, end = ((t.hour * 60 + t.minute) * 60 + t.second + t.microsecond / 1e6
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

def split(rows: list[BehaviorVector], train_days: int,
          test_days: int) -> Dataset:
    """Chronological per-user split: the earliest ``train_days`` rows feed
    training (abnormal-labelled ones are excluded and reported), the next
    ``test_days`` rows form the test set, any later rows are dropped."""
    if train_days < 1 or test_days < 0:
        raise ValueError("need train_days >= 1 and test_days >= 0")
    by_user: dict[str, list[BehaviorVector]] = {}
    for row in rows:
        by_user.setdefault(row.user, []).append(row)
    train, test, excluded = [], [], []
    for user in sorted(by_user):
        user_rows = sorted(by_user[user], key=lambda r: r.day)
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
    grouped: dict[str, list[np.ndarray]] = {}
    for row in dataset.train:
        grouped.setdefault(row.user, []).append(row.features)
    stats = {user: (np.min(np.stack(mats), axis=0), np.max(np.stack(mats), axis=0))
             for user, mats in grouped.items()}

    def transform(row: BehaviorVector, clip_log=None) -> BehaviorVector:
        if row.user not in stats:
            raise ValueError(f"user {row.user} has no training rows")
        lo, hi = stats[row.user]
        span = hi - lo
        safe = np.where(span > 0, span, 1.0)
        scaled = np.where(span > 0, (row.features - lo) / safe, 0.0)
        if clip_log is not None:
            for j in np.nonzero((scaled < 0.0) | (scaled > 1.0))[0]:
                clip_log.append((row.user, row.day, FEATURE_NAMES[j], float(scaled[j])))
        return replace(row, features=np.clip(scaled, 0.0, 1.0))

    clipped: list = []
    return Dataset(
        train=[transform(r) for r in dataset.train],
        test=[transform(r, clipped) for r in dataset.test],
        stats=stats,
        excluded=list(dataset.excluded),
        clipped=clipped,
    )


def to_simplex(values: np.ndarray) -> tuple[np.ndarray, float]:
    """L1-normalize a [0,1]-scaled feature vector onto the probability
    simplex; returns (simplex vector, original L1 mass).  An all-zero
    vector maps to the uniform distribution."""
    values = np.asarray(values, dtype=float)
    if values.shape != (N_FEATURES,):
        raise ValueError(f"expected {N_FEATURES} values")
    scale = float(values.sum())
    if scale <= 0.0:
        return np.full(N_FEATURES, 1.0 / N_FEATURES), 0.0
    return values / scale, scale


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
    in ``detect_summary.txt``: no whitespace and no ``=``."""
    if any(c.isspace() or c == "=" for c in user):
        raise ValueError(f"user id {user!r} contains whitespace or '='")
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

@dataclass
class SynthConfig:
    n_users: int = 1
    n_days: int = 300
    anomaly_rate: float = 0.05
    seed: int = 0
    out_dir: str | Path = "data"
    start_day: date = date(2011, 1, 3)
    working_hours: tuple | str = ("08:00", "18:00")

    def __post_init__(self):
        if not 0.0 <= self.anomaly_rate <= 0.2:
            raise ValueError("anomaly_rate must be in [0, 0.2]")
        if self.n_users < 1 or self.n_days < 1:
            raise ValueError("need at least one user and one day")


@dataclass
class SynthResult:
    paths: dict
    labels: dict
    truth: dict        # (user, day) -> raw 16-feature vector the logs encode
    row_counts: dict


def _window_seconds(rng: np.random.Generator, on: bool,
                    start: time, end: time) -> int:
    s0 = start.hour * 3600 + start.minute * 60
    s1 = end.hour * 3600 + end.minute * 60
    if on:
        return int(rng.integers(s0, s1))
    r = int(rng.integers(0, 86400 - (s1 - s0)))
    return r if r < s0 else r + (s1 - s0)


def synth_generate(cfg: SynthConfig) -> SynthResult:
    """Write five CSV logs plus labels.csv with per-user Poisson activity.

    Normal days concentrate activity inside working hours with a small
    out-of-hours trickle (so no feature is constant over a long training
    window).  Anomalous days, drawn per day with ``anomaly_rate``, add
    out-of-hours logins, oversized device transfers and bursts of email
    and file activity.  Byte-identical output for identical configs; the
    returned ``truth`` holds exactly the daily counts the logs encode.
    """
    rng = np.random.default_rng(cfg.seed)
    start_h, end_h = parse_working_hours(cfg.working_hours)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tables: dict[str, list] = {name.split(".")[0]: [] for name in LOG_FILES}
    labels: dict[tuple[str, date], str] = {}
    truth: dict[tuple[str, date], np.ndarray] = {}

    for u in range(cfg.n_users):
        user = f"U{u:04d}"
        pc = f"PC-{u:04d}"
        prof = {
            "login_on": rng.uniform(3.0, 6.0),
            "loginoff_on": rng.uniform(3.0, 6.0),
            "login_out": rng.uniform(0.1, 0.3),
            "loginoff_out": rng.uniform(0.1, 0.3),
            "http_on": rng.uniform(40.0, 80.0),
            "http_out": rng.uniform(0.3, 0.8),
            "connect_on": rng.uniform(2.0, 5.0),
            "connect_out": rng.uniform(0.08, 0.2),
            "send_on": rng.uniform(8.0, 20.0),
            "send_out": rng.uniform(0.1, 0.4),
            "file_on": rng.uniform(6.0, 15.0),
            "file_off": rng.uniform(0.1, 0.4),
        }
        size_lo, size_hi = 50_000, int(rng.uniform(400_000, 900_000))

        for d in range(cfg.n_days):
            day = cfg.start_day + timedelta(days=d)
            abnormal = bool(rng.random() < cfg.anomaly_rate)
            # Anomalous days are quiet during working hours: the malicious
            # activity happens off-hours while daytime use drops away.
            on_damp = 0.4 if abnormal else 1.0
            counts = {k: int(rng.poisson(rate * (on_damp if k.endswith("_on")
                                                 else 1.0)))
                      for k, rate in prof.items()}
            counts["login_on"] = max(1, counts["login_on"])  # every day has data
            counts["disconnect_on"] = counts["connect_on"]
            counts["disconnect_out"] = counts["connect_out"]

            burst_connects = 0
            if abnormal:
                counts["login_out"] += int(rng.integers(3, 8))
                counts["loginoff_out"] += int(rng.integers(2, 6))
                counts["http_out"] += int(rng.integers(10, 30))
                burst_connects = int(rng.integers(2, 5))
                counts["connect_out"] += burst_connects
                counts["disconnect_out"] += burst_connects
                counts["send_out"] += int(rng.integers(5, 15))
                counts["file_off"] += int(rng.integers(8, 20))

            vec = np.zeros(N_FEATURES)
            vec[_FEATURE_INDEX["weekend"]] = 1.0 if day.weekday() >= 5 else 0.0
            labels[(user, day)] = LABEL_ABNORMAL if abnormal else LABEL_NORMAL

            def stamp(on: bool) -> datetime:
                sec = _window_seconds(rng, on, start_h, end_h)
                return datetime.combine(day, time(sec // 3600, sec % 3600 // 60,
                                                  sec % 60))

            for feat, source, extra in (
                    ("login_on", "login", ["Logon"]),
                    ("login_out", "login", ["Logon"]),
                    ("loginoff_on", "login", ["Logoff"]),
                    ("loginoff_out", "login", ["Logoff"]),
                    ("http_on", "http", None),
                    ("http_out", "http", None),
                    ("send_on", "email", ["Send"]),
                    ("send_out", "email", ["Send"]),
                    ("file_on", "file", None),
                    ("file_off", "file", None)):
                on = feat.endswith("_on")
                for _ in range(counts[feat]):
                    vec[_FEATURE_INDEX[feat]] += 1.0
                    when = stamp(on)
                    if source == "http":
                        j = len(tables["http"])
                        tables["http"].append((when, user, pc,
                                               f"http://site{j % 7}.example.com/p{j % 13}"))
                    elif source == "file":
                        j = len(tables["file"])
                        op = ("File Open", "File Write", "File Copy",
                              "File Delete")[j % 4]
                        tables["file"].append((when, user, pc, f"doc{j % 9}.docx", op))
                    elif source == "email":
                        j = len(tables["email"])
                        tables["email"].append((when, user, pc,
                                                f"peer{j % 5}@example.com", *extra))
                    else:
                        tables["login"].append((when, user, pc, *extra))

            # Device pairs; the anomalous burst carries oversized transfers.
            for feat, active in (("connect_on", True), ("connect_out", True),
                                 ("disconnect_on", False), ("disconnect_out", False)):
                on = feat.endswith("_on")
                for k in range(counts[feat]):
                    vec[_FEATURE_INDEX[feat]] += 1.0
                    size = 0
                    if active:
                        huge = (not on) and abnormal and k < burst_connects
                        size = int(rng.integers(20_000_000, 80_000_000)) if huge \
                            else int(rng.integers(size_lo, size_hi))
                        vec[_FEATURE_INDEX["size"]] += size
                    tables["device"].append((stamp(on), user, pc, str(size),
                                             "Connect" if active else "Disconnect"))
            truth[(user, day)] = vec

    headers = {
        "login": ["id", "date", "user", "pc", "activity"],
        "http": ["id", "date", "user", "pc", "url"],
        "device": ["id", "date", "user", "pc", "size", "activity"],
        "email": ["id", "date", "user", "pc", "to", "activity"],
        "file": ["id", "date", "user", "pc", "filename", "activity"],
    }
    paths, row_counts = {}, {}
    for source, rows in tables.items():
        rows.sort()  # by time, then the other fields
        path = out_dir / f"{source}.csv"
        write_csv(path, headers[source],
                  ([f"{source[0].upper()}{i:07d}", when.strftime(TIMESTAMP_FMT),
                    *rest] for i, (when, *rest) in enumerate(rows)))
        paths[source] = path
        row_counts[source] = len(rows)

    labels_path = out_dir / "labels.csv"
    write_csv(labels_path, ["user", "day", "label"],
              ([user, day.isoformat(), label]
               for (user, day), label in sorted(labels.items())))
    paths["labels"] = labels_path
    return SynthResult(paths, labels, truth, row_counts)
