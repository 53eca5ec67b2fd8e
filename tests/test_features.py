"""Parsing, aggregation, normalization and the synthetic generator."""

import csv
import math
import tempfile
from dataclasses import dataclass
from datetime import date, datetime, time, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbde.errors import SchemaError
from qbde.features import (
    FEATURE_NAMES,
    KINDS,
    LOG_FILES,
    N_FEATURES,
    TIMESTAMP_FMT,
    BehaviorVector,
    Dataset,
    ParseReport,
    SynthConfig,
    attach_labels,
    extract_daily,
    normalize,
    parse_logs,
    parse_working_hours,
    read_features_csv,
    read_labels_csv,
    split,
    synth_generate,
    to_simplex,
    write_features_csv,
)

FI = {name: i for i, name in enumerate(FEATURE_NAMES)}


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def minimal_logs(tmp_path, login_rows=(), http_rows=(), device_rows=(),
                 email_rows=(), file_rows=()):
    write_lines(tmp_path / "login.csv",
                ["id,date,user,pc,activity", *login_rows])
    write_lines(tmp_path / "http.csv", ["id,date,user,pc,url", *http_rows])
    write_lines(tmp_path / "device.csv",
                ["id,date,user,pc,size,activity", *device_rows])
    write_lines(tmp_path / "email.csv",
                ["id,date,user,pc,to,activity", *email_rows])
    write_lines(tmp_path / "file.csv",
                ["id,date,user,pc,filename,activity", *file_rows])


def event_at(events, i):
    """Event ``i`` of the parsed columns as (user, timestamp, kind, size)."""
    when = datetime.fromordinal(int(events.day[i])) + timedelta(
        seconds=int(events.second[i]))
    return (events.user_names[events.user[i]], when, KINDS[events.kind[i]],
            events.size[i])


def daily(tmp_path, **rows):
    """Feature rows of log files holding ``rows``."""
    tmp_path.mkdir(exist_ok=True)
    minimal_logs(tmp_path, **rows)
    return extract_daily(parse_logs(tmp_path)[0])


# --------------------------------------------------------------------------
# parse_logs
# --------------------------------------------------------------------------

def test_parse_login_row(tmp_path):
    minimal_logs(tmp_path, login_rows=["L1,01/02/2011 08:15:00,U1,PC-1,Logon"])
    events, report = parse_logs(tmp_path)
    assert len(events) == 1
    user, when, kind, _ = event_at(events, 0)
    assert kind == "login"
    assert user == "U1"
    assert when == datetime(2011, 1, 2, 8, 15)
    assert report.total_events() == 1


def test_parse_headers_only(tmp_path):
    minimal_logs(tmp_path)
    events, report = parse_logs(tmp_path)
    assert len(events) == 0
    assert report.total_events() == 0
    assert sum(report.malformed.values()) == 0


def test_parse_counts_malformed_rows(tmp_path):
    minimal_logs(tmp_path, login_rows=[
        "L1,01/02/2011 08:15:00,U1,PC-1,Logon",
        "L2,01/02/2011 09:15:00,U1,PC-1,Logoff",
        "L3,01/02/2011 10:15:00,U1,PC-1,Logon",
        "L4,not-a-date,U1,PC-1,Logon",
    ])
    events, report = parse_logs(tmp_path)
    assert len(events) == 3
    assert report.malformed["login"] == 1


def test_parse_unknown_activity_counted_not_fatal(tmp_path):
    minimal_logs(tmp_path, device_rows=[
        "D1,01/02/2011 08:15:00,U1,PC-1,1000,Connect",
        "D2,01/02/2011 08:25:00,U1,PC-1,,Teleport",
    ])
    events, report = parse_logs(tmp_path)
    assert len(events) == 1
    assert events.size[0] == 1000
    assert report.unknown_activity["device"] == 1


def test_parse_email_view_is_ignored_not_unknown(tmp_path):
    minimal_logs(tmp_path, email_rows=[
        "E1,01/02/2011 08:15:00,U1,PC-1,a@x.com,Send",
        "E2,01/02/2011 08:16:00,U1,PC-1,a@x.com,View",
    ])
    events, report = parse_logs(tmp_path)
    assert len(events) == 1
    assert report.ignored["email"] == 1
    assert report.unknown_activity["email"] == 0


def test_parse_missing_file_is_io_error(tmp_path):
    with pytest.raises(OSError):
        parse_logs(tmp_path)


def test_parse_device_without_size_column(tmp_path):
    minimal_logs(tmp_path)
    write_lines(tmp_path / "device.csv", [
        "id,date,user,pc,activity",
        "D1,01/02/2011 08:15:00,U1,PC-1,Connect",
    ])
    events, _ = parse_logs(tmp_path)
    assert events.size[0] == 0


# --------------------------------------------------------------------------
# extract_daily
# --------------------------------------------------------------------------

def test_extract_single_weekday_login(tmp_path):
    # a Tuesday
    rows = daily(tmp_path, login_rows=["L1,01/04/2011 09:00:00,U1,PC-1,Logon"])
    assert len(rows) == 1
    vec = rows[0].features
    assert vec[FI["login_on"]] == 1
    assert vec[FI["weekend"]] == 0
    assert vec.sum() == 1


def test_extract_saturday_evening_login(tmp_path):
    # a Saturday
    vec = daily(tmp_path, login_rows=["L1,01/08/2011 20:00:00,U1,PC-1,Logon"])[0].features
    assert vec[FI["login_out"]] == 1
    assert vec[FI["weekend"]] == 1
    assert vec[FI["login_on"]] == 0


def test_extract_splits_http_by_window(tmp_path):
    vec = daily(tmp_path, http_rows=["H1,01/04/2011 10:00:00,U1,PC-1,a.com",
                                     "H2,01/04/2011 23:00:00,U1,PC-1,a.com"])[0].features
    assert vec[FI["http_on"]] == 1
    assert vec[FI["http_out"]] == 1


def test_extract_window_boundaries(tmp_path):
    http_rows = [f"H{i},01/04/2011 {hm}:00,U1,PC-1,a.com"
                 for i, hm in enumerate(["08:00", "17:59", "18:00", "07:59"])]
    vec = daily(tmp_path, http_rows=http_rows)[0].features
    assert vec[FI["http_on"]] == 2   # 08:00 inclusive, 18:00 exclusive
    assert vec[FI["http_out"]] == 2


def test_extract_sums_device_sizes(tmp_path):
    vec = daily(tmp_path, device_rows=[
        "D1,01/04/2011 10:00:00,U1,PC-1,100,Connect",
        "D2,01/04/2011 11:00:00,U1,PC-1,250,Connect",
        "D3,01/04/2011 11:05:00,U1,PC-1,0,Disconnect",
    ])[0].features
    assert vec[FI["size"]] == 350
    assert vec[FI["connect_on"]] == 2
    assert vec[FI["disconnect_on"]] == 1


def test_extract_sorted_and_order_independent(tmp_path):
    login_rows = ["L1,01/05/2011 09:00:00,U2,PC-2,Logon",
                  "L2,01/04/2011 09:00:00,U1,PC-1,Logon",
                  "L3,01/06/2011 09:00:00,U1,PC-1,Logon"]
    keys = [(r.user, r.day) for r in daily(tmp_path / "a", login_rows=login_rows)]
    assert keys == sorted(keys)
    keys_rev = [(r.user, r.day)
                for r in daily(tmp_path / "b", login_rows=login_rows[::-1])]
    assert keys == keys_rev


def test_parse_working_hours_formats():
    assert parse_working_hours("08:00-18:00") == parse_working_hours((8, 18))
    with pytest.raises(ValueError):
        parse_working_hours("18:00-08:00")


# --------------------------------------------------------------------------
# split / normalize / to_simplex
# --------------------------------------------------------------------------

def mkrow(user, day_ord, feats=None, label=None):
    feats = np.zeros(N_FEATURES) if feats is None else feats
    return BehaviorVector(user, date.fromordinal(date(2011, 1, 1).toordinal()
                                                 + day_ord), feats, label)


def test_split_chronological_and_exclusions():
    rows = [mkrow("U1", i, label="abnormal" if i in (2, 5) else "normal")
            for i in range(10)]
    ds = split(rows, 8, 2)
    assert len(ds.train) == 6
    assert len(ds.excluded) == 2
    assert len(ds.test) == 2
    assert max(r.day for r in ds.train) < min(r.day for r in ds.test)


def test_split_user_counts_match_paper_style_splits():
    rows = [mkrow("U1", i) for i in range(300)]
    ds = split(rows, 200, 100)
    assert (len(ds.train), len(ds.test)) == (200, 100)
    rows = [mkrow("U2", i) for i in range(160)]
    ds = split(rows, 100, 60)
    assert (len(ds.train), len(ds.test)) == (100, 60)


def test_split_insufficient_rows():
    with pytest.raises(ValueError):
        split([mkrow("U1", i) for i in range(5)], 4, 2)


def test_normalize_column_arithmetic():
    rows = [mkrow("U1", i, np.full(N_FEATURES, v)) for i, v in enumerate([2.0, 4.0, 6.0])]
    ds = normalize(Dataset(train=rows, test=[]))
    col = np.array([r.features[0] for r in ds.train])
    np.testing.assert_allclose(col, [0.0, 0.5, 1.0])


def test_normalize_constant_column_maps_to_zero():
    rows = [mkrow("U1", i, np.full(N_FEATURES, 3.0)) for i in range(3)]
    ds = normalize(Dataset(train=rows, test=[]))
    assert all(np.all(r.features == 0.0) for r in ds.train)


def test_normalize_clips_and_records_test_overflow():
    train = [mkrow("U1", i, np.full(N_FEATURES, v)) for i, v in enumerate([1.0, 3.0])]
    test = [mkrow("U1", 5, np.full(N_FEATURES, 7.0))]
    ds = normalize(Dataset(train=train, test=test))
    assert np.all(ds.test[0].features == 1.0)
    assert len(ds.clipped) == N_FEATURES
    assert ds.clipped[0][3] == pytest.approx(3.0)  # (7-1)/(3-1)


def test_normalize_is_idempotent_on_training_stats():
    rng = np.random.default_rng(0)
    rows = [mkrow("U1", i, rng.integers(0, 20, N_FEATURES).astype(float))
            for i in range(12)]
    once = normalize(Dataset(train=rows, test=[]))
    twice = normalize(Dataset(train=once.train, test=[]))
    for a, b in zip(once.train, twice.train):
        np.testing.assert_allclose(a.features, b.features, atol=1e-15)


def test_to_simplex_contract():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = rng.uniform(0, 1, N_FEATURES)
        p, scale = to_simplex(v)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p >= 0)
        assert scale == pytest.approx(v.sum())


def test_to_simplex_degenerate_and_point_mass():
    p, scale = to_simplex(np.zeros(N_FEATURES))
    np.testing.assert_allclose(p, np.full(N_FEATURES, 1 / N_FEATURES))
    assert scale == 0.0
    v = np.zeros(N_FEATURES)
    v[0] = 1.0
    p, _ = to_simplex(v)
    assert p[0] == 1.0
    p, scale = to_simplex(np.full(N_FEATURES, 0.5))
    np.testing.assert_allclose(p, np.full(N_FEATURES, 1 / N_FEATURES))
    assert scale == 8.0


# --------------------------------------------------------------------------
# Synthetic generator
# --------------------------------------------------------------------------

def test_synth_round_trip_reproduces_truth_exactly(tmp_path):
    cfg = SynthConfig(n_users=2, n_days=40, anomaly_rate=0.1, seed=3,
                      out_dir=tmp_path)
    result = synth_generate(cfg)
    events, report = parse_logs(tmp_path)
    assert sum(report.malformed.values()) == 0
    rows = extract_daily(events)
    assert {(r.user, r.day) for r in rows} == set(result.truth)
    for row in rows:
        np.testing.assert_array_equal(row.features, result.truth[(row.user, row.day)])


def test_synth_row_counts_match_files(tmp_path):
    result = synth_generate(SynthConfig(n_days=20, seed=1, out_dir=tmp_path))
    _, report = parse_logs(tmp_path)
    for source, count in result.row_counts.items():
        if source != "labels":
            assert report.rows[source] == count


def test_synth_zero_anomaly_rate(tmp_path):
    result = synth_generate(SynthConfig(n_days=30, anomaly_rate=0.0, seed=2,
                                        out_dir=tmp_path))
    assert set(result.labels.values()) == {"normal"}


def test_synth_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    synth_generate(SynthConfig(n_days=25, seed=9, out_dir=a))
    synth_generate(SynthConfig(n_days=25, seed=9, out_dir=b))
    for name in ("login.csv", "http.csv", "device.csv", "email.csv",
                 "file.csv", "labels.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_rows_are_in_time_order(tmp_path):
    synth_generate(SynthConfig(n_users=3, n_days=4, seed=6, out_dir=tmp_path))
    for name in LOG_FILES:
        with open(tmp_path / name, newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        keys = [(datetime.strptime(r[1], TIMESTAMP_FMT), r[2:]) for r in rows]
        assert keys == sorted(keys)
        assert [r[0] for r in rows] == [f"{name[0].upper()}{i:07d}"
                                        for i in range(len(rows))]


def test_synth_anomaly_count_matches_labels(tmp_path):
    result = synth_generate(SynthConfig(n_days=300, anomaly_rate=0.05, seed=0,
                                        out_dir=tmp_path))
    n_abn = sum(1 for v in result.labels.values() if v == "abnormal")
    # binomial(300, 0.05): the exact value is pinned by the seed
    assert 5 <= n_abn <= 30
    labels = read_labels_csv(tmp_path / "labels.csv")
    assert sum(1 for v in labels.values() if v == "abnormal") == n_abn


def test_synth_rejects_out_of_range_rate(tmp_path):
    with pytest.raises(ValueError):
        SynthConfig(anomaly_rate=0.5, out_dir=tmp_path)


def test_working_time_partition_counts(tmp_path):
    stamps = ["01/03/2011 00:00:00", "01/03/2011 07:59:59", "01/03/2011 08:00:00",
              "01/03/2011 12:30:00", "01/03/2011 17:59:59", "01/03/2011 18:00:00",
              "01/04/2011 23:59:59", "01/08/2011 10:00:00"]
    minimal_logs(
        tmp_path,
        login_rows=[f"L{i},{t},U{i % 2},PC,{('Logon', 'Logoff')[i % 3 == 0]}"
                    for i, t in enumerate(stamps)],
        http_rows=[f"H{i},{t},U{i % 3 % 2},PC,a.com" for i, t in enumerate(stamps * 2)],
        email_rows=[f"E{i},{t},U1,PC,a@x.com,{('Send', 'View')[i % 4 == 0]}"
                    for i, t in enumerate(stamps)],
        file_rows=[f"F{i},{t},U0,PC,doc,File Write" for i, t in enumerate(stamps[::2])])
    events, _ = parse_logs(tmp_path)
    rows = extract_daily(events)
    per_day_kind = {}
    for i in range(len(events)):
        user, when, kind, _ = event_at(events, i)
        key = (user, when.date(), kind)
        per_day_kind[key] = per_day_kind.get(key, 0) + 1
    pairs = {"login": ("login_on", "login_out"),
             "http": ("http_on", "http_out"),
             "email_send": ("send_on", "send_out"),
             "file_op": ("file_on", "file_off")}
    for row in rows:
        for kind, (on, out) in pairs.items():
            total = per_day_kind.get((row.user, row.day, kind), 0)
            assert row.features[FI[on]] + row.features[FI[out]] == total


# --------------------------------------------------------------------------
# Per-event oracle: csv.DictReader, strptime and one object per event
# --------------------------------------------------------------------------

ORACLE_KIND_TO_FEATURE = {
    "login": ("login_on", "login_out"),
    "logoff": ("loginoff_on", "loginoff_out"),
    "http": ("http_on", "http_out"),
    "device_connect": ("connect_on", "connect_out"),
    "device_disconnect": ("disconnect_on", "disconnect_out"),
    "email_send": ("send_on", "send_out"),
    "file_op": ("file_on", "file_off"),
}


@dataclass
class LogEvent:
    timestamp: datetime
    user: str
    kind: str
    size: int = 0


def oracle_size(text):
    if text is None or text.strip() == "":
        return 0
    size = float(text)
    if not math.isfinite(size) or size < 0:
        raise ValueError(f"size {text!r} is not a finite byte count >= 0")
    return int(size)


def oracle_row_events(source, row):
    """One CSV row as events: ValueError for a malformed row, LookupError
    for an unknown activity, [] for a valid row no feature counts."""
    user = (row.get("user") or "").strip()
    stamp = (row.get("date") or "").strip()
    if not user or not stamp:
        raise ValueError("missing user or date")
    when = datetime.strptime(stamp, TIMESTAMP_FMT)
    activity = (row.get("activity") or "").strip().lower()
    if source == "login":
        if activity in ("logon", "logoff"):
            return [LogEvent(when, user, "login" if activity == "logon" else "logoff")]
        raise LookupError(activity)
    if source == "http":
        return [LogEvent(when, user, "http")]
    if source == "device":
        size = oracle_size(row.get("size", ""))
        if activity in ("connect", "disconnect"):
            return [LogEvent(when, user, f"device_{activity}", size)]
        raise LookupError(activity)
    if source == "email":
        if activity in ("send", ""):
            return [LogEvent(when, user, "email_send")]
        if activity == "view":
            return []
        raise LookupError(activity)
    if activity == "" or activity.startswith("file") or activity in (
            "open", "write", "copy", "delete"):
        return [LogEvent(when, user, "file_op")]
    raise LookupError(activity)


def oracle_parse_logs(log_dir):
    events, report = [], ParseReport()
    for filename in LOG_FILES:
        source = filename.split(".")[0]
        counts = dict.fromkeys(("rows", "events", "malformed", "unknown_activity",
                                "ignored"), 0)
        with open(Path(log_dir) / filename, newline="", encoding="utf-8") as handle:
            for row in csv.DictReader(handle):
                counts["rows"] += 1
                try:
                    mapped = oracle_row_events(source, row)
                except LookupError:
                    counts["unknown_activity"] += 1
                    continue
                except ValueError:
                    counts["malformed"] += 1
                    continue
                if not mapped:
                    counts["ignored"] += 1
                    continue
                events.extend(mapped)
                counts["events"] += len(mapped)
        for name, count in counts.items():
            getattr(report, name)[source] = count
    return events, report


def oracle_extract_daily(events, working_hours=("08:00", "18:00")):
    start, end = parse_working_hours(working_hours)
    table = {}
    for ev in events:
        key = (ev.user, ev.timestamp.date())
        vec = table.get(key)
        if vec is None:
            vec = np.zeros(N_FEATURES)
            vec[FI["weekend"]] = 1.0 if key[1].weekday() >= 5 else 0.0
            table[key] = vec
        on = start <= ev.timestamp.time() < end
        name_on, name_out = ORACLE_KIND_TO_FEATURE[ev.kind]
        vec[FI[name_on if on else name_out]] += 1.0
        if ev.kind in ("device_connect", "device_disconnect"):
            vec[FI["size"]] += ev.size
    return [BehaviorVector(user, day, table[(user, day)])
            for user, day in sorted(table)]


def assert_matches_oracle(log_dir, working_hours=("08:00", "18:00")):
    """parse_logs and extract_daily agree with the oracle: report counts,
    every event in order, and the features CSV byte for byte."""
    want_events, want_report = oracle_parse_logs(log_dir)
    events, report = parse_logs(log_dir)
    assert report.entries() == want_report.entries()
    assert [event_at(events, i) for i in range(len(events))] == [
        (ev.user, ev.timestamp, ev.kind, ev.size) for ev in want_events]
    out = Path(log_dir)
    with np.errstate(over="ignore"):
        want_rows = oracle_extract_daily(want_events, working_hours)
    if not all(np.isfinite(row.features).all() for row in want_rows):
        with pytest.raises(SchemaError, match="device size total is not finite"):
            extract_daily(events, working_hours)
        return
    write_features_csv(out / "want.csv", want_rows)
    write_features_csv(out / "got.csv", extract_daily(events, working_hours))
    assert (out / "got.csv").read_bytes() == (out / "want.csv").read_bytes()


LOG_COLUMNS = {
    "login": ["id", "date", "user", "pc", "activity"],
    "http": ["id", "date", "user", "pc", "url"],
    "device": ["id", "date", "user", "pc", "size", "activity"],
    "email": ["id", "date", "user", "pc", "to", "activity"],
    "file": ["id", "date", "user", "pc", "filename", "activity"],
}


def digits(stamp, zero):
    """``stamp`` with its ASCII digits swapped for the ten from ``zero`` on."""
    return stamp.translate({ord("0") + i: zero + i for i in range(10)})


# Stamps that are not canonical, or canonical but invalid.
ODD_STAMPS = [
    "1/2/2011 8:15:00", "01/02/2011 8:5:0", "1/ 2/2011 08:15:00",
    "00/10/2011 08:15:00", "01/00/2011 08:15:00", "02/30/2011 08:15:00",
    "02/29/2012 08:15:00", "13/01/2011 08:15:00", "01/02/0000 08:15:00",
    "01/02/0001 00:00:00", "12/31/9999 23:59:59",
    "01/02/2011 24:00:00", "01/02/2011 23:59:60", "01/02/2011 23:59:61",
    "01/02/2011 12:60:00", "01/02/2011  08:15:00", "01/02/2011\t08:15:00",
    "01/02/2011 08:15", "01/02/2011 08:15:00.5", "01/02/2011 08:15:00 PM",
    "01-02-2011 08:15:00", "2011/01/02 08:15:00", "not-a-date",
    digits("01/02/2011 08:15:00", 0x660), digits("01/02/2011 08:15:00", 0xFF10),
    "01/02/2011 " + digits("08", 0x660) + ":15:00",
    "01/02/" + digits("2011", 0x660) + " 08:15:00",  # strptime takes this one
    "\u00a001/02/2011 08:15:00",
]


def mostly(good, odd):
    """A strategy drawing from ``good`` about three times in four."""
    return st.integers(0, 3).flatmap(lambda k: odd if k == 3 else good)


# Valid stamps fall on a few days, so days collect many events.
STAMPS = mostly(
    st.builds("01/{:02d}/2011 {:02d}:{:02d}:{:02d}".format, st.integers(1, 3),
              st.integers(0, 23), st.integers(0, 59), st.integers(0, 59)),
    st.one_of(
        st.builds("{:02d}/{:02d}/{:04d} {:02d}:{:02d}:{:02d}".format,
                  st.sampled_from([0, 1, 2, 12, 13]),
                  st.sampled_from([0, 1, 2, 8, 29, 30, 32]),
                  st.sampled_from([0, 1, 2011, 2012]),
                  st.sampled_from([0, 7, 8, 17, 18, 23, 24]),
                  st.sampled_from([0, 59, 60]), st.sampled_from([0, 59, 60, 61])),
        st.sampled_from(ODD_STAMPS),
        st.sampled_from(["", "   ", " 01/02/2011 09:00:00 ", "\t01/03/2011 20:00:00"])))
ACTIVITIES = {
    "login": ["Logon", "Logoff", " logon ", "LOGOFF"],
    "http": [""],
    "device": ["Connect", "Disconnect", "connect "],
    "email": ["Send", "View", "", "SEND"],
    "file": ["File Open", "File Write", "file_x", "FILE", "open", "write", "copy",
             "delete", ""],
}
ODD_ACTIVITY = st.sampled_from(["", "  ", "Teleport", "View", "Logon", "Connect",
                                "File Open", "send"])
# Sums of 1e16 and 1 depend on the order of the terms; two 1.7e308 overflow.
SIZES = mostly(st.sampled_from(["1", "100", "1e16", "1.7e308", "-1.7e308"]),
               st.sampled_from(["", "0", " 250 ", "1e3", "-5.7", "1e300", "inf", "-inf",
                                "nan", "1e400", "abc", "1_000", "\u0663", "  "]))
USERS = mostly(st.sampled_from(["U1", "U2"]),
               st.sampled_from(["U10", " U1 ", "a", "B", "", "  ", "\u00fc", "U\x00"]))


def fields(source):
    return {"user": USERS, "date": STAMPS, "size": SIZES,
            "activity": mostly(st.sampled_from(ACTIVITIES[source]), ODD_ACTIVITY)}


OTHER_FIELD = st.sampled_from(["x", "", "a,b", 'q"uote'])
KEY_COLUMNS = ["user", "date", "activity", "size"]


@st.composite
def log_lines(draw, source):
    """The records of one log: a header that may miss or repeat a key
    column, then rows that may be blank, short or long."""
    columns = list(LOG_COLUMNS[source])
    field = fields(source)
    if draw(st.integers(0, 4)) == 3:
        columns.remove(draw(st.sampled_from([c for c in KEY_COLUMNS if c in columns])))
    if draw(st.integers(0, 4)) == 3:
        columns.insert(draw(st.integers(0, len(columns))),
                       draw(st.sampled_from(KEY_COLUMNS)))
    lines = [[]] if draw(st.integers(0, 19)) == 13 else []  # a blank first line
    lines.append(columns)
    for _ in range(draw(st.integers(0, 20))):
        if draw(st.integers(0, 9)) == 7:
            lines.append([])
        row = [draw(field.get(name, OTHER_FIELD)) for name in columns]
        change = draw(st.sampled_from([0, 0, 0, 0, 0, 0, -1, -3, 1, 2]))
        lines.append(row[:change] if change < 0 else row + ["extra"] * change)
    return [] if draw(st.integers(0, 29)) == 17 else lines


@settings(max_examples=150, derandomize=True, deadline=None)
@given(logs=st.fixed_dictionaries({s: log_lines(s) for s in LOG_COLUMNS}),
       working_hours=st.sampled_from([
           "08:00-18:00", "00:00-23:59", "09:30-17:15", (0, 23),
           (time(8, 0, 0, 1), time(18, 0, 0, 500000))]))
def test_parse_and_extract_match_per_event_oracle(logs, working_hours):
    with tempfile.TemporaryDirectory() as tmp:
        for source, lines in logs.items():
            with open(Path(tmp) / f"{source}.csv", "w", newline="",
                      encoding="utf-8") as handle:
                csv.writer(handle, lineterminator="\n").writerows(lines)
        assert_matches_oracle(tmp, working_hours)


def test_odd_stamps_get_strptime_verdict(tmp_path):
    stamps = ODD_STAMPS + ["01/04/2011 09:00:00", " 01/04/2011 09:00:00 "]
    minimal_logs(tmp_path, login_rows=[f'L{i},"{t}",U1,PC,Logon'
                                       for i, t in enumerate(stamps)])
    _, report = parse_logs(tmp_path)
    assert 0 < report.malformed["login"] < len(stamps) - 2
    assert_matches_oracle(tmp_path)


def test_size_totals_follow_event_order(tmp_path):
    sizes = ["1e16", "1", "1"]
    vec = daily(tmp_path, device_rows=[f"D{i},01/04/2011 10:00:0{i},U1,PC,{size},Connect"
                                       for i, size in enumerate(sizes)])[0].features
    # in file order each 1 rounds away; summed from the end they make 1e16 + 2
    assert vec[FI["size"]] == 1e16
    assert_matches_oracle(tmp_path)
    # two finite sizes whose total is not: the oracle sums to inf, and
    # extract_daily refuses the day
    minimal_logs(tmp_path, device_rows=[
        f"D{i},01/04/2011 10:00:0{i},U1,PC,1.7e308,Connect" for i in range(2)])
    assert_matches_oracle(tmp_path)


def test_oversized_field_row_is_malformed_and_reading_resumes(tmp_path):
    minimal_logs(tmp_path, http_rows=[
        "H1,01/04/2011 09:00:00,U1,PC," + "x" * (csv.field_size_limit() + 1),
        "H2,01/04/2011 10:00:00,U1,PC,a.com"])
    events, report = parse_logs(tmp_path)
    assert (report.rows["http"], report.malformed["http"], len(events)) == (2, 1, 1)


# --------------------------------------------------------------------------
# Feature/label files
# --------------------------------------------------------------------------

def test_features_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    rows = [mkrow("U1", i, rng.uniform(0, 1, N_FEATURES),
                  label="normal" if i % 2 else None) for i in range(6)]
    path = tmp_path / "features.csv"
    write_features_csv(path, rows, comment="digest test")
    back = read_features_csv(path)
    assert len(back) == 6
    for a, b in zip(rows, back):
        assert (a.user, a.day, a.label) == (b.user, b.day, b.label)
        np.testing.assert_array_equal(a.features, b.features)  # repr is exact


def test_features_csv_schema_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("nope\n1,2\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        read_features_csv(path)


def test_attach_labels():
    rows = [mkrow("U1", 1), mkrow("U1", 2)]
    attach_labels(rows, {("U1", rows[0].day): "abnormal"})
    assert rows[0].label == "abnormal"
    assert rows[1].label is None
