"""Parsing, aggregation, normalization and the synthetic generator."""

import csv
import hashlib
import io
import itertools
import math
import re
import sys
import tempfile
import tracemalloc
from dataclasses import dataclass, replace
from datetime import date, datetime, time, timedelta
from pathlib import Path
from time import perf_counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbde import features
from qbde.errors import SchemaError
from qbde.features import (
    FEATURE_NAMES,
    KINDS,
    LOG_FILES,
    N_FEATURES,
    SYNTH_START,
    TIMESTAMP_FMT,
    BehaviorVector,
    Dataset,
    ParseReport,
    SynthConfig,
    SynthResult,
    attach_labels,
    extract_daily,
    normalize,
    parse_logs,
    parse_working_hours,
    read_features_csv,
    read_labels_csv,
    rows_by_user,
    split,
    synth_generate,
    to_simplex,
    write_features_csv,
)

FI = {name: i for i, name in enumerate(FEATURE_NAMES)}


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_rows(path, header, rows):
    """``header`` and ``rows`` as ``csv.writer`` writes them, row by row."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


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
    assert parse_working_hours("08:00-18:00") == (time(8, 0), time(18, 0))
    assert parse_working_hours(" 09:30 - 17:15 ") == (time(9, 30), time(17, 15))
    for bad in ("18:00-08:00", "08:00", "08:00-12:00-18:00", "08:00-25:00",
                "8h-18h", (8, 18), ("08:00", "18:00"), "8-18", "+8:00-18:00",
                "8:5-18:0", "\u0660\u0668:\u0660\u0660-18:00", "08:00-18:00:00"):
        with pytest.raises(ValueError):
            parse_working_hours(bad)


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
    assert np.all(ds.test[0].features == 1.0)  # each (7-1)/(3-1) = 3.0 clips to 1
    assert ds.clipped == N_FEATURES


def test_normalize_is_idempotent_on_training_stats():
    rng = np.random.default_rng(0)
    rows = [mkrow("U1", i, rng.integers(0, 20, N_FEATURES).astype(float))
            for i in range(12)]
    once = normalize(Dataset(train=rows, test=[]))
    twice = normalize(Dataset(train=once.train, test=[]))
    for a, b in zip(once.train, twice.train):
        np.testing.assert_allclose(a.features, b.features, atol=1e-15)


def oracle_normalize(dataset):
    """The per-row transform ``normalize`` replaced: one np.where/np.clip
    pass per row."""
    stats = {user: (np.min(np.stack([r.features for r in rows]), axis=0),
                    np.max(np.stack([r.features for r in rows]), axis=0))
             for user, rows in rows_by_user(dataset.train).items()}

    clipped = 0

    def transform(row, count=False):
        nonlocal clipped
        if row.user not in stats:
            raise ValueError(f"user {row.user} has no training rows")
        lo, hi = stats[row.user]
        span = hi - lo
        safe = np.where(span > 0, span, 1.0)
        scaled = np.where(span > 0, (row.features - lo) / safe, 0.0)
        if count:
            for value in scaled:
                clipped += not 0.0 <= value <= 1.0
        return replace(row, features=np.clip(scaled, 0.0, 1.0))

    train = [transform(r) for r in dataset.train]
    test = [transform(r, count=True) for r in dataset.test]
    return Dataset(train=train, test=test, stats=stats,
                   excluded=list(dataset.excluded), clipped=clipped)


@pytest.mark.parametrize("seed", range(8))
def test_normalize_matches_per_row_oracle(seed):
    """Users interleaved in any order, constant columns, test values far
    outside the training range: the same bits, stats and clipped count."""
    rng = np.random.default_rng(seed)
    users = [f"U{u}" for u in range(rng.integers(1, 5))]

    def rows(n, scale):
        values = rng.choice([0.0, 1.0, 3.0, 7.5, 1e16, 0.1], (n, N_FEATURES))
        values[:, rng.integers(0, N_FEATURES)] = 2.0  # constant in training
        values *= rng.uniform(0.0, scale, (n, 1))
        return [mkrow(str(rng.choice(users)), i, v, label=str(rng.choice(["normal", ""])))
                for i, v in enumerate(values)]

    train = rows(int(rng.integers(len(users), 40)), 1.0)
    test = [row for row in rows(int(rng.integers(0, 40)), 3.0)
            if row.user in {r.user for r in train}]
    data = Dataset(train=train, test=test, excluded=train[:1])
    got, want = normalize(data), oracle_normalize(data)
    for a, b in zip(got.train + got.test, want.train + want.test, strict=True):
        assert (a.user, a.day, a.label) == (b.user, b.day, b.label)
        assert a.features.tobytes() == b.features.tobytes()
    assert got.clipped == want.clipped
    assert got.excluded == want.excluded
    assert list(got.stats) == list(want.stats)
    for user, (lo, hi) in want.stats.items():
        assert got.stats[user][0].tobytes() == lo.tobytes()
        assert got.stats[user][1].tobytes() == hi.tobytes()
    stranger = test + [mkrow("nobody", 99), mkrow("U0", 98)]
    for normalized in (normalize, oracle_normalize):
        with pytest.raises(ValueError, match="user nobody has no training rows"):
            normalized(Dataset(train=train, test=stranger))


def test_to_simplex_contract():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 1, (50, N_FEATURES))
    keep = x.copy()
    p = to_simplex(x)
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(p >= 0)
    np.testing.assert_allclose(p * x.sum(axis=1, keepdims=True), x, rtol=1e-12)
    assert x.tobytes() == keep.tobytes()  # the input is left as it was
    for bad in (np.zeros(N_FEATURES), np.zeros((2, N_FEATURES - 1))):
        with pytest.raises(ValueError):
            to_simplex(bad)


def test_to_simplex_degenerate_and_point_mass():
    point = np.zeros(N_FEATURES)
    point[0] = 1.0
    p = to_simplex([np.zeros(N_FEATURES), point, np.full(N_FEATURES, 0.5)])
    np.testing.assert_array_equal(p[0], np.full(N_FEATURES, 1 / N_FEATURES))
    np.testing.assert_array_equal(p[1], point)
    np.testing.assert_allclose(p[2], np.full(N_FEATURES, 1 / N_FEATURES))


# --------------------------------------------------------------------------
# Synthetic generator
# --------------------------------------------------------------------------

def assert_parses_to_truth(log_dir, truth, working_hours="08:00-18:00"):
    """The logs under ``log_dir`` parse, with no malformed row, into one
    feature row per (user, day) of ``truth``, equal to it value for value."""
    events, report = parse_logs(log_dir)
    assert sum(report.malformed.values()) == 0
    rows = extract_daily(events, working_hours)
    assert [(r.user, r.day) for r in rows] == sorted(truth)
    for row in rows:
        np.testing.assert_array_equal(row.features, truth[(row.user, row.day)])


def test_synth_round_trip_reproduces_truth_exactly(tmp_path):
    """The logs parse into exactly the daily counts the event-by-event
    oracle draws for the same config."""
    cfg = dict(n_users=2, n_days=40, anomaly_rate=0.1, seed=3)
    synth_generate(SynthConfig(**cfg, out_dir=tmp_path / "a"))
    _, truth = oracle_synth_generate(SynthConfig(**cfg, out_dir=tmp_path / "b"))
    assert_parses_to_truth(tmp_path / "a", truth)


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


def test_synth_rejects_days_past_date_max(tmp_path):
    last = date.max.toordinal() - SYNTH_START.toordinal() + 1
    SynthConfig(n_days=last, out_dir=tmp_path)  # its last day is date.max
    for n_days in (last + 1, 10 * last):
        with pytest.raises(ValueError, match="run past 9999-12-31"):
            SynthConfig(n_days=n_days, out_dir=tmp_path)
    assert not any(tmp_path.iterdir())


# sha256 of the logs for 2 users, 15 days, seed 4 (one anomalous day).  A
# change of numpy's streams or of the draw order would reshuffle every
# corpus and every figure drawn from one; this pins the bytes.
SYNTH_GOLDEN = {
    "device.csv": "bcb27015b6a36efadf5c192d3524ce4ec146f28041c0b19fd487eaebb34596d3",
    "email.csv": "e3304def0119042bd73fedfe78a3dd5169d35229107b4a3cf872119c551ad878",
    "file.csv": "e6fcb4b3568d3341b16557f16bd5260795dc2304decfa95cd9f6c26fa8f38585",
    "http.csv": "d8dc5fb53647996d9db569c5b325c9f83675c685bd6b355cbdde59937c202a7f",
    "labels.csv": "4214c7ddc571e3638a86ddda2a457390a91e3a8a187d2abce1ecdb59d56e7eed",
    "login.csv": "1bbebd041396eb9254c04cf6d6169d3145cccb43e75ca8efd8d07d54fc2bd689",
}


def test_synth_bytes_are_pinned(tmp_path):
    synth_generate(SynthConfig(n_users=2, n_days=15, seed=4, out_dir=tmp_path))
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in (*LOG_FILES, "labels.csv")} == SYNTH_GOLDEN


def test_synth_draws_each_user_day_in_few_calls(tmp_path, monkeypatch):
    calls = []
    default_rng = np.random.default_rng

    class CountingRng:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            method = getattr(self.rng, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return method(*args, **kwargs)
            return counted

    monkeypatch.setattr(np.random, "default_rng", CountingRng)
    n_users, n_days = 2, 40
    result = synth_generate(SynthConfig(n_users=n_users, n_days=n_days,
                                        anomaly_rate=0.2, seed=3, out_dir=tmp_path))
    assert "abnormal" in result.labels.values()
    assert len(calls) <= 4 * n_users * n_days + 13 * n_users


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
# Scalar synth oracle: one rng call per value, one datetime per event
# --------------------------------------------------------------------------

def oracle_window_seconds(rng, on, start, end):
    s0 = start.hour * 3600 + start.minute * 60
    s1 = end.hour * 3600 + end.minute * 60
    if on:
        return int(rng.integers(s0, s1))
    r = int(rng.integers(0, 86400 - (s1 - s0)))
    return r if r < s0 else r + (s1 - s0)


def oracle_synth_generate(cfg):
    """The logs and labels of ``synth_generate``, drawn one value and one
    event at a time, and beside the result the daily counts they encode:
    (user, day) -> 16 feature values."""
    rng = np.random.default_rng(cfg.seed)
    start_h, end_h = parse_working_hours(cfg.working_hours)
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    tables = {name.split(".")[0]: [] for name in LOG_FILES}
    labels = {}
    truth = {}

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
            day = SYNTH_START + timedelta(days=d)
            abnormal = bool(rng.random() < cfg.anomaly_rate)
            on_damp = 0.4 if abnormal else 1.0
            counts = {k: int(rng.poisson(rate * (on_damp if k.endswith("_on")
                                                 else 1.0)))
                      for k, rate in prof.items()}
            counts["login_on"] = max(1, counts["login_on"])
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
            vec[FI["weekend"]] = 1.0 if day.weekday() >= 5 else 0.0
            labels[(user, day)] = "abnormal" if abnormal else "normal"

            def stamp(on):
                sec = oracle_window_seconds(rng, on, start_h, end_h)
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
                    vec[FI[feat]] += 1.0
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

            for feat, active in (("connect_on", True), ("connect_out", True),
                                 ("disconnect_on", False), ("disconnect_out", False)):
                on = feat.endswith("_on")
                for k in range(counts[feat]):
                    vec[FI[feat]] += 1.0
                    size = 0
                    if active:
                        huge = (not on) and abnormal and k < burst_connects
                        size = int(rng.integers(20_000_000, 80_000_000)) if huge \
                            else int(rng.integers(size_lo, size_hi))
                        vec[FI["size"]] += size
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
    row_counts = {}
    for source, rows in tables.items():
        rows.sort(key=lambda row: row[0])  # stable: a second's rows keep draw order
        write_rows(out_dir / f"{source}.csv", headers[source],
                   ([f"{source[0].upper()}{i:07d}", when.strftime(TIMESTAMP_FMT),
                     *rest] for i, (when, *rest) in enumerate(rows)))
        row_counts[source] = len(rows)

    write_rows(out_dir / "labels.csv", ["user", "day", "label"],
               ([user, day.isoformat(), label]
                for (user, day), label in sorted(labels.items())))
    return SynthResult(labels, row_counts), truth


@settings(max_examples=40, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_users=st.integers(1, 3),
       n_days=st.integers(1, 20), anomaly_rate=st.sampled_from([0.0, 0.05, 0.2]),
       working_hours=st.sampled_from(["08:00-18:00", "08:00-08:01", "00:01-23:59",
                                      "00:00-12:00", "09:30-17:15"]))
def test_synth_matches_scalar_draw_oracle(seed, n_users, n_days, anomaly_rate,
                                          working_hours):
    with tempfile.TemporaryDirectory() as tmp:
        configs = [SynthConfig(n_users=n_users, n_days=n_days,
                               anomaly_rate=anomaly_rate, seed=seed,
                               out_dir=Path(tmp) / side,
                               working_hours=working_hours)
                   for side in ("a", "b")]
        got = synth_generate(configs[0])
        want, truth = oracle_synth_generate(configs[1])
        for name in (*LOG_FILES, "labels.csv"):
            assert (Path(tmp, "a", name).read_bytes()
                    == Path(tmp, "b", name).read_bytes()), name
        assert (got.labels, got.row_counts) == (want.labels, want.row_counts)
        assert_parses_to_truth(Path(tmp, "a"), truth, working_hours)


def test_synth_ties_in_one_second_sort_as_the_oracle_sorts(tmp_path):
    """A one-minute working window puts many rows in one second.  They keep
    their draw order, as the oracle's stable sort on the stamp keeps them:
    by user index, then a user-day's connects before its disconnects and
    its logons before its logoffs, though "0" sorts before any other size
    and "Logoff" before "Logon"."""
    cfg = dict(n_users=3, n_days=20, anomaly_rate=0.2, seed=4,
               working_hours="08:00-08:01")
    got = synth_generate(SynthConfig(**cfg, out_dir=tmp_path / "a"))
    want, _ = oracle_synth_generate(SynthConfig(**cfg, out_dir=tmp_path / "b"))
    for name in (*LOG_FILES, "labels.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert got.row_counts == want.row_counts
    for name, last in (("device.csv", "Disconnect"), ("login.csv", "Logoff")):
        with open(tmp_path / "a" / name, newline="", encoding="utf-8") as handle:
            keys = [(row["date"], row["user"], row["activity"] == last)
                    for row in csv.DictReader(handle)]
        ties = [(a, b) for a, b in zip(keys, keys[1:]) if a[0] == b[0]]
        assert all(a <= b for a, b in ties)
        assert any(a[1] < b[1] for a, b in ties)  # users share a second
        assert any(a[1] == b[1] and a[2] < b[2] for a, b in ties), name


@pytest.mark.parametrize("first", [0, 9_999_998, 99_999_999])
def test_synth_row_ids_and_stamps_match_format(first):
    """Ids keep growing past 7 digits, and stamps match strftime at the end
    of a day and on days past 2099 (2100 is not a leap year)."""
    day = (date(2100, 2, 28) - SYNTH_START).days
    seconds = np.array([0, 86_399, 86_400 * 1000 + 3_661, day * 86_400 + 86_399,
                        (day + 1) * 86_400, (date(9999, 12, 31) - SYNTH_START).days * 86_400])
    newline = features._text_field(features._text_cells(["\n"]), np.zeros(len(seconds), int))
    lines = features._synth_rows("L", first, seconds, [newline]).tobytes().decode()
    when = [datetime.combine(SYNTH_START, time()) + timedelta(seconds=int(s)) for s in seconds]
    assert lines.splitlines() == [f"L{first + i:07d},{w.strftime(TIMESTAMP_FMT)}"
                                  for i, w in enumerate(when)]


def test_synth_memory_grows_by_tens_of_bytes_per_row(tmp_path):
    """The generator keeps compact columns, not a tuple per row, until it
    sorts and writes each log."""
    tracemalloc.start()
    try:
        result = synth_generate(SynthConfig(n_users=10, n_days=300, seed=0,
                                            out_dir=tmp_path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / sum(result.row_counts.values()) <= 80


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


def oracle_extract_daily(events, working_hours="08:00-18:00"):
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


def assert_matches_oracle(log_dir, working_hours="08:00-18:00"):
    """parse_logs and extract_daily agree with the oracle: report counts,
    every event in order, and the features CSV byte for byte."""
    want_events, want_report = oracle_parse_logs(log_dir)
    events, report = parse_logs(log_dir)
    assert report.entries() == want_report.entries()
    # user codes follow the order of first appearance among events
    assert events.user_names == list(dict.fromkeys(ev.user for ev in want_events))
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
QUOTE_FREE_FIELD = st.sampled_from(["x", "", "a b", " ", "\u00fc"])
KEY_COLUMNS = ["user", "date", "activity", "size"]


@st.composite
def log_lines(draw, source, other=OTHER_FIELD):
    """The records of one log: a header that may miss or repeat a key
    column, then rows that may be blank, short or long.  Columns that are
    not key columns draw from ``other``."""
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
        row = [draw(field.get(name, other)) for name in columns]
        change = draw(st.sampled_from([0, 0, 0, 0, 0, 0, -1, -3, 1, 2]))
        lines.append(row[:change] if change < 0 else row + ["extra"] * change)
    return [] if draw(st.integers(0, 29)) == 17 else lines


@settings(max_examples=150, derandomize=True, deadline=None)
@given(logs=st.fixed_dictionaries({s: log_lines(s) for s in LOG_COLUMNS}),
       working_hours=st.sampled_from([
           "08:00-18:00", "00:00-23:59", "09:30-17:15", "00:00-23:00",
           "08:01-18:00"]))
def test_parse_and_extract_match_per_event_oracle(logs, working_hours):
    with tempfile.TemporaryDirectory() as tmp:
        for source, lines in logs.items():
            with open(Path(tmp) / f"{source}.csv", "w", newline="",
                      encoding="utf-8") as handle:
                csv.writer(handle, lineterminator="\n").writerows(lines)
        assert_matches_oracle(tmp, working_hours)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(logs=st.fixed_dictionaries({s: log_lines(s, QUOTE_FREE_FIELD) for s in LOG_COLUMNS}),
       ending=st.sampled_from(["\n", "\n", "\r\n", "\r"]), last_newline=st.booleans(),
       chunk=st.sampled_from([1, 48, 300, features._CHUNK_BYTES]))
def test_quote_free_logs_match_per_event_oracle(logs, ending, last_newline, chunk):
    """Logs with no quote, written field by field, read in chunks of many
    sizes: chunks whose lines all hold the header's field count take the
    column path, the others the per-row one, and both agree with the
    oracle."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(features, "_CHUNK_BYTES", chunk):
        for source, lines in logs.items():
            text = ending.join(",".join(line) for line in lines)
            with open(Path(tmp) / f"{source}.csv", "w", newline="",
                      encoding="utf-8") as handle:
                handle.write(text + ending if lines and last_newline else text)
        assert_matches_oracle(tmp)


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
def test_logs_are_read_in_chunks_of_whole_lines(tmp_path, ending):
    """Each chunk ends at a line end, whichever kind the log uses, so a log
    is never held in memory whole."""
    rows = [f"H{i},01/04/2011 09:00:{i % 60:02d},U{i % 4},PC,{'x' * (i % 50)}"
            for i in range(4 * features._CHUNK_BYTES // 40)]
    minimal_logs(tmp_path)
    path = tmp_path / "http.csv"
    path.write_bytes(ending.join(["id,date,user,pc,url", *rows, ""]).encode())
    with open(path, "rb") as handle:
        chunks = list(features._text_chunks(path, handle))
    assert len(chunks) > 3 and "".join(chunks).encode() == path.read_bytes()
    assert all(chunk.endswith(ending[-1]) for chunk in chunks)
    assert max(map(len, chunks)) < features._CHUNK_BYTES + 100
    assert_matches_oracle(tmp_path)


def test_an_over_long_line_is_read_in_linear_time(tmp_path, monkeypatch):
    """An 8 MB line read in 1 KiB blocks: the blocks wait in a list and
    only each new one is searched for a line end, so the line is read in
    a fraction of a second (searching all of it again per block took ~10
    s), and csv rejects it as one malformed row."""
    minimal_logs(tmp_path, http_rows=["H1,01/04/2011 09:00:00,U1,PC," + "x" * (8 << 20),
                                      "H2,01/04/2011 09:00:01,U1,PC,a.com"])
    monkeypatch.setattr(features, "_CHUNK_BYTES", 1024)
    begin = perf_counter()
    _, report = parse_logs(tmp_path)
    assert perf_counter() - begin < 1.0
    assert (report.rows["http"], report.malformed["http"], report.events["http"]) == (2, 1, 1)


def count_decoders(monkeypatch):
    """Chunks split by their commas and line ends (``_plain_fields`` gave a
    table, not None) and calls of the ``csv.reader`` splitter, counted."""
    calls = {"plain": 0, "rows": 0}
    plain_fields, parse_rows = features._plain_fields, features._parse_rows

    def plain(*args):
        table = plain_fields(*args)
        calls["plain"] += table is not None
        return table

    def rows(*args):
        calls["rows"] += 1
        return parse_rows(*args)

    monkeypatch.setattr(features, "_plain_fields", plain)
    monkeypatch.setattr(features, "_parse_rows", rows)
    return calls


@pytest.mark.parametrize("late", [
    'H9,01/05/2011 10:00:00,U2,PC,"a,b"',
    'H9,01/05/2011 10:00:00,U2,"PC\nH10,01/05/2011 11:00:00,U3,PC,x",y',
    'H9,"01/05/2011\n10:00:00",U2,PC,x',
])
def test_quote_after_the_first_chunk_sends_the_rest_row_by_row(tmp_path, monkeypatch,
                                                               late):
    """A quote past the first chunk: the chunks before it are read as
    columns, and from its chunk on the file is read row by row, so a quoted
    field that spans lines is one field."""
    row = "H{},01/04/2011 09:{:02d}:00,U1,PC,a.com"
    before = [row.format(i, i % 60) for i in range(features._CHUNK_BYTES // 30)]
    minimal_logs(tmp_path, http_rows=[*before, late, row.format(11, 5)])
    calls = count_decoders(monkeypatch)
    assert_matches_oracle(tmp_path)
    # the four other logs and http's first chunk, then the rest of http
    assert calls == {"plain": 5, "rows": 1}
    events, report = parse_logs(tmp_path)
    assert "U3" not in events.user_names
    assert report.rows["http"] == len(before) + 2


@pytest.mark.parametrize("date_first", [False, True])
def test_every_row_rule_holds_on_the_column_path(tmp_path, monkeypatch, date_first):
    """Plain logs crossing users, stamps, activities and sizes that are each
    valid or not: the column path alone reads them, as the oracle does."""
    users = ["U2", "U1", " U1 ", "", "  ", "\u00fc", "U10", "U\x0b"]
    stamps = ["01/04/2011 09:00:00", "01/08/2011 23:59:59", " 01/05/2011 07:00:00",
              "02/30/2011 09:00:00", "1/4/2011 9:00:00", "", "01/04/2011 24:00:00",
              "01/04/2011 09:00:00 "]
    sizes = ["", "0", " 250 ", "1e3", "-5.7", "inf", "nan", "abc", "1e16", "1"]
    rows = {source: [",".join({"user": user, "date": stamp, "activity": act,
                               "size": size}.get(name, "x") for name in columns)
                     for user, stamp, act, size in itertools.product(
                         users, stamps, ACTIVITIES[source] + ["Teleport"],
                         sizes if source == "device" else [""])]
            for source, columns in LOG_COLUMNS.items()}
    minimal_logs(tmp_path, **{f"{source}_rows": lines for source, lines in rows.items()})
    if date_first:  # move id to the end, so the first column is a key column
        for source in LOG_COLUMNS:
            path = tmp_path / f"{source}.csv"
            path.write_text("".join(f"{rest},{first}\n" for first, rest in (
                line.split(",", 1) for line in path.read_text().split("\n")[:-1])))
    calls = count_decoders(monkeypatch)
    assert_matches_oracle(tmp_path)
    assert calls["rows"] == 0 and calls["plain"] >= 5


@pytest.mark.parametrize("odd", ["H2,01/04/2011 09:00:01,U2,PC",
                                 "H2,01/04/2011 09:00:01,U2,PC,a,b", "H2", "",
                                 # as many commas in all as the rows need
                                 "H2,01/04/2011 09:00:01,U2,PC\nH4,01/04/2011 09:00:03,U4,PC,a,b",
                                 "H2,01/04/2011 09:00:01,U2,PC,a,b\nH4,01/04/2011 09:00:03,U4,PC",
                                 # users whose bytes differ only by a trailing NUL
                                 "H2,01/04/2011 09:00:01,U,PC,a\nH4,01/04/2011 09:00:03,U\0,PC,a"])
def test_a_short_or_long_row_sends_its_chunk_row_by_row(tmp_path, monkeypatch, odd):
    minimal_logs(tmp_path, http_rows=["H1,01/04/2011 09:00:00,U1,PC,a", odd,
                                      "H3,01/04/2011 09:00:02,U3,PC,a"])
    calls = count_decoders(monkeypatch)
    events, report = parse_logs(tmp_path)
    assert calls == {"plain": 5 - (odd != ""), "rows": odd != ""}
    if "\0" in odd:  # csv reads a NUL from Python 3.11 on, and rejects its line before
        want = ["U1", "U", "U\0", "U3"] if sys.version_info >= (3, 11) else ["U1", "U", "U3"]
        assert (events.user_names, report.malformed["http"]) == (want, 4 - len(want))
    if "\0" not in odd or sys.version_info >= (3, 11):  # the oracle's csv reads it too
        assert_matches_oracle(tmp_path)


def test_quoted_header_sends_the_whole_file_row_by_row(tmp_path, monkeypatch):
    minimal_logs(tmp_path, login_rows=["L1,01/04/2011 09:00:00,U1,PC,Logon"])
    (tmp_path / "http.csv").write_text(
        'id,date,"us\ner",user,pc,url\nH1,01/04/2011 09:00:00,x,U1,PC,a.com\n',
        encoding="utf-8")
    calls = count_decoders(monkeypatch)
    assert_matches_oracle(tmp_path)
    assert calls["rows"] == 1
    assert parse_logs(tmp_path)[1].events["http"] == 1


@pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["lf", "crlf"])
def test_synth_corpus_never_takes_the_per_row_decoder(tmp_path, monkeypatch, ending):
    """Every chunk of a synth corpus is plain, with LF or CR LF line ends,
    and every stamp and size in it is read from its bytes, so a silent fall
    back to the per-row decoder or its stamp and size rules (and the speed
    it costs) cannot hide."""
    result = synth_generate(SynthConfig(n_users=2, n_days=90, seed=3,
                                        out_dir=tmp_path))
    for path in (tmp_path / name for name in LOG_FILES):
        data = path.read_bytes()
        assert b"\r" not in data
        path.write_bytes(data.replace(b"\n", ending.encode()))
    assert (tmp_path / "http.csv").stat().st_size > 2 * features._CHUNK_BYTES

    def refuse(*args):
        raise AssertionError("a synth chunk took a per-row rule")

    for name in ("_parse_rows", "_read_stamp", "_parse_size"):
        monkeypatch.setattr(features, name, refuse)
    assert_matches_oracle(tmp_path)
    _, report = parse_logs(tmp_path)
    assert report.rows == result.row_counts
    assert report.total_events() == sum(result.row_counts.values())


# Plain logs whose fields each take one branch of the byte decoder:
# (users, stamps, activities by source, device sizes).
STAMP = ["01/04/2011 09:00:00"]
BYTE_CASES = {
    "user-lengths": (["a", "U000001", "U0000001", "U00000001", "U" * 40], STAMP, {}, ["1"]),
    "users-of-8-bytes-at-most": (["a", "U000001", "U0000001", "U0000002", "\u00fc" * 4],
                                 STAMP, {}, ["1"]),
    "shared-8-bytes": (["ABCDEFGH", "ABCDEFGH1", "ABCDEFGH2", "ABCDEFGH12", "ABCDEFG"],
                       STAMP, {}, ["1"]),
    "prefixes": (["U1", "U10", "U100", " U1", "U1 ", "U"], STAMP, {}, ["1"]),
    "multi-byte": (["\u00fc", "\u7528\u6237", "\u00dcser\u00df\u00e9\u00e8", "\U0001f600",
                    "U\u00a0"], STAMP,
                   {"login": ["Logon", "Log\u00f6n", "\u00a0Logoff"],
                    "file": ["File \u00d6pen", "\u6587\u4ef6", "open"],
                    "device": ["Connect", "Disc\u00f6nnect"]}, ["1"]),
    "odd-stamps": (["U1"], ["01/04/2011 09:00:00", digits("01/04/2011 09:00:00", 0xFF10),
                            "\uff10\uff11/04/2011 09:00:00", "01/04/2011 9:00:00",
                            "1/4/2011 09:00:00", "01/04/2011 09:00:00 ", " 01/04/2011 09:00:00",
                            "01/04/2011  09:00:00", "01/04/2011 09:00:0\u0661"], {}, ["1"]),
    "sizes": (["U1"], STAMP, {}, ["1", "0", "9" * 15, "1" + "0" * 14, "9" * 16,
                                  "1" + "0" * 15, "007", "000000000000000", "+5", " 5", "5 ",
                                  "1e3", "", " ", "-0", "5.", "\u0665", "0x5"]),
}


@pytest.mark.parametrize("newline", [True, False], ids=["newline", "no-newline"])
@pytest.mark.parametrize("case", BYTE_CASES)
def test_byte_decoder_matches_per_event_oracle(tmp_path, monkeypatch, case, newline):
    """Users, activities, stamps and sizes that take each branch of the
    column path's byte decoder, in logs that may end without a newline:
    the column path alone reads them, as the oracle does."""
    users, stamps, acts, sizes = BYTE_CASES[case]
    rows = {source: [",".join({"user": user, "date": stamp, "activity": act,
                               "size": size}.get(name, "x") for name in columns)
                     for user, stamp, act, size in itertools.product(
                         users, stamps, acts.get(source, ACTIVITIES[source][:2]),
                         sizes if source == "device" else [""])]
            for source, columns in LOG_COLUMNS.items()}
    minimal_logs(tmp_path, **{f"{source}_rows": lines for source, lines in rows.items()})
    if not newline:
        for source in LOG_COLUMNS:
            path = tmp_path / f"{source}.csv"
            path.write_bytes(path.read_bytes()[:-1])
    calls = count_decoders(monkeypatch)
    assert_matches_oracle(tmp_path)
    assert calls["rows"] == 0 and calls["plain"] >= 5


def test_a_long_field_keeps_the_column_decoder_small(tmp_path, monkeypatch):
    """One 8000-byte user among a chunk's 9-byte ones: keying the column by
    fixed-width bytes would take ~1400 x 8000 cells, so it is keyed by
    ``bytes`` and the parse stays within a few MB."""
    rows = [f"H{i},01/04/2011 09:00:00,USER{i % 7:05d},PC,a" for i in range(1400)]
    rows[700] = rows[700].replace("USER00000", "W" * 8000)
    minimal_logs(tmp_path, http_rows=rows)
    calls = count_decoders(monkeypatch)
    tracemalloc.start()
    try:
        events, report = parse_logs(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == {"plain": 5, "rows": 0}
    assert peak < 16e6 and report.events["http"] == len(events) == 1400
    assert_matches_oracle(tmp_path)


def test_a_long_user_in_every_chunk_keeps_the_key_cells_bounded(tmp_path, monkeypatch):
    """A 550-byte user every half chunk among 72-byte rows: ~7.6 fixed-width
    cells per chunk byte, just under a budget of 8 cells per chunk byte.
    That budget grows with the chunk and peaks at ~25 MB on 256 KiB
    chunks; the absolute ``_KEY_CELLS`` keys these chunks by ``bytes``."""
    row = "H{:07d},01/04/2011 09:{:02d}:00,USER{:05d},PC-0001,http://a.example.com/{:04d}"
    rows = [row.format(i, i % 60, i % 7, i) for i in range(4 * features._CHUNK_BYTES // 72)]
    for i in range(0, len(rows), features._CHUNK_BYTES // 144):
        rows[i] = rows[i].replace(f"USER{i % 7:05d}", "W" * 550)
    minimal_logs(tmp_path, http_rows=rows)
    calls = count_decoders(monkeypatch)
    tracemalloc.start()
    try:
        events, report = parse_logs(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls["rows"] == 0 and calls["plain"] > 5 + 3  # four http chunks or more
    assert peak < 7e6 and report.events["http"] == len(events) == len(rows)
    assert_matches_oracle(tmp_path)


def test_a_plain_log_is_decoded_a_chunk_at_a_time(tmp_path, monkeypatch):
    """A plain log of over 8 chunks reaches the column decoder one chunk,
    at most ``_CHUNK_BYTES`` and a line, at a time, so the parse stays
    within a few MB (~3.4 MB on 256 KiB chunks).  One table of this whole
    ~2.2 MB log would peak at ~29 MB."""
    rows = [f"H{i:07d},01/04/2011 09:{i % 60:02d}:00,U{i % 7},PC-0001,"
            f"http://a.example.com/{'x' * (i % 50)}" for i in range(25000)]
    minimal_logs(tmp_path, http_rows=rows)
    assert (tmp_path / "http.csv").stat().st_size > 8 * features._CHUNK_BYTES
    tables, parse_plain = [], features._parse_plain

    def table(table, *args):
        tables.append(len(table[0]))
        return parse_plain(table, *args)

    monkeypatch.setattr(features, "_parse_plain", table)
    tracemalloc.start()
    try:
        events, report = parse_logs(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    line = max(map(len, rows)) + 1
    assert len(tables) > 4 + 8  # one per other log, over 8 for http
    assert max(tables) <= features._CHUNK_BYTES + line + features._PAD
    assert peak < 5e6 and report.events["http"] == len(events) == 25000


def test_a_quoted_log_is_decoded_in_batches_of_about_a_chunk(tmp_path, monkeypatch):
    """A log quoted from its header on goes through ``csv.reader`` whole,
    yet its records reach the column decoder a batch of about
    ``_BATCH_BYTES`` at a time, so the parse stays within a few MB.  One
    batch of this whole ~1.3 MB log would peak at ~16 MB."""
    rows = [f'"H{i}","01/04/2011 09:{i % 60:02d}:00","U{i % 7}","PC","{"x" * (i % 50)}"'
            for i in range(20000)]
    minimal_logs(tmp_path)
    path = tmp_path / "http.csv"
    path.write_text('"id","date","user","pc","url"\n' + "\n".join(rows) + "\n")
    assert path.stat().st_size > 16 * features._BATCH_BYTES
    batches, parse_plain = [], features._parse_plain

    def batch(table, *args):
        batches.append(len(table[0]))
        return parse_plain(table, *args)

    monkeypatch.setattr(features, "_parse_plain", batch)
    tracemalloc.start()
    try:
        events, report = parse_logs(tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(batches) > 16 and max(batches) < features._BATCH_BYTES + 1000
    assert peak < 6e6 and report.events["http"] == len(events) == 20000
    assert_matches_oracle(tmp_path)


@pytest.mark.parametrize("eighth, want_rows, want_bad", [
    ("a.com\r\n", 0, 0),   # CR LF line ends only: the column path
    ("a.com\r", 1, 0),     # the eighth row's line ends at a lone CR
    ("a\rb\r\n", 1, 1),    # a lone CR in its url ends the line there
], ids=["crlf", "cr-line-end", "cr-in-field"])
def test_a_lone_cr_sends_its_chunk_row_by_row(tmp_path, monkeypatch, eighth,
                                              want_rows, want_bad):
    """A CR that ends a line before its LF is dropped on the column path; a
    lone CR sends its chunk to the per-row path, so csv splits that line
    where it would."""
    rows = [f"H{i},01/04/2011 09:00:{i % 60:02d},U{i % 3},PC," for i in range(40)]
    minimal_logs(tmp_path)
    (tmp_path / "http.csv").write_bytes(("id,date,user,pc,url\r\n" + "".join(
        row + (eighth if i == 7 else "a.com\r\n") for i, row in enumerate(rows))).encode())
    calls = count_decoders(monkeypatch)
    _, report = parse_logs(tmp_path)
    assert (calls["rows"], report.malformed["http"]) == (want_rows, want_bad)
    assert_matches_oracle(tmp_path)


def test_canonical_dates_get_strptime_verdict(tmp_path, monkeypatch):
    """Every month 00 to 13 and day 00 to 32 of some years, past and
    present, leap and not, read as columns (bare) and row by row (quoted):
    a date is a day where strptime reads one, and malformed elsewhere."""
    dates = [f"{month:02d}/{day:02d}/{year:04d}" for month in range(14)
             for day in range(33) for year in (0, 1, 1900, 2000, 2011, 2012, 9999)]

    def strptime_day(text):
        try:
            return datetime.strptime(text, "%m/%d/%Y").toordinal()
        except ValueError:
            return None

    want = [strptime_day(text) for text in dates]
    assert 0 < want.count(None) < len(dates)
    calls = count_decoders(monkeypatch)
    for quote in ('"', ""):
        minimal_logs(tmp_path, login_rows=[f"L{i},{quote}{text} 09:30:00{quote},U1,PC,Logon"
                                           for i, text in enumerate(dates)])
        calls.update(plain=0, rows=0)
        events, report = parse_logs(tmp_path)
        assert calls["rows"] == (quote != "")
        assert report.malformed["login"] == want.count(None)
        assert events.day.tolist() == [day for day in want if day is not None]
        assert set(events.second.tolist()) == {9 * 3600 + 30 * 60}


@pytest.mark.parametrize("ending", ["\n", "\r\n"])
@pytest.mark.parametrize("quote_at", [None, 1, 5])
def test_non_utf8_log_names_its_file_and_line(tmp_path, ending, quote_at):
    """A byte that is not UTF-8, read by the column path (no quote), by the
    per-row path after a quote, or in the chunk holding the first quote."""
    rows = [f"H{i},01/04/2011 09:00:0{i},U1,PC," + ('"a"' if i == quote_at else "a")
            for i in range(8)]
    minimal_logs(tmp_path, http_rows=rows)
    path = tmp_path / "http.csv"
    lines = path.read_bytes().decode().split("\n")
    lines[4] = lines[4].replace("U1", "U\xff")  # line 5: the fourth row
    path.write_bytes(ending.join(lines).encode("latin-1"))
    for chunk in (1, 64, features._CHUNK_BYTES):
        with mock.patch.object(features, "_CHUNK_BYTES", chunk), \
                pytest.raises(SchemaError, match=r"http\.csv: line 5: not UTF-8 "
                                                 r"\(byte 0xff: invalid start byte\)"):
            parse_logs(tmp_path)


def test_odd_stamps_get_strptime_verdict(tmp_path, monkeypatch):
    """Every stamp in a grid of valid and invalid fields, read row by row
    (quoted) and as columns (plain)."""
    grid = ["{:02d}/{:02d}/{:04d} {:02d}:{:02d}:{:02d}".format(*fields)
            for fields in itertools.product([0, 1, 2, 12, 13], [0, 1, 2, 8, 29, 30, 32],
                                            [0, 1, 2011, 2012], [0, 9, 23, 24, 99],
                                            [0, 59, 60], [0, 59, 60, 61])]
    stamps = ODD_STAMPS + ["01/04/2011 09:00:00", " 01/04/2011 09:00:00 "] + grid
    calls = count_decoders(monkeypatch)
    for quote in ('"', ""):
        minimal_logs(tmp_path, login_rows=[f"L{i},{quote}{t}{quote},U{i % 3},PC,Logon"
                                           for i, t in enumerate(stamps)])
        calls.update(plain=0, rows=0)
        _, report = parse_logs(tmp_path)
        assert calls["rows"] == (quote != "")
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

# the user ids, labels and floats whose fields are hardest to get right:
# csv quotes ``a,b`` and ``x"y``, ``#U1`` starts like a comment, an empty
# label is an empty field, and repr tells -0.0 from 0.0
CSV_USERS = st.sampled_from(["U1", "a,b", 'x"y', "#U1"])
CSV_FLOATS = st.sampled_from([-0.0, 0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2]) | st.floats(
    allow_nan=False, allow_infinity=False)
CSV_DAYS = st.dates(date(2011, 1, 1), date(2011, 1, 9))


def csv_writer_bytes(header, rows, comment):
    """What ``csv.writer`` writes for these rows, after the comment line."""
    out = io.StringIO()
    out.write(f"# {comment}\n" if comment else "")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue().encode("utf-8")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(rows=st.lists(st.builds(
    BehaviorVector, CSV_USERS, CSV_DAYS, st.lists(CSV_FLOATS, min_size=N_FEATURES,
                                                 max_size=N_FEATURES),
    st.sampled_from([None, "", "normal", "abnormal"])), max_size=8),
       comment=st.sampled_from([None, "digest"]))
def test_features_csv_round_trip(rows, comment):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "features.csv"
        write_features_csv(path, rows, comment=comment)
        assert path.read_bytes() == csv_writer_bytes(
            ["user", "day", *FEATURE_NAMES, "label"],
            [[row.user, row.day.isoformat(), *row.features.tolist(), row.label or ""]
             for row in rows], comment)
        back = read_features_csv(path)
    assert len(back) == len(rows)
    for a, b in zip(rows, back):
        assert (a.user, a.day, a.label or None) == (b.user, b.day, b.label)
        assert a.features.tobytes() == b.features.tobytes()  # repr is exact


GOOD_FEATURES = "U0,2011-01-03," + ",".join(["0.5"] * N_FEATURES) + ",normal"
SHORT_ROW = "U0,2011-01-04"
HUGE_FIELD = '"' + "x" * (csv.field_size_limit() + 1) + '"'


def feature_line(user="U0", day="2011-01-03", value="0.5", label="normal", at=0):
    values = ["0.5"] * N_FEATURES
    values[at] = value
    return ",".join([user, day, *values, label])


@pytest.mark.parametrize("lines, error", [
    (["nope", "1,2"], "not a features CSV"),
    ([feature_line(value="inf", at=3), SHORT_ROW],
     "line 3: feature values must be finite"),
    ([feature_line(value="x", at=15), SHORT_ROW],
     "line 3: could not convert string to float: 'x'"),
    ([GOOD_FEATURES, SHORT_ROW, feature_line(value="nan")],
     "line 4: expected 19 columns, got 2"),
    ([feature_line(user="a b"), feature_line(day="2011-13-01")],
     "line 3: user id 'a b' contains whitespace"),
    ([feature_line(day="x"), feature_line(user="a=b")],
     "line 3: Invalid isoformat string: 'x'"),
    ([feature_line(user="a b", day="x")], "line 3: user id 'a b'"),
    ([GOOD_FEATURES, feature_line(user="a/b"), feature_line(value="-inf", at=9)],
     "line 4: user id 'a/b'"),
    ([feature_line(label="bad"), feature_line(label=HUGE_FIELD)],
     "line 3: label 'bad' is not"),
    ([GOOD_FEATURES, feature_line(label=HUGE_FIELD), feature_line(label="bad")],
     "line 4: field larger than field limit"),
], ids=["not-a-features-csv", "non-finite-before-short-row", "bad-float-before-short-row",
        "short-row-before-non-finite", "bad-user-before-bad-date", "bad-date-before-bad-user",
        "bad-user-and-date-in-one-row", "bad-user-before-non-finite",
        "bad-label-before-field-limit", "field-limit-before-bad-label"])
def test_features_csv_schema_errors(tmp_path, lines, error):
    """The first bad record in the file is the one reported, by its line;
    ``lines`` follow a header, or here a comment line and a header."""
    path = tmp_path / "bad.csv"
    header = ",".join(["user", "day", *FEATURE_NAMES, "label"])
    write_lines(path, lines if lines[0] == "nope" else ["# c", header, *lines])
    with pytest.raises(SchemaError, match=re.escape(error)):
        read_features_csv(path)


@pytest.mark.parametrize("lines, error", [
    (["U0,x,normal", "U0,2011-01-04"], "line 2: Invalid isoformat string: 'x'"),
    (["U0,2011-01-03,normal", "U0,2011-01-04,bad", "U0,x,normal"],
     "line 3: label 'bad' is not"),
    (["U0,2011-01-03,bad", f"U0,2011-01-04,{HUGE_FIELD}"], "line 2: label 'bad'"),
    (["U0,2011-01-03,normal", "U0,2011-01-04", "U0,x,bad"],
     "line 3: expected 3 columns, got 2"),
], ids=["bad-date-before-short-row", "bad-label-before-bad-date",
        "bad-label-before-field-limit", "short-row-before-bad-date"])
def test_labels_csv_schema_errors(tmp_path, lines, error):
    path = tmp_path / "labels.csv"
    write_lines(path, ["user,day,label", *lines])
    with pytest.raises(SchemaError, match=re.escape(error)):
        read_labels_csv(path)


def read_row_by_row(path, n_columns, convert):
    """The records ``convert`` makes of a CSV, one record at a time, or
    the error of the first bad one, with its line."""
    out, lineno = [], 0

    def lines():
        nonlocal lineno
        for lineno, line in enumerate(handle, start=1):
            yield line

    with open(path, newline="", encoding="utf-8") as handle:
        records = csv.reader(itertools.dropwhile(lambda line: line.startswith("#"),
                                                 lines()))
        try:
            next(records)
            for rec in records:
                if len(rec) != n_columns:
                    return f"line {lineno}: expected {n_columns} columns, got {len(rec)}"
                out.append(convert(rec))
        except (csv.Error, ValueError) as exc:
            return f"line {lineno}: {exc}"
    return out


def usually(good, *bad):
    return st.sampled_from([good] * 3 + [*bad])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(fields=st.lists(st.tuples(
    usually("U0", "a b", "#U1", "a=b"), usually("2011-01-03", "x", "2011-13-01"),
    usually("0.5", "x", "inf", "nan", "1_0", "-0.0", "1e400", " 2 "),
    st.integers(0, N_FEATURES - 1), usually("normal", "", "Normal", "abnormal"),
    usually("row", "row", "short", "huge")), max_size=10))
def test_columns_report_the_error_a_row_by_row_read_reports(fields):
    """A feature file and a labels file with bad cells, short rows and
    fields over csv's limit read as a row-by-row reader reads them, up to
    their first bad record and its error."""
    records = [SHORT_ROW.split(",") if shape == "short" else feature_line(
        user, day, value, HUGE_FIELD if shape == "huge" else label, at).split(",")
        for user, day, value, at, label, shape in fields]
    with tempfile.TemporaryDirectory() as tmp:
        for path, header, n_columns, rows, read, want in [
            (Path(tmp) / "features.csv", ["user", "day", *FEATURE_NAMES, "label"],
             N_FEATURES + 3, records, read_features_csv, features._feature_row),
            (Path(tmp) / "labels.csv", ["user", "day", "label"], 3,
             [[*rec[:2], rec[-1]][:len(rec)] for rec in records], read_labels_csv,
             features._label_row)]:
            write_lines(path, ["# c", ",".join(header), *map(",".join, rows)])
            want = read_row_by_row(path, n_columns, want)
            if isinstance(want, str):
                with pytest.raises(SchemaError) as error:
                    read(path)
                assert str(error.value) == f"{path}: {want}"
            elif read is read_labels_csv:
                assert read(path) == dict(want)
            else:
                assert [(r.user, r.day, r.features.tobytes(), r.label) for r in read(path)] \
                    == [(r.user, r.day, r.features.tobytes(), r.label) for r in want]


def test_hash_is_a_comment_only_before_the_header(tmp_path):
    """``#`` lines before the header are skipped; after it, a line that
    starts with ``#`` is a record, here of user ``#U1``."""
    rows = [mkrow("#U1", 1, np.full(N_FEATURES, 0.5)), mkrow("U0", 2, label="abnormal")]
    path = tmp_path / "features.csv"
    write_features_csv(path, rows, comment="digest")
    path.write_text("# another comment\n" + path.read_text(encoding="utf-8"),
                    encoding="utf-8")
    assert [(r.user, r.label) for r in read_features_csv(path)] == [
        ("#U1", None), ("U0", "abnormal")]
    labels = tmp_path / "labels.csv"
    write_lines(labels, ["# c", "user,day,label", "#U1,2011-01-03,abnormal",
                         "U0,2011-01-03,normal"])
    assert read_labels_csv(labels) == {("#U1", date(2011, 1, 3)): "abnormal",
                                       ("U0", date(2011, 1, 3)): "normal"}


@pytest.mark.parametrize("label", ["Abnormal", "NORMAL", " normal", "anomalous", "1"])
def test_label_other_than_normal_or_abnormal_is_schema_error(tmp_path, label):
    labels = tmp_path / "labels.csv"
    write_rows(labels, ["user", "day", "label"],
               [["U0", "2011-01-03", "normal"], ["U0", "2011-01-04", label]])
    with pytest.raises(SchemaError, match=f"line 3: label {label!r} is not"):
        read_labels_csv(labels)
    write_rows(labels, ["user", "day", "label"], [["U0", "2011-01-03", ""]])
    with pytest.raises(SchemaError, match="line 2: label '' is not"):
        read_labels_csv(labels)  # a labels file gives every day a label
    path = tmp_path / "features.csv"
    write_features_csv(path, [mkrow("U0", 1, label="normal"), mkrow("U0", 2, label=label)])
    with pytest.raises(SchemaError, match=f"line 3: label {label!r} is not"):
        read_features_csv(path)


def test_attach_labels():
    rows = [mkrow("U1", 1), mkrow("U1", 2)]
    attach_labels(rows, {("U1", rows[0].day): "abnormal"})
    assert rows[0].label == "abnormal"
    assert rows[1].label is None
