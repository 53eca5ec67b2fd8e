"""Text file formats: ``key = value`` files, CSVs and checkpoints.

``read_kv`` and ``write_kv`` read and write every ``key = value`` file:
``run.cfg``, checkpoints, saved scorers, and the synth, parse and
detection reports.
``read_csv`` reads every other CSV (labels, features and scores): it
splits the records with ``csv.reader``, converts each column once per
distinct cell (``convert_cells``), and runs only the first bad record
through the file's per-record rule, whose error it reports.
``write_columns`` writes those three and the normalisation stats from
columns of fields made once per distinct value (``float_fields``,
``text_fields``) through ``write_blocks``, which also writes the synth
logs and the losses as ready bytes.  Every writer goes through
``atomic_open``, so no output is ever left half-written.

A checkpoint has the ``qbde-ckpt-v4`` magic line and one ``[section]`` per
part of the training state.  Scalar floats are written with ``float.hex``;
an array is a ``key.shape`` line plus a ``key.data`` line of its values as
raw little-endian binary64 bytes in hex, so a save/load round trip is
bit-exact.  Each trained network is one vector with one Adam state, and
the file stores exactly that: ``[generator]`` the ``angles``,
``[discriminator]`` the flat ``params``, and ``[opt_g]`` and ``[opt_d]``
each the step count ``t`` and the moments ``m`` and ``v``, shaped like the
array the optimiser steps.  Every shape must be the one ``[config]`` and
``n_qubits`` imply, every value finite, Adam second moments >= 0, and
step counts and the epoch below ``COUNT_LIMIT``.
With the train config, seed and RNG state, that is what makes a resumed
run indistinguishable from an uninterrupted one.  Earlier formats are
refused: ``qbde-ckpt-v1`` (also stored settings that are now constants),
``qbde-ckpt-v2`` (arrays as ``float.hex`` lists) and ``qbde-ckpt-v3``
(weights, biases and moments stored one array per layer).
"""

from __future__ import annotations

import csv
import io
import shutil
from contextlib import contextmanager
from dataclasses import fields
from itertools import dropwhile
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .optim import Adam
from .qgan import DiscriminatorNet, TrainConfig, TrainState
from .qsim import MAX_QUBITS, GeneratorParams

MAGIC = "qbde-ckpt-v4"
# Adam step counts and epochs stay in the signed 64-bit range: far beyond
# any run, and far below the ~1e308 at which Adam's ``BETA1**t`` can no
# longer turn t into a float
COUNT_LIMIT = 2**63


# [config] holds TrainConfig's fields in their declared order
_DECODE = {"int": int, "float": float.fromhex,
           "tuple[int, ...]": lambda text: tuple(int(h) for h in text.split())}


def _encode(kind: str, value) -> str:
    if kind == "float":
        return float(value).hex()
    return " ".join(map(str, value)) if kind == "tuple[int, ...]" else str(value)


@contextmanager
def atomic_open(path: str | Path, append: bool = False):
    """Write through a sibling temp file that replaces ``path`` on success;
    to append, the temp file starts as a byte copy of ``path``."""
    tmp = Path(f"{path}.tmp")
    try:
        if append:
            shutil.copyfile(path, tmp)
        with open(tmp, "a" if append else "w", newline="", encoding="utf-8") as handle:
            yield handle
        tmp.replace(path)
    finally:
        tmp.unlink(missing_ok=True)


def write_blocks(path: str | Path, header: list, blocks,
                 comment: str | None = None, append: bool = False) -> None:
    """Write a ``# comment`` line if given, ``header`` as a CSV line, then
    each block of ready CSV bytes (any bytes-like object), into ``path``
    through ``atomic_open``; to append, only the blocks are written."""
    with atomic_open(path, append) as handle:
        if not append:
            if comment:
                handle.write(f"# {comment}\n")
            csv.writer(handle, lineterminator="\n").writerow(header)
            handle.flush()  # the header reaches the byte stream before the blocks
        for block in blocks:
            handle.buffer.write(block)


def float_fields(values) -> np.ndarray:
    """The ``repr`` of each float of ``values``, an object array of their
    shape, made once per distinct bit pattern: ``np.unique`` of the values
    would merge -0.0 into 0.0, which ``repr`` tells apart."""
    x = np.ascontiguousarray(values, dtype=float)
    bits, where = np.unique(x.view(np.uint64), return_inverse=True)
    texts = np.array([*map(repr, bits.view(float).tolist())], object)
    return texts[where].reshape(x.shape)


def text_fields(values: list, text=str) -> list[str]:
    """``text(value)`` of each of ``values`` as ``csv.writer`` writes it
    as a field, made once per distinct value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    table = {}
    for value in dict.fromkeys(values):
        buf.seek(0)
        buf.truncate()
        writer.writerow((text(value), ""))  # a row of one empty field is ""
        table[value] = buf.getvalue()[:-2]
    return [*map(table.__getitem__, values)]


def write_columns(path: str | Path, header: list, columns: list,
                  comment: str | None = None) -> None:
    """Write the rows whose fields are ``columns`` (lists of ready fields)
    side by side, after a ``# comment`` line and ``header``, through
    ``write_blocks``."""
    body = "\n".join([*map(",".join, zip(*columns)), ""])
    write_blocks(path, header, [body.encode()], comment)


def convert_cells(cells, convert, failed=None) -> tuple:
    """An iterator of ``convert(cell)`` for each of ``cells``, called
    once per distinct cell, and the index of the first cell on which it
    raises ValueError (``len(cells)`` if none); such a cell converts to
    ``failed``."""
    table, bad = {}, set()
    for cell in dict.fromkeys(cells):
        try:
            table[cell] = convert(cell)
        except ValueError:
            table[cell] = failed
            bad.add(cell)
    first = next(i for i, cell in enumerate(cells) if cell in bad) if bad else len(cells)
    return map(table.__getitem__, cells), first


def read_csv(path: str | Path, kind: str, header_ok, n_columns: int,
             convert, check_record):
    """``convert(columns)`` of the records after a header that
    ``header_ok`` accepts, skipping the ``#`` comment lines before the
    header; after it, a line that starts with ``#`` is a record, such as
    a user ``#U1``'s.  ``columns`` holds the records' fields by column,
    and ``convert`` returns the converted records and the index of the
    first one that ``check_record(fields)`` rejects (their count if none).
    The first bad record in file order raises ``SchemaError`` naming the
    file and line: one that csv rejects, that has another column count, or
    on which ``check_record`` raises ``ValueError``."""
    records, ends, error, lineno = [], [], None, 0

    def lines():
        nonlocal lineno
        for lineno, line in enumerate(handle, start=1):
            yield line

    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(dropwhile(lambda line: line.startswith("#"), lines()))
        try:
            header = next(reader, None)
            if header is None or not header_ok(header):
                raise SchemaError(f"{path}: not a {kind} CSV")
            for rec in reader:
                if len(rec) != n_columns:
                    error = f"expected {n_columns} columns, got {len(rec)}"
                    break
                records.append(rec)
                ends.append(lineno)
        except csv.Error as exc:
            error = exc
    # the records before a bad line are converted: a bad one among them
    # comes first in the file
    out, first = convert([*zip(*records)] or [()] * n_columns)
    if first < len(records):
        try:
            check_record(records[first])
        except ValueError as exc:
            raise SchemaError(f"{path}: line {ends[first]}: {exc}") from exc
        raise AssertionError(f"{path}: line {ends[first]}: rejected only in its column")
    if error is not None:
        raise SchemaError(f"{path}: line {lineno}: {error}")
    return out


class Section(dict):
    """String entries of one section; looking up a missing one raises
    ``SchemaError`` that names it after ``where`` (file and section)."""

    def __init__(self, where: str):
        super().__init__()
        self.where = where

    def __missing__(self, key):
        raise SchemaError(f"{self.where}{key} is missing")


def read_kv(path: str | Path, magic: str | None = None) -> Section:
    """Sections of a ``key = value`` file, by name; entries before the
    first ``[section]`` header are in section ``""``.  Blank and ``#``
    lines are skipped, and a repeated key keeps its last value."""
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc
    if magic is not None:
        if not lines or lines[0].strip() != magic:
            raise SchemaError(f"{path}: not a {magic} file")
        lines[0] = ""
    sections = Section(f"{path}: section ")
    current = sections[""] = Section(f"{path}: ")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            current = sections.setdefault(name, Section(f"{path}: {name}."))
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SchemaError(f"{path}:{lineno}: unparseable line {line!r}")
        # a repeated key moves to its last place: aliases apply in file order
        current.pop(key.strip(), None)
        current[key.strip()] = value.strip()
    return sections


def write_kv(path: str | Path, magic: str, sections: dict[str, dict]) -> None:
    """``magic``, then each section's ``key = value`` lines in order, under
    a ``[name]`` header unless the name is ``""``."""
    with atomic_open(path) as handle:
        handle.write(f"{magic}\n")
        for name, entries in sections.items():
            if name:
                handle.write(f"[{name}]\n")
            handle.writelines(f"{key} = {value}\n" for key, value in entries.items())


def _put_array(key: str, arr: np.ndarray) -> dict[str, str]:
    return {f"{key}.shape": " ".join(str(d) for d in arr.shape),
            f"{key}.data": arr.astype("<f8").tobytes().hex()}


def _get_array(sec: Section, key: str, want: tuple[int, ...],
               nonnegative: bool = False) -> np.ndarray:
    """The finite array stored under ``key``, if its shape is ``want``."""
    shape = tuple(int(d) for d in sec[f"{key}.shape"].split())
    if shape != want:
        raise SchemaError(f"{sec.where}{key}.shape = {shape}, want {want}")
    try:
        data = np.frombuffer(bytes.fromhex(sec[f"{key}.data"]), "<f8")
        data = data.astype(float).reshape(shape)
    except ValueError as exc:
        raise SchemaError(f"{sec.where}{key}.data: {exc}") from exc
    if not np.isfinite(data).all() or nonnegative and (data < 0).any():
        raise SchemaError(f"{sec.where}{key}.data: values must be finite"
                          + " and >= 0" * nonnegative)
    return data


def _get_int(sec: Section, key: str, lo: int, hi: int) -> int:
    value = int(sec[key])
    if not lo <= value < hi:
        raise SchemaError(f"{sec.where}{key} = {value}, want {lo}..{hi - 1}")
    return value


def _put_adam(opt: Adam) -> dict:
    return {"t": opt.t, **_put_array("m", opt.m), **_put_array("v", opt.v)}


def _get_adam(sec: Section, lr: float, param: np.ndarray) -> Adam:
    """The optimiser stepping ``param``: its step count and its moments,
    each shaped like ``param``."""
    opt = Adam(lr, param)
    opt.t = _get_int(sec, "t", 0, COUNT_LIMIT)
    opt.m = _get_array(sec, "m", param.shape)
    opt.v = _get_array(sec, "v", param.shape, nonnegative=True)
    return opt


def save_checkpoint(path: str | Path, cfg: TrainConfig, state: TrainState,
                    digest: str | None = None) -> None:
    rng_state = state.rng.bit_generator.state
    if rng_state["bit_generator"] != "PCG64":
        raise SchemaError("only PCG64 generators can be checkpointed")
    meta = {"epoch": state.epoch}
    if digest:
        meta["config_digest"] = digest
    write_kv(path, MAGIC, {
        "meta": meta,
        "config": {f.name: _encode(f.type, getattr(cfg, f.name))
                   for f in fields(cfg)},
        "generator": {"n_qubits": state.params.n_qubits,
                      **_put_array("angles", state.params.angles)},
        "discriminator": _put_array("params", state.net.flat),
        "opt_g": _put_adam(state.opt_g),
        "opt_d": _put_adam(state.opt_d),
        "rng": {"bit_generator": "PCG64",
                "state": rng_state["state"]["state"],
                "inc": rng_state["state"]["inc"],
                "has_uint32": rng_state["has_uint32"],
                "uinteger": rng_state["uinteger"]},
    })


def load_checkpoint(path: str | Path) -> tuple[TrainConfig, TrainState]:
    sec = read_kv(path, MAGIC)
    try:
        c = sec["config"]
        cfg = TrainConfig(**{f.name: _DECODE[f.type](c[f.name])
                             for f in fields(TrainConfig)})

        # every array's shape follows from [config] and the qubit count
        g = sec["generator"]
        n_qubits = _get_int(g, "n_qubits", 1, MAX_QUBITS + 1)
        params = GeneratorParams(n_qubits, _get_array(
            g, "angles", (cfg.depth + 1, n_qubits)))
        sizes = [2**n_qubits, *cfg.hidden, 1]
        net = DiscriminatorNet(sizes, _get_array(
            sec["discriminator"], "params", (DiscriminatorNet.n_params(sizes),)))
        opt_g = _get_adam(sec["opt_g"], cfg.lr_g, params.angles)
        opt_d = _get_adam(sec["opt_d"], cfg.lr_d, net.flat)

        # the ranges numpy's PCG64 state setter accepts
        r = sec["rng"]
        rng = np.random.default_rng(0)
        rng.bit_generator.state = {
            "bit_generator": r["bit_generator"],
            "state": {"state": _get_int(r, "state", 0, 2**128),
                      "inc": _get_int(r, "inc", 0, 2**128)},
            "has_uint32": _get_int(r, "has_uint32", -2**31, 2**31),
            "uinteger": _get_int(r, "uinteger", 0, 2**32),
        }

        epoch = _get_int(sec["meta"], "epoch", 0, COUNT_LIMIT)
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed field ({exc})") from exc
    return cfg, TrainState(params, net, opt_g, opt_d, rng, epoch)
