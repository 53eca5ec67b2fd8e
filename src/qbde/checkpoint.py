"""Text file formats: ``key = value`` files, CSVs and checkpoints.

``read_kv`` and ``write_kv`` read and write every ``key = value`` file:
``run.cfg``, checkpoints, saved scorers, and the synth, parse and
detection reports.  A bytes value is written as its count, ``N bytes``,
and its raw bytes follow the text, after a ``[bytes]`` line, in the
order of their lines; no raw byte is decoded as text, and each value
gets exactly its N bytes.
``read_csv`` reads every other CSV (labels, features and scores): it
splits the records with ``str.split``, or with ``csv.reader`` where a
quote, a CR, a NUL or an over-long line needs it, converts each column
once per distinct cell (``convert_cells``), and runs only the first bad
record through the file's per-record rule, whose error it reports.
``write_columns`` writes those three and the normalisation stats from
columns of fields made once per distinct value (``float_fields``,
``text_fields``) through ``write_blocks``, which also writes the synth
logs and the losses as ready bytes, a resumed loss file as its old bytes
and then the new rows.  ``write_kv`` writes a whole file in one call.
Every writer goes through ``atomic_open``, so no output is ever left
half-written, and ``replace_together`` makes a set of outputs change all
at once or not at all, putting back the old files if a rename fails.

A checkpoint has the ``qbde-ckpt-v6`` magic line and one ``[section]`` per
part of the training state.  Scalar floats are written with ``float.hex``;
an array is a ``key.shape`` line plus a ``key.data`` value of its values
as raw little-endian binary64 bytes, so a save/load round trip is
bit-exact.  Each trained network is one vector with one Adam state, and
the file stores exactly that: ``[generator]`` the ``angles``,
``[discriminator]`` the flat ``params``, and ``[opt_g]`` and ``[opt_d]``
each the step count ``t`` and the moments ``m`` and ``v``, shaped like the
array the optimiser steps.  Every shape must be the one ``[config]`` and
``n_qubits`` imply, every value finite, Adam second moments >= 0, and
step counts and the epoch below ``COUNT_LIMIT``, and no section header
may repeat.
With the train config, seed and RNG state, that is what makes a resumed
run indistinguishable from an uninterrupted one.

``[meta]`` comes first and binds the file to the run that wrote it: the
epoch, the run's config digest, and the count and ``data_sha256`` of the
simplex rows it was trained on (``Rows``).  A fresh (not resumed) train
also seals it: the ``recipe`` (``qgan.RECIPE_VERSION``), the
``loss_sha256`` of its loss file, and last ``state_sha256``, the sha256
of every byte after ``[meta]``.  ``sealed`` tells such a file, byte for
byte, from any other, and ``Sealed.write`` rewrites it under another
config digest, copying those bytes: of the run's settings, only those in
``[config]`` and the rows shape the rest of the file.

Two loaders read a checkpoint.  ``load_checkpoint`` (``train --resume``)
reads and checks the whole file.  ``load_generator`` (``detect``) reads
it from its start in 8 KiB blocks up to the ``[bytes]`` line, and its
lines up to the header after ``[meta]``, ``[config]`` and
``[generator]``, which ``save_checkpoint`` writes first, with the angles
first among the raw values: it checks the magic line, those three
sections and their UTF-8 exactly as ``load_checkpoint`` does, through
the same line code and the same checks (``_head``), and never checks
``[discriminator]``, ``[opt_g]``, ``[opt_d]`` or ``[rng]``, nor reads their
raw values: one block of a written file.
Given the run's train config and rows, either loader then refuses a file
trained with other settings (``ConfigError``) or fit to other rows
(``SchemaError``).

Earlier formats are refused: ``qbde-ckpt-v1`` (also stored settings that
are now constants), ``qbde-ckpt-v2`` (arrays as ``float.hex`` lists),
``qbde-ckpt-v3`` (weights, biases and moments stored one array per
layer), ``qbde-ckpt-v4`` (not bound to its training rows) and
``qbde-ckpt-v5`` (arrays as hex text).
"""

from __future__ import annotations

import csv
import functools
import hashlib
import io
import os
from contextlib import contextmanager
from dataclasses import fields, replace
from itertools import dropwhile, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import qgan
from .errors import ConfigError, SchemaError
from .optim import Adam
from .qgan import DiscriminatorNet, TrainConfig, TrainState
from .qsim import MAX_QUBITS, GeneratorParams

MAGIC = "qbde-ckpt-v6"
# Adam step counts and epochs stay in the signed 64-bit range: far beyond
# any run, and far below the ~1e308 at which Adam's ``BETA1**t`` can no
# longer turn t into a float
COUNT_LIMIT = 2**63
# the sections detect reads (load_generator), and the block size it reads
# them in: a file written by save_checkpoint puts them first, in ~1 KB of
# text at depth 8, and the angles' 288 bytes first after the text
_HEAD = frozenset({"meta", "config", "generator"})
_BLOCK_BYTES = 1 << 13
# the line that ends the text of a key = value file with raw values
_RAW = b"\n[bytes]\n"


# [config] holds TrainConfig's fields in their declared order
_DECODE = {"int": int, "float": float.fromhex,
           "tuple[int, ...]": lambda text: tuple(int(h) for h in text.split())}


def _encode(kind: str, value) -> str:
    if kind == "float":
        return float(value).hex()
    return " ".join(map(str, value)) if kind == "tuple[int, ...]" else str(value)


class _Staged(type(Path())):
    """A file ``replace_together`` staged, which ``atomic_open`` writes in
    place: it replaces its target only once every staged file is whole."""


@contextmanager
def atomic_open(path: str | Path):
    """Write through a sibling temp file that replaces ``path`` on success,
    or straight into a staged file; on failure, the file written is removed."""
    tmp = path if isinstance(path, _Staged) else Path(f"{path}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as handle:
            yield handle
        if tmp is not path:
            tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def replace_together():
    """Files that all change or none does: inside the block,
    ``stage(path)`` names the file to write in place of ``path``, its
    hidden sibling ``.<name>``, which ``atomic_open`` writes directly.
    Once the block ends without an error, each staged file replaces its
    ``path``; if it raises, none does, and the staged files are removed.
    Each old file stays reachable through a hard link, ``.<name>.old`` (a
    copy where the file system has no hard links), until every staged file
    has replaced its target; if a rename fails, the targets already
    replaced get their old files back (a target that did not exist is
    removed again)."""
    staged, kept, replaced = [], [], 0

    def stage(path: str | Path) -> Path:
        path = Path(path)
        staged.append((_Staged(path.with_name(f".{path.name}")), path))
        return staged[-1][0]

    try:
        yield stage
        try:
            for new, path in staged:
                old = path.with_name(f".{path.name}.old")
                kept.append(old)
                try:
                    try:
                        os.link(path, old)
                    except FileExistsError:   # left by a run that crashed here
                        old.unlink()
                        os.link(path, old)
                except FileNotFoundError:
                    kept[-1] = None
                except OSError:   # a file system without hard links
                    old.write_bytes(path.read_bytes())
                new.replace(path)
                replaced += 1
        except BaseException:
            for (_, path), old in zip(staged[:replaced], kept):
                if old is None:
                    path.unlink(missing_ok=True)
                else:
                    old.replace(path)
            raise
    finally:
        for new, _ in staged[replaced:]:
            new.unlink(missing_ok=True)
        for old in filter(None, kept):
            old.unlink(missing_ok=True)


def write_blocks(path: str | Path, header: list | None, blocks,
                 comment: str | None = None) -> None:
    """Write a ``# comment`` line if given, ``header`` as a CSV line, then
    each block of ready CSV bytes (any bytes-like object), into ``path``
    through ``atomic_open``; with no ``header``, only the blocks."""
    with atomic_open(path) as handle:
        if header is not None:
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
    as a field, made once per distinct value: as it is if it is not empty
    and holds no comma, quote, CR or LF, else by ``csv.writer``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    table = {}
    for value in dict.fromkeys(values):
        field = text(value)
        if not field or "," in field or '"' in field or "\r" in field or "\n" in field:
            buf.seek(0)
            buf.truncate()
            writer.writerow((field, ""))  # a row of one empty field is ""
            field = buf.getvalue()[:-2]
        table[value] = field
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


def _plain_lines(text: str) -> list[str] | None:
    """The lines of ``text`` if ``str.split`` finds its records and fields
    as ``csv.reader`` does: it holds no quote, CR or NUL, and no line over
    csv's field size limit.  None otherwise."""
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    if not lines[-1]:
        lines.pop()   # what follows the last line end
    return lines


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
    on which ``check_record`` raises ``ValueError``.

    The file is read as bytes and decoded once.  Text that ``_plain_lines``
    accepts is split with ``str.split``; any other goes through
    ``csv.reader``."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc
    lines = _plain_lines(text)
    header, records, ends, lineno, error = (
        _csv_split(text, n_columns) if lines is None else _plain_split(lines, n_columns))
    if (header is None and error is None) or (header is not None and not header_ok(header)):
        raise SchemaError(f"{path}: not a {kind} CSV")
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


def _plain_split(lines: list[str], n_columns: int):
    """``read_csv``'s records of the ``_plain_lines`` of a file, as
    ``_csv_split`` gives them."""
    first = next((i for i, line in enumerate(lines) if not line.startswith("#")),
                 len(lines))
    if first == len(lines):
        return None, [], [], first, None
    body = lines[first + 1:]
    records = [*map(str.split, body, repeat(","))]
    if "" in body:   # csv reads an empty line as a record of no fields
        records[body.index("")] = []
    widths = [*map(len, records)]
    error = None
    if widths.count(n_columns) != len(widths):
        bad = next(i for i, width in enumerate(widths) if width != n_columns)
        error = f"expected {n_columns} columns, got {widths[bad]}"
        del records[bad:]
    lineno = first + 2 + len(records)   # the bad line's, if there is one
    return (lines[first].split(",") if lines[first] else [], records,
            range(first + 2, lineno), lineno, error)


def _csv_split(text: str, n_columns: int):
    """``read_csv``'s split of ``text`` with ``csv.reader``: the header
    (None if there is none, or if csv rejects it), the records up to the
    first bad one and each one's line, and the line and error of that bad
    one (None if there is none)."""
    header, records, ends, error, lineno = None, [], [], None, 0

    def lines():
        nonlocal lineno
        for lineno, line in enumerate(io.StringIO(text, newline=""), start=1):
            yield line

    reader = csv.reader(dropwhile(lambda line: line.startswith("#"), lines()))
    try:
        header = next(reader, None)
        for rec in reader if header is not None else ():
            if len(rec) != n_columns:
                error = f"expected {n_columns} columns, got {len(rec)}"
                break
            records.append(rec)
            ends.append(lineno)
    except csv.Error as exc:
        error = exc
    return header, records, ends, lineno, error


class Section(dict):
    """String entries of one section; looking up a missing one raises
    ``SchemaError`` that names it after ``where`` (file and section)."""

    def __init__(self, where: str):
        super().__init__()
        self.where = where

    def __missing__(self, key):
        raise SchemaError(f"{self.where}{key} is missing")


def read_kv(path: str | Path, magic: str | None = None,
            until: frozenset = frozenset()) -> Section:
    """Sections of a ``key = value`` file, by name; entries before the
    first ``[section]`` header are in section ``""``.  Blank and ``#``
    lines are skipped, a repeated key keeps its last value, and a
    repeated section header is refused.  The text is decoded from UTF-8
    and its lines end at LF, CR LF or a lone CR.  It ends at the first
    ``[bytes]`` line ended by an LF, if there is one; then the raw bytes
    after that line are the values written as ``N bytes``, in the order
    of their lines, each a memoryview of exactly its N bytes, and no byte
    is left over.

    The file is read whole, unless ``until`` names sections: then it is
    read in blocks of ``_BLOCK_BYTES`` up to its ``[bytes]`` line, and the
    lines stop at the first header after all of them, once it is checked
    not to repeat one before it: no line after that header is checked, and
    no raw byte after the values before it is read."""
    sections = Section(f"{path}: section ")
    current = sections[""] = Section(f"{path}: ")
    last = f"{path}: [bytes]"   # the value the bytes read so far end
    with open(path, "rb", buffering=0) as handle:
        data = handle.read(_BLOCK_BYTES) if until else handle.readall()
        if until:   # each block is searched once for the [bytes] line
            data, seen = bytearray(data), 0
            while data.find(_RAW, seen) < 0 and (block := handle.read(_BLOCK_BYTES)):
                seen = max(len(data) - len(_RAW), 0)
                data += block
            data = bytes(data)
        stop = data.find(_RAW) + 1 or len(data)
        at = min(stop + len(_RAW) - 1, len(data))   # where the raw bytes start
        try:
            text, bad = data[:stop].decode("utf-8"), None
        except UnicodeDecodeError as exc:
            # the lines before the one that is not UTF-8 are read; the
            # error is raised once a line from it on is needed
            start = max(data.rfind(b"\n", 0, exc.start), data.rfind(b"\r", 0, exc.start)) + 1
            bad = SchemaError(f"{path}: not UTF-8 text ({exc})")
            if not until or not start:
                raise bad from exc
            text = data[:start].decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        lines = text.split("\n")
        if magic is not None:
            if lines[0].strip() != magic:
                raise SchemaError(f"{path}: not a {magic} file")
            lines[0] = ""
        for lineno, raw in enumerate(lines, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1]
                if name in sections:
                    raise SchemaError(f"{path}:{lineno}: repeated section [{name}]")
                if until and sections.keys() >= until:
                    return sections
                current = sections[name] = Section(f"{path}: {name}.")
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise SchemaError(f"{path}:{lineno}: unparseable line {line!r}")
            # a repeated key moves to its last place: aliases apply in file order
            key, value = key.strip(), value.strip()
            if stop < len(data) and value.endswith(" bytes"):
                last = f"{current.where}{key}"
                if not value[:-6].isdecimal():
                    raise SchemaError(f"{last}: byte count {value[:-6]!r} is not a number")
                end = at + int(value[:-6])
                if until and end > len(data):
                    data += handle.readall()
                if end > len(data):
                    raise SchemaError(f"{last}: {end - at} bytes, {len(data) - at} left")
                value, at = memoryview(data)[at:end], end
            current.pop(key, None)
            current[key] = value
    if bad is not None:
        raise bad
    if at < len(data) and not until:
        raise SchemaError(f"{last}: {len(data) - at} bytes follow it")
    return sections


def _kv_bytes(sections: dict[str, dict]) -> bytes:
    """Each section's ``key = value`` lines in order, under a ``[name]``
    header unless the name is ``""``.  A bytes value is written as its
    count, ``N bytes``, and its bytes follow the last line, after a
    ``[bytes]`` line, in the order of their lines."""
    lines, raw = [], []
    for name, entries in sections.items():
        if name:
            lines.append(f"[{name}]")
        for key, value in entries.items():
            if isinstance(value, bytes):
                raw.append(value)
                value = f"{len(value)} bytes"
            lines.append(f"{key} = {value}")
    if raw:
        lines.append(_RAW.strip().decode())
    return b"".join(["\n".join([*lines, ""]).encode(), *raw])


def write_kv(path: str | Path, magic: str, sections: dict[str, dict],
             tail: bytes = b"") -> None:
    """``magic``, the ``_kv_bytes`` of ``sections``, then the ready bytes
    ``tail``, in one write."""
    with atomic_open(path) as handle:
        handle.buffer.write(b"".join([f"{magic}\n".encode(), _kv_bytes(sections), tail]))


def _put_array(key: str, arr: np.ndarray) -> dict:
    """An array's entries: its shape, and its values as little-endian
    binary64 bytes."""
    return {f"{key}.shape": " ".join(str(d) for d in arr.shape),
            f"{key}.data": np.asarray(arr, "<f8").tobytes()}


def _get_array(sec: Section, key: str, want: tuple[int, ...],
               nonnegative: bool = False) -> np.ndarray:
    """The finite array stored under ``key``, if its shape is ``want``."""
    shape = tuple(int(d) for d in sec[f"{key}.shape"].split())
    if shape != want:
        raise SchemaError(f"{sec.where}{key}.shape = {shape}, want {want}")
    try:
        data = np.frombuffer(sec[f"{key}.data"], "<f8").astype(float).reshape(shape)
    except (TypeError, ValueError) as exc:
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
    return Adam(lr, param, _get_int(sec, "t", 0, COUNT_LIMIT),
                _get_array(sec, "m", param.shape),
                _get_array(sec, "v", param.shape, nonnegative=True))


@functools.cache
def _no_seed():
    """Zero seed words for a PCG64 whose state is then set from a
    checkpoint: no entropy is gathered or hashed for a state replaced at
    once.  Made on first use, so importing qbde does not import
    ``numpy.random``."""
    class NoSeed(np.random.bit_generator.ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype)

    return NoSeed()


class Rows(NamedTuple):
    """The simplex rows one user's generator is trained on, as ``[meta]``
    binds a checkpoint to them: their count and ``data_sha256``, the sha256
    of their shape and little-endian binary64 bytes; and the file they
    were read from, which a mismatch names."""
    count: int
    sha256: str
    source: str = ""

    @classmethod
    def of(cls, rows: np.ndarray, source: str | Path = "") -> "Rows":
        rows = np.ascontiguousarray(rows, dtype="<f8")
        h = hashlib.sha256(f"|{rows.shape}|".encode())
        h.update(rows)
        return cls(len(rows), h.hexdigest(), str(source))


def _meta(epoch: int, digest: str | None, rows: Rows) -> dict:
    """``[meta]``'s entries that every train writes, in the order written."""
    return {"epoch": epoch, **({"config_digest": digest} if digest else {}),
            "rows": rows.count, "data_sha256": rows.sha256}


def _config(cfg: TrainConfig) -> dict:
    return {f.name: _encode(f.type, getattr(cfg, f.name)) for f in fields(cfg)}


def save_checkpoint(path: str | Path, cfg: TrainConfig, state: TrainState,
                    rows: Rows, digest: str | None = None,
                    loss_sha256: str | None = None) -> None:
    """Write ``state`` and ``cfg`` to ``path`` in one write.  ``[meta]``
    holds the epoch, ``digest`` as ``config_digest``, and the count and
    ``data_sha256`` of the ``rows`` trained on.  Given the ``loss_sha256``
    of its loss file (a fresh train), the file is sealed: ``[meta]`` goes
    on with ``qgan.RECIPE_VERSION`` as ``recipe``, that ``loss_sha256`` and
    ``state_sha256``, which ``sealed`` checks."""
    rng_state = state.rng.bit_generator.state
    if rng_state["bit_generator"] != "PCG64":
        raise SchemaError("only PCG64 generators can be checkpointed")
    sections = {
        "config": _config(cfg),
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
    }
    body = _kv_bytes(sections)
    meta = _meta(state.epoch, digest, rows)
    if loss_sha256 is not None:
        meta.update(recipe=qgan.RECIPE_VERSION, loss_sha256=loss_sha256,
                    state_sha256=hashlib.sha256(body).hexdigest())
    write_kv(path, MAGIC, {"meta": meta}, body)


class Sealed(NamedTuple):
    """A sealed checkpoint, as ``sealed`` finds it: its ``[meta]`` entries
    and the bytes after them."""
    meta: dict
    state: memoryview

    def write(self, path: str | Path, digest: str, loss_sha256: str) -> None:
        """Write this checkpoint to ``path`` with ``digest`` as its
        ``config_digest`` and ``loss_sha256``, all else as it is: the file
        a fresh train under a run config of that digest writes."""
        write_kv(path, MAGIC, {"meta": {**self.meta, "config_digest": digest,
                                        "loss_sha256": loss_sha256}}, self.state)


def sealed(path: str | Path, cfg: TrainConfig, rows: Rows) -> Sealed | None:
    """The checkpoint at ``path`` if it is, byte for byte, one that a fresh
    train under ``cfg`` wrote for ``rows`` at epoch ``cfg.epochs`` with
    this ``qgan.RECIPE_VERSION``, whatever run config digest and loss file
    its ``[meta]`` names: its ``[config]`` is that of ``cfg`` and its
    ``state_sha256`` matches every line after ``[meta]``.  None, never an
    error, for any other file, or none."""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return None
    # the three open values sit on fixed lines of a sealed [meta]; the
    # comparison with the bytes written for them checks every other line
    lines = data[:_BLOCK_BYTES].split(b"\n", 9)
    if len(lines) < 10:
        return None
    digest, loss, state = (lines[at].partition(b" = ")[2].decode("latin-1")
                           for at in (3, 7, 8))
    meta = {**_meta(cfg.epochs, digest, rows), "recipe": qgan.RECIPE_VERSION,
            "loss_sha256": loss, "state_sha256": state}
    head = f"{MAGIC}\n".encode() + _kv_bytes({"meta": meta})
    config = _kv_bytes({"config": _config(cfg), "generator": {}})   # up to [generator]
    if (not data.startswith(head) or not data.startswith(config, len(head))
            or state != hashlib.sha256(memoryview(data)[len(head):]).hexdigest()):
        return None
    return Sealed(meta, memoryview(data)[len(head):])


def _head(path: str | Path, sec: Section) -> tuple[TrainConfig, GeneratorParams, int]:
    """The config, generator and epoch of a checkpoint's ``[config]``,
    ``[generator]`` and ``[meta]``, the checks both loaders make."""
    try:
        c = sec["config"]
        cfg = TrainConfig(**{f.name: _DECODE[f.type](c[f.name])
                             for f in fields(TrainConfig)})
        # the angles' shape follows from [config] and the qubit count
        g = sec["generator"]
        n_qubits = _get_int(g, "n_qubits", 1, MAX_QUBITS + 1)
        params = GeneratorParams(n_qubits, _get_array(
            g, "angles", (cfg.depth + 1, n_qubits)))
        epoch = _get_int(sec["meta"], "epoch", 0, COUNT_LIMIT)
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed field ({exc})") from exc
    return cfg, params, epoch


def _check_run(path: str | Path, have: TrainConfig, meta: Section,
               want: TrainConfig, rows: Rows) -> None:
    """Refuse a checkpoint trained with other settings than ``want`` (its
    epoch count aside: resuming continues them, and the outputs' config
    digest vouches for them), or fit to other rows than ``rows``."""
    if have != (want := replace(want, epochs=have.epochs)):
        differ = ", ".join(f"{name} = {getattr(have, name)!r} (config: "
                           f"{getattr(want, name)!r})" for name in vars(want)
                           if getattr(have, name) != getattr(want, name))
        raise ConfigError(f"{path}: checkpoint trained with {differ}")
    if (meta["rows"], meta["data_sha256"]) != (str(rows.count), rows.sha256):
        raise SchemaError(
            f"{path}: trained on {meta['rows']} rows with data_sha256 "
            f"{meta['data_sha256'][:16]}..., but {rows.source} holds "
            f"{rows.count} for its user, with data_sha256 {rows.sha256[:16]}...")


def load_generator(path: str | Path, want: TrainConfig,
                   rows: Rows) -> tuple[TrainConfig, GeneratorParams, int]:
    """The config, generator and epoch of the checkpoint at ``path``, read
    from its start up to the header after ``[meta]``, ``[config]`` and
    ``[generator]``, with their raw values: a file written by
    ``save_checkpoint`` is read one block deep.  Its magic line and those sections get ``load_checkpoint``'s
    checks; the training state after them is neither read nor checked.
    The file must have been trained with the settings ``want`` gives and
    on ``rows`` (``_check_run``)."""
    sec = read_kv(path, MAGIC, until=_HEAD)
    cfg, params, epoch = _head(path, sec)
    _check_run(path, cfg, sec["meta"], want, rows)
    return cfg, params, epoch


def load_checkpoint(path: str | Path, want: TrainConfig,
                    rows: Rows) -> tuple[TrainConfig, TrainState]:
    """The config and training state of the checkpoint at ``path``, every
    section read and checked; the file must then have been trained with
    the settings ``want`` gives and on ``rows`` (``_check_run``)."""
    sec = read_kv(path, MAGIC)
    cfg, params, epoch = _head(path, sec)
    try:
        # every array's shape follows from [config] and the qubit count
        sizes = [2**params.n_qubits, *cfg.hidden, 1]
        net = DiscriminatorNet(sizes, _get_array(
            sec["discriminator"], "params", (DiscriminatorNet.n_params(sizes),)))
        opt_g = _get_adam(sec["opt_g"], cfg.lr_g, params.angles)
        opt_d = _get_adam(sec["opt_d"], cfg.lr_d, net.flat)

        # the ranges numpy's PCG64 state setter accepts
        r = sec["rng"]
        bits = np.random.PCG64(_no_seed())
        bits.state = {
            "bit_generator": r["bit_generator"],
            "state": {"state": _get_int(r, "state", 0, 2**128),
                      "inc": _get_int(r, "inc", 0, 2**128)},
            "has_uint32": _get_int(r, "has_uint32", -2**31, 2**31),
            "uinteger": _get_int(r, "uinteger", 0, 2**32),
        }
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed field ({exc})") from exc
    _check_run(path, cfg, sec["meta"], want, rows)
    return cfg, TrainState(params, net, opt_g, opt_d, np.random.Generator(bits), epoch)
