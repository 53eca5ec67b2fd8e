"""Text file formats: ``key = value`` files, CSVs and checkpoints.

``read_kv`` and ``write_kv`` read and write every ``key = value`` file:
``run.cfg``, checkpoints, and the synth, parse and detection reports.
``read_csv`` and ``write_csv`` read and write every CSV: the synth logs,
labels, features, normalisation stats, losses and scores.  Both writers go
through ``atomic_open``, so no output is ever left half-written.  A
checkpoint has the ``qbde-ckpt-v2`` magic line and one ``[section]`` per
part of the training state.  Floats are written with ``float.hex`` and
arrays as a ``key.shape`` line plus a ``key.data`` line of hex floats, so a
save/load round trip is bit-exact.  Besides the generator angles,
discriminator weights, train config and seed, the file carries the
optimiser moments and the RNG state: that is what makes a resumed run
indistinguishable from an uninterrupted one.  A ``qbde-ckpt-v1`` file,
which also stored settings that are now constants, is refused.
"""

from __future__ import annotations

import csv
import shutil
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import SchemaError
from .optim import Adam, flat_views, flatten
from .qgan import DiscriminatorNet, TrainConfig, TrainState
from .qsim import GeneratorParams

MAGIC = "qbde-ckpt-v2"


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


def write_csv(path: str | Path, header: list, rows, comment: str | None = None,
              append: bool = False) -> None:
    """Stream ``rows`` into ``path`` through ``atomic_open``, after a
    ``# comment`` line and ``header``, both left out when appending.
    Floats are written with ``repr``, so they read back exactly."""
    with atomic_open(path, append) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        if not append:
            if comment:
                handle.write(f"# {comment}\n")
            writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: str | Path, kind: str, header_ok, n_columns: int,
             convert) -> list:
    """``convert(fields)`` of each record after a header that ``header_ok``
    accepts, skipping ``#`` comment lines.  A record that csv rejects, that
    has another column count, or on which ``convert`` raises
    ``ValueError`` raises ``SchemaError`` naming the file and line."""
    out, lineno = [], 0

    def lines():
        nonlocal lineno
        for lineno, line in enumerate(handle, start=1):
            if not line.startswith("#"):
                yield line

    with open(path, newline="", encoding="utf-8") as handle:
        records = csv.reader(lines())
        try:
            header = next(records, None)
            if header is None or not header_ok(header):
                raise SchemaError(f"{path}: not a {kind} CSV")
            for rec in records:
                if len(rec) != n_columns:
                    raise SchemaError(f"{path}: line {lineno}: expected "
                                      f"{n_columns} columns, got {len(rec)}")
                out.append(convert(rec))
        except (csv.Error, ValueError) as exc:
            raise SchemaError(f"{path}: line {lineno}: {exc}") from exc
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
        lines = Path(path).read_text(encoding="utf-8").splitlines()
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


def format_kv(magic: str, sections: dict[str, dict]) -> str:
    """``magic``, then each section's ``key = value`` lines in order, under
    a ``[name]`` header unless the name is ``""``."""
    lines = [magic]
    for name, entries in sections.items():
        if name:
            lines.append(f"[{name}]")
        lines.extend(f"{key} = {value}" for key, value in entries.items())
    return "\n".join(lines) + "\n"


def write_kv(path: str | Path, magic: str, sections: dict[str, dict]) -> None:
    with atomic_open(path) as handle:
        handle.write(format_kv(magic, sections))


def _put_array(key: str, arr: np.ndarray) -> dict[str, str]:
    return {f"{key}.shape": " ".join(str(d) for d in arr.shape),
            f"{key}.data": " ".join(map(float.hex, arr.ravel().tolist()))}


def _get_array(sec: Section, key: str, want=None) -> np.ndarray:
    shape = tuple(int(d) for d in sec[f"{key}.shape"].split())
    if min(shape, default=1) < 1 or want not in (None, shape):
        raise SchemaError(f"{sec.where}{key}.shape = {shape}, "
                          f"want {want or 'sizes >= 1'}")
    data = np.fromiter(map(float.fromhex, sec[f"{key}.data"].split()), float)
    return data.reshape(shape)


def _get_int(sec: Section, key: str, lo: int, hi: float) -> int:
    value = int(sec[key])
    if not lo <= value < hi:
        raise SchemaError(f"{sec.where}{key} = {value}, want {lo}..{hi - 1}")
    return value


def _put_adam(opt: Adam, params: list[np.ndarray]) -> dict:
    """Adam's state with one moment array per array of ``params``, the
    parts of the one array it steps."""
    entries = {"t": opt.t}
    if opt.m is not None:
        entries["n_arrays"] = len(params)
        moments = (flat_views(mv.ravel(), params) for mv in (opt.m, opt.v))
        for i, (m, v) in enumerate(zip(*moments)):
            entries.update(_put_array(f"m{i}", m) | _put_array(f"v{i}", v))
    return entries


def _get_adam(sec: Section, lr: float, params: list[np.ndarray],
              stepped: np.ndarray) -> Adam:
    """``_put_adam``'s inverse: moments read per array of ``params`` and
    shaped like ``stepped``, the array the optimiser steps."""
    opt = Adam(lr)
    opt.t = _get_int(sec, "t", 0, np.inf)
    if "n_arrays" in sec:
        if int(sec["n_arrays"]) != len(params):
            raise SchemaError(f"{sec.where}n_arrays = {sec['n_arrays']}, "
                              f"want {len(params)}")
        moments = ([_get_array(sec, f"{mv}{i}", p.shape)
                    for i, p in enumerate(params)] for mv in "mv")
        opt.m, opt.v = (flatten(arrays).reshape(stepped.shape)
                        for arrays in moments)
    return opt


def save_checkpoint(path: str | Path, cfg: TrainConfig, state: TrainState,
                    digest: str | None = None) -> None:
    rng_state = state.rng.bit_generator.state
    if rng_state["bit_generator"] != "PCG64":
        raise SchemaError("only PCG64 generators can be checkpointed")
    meta = {"epoch": state.epoch}
    if digest:
        meta["config_digest"] = digest
    discriminator = {"n_layers": len(state.net.weights)}
    for i, (w, b) in enumerate(zip(state.net.weights, state.net.biases)):
        discriminator.update(_put_array(f"w{i}", w) | _put_array(f"b{i}", b))
    write_kv(path, MAGIC, {
        "meta": meta,
        "config": {f.name: _encode(f.type, getattr(cfg, f.name))
                   for f in fields(cfg)},
        "generator": {"n_qubits": state.params.n_qubits,
                      **_put_array("angles", state.params.angles)},
        "discriminator": discriminator,
        "opt_g": _put_adam(state.opt_g, [state.params.angles]),
        "opt_d": _put_adam(state.opt_d, state.net.param_list()),
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

        g = sec["generator"]
        params = GeneratorParams(int(g["n_qubits"]), _get_array(g, "angles"))

        d = sec["discriminator"]
        n_layers = _get_int(d, "n_layers", 1, np.inf)
        net = DiscriminatorNet(
            weights=[_get_array(d, f"w{i}") for i in range(n_layers)],
            biases=[_get_array(d, f"b{i}") for i in range(n_layers)],
        )
        have = (params.angles.shape[0], net.layer_sizes)
        want = (cfg.depth + 1, [2**params.n_qubits, *cfg.hidden, 1])
        if have != want:
            raise SchemaError(f"{path}: angle rows and discriminator layers "
                              f"{have} disagree with [config] {want}")

        opt_g = _get_adam(sec["opt_g"], cfg.lr_g, [params.angles], params.angles)
        opt_d = _get_adam(sec["opt_d"], cfg.lr_d, net.param_list(), net.flat)

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

        epoch = int(sec["meta"]["epoch"])
    except (ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: malformed field ({exc})") from exc
    return cfg, TrainState(params, net, opt_g, opt_d, rng, epoch)
