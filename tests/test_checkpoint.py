"""Bit-exact checkpoint round trips, resumable training and atomic writes."""

import ast
import builtins
import contextlib
import csv
import hashlib
import io
import os
import re
import struct
from dataclasses import replace
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbde import checkpoint
from qbde.checkpoint import (
    MAGIC,
    Rows,
    _csv_split,
    _get_array,
    _put_array,
    atomic_open,
    float_fields,
    load_checkpoint,
    read_csv,
    read_kv,
    replace_together,
    save_checkpoint,
    text_fields,
    write_blocks,
    write_columns,
    write_kv,
)
from qbde.errors import SchemaError
from qbde import qgan
from qbde.qgan import TrainConfig, train


# rows for a loader that refuses the file before it compares them
ANY_ROWS = Rows.of(np.ones((1, 4)) / 4)
RAW = b"\n[bytes]\n"   # the line after which a file's raw values follow


def split_raw(data: bytes) -> tuple[str, bytearray]:
    """A file's text, up to and with the LF before its ``[bytes]`` line,
    and the raw bytes after that line."""
    text, _, raw = data.partition(RAW)
    return text.decode("utf-8") + "\n", bytearray(raw)


def join_raw(text: str, raw) -> bytes:
    return text.encode("utf-8") + RAW[1:] + bytes(raw)


def raw_slices(text: str) -> dict[str, slice]:
    """Where each value written as ``N bytes`` sits in the raw bytes, by
    ``section.key``."""
    at, start, section = {}, 0, ""
    for line in text.splitlines():
        if line.startswith("["):
            section = line[1:-1] + "."
        elif match := re.fullmatch(r"(\S+) = (\d+) bytes", line):
            at[section + match[1]] = slice(start, start := start + int(match[2]))
    return at


def rewritten(path, order=None):
    """The checkpoint at ``path`` written again by ``write_kv``, its
    sections in ``order`` if given."""
    sections = read_kv(path, MAGIC)
    order = order or [name for name in sections if name]
    write_kv(path, MAGIC, {name: {key: bytes(value) if isinstance(value, memoryview)
                                  else value for key, value in sections[name].items()}
                           for name in order})


def trained_state(tmp_path, epochs=4, seed=11):
    rng = np.random.default_rng(1)
    data = rng.dirichlet(np.ones(4), size=10)
    cfg = TrainConfig(batch=4, epochs=epochs, depth=2, seed=seed)
    return data, cfg, train([data], cfg)[0].state


def test_round_trip_is_bit_exact(tmp_path):
    data, cfg, state = trained_state(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state, Rows.of(data))
    assert path.read_bytes().startswith(f"{MAGIC}\n".encode())
    cfg2, state2 = load_checkpoint(path, cfg, Rows.of(data))
    assert cfg2 == cfg
    np.testing.assert_array_equal(state2.params.angles, state.params.angles)
    np.testing.assert_array_equal(state2.net.flat, state.net.flat)
    assert state2.epoch == state.epoch
    assert state2.opt_g.t == state.opt_g.t
    for opt2, opt in ((state2.opt_g, state.opt_g), (state2.opt_d, state.opt_d)):
        for a, b in ((opt2.m, opt.m), (opt2.v, opt.v)):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
    assert state2.rng.bit_generator.state == state.rng.bit_generator.state


def test_round_trip_keeps_every_bit_of_zeros_and_subnormals(tmp_path):
    """-0.0, +0.0 and subnormal values in every stored array load back with
    the very bits they were saved with."""
    data, cfg, state = trained_state(tmp_path)
    tiny = [-0.0, 5e-324, -2.5e-310, np.nextafter(2.2250738585072014e-308, 0)]
    arrays = [state.params.angles.reshape(-1), state.net.flat, state.opt_g.m.reshape(-1),
              state.opt_d.m, state.opt_g.v.reshape(-1), state.opt_d.v]
    for arr in arrays[:4]:
        arr[:4] = tiny
    for arr in arrays[4:]:   # second moments stay >= 0, which -0.0 is
        arr[:4] = np.abs(tiny) * [-1, 1, 1, 1]
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state, Rows.of(data))
    _, back = load_checkpoint(path, cfg, Rows.of(data))
    got = [back.params.angles, back.net.flat, back.opt_g.m, back.opt_d.m, back.opt_g.v,
           back.opt_d.v]
    for have, want in zip(got, arrays, strict=True):
        assert have.reshape(-1).view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert np.signbit(back.params.angles.reshape(-1)[0])


@pytest.mark.parametrize("edit, errors", [
    (lambda data: data[:-1], ["s.b.data: 16 bytes, 15 left"] * 2),
    (lambda data: data[:-17], ["s.a.data: 8 bytes, 7 left"] * 2),
    (lambda data: data + b"\0", ["s.b.data: 1 bytes follow it", None]),
    (lambda data: data.replace(b"b.data = 16", b"b.data = 8"),
     ["s.b.data: 8 bytes follow it", None]),
    (lambda data: data.replace(b"a.data = 8", b"a.data = 8x"),
     ["s.a.data: byte count '8x' is not a number"] * 2),
    (lambda data: data.replace(b"a.data = 8", b"a.data = -8"),
     ["s.a.data: byte count '-8' is not a number"] * 2),
    # with no [bytes] line, the raw bytes are text: -0.0's last is not UTF-8
    (lambda data: data.replace(b"\n[bytes]\n", b"\n[bytes]\r\n"), ["not UTF-8 text"] * 2),
], ids=["short", "short-in-first", "long", "count-short", "count-not-a-number",
        "negative-count", "no-bytes-line"])
def test_raw_values_get_exactly_their_bytes(tmp_path, edit, errors):
    """Each value written as ``N bytes`` gets exactly N raw bytes, in the
    order of its line, and no raw byte is left over; any other file is
    refused, naming the file and the value, whether it is read whole or
    in blocks (where what follows the last value is not read)."""
    path = tmp_path / "a.kv"
    write_kv(path, "m", {"s": {"a.data": struct.pack("<d", -0.0), "note": "x",
                               "b.data": np.array([1.5, 2**-1074]).tobytes()}})
    sec = read_kv(path, "m")["s"]
    assert (bytes(sec["a.data"]), sec["note"], bytes(sec["b.data"])) == (
        b"\0" * 7 + b"\x80", "x", np.array([1.5, 2**-1074]).tobytes())
    path.write_bytes(edit(path.read_bytes()))
    for until, error in zip((frozenset(), frozenset({"never"})), errors):
        if error is None:
            read_kv(path, "m", until)
            continue
        with pytest.raises(SchemaError, match=re.escape(f"{path}: {error}")):
            read_kv(path, "m", until)


def test_a_file_with_no_bytes_line_has_only_text_values(tmp_path):
    """Only a file with a ``[bytes]`` line has raw values: elsewhere, as in
    a run config, a value ending in ``bytes`` is text, and an array stored
    as text is refused, naming it."""
    path = tmp_path / "run.cfg"
    path.write_bytes(b"note = 5 bytes\na.shape = 1\na.data = 8 bytes\n")
    sec = read_kv(path)[""]
    assert sec["note"] == "5 bytes"
    with pytest.raises(SchemaError, match=re.escape(f"{path}: a.data: ")):
        _get_array(sec, "a", (1,))


def test_a_depth_8_checkpoint_is_under_80_kb_and_detect_reads_one_block(tmp_path,
                                                                       monkeypatch):
    rng = np.random.default_rng(1)
    data = rng.dirichlet(np.ones(16), size=20)
    cfg = TrainConfig(batch=8, epochs=1, depth=8, hidden=(64, 32), seed=3)
    state = train([data], cfg)[0].state
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state, Rows.of(data), "d" * 64, "b" * 64)
    assert path.stat().st_size <= 80_000
    reads = []

    class Counted(io.FileIO):
        def read(self, size=-1):
            reads.append(size)
            return super().read(size)

    monkeypatch.setattr(checkpoint, "open", lambda path, mode, **_: Counted(path, mode),
                        raising=False)
    _, params, _ = checkpoint.load_generator(path, cfg, Rows.of(data))
    assert reads == [checkpoint._BLOCK_BYTES]
    assert params.angles.tobytes() == state.params.angles.tobytes()


def test_double_save_is_byte_identical(tmp_path):
    data, cfg, state = trained_state(tmp_path)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, cfg, state, Rows.of(data))
    save_checkpoint(p2, cfg, state, Rows.of(data))
    assert p1.read_bytes() == p2.read_bytes()


def test_resume_matches_uninterrupted_run(tmp_path):
    rng = np.random.default_rng(2)
    data = rng.dirichlet(np.ones(4), size=8)

    full = train([data], TrainConfig(batch=4, epochs=10, depth=2, seed=3))[0]

    cfg_a = TrainConfig(batch=4, epochs=6, depth=2, seed=3)
    first = train([data], cfg_a)[0]
    path = tmp_path / "part.ckpt"
    save_checkpoint(path, cfg_a, first.state, Rows.of(data))
    _, resumed_state = load_checkpoint(path, cfg_a, Rows.of(data))
    second = train([data], TrainConfig(batch=4, epochs=4, depth=2, seed=3),
                   [resumed_state])[0]

    assert first.loss_g + second.loss_g == full.loss_g
    assert first.loss_d + second.loss_d == full.loss_d
    assert first.cross_entropy + second.cross_entropy == full.cross_entropy
    np.testing.assert_array_equal(second.state.params.angles, full.state.params.angles)


def test_each_network_is_one_vector_with_one_adam_state(tmp_path):
    # the checkpoint stores exactly the arrays training steps: the angles,
    # the discriminator's flat vector and each optimiser's two moments
    rng = np.random.default_rng(2)
    data = rng.dirichlet(np.ones(4), size=8)
    full = train([data], TrainConfig(batch=4, epochs=10, depth=2, seed=3))[0]
    cfg_a = TrainConfig(batch=4, epochs=6, depth=2, seed=3)
    first = train([data], cfg_a)[0]
    path = tmp_path / "flat.ckpt"
    save_checkpoint(path, cfg_a, first.state, Rows.of(data))
    sections = read_kv(path, MAGIC)
    arrays = {f"{name}.{key[:-6]}": tuple(map(int, value.split()))
              for name, sec in sections.items() for key, value in sec.items()
              if key.endswith(".shape")}
    n_disc = first.state.net.flat.size
    assert arrays == {"generator.angles": (3, 2), "discriminator.params": (n_disc,),
                      "opt_g.m": (3, 2), "opt_g.v": (3, 2),
                      "opt_d.m": (n_disc,), "opt_d.v": (n_disc,)}
    assert list(sections["discriminator"]) == ["params.shape", "params.data"]
    assert list(sections["opt_d"]) == ["t", "m.shape", "m.data", "v.shape", "v.data"]
    _, resumed_state = load_checkpoint(path, cfg_a, Rows.of(data))
    second = train([data], TrainConfig(batch=4, epochs=4, depth=2, seed=3),
                   [resumed_state])[0]
    assert first.loss_g + second.loss_g == full.loss_g
    assert first.loss_d + second.loss_d == full.loss_d
    np.testing.assert_array_equal(second.state.params.angles, full.state.params.angles)
    np.testing.assert_array_equal(second.state.net.flat, full.state.net.flat)
    np.testing.assert_array_equal(second.state.opt_d.m, full.state.opt_d.m)
    np.testing.assert_array_equal(second.state.opt_g.v, full.state.opt_g.v)


def test_checkpoint_holds_no_fixed_constant(tmp_path):
    # the entangler, Adam's betas and epsilon, the initial angle spread and
    # the leak are constants of the code, so no checkpoint names them
    data, cfg, state = trained_state(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state, Rows.of(data))
    sections = read_kv(path, MAGIC)
    keys = {key for sec in sections.values() for key in sec}
    assert list(sections["config"]) == [
        "batch", "epochs", "lr_g", "lr_d", "depth", "seed", "hidden"]
    assert not keys & {"entangler", "beta1", "beta2", "adam_eps",
                       "init_spread", "leak"}


def test_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("some-other-format\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_checkpoint(path, TrainConfig(), ANY_ROWS)


def test_rejects_missing_fields(tmp_path):
    path = tmp_path / "trunc.ckpt"
    path.write_text(f"{MAGIC}\n[meta]\nepoch = 3\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_checkpoint(path, TrainConfig(), ANY_ROWS)


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c", "\x1e", "\x85", " ", " "])
def test_kv_lines_end_only_at_line_ends(tmp_path, char):
    """Characters that ``str.splitlines`` breaks at stay inside a value;
    CR LF and a lone CR still end a line, as they do for csv."""
    path = tmp_path / "note.txt"
    path.write_bytes(f"magic\r\nnote = a{char}b = c\rnext = 1\n".encode("utf-8"))
    sections = read_kv(path, "magic")
    assert sections[""] == {"note": f"a{char}b = c", "next": "1"}


def split_read_kv(path, magic=None):
    """``read_kv`` as it was, splitting the text with ``str.split``, with
    its refusal of a repeated section header: the oracle of its
    line split and of its reads in blocks."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if magic is not None:
        if not lines or lines[0].strip() != magic:
            raise SchemaError(f"{path}: not a {magic} file")
        lines[0] = ""
    sections = checkpoint.Section(f"{path}: section ")
    current = sections[""] = checkpoint.Section(f"{path}: ")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1]
            if name in sections:
                raise SchemaError(f"{path}:{lineno}: repeated section [{name}]")
            current = sections[name] = checkpoint.Section(f"{path}: {name}.")
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SchemaError(f"{path}:{lineno}: unparseable line {line!r}")
        current.pop(key.strip(), None)
        current[key.strip()] = value.strip()
    return sections


def _kv_outcome(read, path, magic):
    try:
        sections = read(path, magic)
    except SchemaError as exc:
        return str(exc)
    return [(name, sec.where, list(sec.items())) for name, sec in sections.items()]


_KV_LINES = st.one_of(
    st.sampled_from(["", " ", "# note", "  # k = v", "[x]", "[y]", " [x] ", "[x",
                     "k = v", "k=w", "k = ", " a = 1 = 2 ", "novalue", "m", "\r",
                     "b = 2\r", "[]", "= v"]),
    st.text(alphabet="ab =[]#\r\t", max_size=8))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_KV_LINES, max_size=12), final_lf=st.booleans(),
       magic=st.sampled_from([None, "m", "k = v"]),
       line_end=st.sampled_from(["\n", "\r\n", "\r"]),
       long_at=st.one_of(st.none(), st.integers(0, 12)),
       block=st.sampled_from([None, 1, 2, 3, 7, 4096]))
def test_kv_scan_matches_the_split_reader(tmp_path_factory, lines, final_lf, magic,
                                          line_end, long_at, block):
    """Files with LF, CR LF or lone-CR line ends (and stray CRs inside
    lines) read as ``Path.read_text`` and ``str.split`` read them, short
    ones and, with a 64 K-character line at ``long_at``, long ones.  Read
    in blocks of ``block``
    bytes up to a section no file has, they read alike too: a CR LF or a
    line cut by a block's end, and every line number, included."""
    if long_at is not None:
        lines = [*lines[:long_at], "long = " + "0" * (1 << 16), *lines[long_at:]]
    path = tmp_path_factory.mktemp("kv") / "file.txt"
    path.write_bytes((line_end.join(lines) + line_end * final_lf).encode("utf-8"))
    if block is None:
        read = read_kv
    else:
        def read(path, magic):
            with mock.patch.object(checkpoint, "_BLOCK_BYTES", block):
                return read_kv(path, magic, until=frozenset({"no such section"}))
    assert _kv_outcome(read, path, magic) == _kv_outcome(split_read_kv, path, magic)


def _csv_outcome(path):
    """What ``read_csv`` makes of a three-column file whose records are bad
    where their first field is ``b``: the records, or the error."""
    def convert(cols):
        return [*zip(*cols)], next((i for i, cell in enumerate(cols[0]) if cell == "b"),
                                   len(cols[0]))

    def check(rec):
        if rec[0] == "b":
            raise ValueError("field b")

    try:
        return read_csv(path, "test", lambda header: header[:1] != ["x"], 3, convert, check)
    except SchemaError as exc:
        return str(exc)


_CSV_LINES = st.one_of(
    st.sampled_from(["", "#", "# c", "a,b,c", "b,a,a", "a,,", ",,", "a,b", "a,b,c,d",
                     "x,y,z", "#a,b,c", '"a,b",c,d', '"a', "a\rb,c,d", "a\0,b,c"]),
    st.text(alphabet="ab,#", max_size=7))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_CSV_LINES, max_size=8), final_lf=st.booleans())
def test_csv_splitters_read_every_file_alike(tmp_path_factory, lines, final_lf,
                                             each_csv_splitter):
    """Comment lines, empty lines, short and long records, a bad header,
    quotes, CRs and NULs: ``str.split`` and ``csv.reader`` give the same
    records, or the same error on the same line."""
    path = tmp_path_factory.mktemp("csv") / "file.csv"
    path.write_bytes(("\n".join(lines) + "\n" * final_lf).encode("utf-8"))
    outcomes = [_csv_outcome(path) for _ in each_csv_splitter()]
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("text, plain", [
    ("user,day,label\nU1,d,normal\n", True),
    ("# c\nuser,day,label\n#U1,d,normal\n\n", True),
    ('user,day,label\n"U,1",d,normal\n', False),
    ("user,day,label\r\nU1,d,normal\r\n", False),
    ("user,day,label\nU1\0,d,normal\n", False),
    ("user,day,label\nU1,d," + "x" * (csv.field_size_limit() + 1) + "\n", False),
], ids=["plain", "comment-hash-user-and-empty-line", "quoted-user", "crlf", "nul",
        "over-field-limit"])
def test_only_plain_text_is_split_with_str_split(tmp_path, monkeypatch, text, plain):
    """A quote, a CR, a NUL or a line over csv's field size limit sends a
    file to ``csv.reader``; any other text is split with ``str.split``."""
    calls = []
    monkeypatch.setattr(checkpoint, "_csv_split", lambda *args: calls.append(args) or
                        _csv_split(*args))
    path = tmp_path / "file.csv"
    path.write_bytes(text.encode("utf-8"))
    _csv_outcome(path)
    assert bool(calls) is not plain


@pytest.mark.parametrize("block", [1, 3, 8192])
@pytest.mark.parametrize("bad", [b"\xe9", b"\xe9\xa0", b"\xff", b"\xc3("])
def test_kv_read_in_blocks_names_the_offset_a_whole_read_names(tmp_path, bad, block):
    """Bytes that are not UTF-8 raise the error, offset included, that
    decoding the whole file raises, wherever the blocks end."""
    path = tmp_path / "file.txt"
    for at in (0, 5, 9, 14):
        data = bytearray(b"m\n[x]\nk = va\n[y]\nj = w\n")
        data[at:at] = bad
        path.write_bytes(data)
        with pytest.raises(SchemaError) as whole:
            read_kv(path, "m")
        with mock.patch.object(checkpoint, "_BLOCK_BYTES", block), \
                pytest.raises(SchemaError) as blocks:
            read_kv(path, "m", until=frozenset({"never"}))
        assert "not UTF-8 text" in str(whole.value)
        assert str(blocks.value) == str(whole.value)


@pytest.mark.parametrize("layout", ["written", "crlf", "generator-after-rng",
                                    "meta-longer-than-a-block"])
def test_load_generator_agrees_with_load_checkpoint(tmp_path, layout):
    data, cfg, state = trained_state(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state, Rows.of(data), "d" * 64)
    text, raw = split_raw(path.read_bytes())
    if layout == "crlf":
        path.write_bytes(join_raw(text.replace("\n", "\r\n"), raw))
    elif layout == "generator-after-rng":
        # the angles' raw bytes then come last too
        rewritten(path, ["meta", "config", "discriminator", "opt_g", "opt_d", "rng",
                         "generator"])
        assert raw_slices(split_raw(path.read_bytes())[0])["generator.angles.data"].stop \
            == len(raw)
    elif layout == "meta-longer-than-a-block":
        block = checkpoint._BLOCK_BYTES
        text = text.replace("[meta]\n", f"[meta]\nnote = {'x' * 3 * block}\n# {'y' * block}\n")
        path.write_bytes(join_raw(text, raw))
    have_cfg, params, epoch = checkpoint.load_generator(path, cfg, Rows.of(data))
    want_cfg, want = load_checkpoint(path, cfg, Rows.of(data))
    assert have_cfg == want_cfg == cfg
    assert params.n_qubits == want.params.n_qubits
    assert params.angles.tobytes() == want.params.angles.tobytes()
    assert params.angles.tobytes() == state.params.angles.tobytes()
    assert epoch == want.epoch == state.epoch


def test_load_generator_reads_no_block_past_the_generator(tmp_path, monkeypatch):
    """A written checkpoint's head and angles are in its first block, so
    what follows that block is neither read nor checked: values that are
    not finite there stop only ``load_checkpoint``."""
    data, cfg, state = trained_state(tmp_path)
    rows = Rows.of(data)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state, rows)
    data = bytearray(path.read_bytes())
    start = data.index(RAW) + len(RAW)
    assert start + raw_slices(split_raw(data)[0])["generator.angles.data"].stop \
        < checkpoint._BLOCK_BYTES
    data[checkpoint._BLOCK_BYTES:] = b"\xff" * (len(data) - checkpoint._BLOCK_BYTES)
    path.write_bytes(data)
    reads = []

    class Counted(io.FileIO):
        def read(self, size=-1):
            reads.append(size)
            return super().read(size)

    monkeypatch.setattr(checkpoint, "open", lambda path, mode, **_: Counted(path, mode),
                        raising=False)
    have_cfg, params, epoch = checkpoint.load_generator(path, cfg, rows)
    monkeypatch.undo()
    assert reads == [checkpoint._BLOCK_BYTES]
    assert (have_cfg, epoch) == (cfg, state.epoch)
    assert params.angles.tobytes() == state.params.angles.tobytes()
    with pytest.raises(SchemaError, match=r"discriminator\.params\.data: values must "
                                          "be finite"):
        load_checkpoint(path, cfg, rows)


def test_rows_digest_is_of_their_shape_and_binary64_bytes():
    rows = np.random.default_rng(2).dirichlet(np.ones(4), size=3)
    bound = Rows.of(rows[::1], "f.csv")
    want = hashlib.sha256(b"|(3, 4)|" + rows.astype("<f8").tobytes()).hexdigest()
    assert bound == (3, want, "f.csv")
    assert Rows.of(rows[:2]).sha256 != want


def _edits(data, cfg):
    """A checkpoint's bytes ``data`` changed after ``[meta]`` in ways a
    loader may still accept, each with the train config it then loads
    with."""
    text, raw = split_raw(data)
    flipped = bytearray(raw)
    flipped[raw_slices(text)["discriminator.params.data"].start] ^= 1   # a last mantissa bit
    yield join_raw(re.sub(r"(?m)^batch = 4$", "batch = 5", text), raw), replace(cfg, batch=5)
    yield join_raw(text, flipped), cfg
    yield join_raw(text + "# a note\n", raw), cfg
    yield join_raw(text.replace("\n", "\r\n"), raw), cfg


def test_sealed_tells_a_sealed_checkpoint_from_any_other(tmp_path, monkeypatch):
    """``sealed`` finds the file ``save_checkpoint`` sealed for the same
    train config, epoch, rows and recipe, whatever config and loss digests
    it names, and no edit of it, not even one that decodes to the same
    values, nor an unsealed save.  Written under another config digest, it
    is the file a save under that digest writes."""
    data, cfg, state = trained_state(tmp_path)
    rows = Rows.of(data)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state, rows, "d" * 64, "b" * 64)
    kept = checkpoint.sealed(path, cfg, rows)
    assert (kept.meta["config_digest"], kept.meta["loss_sha256"]) == ("d" * 64, "b" * 64)
    kept.write(tmp_path / "relabelled.ckpt", "e" * 64, "c" * 64)
    save_checkpoint(tmp_path / "saved.ckpt", cfg, state, rows, "e" * 64, "c" * 64)
    assert (tmp_path / "relabelled.ckpt").read_bytes() == (tmp_path / "saved.ckpt").read_bytes()
    others = [(replace(cfg, epochs=cfg.epochs + 1), rows),
              (replace(cfg, seed=cfg.seed + 1), rows), (cfg, Rows.of(data[1:]))]
    assert not any(checkpoint.sealed(path, *other) for other in others)
    with monkeypatch.context() as patch:
        patch.setattr(qgan, "RECIPE_VERSION", qgan.RECIPE_VERSION + 1)
        assert checkpoint.sealed(path, cfg, rows) is None
    for edited, trained_with in _edits(path.read_bytes(), cfg):
        path.write_bytes(edited)
        assert load_checkpoint(path, trained_with, rows)[0] == trained_with
        assert checkpoint.sealed(path, cfg, rows) is None
    for digest, loss in (("d" * 64, None), (None, "b" * 64)):
        save_checkpoint(path, cfg, state, rows, digest, loss)
        assert checkpoint.sealed(path, cfg, rows) is None
    assert checkpoint.sealed(tmp_path / "none.ckpt", cfg, rows) is None


def test_loaders_refuse_a_checkpoint_fit_to_other_rows(tmp_path):
    data, cfg, state = trained_state(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state, Rows.of(data))
    other = Rows.of(data[:-1], "train.csv")
    for load in (load_checkpoint, checkpoint.load_generator):
        assert load(path, cfg, Rows.of(data))[0] == cfg
        with pytest.raises(SchemaError, match=rf"^{re.escape(str(path))}: trained on 10 "
                                              r"rows .*train\.csv holds 9 "):
            load(path, cfg, other)


@pytest.mark.parametrize("name", ["meta", "config", "generator", "discriminator"])
def test_a_repeated_section_header_is_refused(tmp_path, name):
    """``load_checkpoint`` refuses a checkpoint that repeats a section, so
    ``detect`` and ``train --resume`` cannot read two different values of
    one key; ``load_generator`` refuses one that it reads, up to the
    header that ends the head."""
    data, cfg, state = trained_state(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state, Rows.of(data))
    text, raw = split_raw(path.read_bytes())
    lineno = text.count("\n") + 1
    path.write_bytes(join_raw(text + f"[{name}]\n", raw))
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}:{lineno}: repeated section [{name}]")):
        load_checkpoint(path, cfg, Rows.of(data))
    assert checkpoint.load_generator(path, cfg, Rows.of(data))[0] == cfg   # past the head
    head = text.replace("[generator]\n", f"[{name}]\n[generator]\n")
    path.write_bytes(join_raw(head, raw))
    for load in (load_checkpoint, checkpoint.load_generator):
        with pytest.raises(SchemaError, match=re.escape(f"repeated section [{name}]")):
            load(path, cfg, Rows.of(data))


@pytest.mark.parametrize("fail", [None, ".b"], ids=["all-renamed", "second-rename-fails"])
@pytest.mark.parametrize("first", ["old", "absent", "stale-backup", "no-hard-links"])
def test_replace_together_puts_back_what_a_failed_rename_replaced(
        tmp_path, monkeypatch, fail, first):
    """A rename that fails on the second of three staged files leaves all
    three targets as they were, ``a`` absent again if it was, and no
    staged, temp or backup file behind; with no failure all three change.
    Where ``os.link`` fails, the old files are kept as copies."""
    if first == "no-hard-links":
        def no_link(*args):
            raise PermissionError("no hard links")

        monkeypatch.setattr(os, "link", no_link)
    paths = [tmp_path / name for name in "abc"]
    for path in paths[first == "absent":]:
        write_kv(path, "m", {"": {"v": f"old {path.name}"}})
    if first == "stale-backup":   # from a run that crashed while renaming
        (tmp_path / ".a.old").write_bytes(b"stale")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.name in "abc"}
    replace = Path.replace

    def failing(self, target):
        if self.name == fail:
            raise OSError("rename failed")
        return replace(self, target)

    monkeypatch.setattr(Path, "replace", failing)
    failure = pytest.raises(OSError, match="rename failed")
    with failure if fail else contextlib.nullcontext():
        with replace_together() as stage:
            for path in paths:
                write_kv(stage(path), "m", {"": {"v": f"new {path.name}"}})
    monkeypatch.undo()
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    if fail:
        assert after == before
    else:
        assert after == {p.name: f"m\nv = new {p.name}\n".encode() for p in paths}


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "nope.ckpt", TrainConfig(), ANY_ROWS)


def test_fresh_state_round_trip(tmp_path):
    # an epoch-0 checkpoint stores zero moments, and resuming from it
    # matches an uninterrupted run bit for bit
    rng = np.random.default_rng(4)
    data = rng.dirichlet(np.ones(4), size=8)
    cfg = TrainConfig(batch=4, epochs=0, depth=3, seed=5)
    fresh = train([data], cfg)[0].state
    path = tmp_path / "fresh.ckpt"
    save_checkpoint(path, cfg, fresh, Rows.of(data))
    sections = read_kv(path, MAGIC)
    for name, param in (("opt_g", fresh.params.angles), ("opt_d", fresh.net.flat)):
        assert sections[name]["t"] == "0"
        for key in "mv":
            stored = _get_array(sections[name], key, param.shape)
            assert stored.tobytes() == np.zeros(param.shape).tobytes()
    _, back = load_checkpoint(path, cfg, Rows.of(data))
    resumed = train([data], TrainConfig(batch=4, epochs=5, depth=3, seed=5), [back])[0]
    full = train([data], TrainConfig(batch=4, epochs=5, depth=3, seed=5))[0]
    assert resumed.loss_g == full.loss_g and resumed.loss_d == full.loss_d
    assert resumed.cross_entropy == full.cross_entropy
    got, want = resumed.state, full.state
    np.testing.assert_array_equal(got.params.angles, want.params.angles)
    np.testing.assert_array_equal(got.net.flat, want.net.flat)
    for a, b in ((got.opt_g, want.opt_g), (got.opt_d, want.opt_d)):
        assert a.t == b.t
        np.testing.assert_array_equal(a.m, b.m)
        np.testing.assert_array_equal(a.v, b.v)


def test_array_data_is_little_endian_binary64_bytes(tmp_path):
    rng = np.random.default_rng(3)
    arr = np.concatenate([rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40),
                          [0.0, -0.0, 5e-324, 1.0, -2.5, np.pi]]).reshape(2, 23)
    path = tmp_path / "a.ckpt"
    write_kv(path, MAGIC, {"": _put_array("a", arr)})
    # 8 bytes per value, least significant byte first, after the text
    raw = b"".join(struct.pack("<d", x) for x in arr.ravel())
    assert path.read_bytes() == (f"{MAGIC}\na.shape = 2 23\na.data = 368 bytes\n"
                                 "[bytes]\n").encode() + raw
    assert raw.endswith(bytes.fromhex("0000000000000000" "0000000000000080"
                                      "0100000000000000" "000000000000f03f"
                                      "00000000000004c0" "182d4454fb210940"))
    back = _get_array(read_kv(path, MAGIC)[""], "a", (2, 23))
    assert back.dtype == float and back.flags.writeable
    np.testing.assert_array_equal(back.view(np.uint64), arr.view(np.uint64))


class _FailingHandle:
    """Writes half of what it is given, then fails like a full disk."""

    def __init__(self, handle):
        self.handle = handle
        self.buffer = self   # bytes are written through the same failing write

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        (self.handle.buffer if isinstance(data, bytes) else self.handle).write(
            data[:len(data) // 2])
        raise OSError("no space left on device")


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    data, cfg, state = trained_state(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state, Rows.of(data), "before")
    before = path.read_bytes()
    monkeypatch.setattr(checkpoint, "open", raising=False,
                        value=lambda *a, **k: _FailingHandle(builtins.open(*a, **k)))
    with pytest.raises(OSError):
        save_checkpoint(path, cfg, state, Rows.of(data), "after")
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


def test_atomic_open_replaces_only_on_success(tmp_path):
    path = tmp_path / "report.txt"
    path.write_text("old\n", encoding="utf-8")
    with pytest.raises(RuntimeError):
        with atomic_open(path) as handle:
            handle.write("half a rep")
            raise RuntimeError("crash mid-write")
    assert path.read_text(encoding="utf-8") == "old\n"
    with atomic_open(path) as handle:
        handle.write("new\n")
    assert path.read_text(encoding="utf-8") == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


def test_write_blocks_writes_the_header_then_bytes_atomically(tmp_path):
    path = tmp_path / "log.csv"
    write_blocks(path, ["id", "note"], [b"L1,a\n", np.frombuffer(b"L2,b\n", np.uint8)])
    assert path.read_bytes() == b"id,note\nL1,a\nL2,b\n"

    def failing():
        yield b"L3,c\n"
        raise RuntimeError("crash mid-write")

    with pytest.raises(RuntimeError):
        write_blocks(path, ["id", "note"], failing())
    assert path.read_bytes() == b"id,note\nL1,a\nL2,b\n"
    assert [p.name for p in tmp_path.iterdir()] == ["log.csv"]


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.one_of(st.text(max_size=6),
                                 st.text(alphabet=',"\r\n a\0', max_size=4)), max_size=8))
def test_text_fields_are_the_fields_csv_writer_writes(values):
    """Each field, whether it is returned as it is or made by
    ``csv.writer``, is the one ``csv.writer`` writes for its value."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    want = []
    for value in values:
        buf.seek(0)
        buf.truncate()
        writer.writerow((value, ""))
        want.append(buf.getvalue()[:-2])
    assert text_fields(values) == want


def test_write_columns_bytes_and_appended_blocks(tmp_path):
    """Columns of ready fields are written as ``csv.writer`` writes their
    rows; with no header, only the blocks are written: a file's old bytes
    and the rows that follow them make the appended file."""
    path = tmp_path / "table.csv"
    rows = [["U1", 'a "quoted", field', 1 / 3], ["U2", "", -0.0]]
    write_columns(path, ["user", "note", "x"], [
        text_fields([row[0] for row in rows]), text_fields([row[1] for row in rows]),
        float_fields([row[2] for row in rows]).tolist()], comment="digest")
    head = b'# digest\nuser,note,x\n'
    body = b'U1,"a ""quoted"", field",0.3333333333333333\nU2,,-0.0\n'
    assert path.read_bytes() == head + body
    write_blocks(path, None, [path.read_bytes(), b'U3,"line\nbreak",1e-300\n'],
                 "ignored")
    assert path.read_bytes() == head + body + b'U3,"line\nbreak",1e-300\n'
    write_columns(path, ["user", "x"], [[], []])
    assert path.read_bytes() == b"user,x\n"
    assert [p.name for p in tmp_path.iterdir()] == ["table.csv"]


def _writes_a_file(call: ast.Call) -> bool:
    name = ast.unparse(call.func)
    if name.endswith(("atomic_open", "write_text", "write_bytes")) \
            or name == "csv.writer":
        return True
    if name != "open" and not name.endswith(".open"):
        return False
    # builtin open(path, mode) or path.open(mode); the default mode reads
    modes = call.args[1:2] if name == "open" else call.args[:1]
    modes += [k.value for k in call.keywords if k.arg == "mode"]
    return any(not isinstance(m, ast.Constant) or set(m.value) & set("wax+")
               for m in modes)


def test_only_the_checkpoint_module_writes_files():
    # every output goes through write_kv or write_blocks, so it is atomic
    src = Path(checkpoint.__file__).parent
    writers = [f"{path.name}:{node.lineno}"
               for path in sorted(src.glob("*.py")) if path.name != "checkpoint.py"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call) and _writes_a_file(node)]
    assert writers == []
    tree = ast.parse(Path(checkpoint.__file__).read_text(encoding="utf-8"))
    assert sum(isinstance(node, ast.Call) and _writes_a_file(node)
               for node in ast.walk(tree)) > 0
