"""Bit-exact checkpoint round trips, resumable training and atomic writes."""

import ast
import builtins
import contextlib
import csv
import io
import os
import re
import struct
from unittest import mock
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qbde import checkpoint
from qbde.checkpoint import (
    MAGIC,
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
from qbde.qgan import TrainConfig, train


def trained_state(tmp_path, epochs=4, seed=11):
    rng = np.random.default_rng(1)
    data = rng.dirichlet(np.ones(4), size=10)
    cfg = TrainConfig(batch=4, epochs=epochs, depth=2, seed=seed)
    return data, cfg, train([data], cfg)[0].state


def test_round_trip_is_bit_exact(tmp_path):
    _, cfg, state = trained_state(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state)
    assert path.read_text(encoding="utf-8").startswith(MAGIC)
    cfg2, state2 = load_checkpoint(path)
    assert cfg2 == cfg
    np.testing.assert_array_equal(state2.params.angles, state.params.angles)
    np.testing.assert_array_equal(state2.net.flat, state.net.flat)
    assert state2.epoch == state.epoch
    assert state2.opt_g.t == state.opt_g.t
    for opt2, opt in ((state2.opt_g, state.opt_g), (state2.opt_d, state.opt_d)):
        for a, b in ((opt2.m, opt.m), (opt2.v, opt.v)):
            np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))
    assert state2.rng.bit_generator.state == state.rng.bit_generator.state


def test_double_save_is_byte_identical(tmp_path):
    _, cfg, state = trained_state(tmp_path)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, cfg, state)
    save_checkpoint(p2, cfg, state)
    assert p1.read_bytes() == p2.read_bytes()


def test_resume_matches_uninterrupted_run(tmp_path):
    rng = np.random.default_rng(2)
    data = rng.dirichlet(np.ones(4), size=8)

    full = train([data], TrainConfig(batch=4, epochs=10, depth=2, seed=3))[0]

    cfg_a = TrainConfig(batch=4, epochs=6, depth=2, seed=3)
    first = train([data], cfg_a)[0]
    path = tmp_path / "part.ckpt"
    save_checkpoint(path, cfg_a, first.state)
    _, resumed_state = load_checkpoint(path)
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
    save_checkpoint(path, cfg_a, first.state)
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
    _, resumed_state = load_checkpoint(path)
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
    _, cfg, state = trained_state(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state)
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
        load_checkpoint(path)


def test_rejects_missing_fields(tmp_path):
    path = tmp_path / "trunc.ckpt"
    path.write_text(f"{MAGIC}\n[meta]\nepoch = 3\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_checkpoint(path)


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
    ``str.find`` scan and of its reads in blocks."""
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
    ones and, with a 64 K-character line at ``long_at``, long ones, which
    ``read_kv`` cuts at each LF it finds.  Read in blocks of ``block``
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


def _reordered(text: str, move: str, after: str) -> str:
    """``text`` with section ``move`` (its header and lines) put after
    section ``after``."""
    parts = re.split(r"(?m)^(?=\[)", text)
    moved = next(p for p in parts if p.startswith(f"[{move}]"))
    parts.remove(moved)
    at = next(i for i, p in enumerate(parts) if p.startswith(f"[{after}]"))
    return "".join([*parts[:at + 1], moved, *parts[at + 1:]])


@pytest.mark.parametrize("layout", ["written", "crlf", "generator-after-rng",
                                    "meta-longer-than-a-block"])
def test_load_generator_agrees_with_load_checkpoint(tmp_path, layout):
    _, cfg, state = trained_state(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state, digest="d" * 64)
    text = path.read_text(encoding="utf-8")
    if layout == "crlf":
        text = text.replace("\n", "\r\n")
    elif layout == "generator-after-rng":
        text = _reordered(text, "generator", "rng")
    elif layout == "meta-longer-than-a-block":
        block = checkpoint._BLOCK_BYTES
        text = text.replace("[meta]\n", f"[meta]\nnote = {'x' * 3 * block}\n# {'y' * block}\n")
    path.write_bytes(text.encode("utf-8"))
    have_cfg, params, epoch = checkpoint.load_generator(path)
    want_cfg, want = load_checkpoint(path)
    assert have_cfg == want_cfg == cfg
    assert params.n_qubits == want.params.n_qubits
    assert params.angles.tobytes() == want.params.angles.tobytes()
    assert params.angles.tobytes() == state.params.angles.tobytes()
    assert epoch == want.epoch == state.epoch


def test_load_generator_reads_no_block_past_the_generator(tmp_path, monkeypatch):
    """A written checkpoint's head is in its first block, so what follows
    that block is neither read nor checked: bytes that are not UTF-8
    there stop only ``load_checkpoint``."""
    _, cfg, state = trained_state(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state)
    data = bytearray(path.read_bytes())
    assert data.index(b"[discriminator]") < checkpoint._BLOCK_BYTES
    data[checkpoint._BLOCK_BYTES:] = b"\xff" * (len(data) - checkpoint._BLOCK_BYTES)
    path.write_bytes(data)
    reads = []

    class Counted(io.FileIO):
        def read(self, size=-1):
            reads.append(size)
            return super().read(size)

    monkeypatch.setattr(checkpoint, "open", lambda path, mode, **_: Counted(path, mode),
                        raising=False)
    have_cfg, params, epoch = checkpoint.load_generator(path)
    monkeypatch.undo()
    assert reads == [checkpoint._BLOCK_BYTES]
    assert (have_cfg, epoch) == (cfg, state.epoch)
    assert params.angles.tobytes() == state.params.angles.tobytes()
    with pytest.raises(SchemaError, match="not UTF-8 text"):
        load_checkpoint(path)


@pytest.mark.parametrize("name", ["meta", "config", "generator", "discriminator"])
def test_a_repeated_section_header_is_refused(tmp_path, name):
    """``load_checkpoint`` refuses a checkpoint that repeats a section, so
    ``detect`` and ``train --resume`` cannot read two different values of
    one key; ``load_generator`` refuses one that it reads, up to the
    header that ends the head."""
    _, cfg, state = trained_state(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state)
    text = path.read_text(encoding="utf-8")
    lineno = text.count("\n") + 1
    path.write_text(text + f"[{name}]\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=re.escape(
            f"{path}:{lineno}: repeated section [{name}]")):
        load_checkpoint(path)
    assert checkpoint.load_generator(path)[0] == cfg   # past the head
    head = text.replace("[generator]\n", f"[{name}]\n[generator]\n")
    path.write_text(head, encoding="utf-8")
    for load in (load_checkpoint, checkpoint.load_generator):
        with pytest.raises(SchemaError, match=re.escape(f"repeated section [{name}]")):
            load(path)


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
        load_checkpoint(tmp_path / "nope.ckpt")


def test_fresh_state_round_trip(tmp_path):
    # an epoch-0 checkpoint stores zero moments, and resuming from it
    # matches an uninterrupted run bit for bit
    rng = np.random.default_rng(4)
    data = rng.dirichlet(np.ones(4), size=8)
    cfg = TrainConfig(batch=4, epochs=0, depth=3, seed=5)
    fresh = train([data], cfg)[0].state
    path = tmp_path / "fresh.ckpt"
    save_checkpoint(path, cfg, fresh)
    sections = read_kv(path, MAGIC)
    for name, param in (("opt_g", fresh.params.angles), ("opt_d", fresh.net.flat)):
        assert sections[name]["t"] == "0"
        for key in "mv":
            stored = _get_array(sections[name], key, param.shape)
            assert stored.tobytes() == np.zeros(param.shape).tobytes()
    _, back = load_checkpoint(path)
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


def test_array_lines_are_little_endian_binary64_hex(tmp_path):
    rng = np.random.default_rng(3)
    arr = np.concatenate([rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40),
                          [0.0, -0.0, 5e-324, 1.0, -2.5, np.pi]]).reshape(2, 23)
    path = tmp_path / "a.ckpt"
    write_kv(path, MAGIC, {"": _put_array("a", arr)})
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    # 16 hex digits per value, least significant byte first
    assert lines == ["a.shape = 2 23",
                     "a.data = " + "".join(struct.pack("<d", x).hex()
                                           for x in arr.ravel())]
    assert lines[1].endswith("0000000000000000" "0000000000000080"
                             "0100000000000000" "000000000000f03f"
                             "00000000000004c0" "182d4454fb210940")
    back = _get_array(read_kv(path, MAGIC)[""], "a", (2, 23))
    assert back.dtype == float and back.flags.writeable
    np.testing.assert_array_equal(back.view(np.uint64), arr.view(np.uint64))


class _FailingHandle:
    """Writes half of what it is given, then fails like a full disk."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[:len(text) // 2])
        raise OSError("no space left on device")


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    _, cfg, state = trained_state(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state, digest="before")
    before = path.read_bytes()
    monkeypatch.setattr(checkpoint, "open", raising=False,
                        value=lambda *a, **k: _FailingHandle(builtins.open(*a, **k)))
    with pytest.raises(OSError):
        save_checkpoint(path, cfg, state, digest="after")
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
