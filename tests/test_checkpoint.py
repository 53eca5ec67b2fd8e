"""Bit-exact checkpoint round trips, resumable training and atomic writes."""

import ast
import builtins
import struct
from pathlib import Path

import numpy as np
import pytest

from qbde import checkpoint
from qbde.checkpoint import (
    MAGIC,
    _get_array,
    _put_array,
    atomic_open,
    float_fields,
    load_checkpoint,
    read_kv,
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
    return data, cfg, train(data, cfg).state


def test_round_trip_is_bit_exact(tmp_path):
    _, cfg, state = trained_state(tmp_path)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, cfg, state)
    assert path.read_text().startswith(MAGIC)
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

    full = train(data, TrainConfig(batch=4, epochs=10, depth=2, seed=3))

    cfg_a = TrainConfig(batch=4, epochs=6, depth=2, seed=3)
    first = train(data, cfg_a)
    path = tmp_path / "part.ckpt"
    save_checkpoint(path, cfg_a, first.state)
    _, resumed_state = load_checkpoint(path)
    second = train(data, TrainConfig(batch=4, epochs=4, depth=2, seed=3),
                   state=resumed_state)

    assert first.loss_g + second.loss_g == full.loss_g
    assert first.loss_d + second.loss_d == full.loss_d
    assert first.cross_entropy + second.cross_entropy == full.cross_entropy
    np.testing.assert_array_equal(second.state.params.angles, full.state.params.angles)


def test_each_network_is_one_vector_with_one_adam_state(tmp_path):
    # the checkpoint stores exactly the arrays training steps: the angles,
    # the discriminator's flat vector and each optimiser's two moments
    rng = np.random.default_rng(2)
    data = rng.dirichlet(np.ones(4), size=8)
    full = train(data, TrainConfig(batch=4, epochs=10, depth=2, seed=3))
    cfg_a = TrainConfig(batch=4, epochs=6, depth=2, seed=3)
    first = train(data, cfg_a)
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
    second = train(data, TrainConfig(batch=4, epochs=4, depth=2, seed=3),
                   state=resumed_state)
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


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_fresh_state_round_trip(tmp_path):
    # an epoch-0 checkpoint stores zero moments, and resuming from it
    # matches an uninterrupted run bit for bit
    rng = np.random.default_rng(4)
    data = rng.dirichlet(np.ones(4), size=8)
    cfg = TrainConfig(batch=4, epochs=0, depth=3, seed=5)
    fresh = train(data, cfg).state
    path = tmp_path / "fresh.ckpt"
    save_checkpoint(path, cfg, fresh)
    sections = read_kv(path, MAGIC)
    for name, param in (("opt_g", fresh.params.angles), ("opt_d", fresh.net.flat)):
        assert sections[name]["t"] == "0"
        for key in "mv":
            stored = _get_array(sections[name], key, param.shape)
            assert stored.tobytes() == np.zeros(param.shape).tobytes()
    _, back = load_checkpoint(path)
    resumed = train(data, TrainConfig(batch=4, epochs=5, depth=3, seed=5), state=back)
    full = train(data, TrainConfig(batch=4, epochs=5, depth=3, seed=5))
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
    rows; appending adds only the blocks, after a byte copy of the file."""
    path = tmp_path / "table.csv"
    rows = [["U1", 'a "quoted", field', 1 / 3], ["U2", "", -0.0]]
    write_columns(path, ["user", "note", "x"], [
        text_fields([row[0] for row in rows]), text_fields([row[1] for row in rows]),
        float_fields([row[2] for row in rows]).tolist()], comment="digest")
    head = b'# digest\nuser,note,x\n'
    body = b'U1,"a ""quoted"", field",0.3333333333333333\nU2,,-0.0\n'
    assert path.read_bytes() == head + body
    write_blocks(path, ["ignored"], [b'U3,"line\nbreak",1e-300\n'], "ignored",
                 append=True)
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
