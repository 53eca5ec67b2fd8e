"""Bit-exact checkpoint round trips, resumable training and atomic writes."""

import ast
import builtins
from pathlib import Path

import numpy as np
import pytest

from qbde import checkpoint
from qbde.checkpoint import (
    MAGIC,
    _put_array,
    atomic_open,
    format_kv,
    load_checkpoint,
    read_kv,
    save_checkpoint,
    write_csv,
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
    for a, b in zip(state2.net.param_list(), state.net.param_list()):
        np.testing.assert_array_equal(a, b)
    assert state2.epoch == state.epoch
    assert state2.opt_g.t == state.opt_g.t
    np.testing.assert_array_equal(state2.opt_d.m, state.opt_d.m)
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
    np.testing.assert_array_equal(second.params.angles, full.params.angles)


def test_per_array_moments_keep_their_layout_and_resume(tmp_path):
    # The discriminator's Adam steps one flat vector; its checkpoint holds
    # one moment array per weight and bias.
    rng = np.random.default_rng(2)
    data = rng.dirichlet(np.ones(4), size=8)
    full = train(data, TrainConfig(batch=4, epochs=10, depth=2, seed=3))
    cfg_a = TrainConfig(batch=4, epochs=6, depth=2, seed=3)
    first = train(data, cfg_a)
    arrays = first.state.net.param_list()
    path = tmp_path / "per_array.ckpt"
    save_checkpoint(path, cfg_a, first.state)
    sec = read_kv(path, MAGIC)["opt_d"]
    assert sec["n_arrays"] == "6"
    for i, arr in enumerate(arrays):
        for key in (f"m{i}", f"v{i}"):
            assert sec[f"{key}.shape"] == " ".join(map(str, arr.shape))
    _, resumed_state = load_checkpoint(path)
    second = train(data, TrainConfig(batch=4, epochs=4, depth=2, seed=3),
                   state=resumed_state)
    assert first.loss_g + second.loss_g == full.loss_g
    assert first.loss_d + second.loss_d == full.loss_d
    np.testing.assert_array_equal(second.params.angles, full.params.angles)
    np.testing.assert_array_equal(second.net.flat, full.net.flat)
    np.testing.assert_array_equal(second.state.opt_d.m, full.state.opt_d.m)


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


def test_missing_file_raises_io_error(tmp_path):
    with pytest.raises(OSError):
        load_checkpoint(tmp_path / "nope.ckpt")


def test_fresh_state_round_trip(tmp_path):
    # epoch 0, optimisers never stepped
    from qbde.qgan import init_train_state
    cfg = TrainConfig(depth=3, seed=5)
    state = init_train_state(2, cfg)
    path = tmp_path / "fresh.ckpt"
    save_checkpoint(path, cfg, state)
    _, back = load_checkpoint(path)
    assert back.opt_g.m is None
    np.testing.assert_array_equal(back.params.angles, state.params.angles)


def test_array_lines_match_per_element_hex():
    rng = np.random.default_rng(3)
    arr = np.concatenate([rng.normal(size=40) * 10.0 ** rng.integers(-300, 300, 40),
                          [0.0, -0.0, 5e-324, 1.0, -2.5, np.pi]]).reshape(2, 23)
    lines = format_kv(MAGIC, {"": _put_array("a", arr)}).splitlines()[1:]
    assert lines == ["a.shape = 2 23",
                     "a.data = " + " ".join(float(x).hex() for x in arr.ravel())]


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


def test_write_csv_bytes(tmp_path):
    path = tmp_path / "table.csv"
    rows = [["U1", 'a "quoted", field', 1 / 3], ["U2", "", -0.0]]
    write_csv(path, ["user", "note", "x"], iter(rows), comment="digest")
    head = b'# digest\nuser,note,x\n'
    body = b'U1,"a ""quoted"", field",0.3333333333333333\nU2,,-0.0\n'
    assert path.read_bytes() == head + body
    write_csv(path, ["ignored"], [["U3", "line\nbreak", 1e-300]], append=True)
    assert path.read_bytes() == head + body + b'U3,"line\nbreak",1e-300\n'
    write_csv(path, ["user", "x"], [])
    assert path.read_bytes() == b"user,x\n"


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
    # every output goes through write_kv or write_csv, so it is atomic
    src = Path(checkpoint.__file__).parent
    writers = [f"{path.name}:{node.lineno}"
               for path in sorted(src.glob("*.py")) if path.name != "checkpoint.py"
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Call) and _writes_a_file(node)]
    assert writers == []
    tree = ast.parse(Path(checkpoint.__file__).read_text(encoding="utf-8"))
    assert sum(isinstance(node, ast.Call) and _writes_a_file(node)
               for node in ast.walk(tree)) > 0
