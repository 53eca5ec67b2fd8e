"""Versioned text checkpoints for GAN training state.

Layout: a ``qbde-ckpt-v1`` magic line, then ``[section]`` headers with
``key = value`` entries.  Floats are written with ``float.hex`` and arrays
as a ``key.shape`` line plus a ``key.data`` line of hex floats, so a
save/load round trip is bit-exact.  Besides the generator angles,
discriminator weights, train config and seed, the file carries the
optimiser moments and the RNG state: that is what makes a resumed run
indistinguishable from an uninterrupted one.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import SchemaError
from .optim import Adam
from .qgan import DiscriminatorNet, TrainConfig, TrainState
from .qsim import GeneratorParams

MAGIC = "qbde-ckpt-v1"


def _hex(x: float) -> str:
    return float(x).hex()


def _put_array(lines: list[str], key: str, arr: np.ndarray) -> None:
    lines.append(f"{key}.shape = {' '.join(str(d) for d in arr.shape)}")
    lines.append(f"{key}.data = {' '.join(_hex(x) for x in arr.ravel())}")


def _get_array(sec: dict[str, str], key: str) -> np.ndarray:
    shape = tuple(int(d) for d in sec[f"{key}.shape"].split())
    data = [float.fromhex(tok) for tok in sec[f"{key}.data"].split()]
    return np.array(data, dtype=float).reshape(shape)


def _put_adam(lines: list[str], name: str, opt: Adam) -> None:
    lines.append(f"[{name}]")
    lines.append(f"t = {opt.t}")
    if opt.m is not None:
        lines.append(f"n_arrays = {len(opt.m)}")
        for i, (m, v) in enumerate(zip(opt.m, opt.v)):
            _put_array(lines, f"m{i}", m)
            _put_array(lines, f"v{i}", v)


def _get_adam(sec: dict[str, str], lr: float, cfg: TrainConfig) -> Adam:
    opt = Adam(lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
    opt.t = int(sec["t"])
    if "n_arrays" in sec:
        n = int(sec["n_arrays"])
        opt.m = [_get_array(sec, f"m{i}") for i in range(n)]
        opt.v = [_get_array(sec, f"v{i}") for i in range(n)]
    return opt


def save_checkpoint(path: str | Path, cfg: TrainConfig, state: TrainState,
                    digest: str | None = None) -> None:
    lines = [MAGIC]
    lines.append("[meta]")
    lines.append(f"epoch = {state.epoch}")
    if digest:
        lines.append(f"config_digest = {digest}")

    lines.append("[config]")
    lines.append(f"batch = {cfg.batch}")
    lines.append(f"epochs = {cfg.epochs}")
    lines.append(f"lr_g = {_hex(cfg.lr_g)}")
    lines.append(f"lr_d = {_hex(cfg.lr_d)}")
    lines.append(f"depth = {cfg.depth}")
    lines.append(f"seed = {cfg.seed}")
    lines.append(f"beta1 = {_hex(cfg.beta1)}")
    lines.append(f"beta2 = {_hex(cfg.beta2)}")
    lines.append(f"adam_eps = {_hex(cfg.adam_eps)}")
    lines.append(f"hidden = {' '.join(str(h) for h in cfg.hidden)}")
    lines.append(f"entangler = {cfg.entangler}")
    lines.append(f"init_spread = {_hex(cfg.init_spread)}")

    lines.append("[generator]")
    lines.append(f"n_qubits = {state.params.n_qubits}")
    lines.append(f"entangler = {state.params.entangler}")
    _put_array(lines, "angles", state.params.angles)

    lines.append("[discriminator]")
    lines.append(f"leak = {_hex(state.net.leak)}")
    lines.append(f"n_layers = {len(state.net.weights)}")
    for i, (w, b) in enumerate(zip(state.net.weights, state.net.biases)):
        _put_array(lines, f"w{i}", w)
        _put_array(lines, f"b{i}", b)

    _put_adam(lines, "opt_g", state.opt_g)
    _put_adam(lines, "opt_d", state.opt_d)

    rng_state = state.rng.bit_generator.state
    if rng_state["bit_generator"] != "PCG64":
        raise SchemaError("only PCG64 generators can be checkpointed")
    lines.append("[rng]")
    lines.append("bit_generator = PCG64")
    lines.append(f"state = {rng_state['state']['state']}")
    lines.append(f"inc = {rng_state['state']['inc']}")
    lines.append(f"has_uint32 = {rng_state['has_uint32']}")
    lines.append(f"uinteger = {rng_state['uinteger']}")

    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_sections(text: str, path: str | Path) -> dict[str, dict[str, str]]:
    lines = text.splitlines()
    if not lines or lines[0].strip() != MAGIC:
        raise SchemaError(f"{path}: not a {MAGIC} checkpoint")
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] | None = None
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = sections.setdefault(line[1:-1], {})
            continue
        if "=" not in line or current is None:
            raise SchemaError(f"{path}:{lineno}: unparseable line {line!r}")
        key, _, value = line.partition("=")
        current[key.strip()] = value.strip()
    return sections


def load_checkpoint(path: str | Path) -> tuple[TrainConfig, TrainState]:
    text = Path(path).read_text(encoding="utf-8")
    sec = _parse_sections(text, path)
    try:
        c = sec["config"]
        cfg = TrainConfig(
            batch=int(c["batch"]),
            epochs=int(c["epochs"]),
            lr_g=float.fromhex(c["lr_g"]),
            lr_d=float.fromhex(c["lr_d"]),
            depth=int(c["depth"]),
            seed=int(c["seed"]),
            beta1=float.fromhex(c["beta1"]),
            beta2=float.fromhex(c["beta2"]),
            adam_eps=float.fromhex(c["adam_eps"]),
            hidden=tuple(int(h) for h in c["hidden"].split()),
            entangler=c["entangler"],
            init_spread=float.fromhex(c["init_spread"]),
        )

        g = sec["generator"]
        params = GeneratorParams(int(g["n_qubits"]), _get_array(g, "angles"),
                                 g["entangler"])

        d = sec["discriminator"]
        n_layers = int(d["n_layers"])
        net = DiscriminatorNet(
            weights=[_get_array(d, f"w{i}") for i in range(n_layers)],
            biases=[_get_array(d, f"b{i}") for i in range(n_layers)],
            leak=float.fromhex(d["leak"]),
        )

        opt_g = _get_adam(sec["opt_g"], cfg.lr_g, cfg)
        opt_d = _get_adam(sec["opt_d"], cfg.lr_d, cfg)

        r = sec["rng"]
        rng = np.random.default_rng(0)
        rng.bit_generator.state = {
            "bit_generator": r["bit_generator"],
            "state": {"state": int(r["state"]), "inc": int(r["inc"])},
            "has_uint32": int(r["has_uint32"]),
            "uinteger": int(r["uinteger"]),
        }

        epoch = int(sec["meta"]["epoch"])
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"{path}: missing or malformed field ({exc})") from exc
    return cfg, TrainState(params, net, opt_g, opt_d, rng, epoch)
