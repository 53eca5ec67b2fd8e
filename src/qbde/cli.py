"""Pipeline orchestration behind the ``qbde`` command.

Subcommands mirror the pipeline phases so each is runnable and testable
on its own:

    qbde synth   --config run.cfg        write synthetic logs + labels
    qbde ingest  --config run.cfg        logs -> features, split, normalize
    qbde train   --config run.cfg        adversarial training -> checkpoint
    qbde detect  --config run.cfg        scores, thresholds, verdicts
    qbde report  --config run.cfg        human-readable summary

The config file is flat ``key = value`` text; command-line flags override
file values, and ``train --resume`` continues from the checkpoint.  Every
output file embeds a digest of the resolved configuration, and identical
(config, seed) runs produce byte-identical outputs.  Exit codes: 0
success, 2 configuration, 3 I/O or out of memory, 4 validation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import bde, features, qgan
from .checkpoint import (Rows, Sealed, float_fields, load_checkpoint,
                         load_generator, read_kv, replace_together,
                         save_checkpoint, sealed, text_fields, write_blocks,
                         write_columns, write_kv)
from .errors import ConfigError, SchemaError
from .qsim import probabilities, run_generator_circuit, sample

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_VALIDATION = 4

SHOTS = 1024  # measurements per sampled reference histogram


@dataclass
class RunConfig:
    input_dir: str = "data"
    out_dir: str = "out"
    checkpoint: str = ""          # default: <out_dir>/qgan.ckpt
    k: int = 8                    # circuit depth
    batch: int = 16
    epochs: int = 300
    lam: float = 0.1
    working_hours: str = "08:00-18:00"
    seed: int = 0
    sampled: bool = False         # score against sampled histograms
    reference_samples: int = 16   # candidate references in sampled mode
    train_days: int = 200
    test_days: int = 100
    n_users: int = 1
    n_days: int = 300
    anomaly_rate: float = 0.05
    bde_epochs: int = 200

    def validate(self) -> None:
        """Every setting is checked here, before any command writes a file:
        the ones the phases' own configs check by building those configs."""
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigError("lambda must be in [0, 1]")
        if self.reference_samples < 1:
            raise ConfigError("reference_samples must be >= 1")
        if self.bde_epochs < 0:
            raise ConfigError("bde_epochs must be >= 0")
        try:
            features.parse_working_hours(self.working_hours)
            features.split(features.Days(), self.train_days, self.test_days)
            self.synth_config(), self.train_config()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def synth_config(self) -> features.SynthConfig:
        return features.SynthConfig(
            n_users=self.n_users, n_days=self.n_days,
            anomaly_rate=self.anomaly_rate, seed=self.seed,
            out_dir=self.input_dir, working_hours=self.working_hours)

    def train_config(self) -> qgan.TrainConfig:
        return qgan.TrainConfig(batch=self.batch, epochs=self.epochs,
                                depth=self.k, seed=self.seed)

    def digest(self) -> str:
        """Hash of the resolved settings that shape results.  Path fields
        are excluded so identical runs in different directories (or on
        different machines) produce byte-identical outputs."""
        skip = {"input_dir", "out_dir", "checkpoint"}
        blob = "\n".join(f"{f.name}={getattr(self, f.name)}"
                         for f in sorted(dataclasses.fields(self),
                                         key=lambda f: f.name)
                         if f.name not in skip)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_ALIASES = {"lambda": "lam"}
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _coerce(name: str, value: str):
    kind = _FIELD_TYPES[name]
    value = value.strip()
    if kind == "bool":
        if value.lower() in ("true", "1", "yes"):
            return True
        if value.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{name}: expected a boolean, got {value!r}")
    try:
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc
    return value


def load_config(path: str | Path | None) -> RunConfig:
    cfg = RunConfig()
    if path is None:
        return cfg
    try:
        sections = read_kv(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except SchemaError as exc:
        raise ConfigError(str(exc)) from exc
    for key, value in sections.pop("").items():
        name = _ALIASES.get(key, key)
        if name not in _FIELD_TYPES:
            raise ConfigError(f"{path}: unknown setting {key!r}")
        setattr(cfg, name, _coerce(name, value))
    if sections:
        raise ConfigError(f"{path}: unknown section [{next(iter(sections))}]")
    return cfg


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def cmd_synth(cfg: RunConfig) -> int:
    result = features.synth_generate(cfg.synth_config())
    n_abn = sum(1 for v in result.labels.values() if v == features.LABEL_ABNORMAL)
    write_kv(Path(cfg.input_dir) / "synth_report.txt", "qbde-synth-report", {"": {
        "config_digest": cfg.digest(),
        **{f"rows.{source}": result.row_counts[source]
           for source in sorted(result.row_counts)},
        "days.total": len(result.labels),
        "days.abnormal": n_abn,
    }})
    print(f"wrote {len(result.row_counts)} log files under {cfg.input_dir} "
          f"({len(result.labels)} user-days, {n_abn} abnormal)")
    return EXIT_OK


def cmd_ingest(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    events, report = features.parse_logs(cfg.input_dir)
    try:
        for user in events.user_names:
            features.check_user_id(user)
    except ValueError as exc:
        raise SchemaError(f"{cfg.input_dir}: {exc}") from exc
    days = features.extract_daily(events, cfg.working_hours)
    labels_path = Path(cfg.input_dir) / "labels.csv"
    if labels_path.exists():
        features.attach_labels(days, features.read_labels_csv(labels_path))
    dataset = features.normalize(features.split(days, cfg.train_days,
                                                cfg.test_days))
    digest = cfg.digest()
    features.write_features_csv(out_dir / "features_raw.csv", days, digest)
    features.write_features_csv(out_dir / "features_train.csv", dataset.train,
                                digest)
    features.write_features_csv(out_dir / "features_test.csv", dataset.test,
                                digest)
    stats = sorted(dataset.stats.items())
    write_columns(out_dir / "norm_stats.csv", ["user", "feature", "min", "max"], [
        text_fields([user for user, _ in stats for _ in features.FEATURE_NAMES]),
        text_fields([*features.FEATURE_NAMES] * len(stats)),
        *(float_fields(np.ravel([bounds[i] for _, bounds in stats])).tolist()
          for i in (0, 1))], digest)
    write_kv(out_dir / "parse_report.txt", "qbde-parse-report", {"": {
        **report.entries(),
        "config_digest": digest,
        "split.train_rows": len(dataset.train),
        "split.test_rows": len(dataset.test),
        "split.excluded_abnormal": len(dataset.excluded),
        "normalize.clipped_values": dataset.clipped}})
    print(f"ingested {report.total_events()} events -> {len(dataset.train)} train "
          f"/ {len(dataset.test)} test rows "
          f"({len(dataset.excluded)} abnormal excluded from training)")
    return EXIT_OK


def _ckpt_path(cfg: RunConfig, user: str, n_users: int) -> Path:
    base = Path(cfg.checkpoint or Path(cfg.out_dir) / "qgan.ckpt")
    if n_users == 1:
        return base
    return base.with_name(f"{base.stem}-{user}{base.suffix}")


def _train_days(out_dir: Path) -> features.Days:
    path = out_dir / "features_train.csv"
    days = features.read_features_csv(path)
    if not len(days):
        raise SchemaError(f"{path}: no training rows")
    return days


def _reusable(ckpt: Path, loss_path: Path, train_cfg: qgan.TrainConfig,
              rows: Rows) -> tuple[Sealed, bytes] | None:
    """The checkpoint and loss file a fresh train of one user under
    ``train_cfg`` on ``rows`` would write but for their config digest, if
    that is what it finds: a loss file of ``train_cfg.epochs`` rows, probed
    first since it is small, and a checkpoint sealed with that file's
    digest."""
    try:
        loss = loss_path.read_bytes()
    except OSError:
        return None
    if loss.count(b"\n") != 2 + train_cfg.epochs:
        return None
    kept = sealed(ckpt, train_cfg, rows)
    if kept is None or kept.meta["loss_sha256"] != hashlib.sha256(loss).hexdigest():
        return None
    return kept, loss


def cmd_train(cfg: RunConfig, resume: bool = False) -> int:
    out_dir = Path(cfg.out_dir)
    days = _train_days(out_dir)
    # users in features_train.csv's order
    by_user = days.by_user()
    digest = cfg.digest()
    train_cfg = cfg.train_config()
    data = [features.to_simplex(days.x[at]) for at in by_user.values()]
    rows = [Rows.of(x, out_dir / "features_train.csv") for x in data]
    ckpts = [_ckpt_path(cfg, user, len(by_user)) for user in by_user]
    losses = [out_dir / f"loss_{user}.csv" for user in by_user]
    states, todo, stale = None, range(len(data)), []
    if resume:
        # every checkpoint loads, matches the config and was fit to these
        # rows before any user trains
        states = [load_checkpoint(ckpt, train_cfg, bound)[1]
                  for ckpt, bound in zip(ckpts, rows)]
    else:
        # a checkpoint a fresh train sealed for these rows and train config
        # is kept with its loss file, rewritten only if the run's config
        # digest, which both files hold, has changed; the other users train
        kept = [_reusable(*paths, train_cfg, bound)
                for *paths, bound in zip(ckpts, losses, rows)]
        todo = [i for i, hit in enumerate(kept) if hit is None]
        stale = [i for i, hit in enumerate(kept)
                 if hit and hit[0].meta["config_digest"] != digest]
    traces = qgan.train([data[i] for i in todo], train_cfg, states) if todo else []
    # every user ran the same epochs, so one call formats every loss
    fields = float_fields([(t.loss_g, t.loss_d, t.cross_entropy) for t in traces])
    head = f"# {digest}\nepoch,loss_g,loss_d,cross_entropy\n".encode()
    # every user's loss file and checkpoint are written before any is
    # replaced, so a failed write leaves all of them as they were
    with replace_together() as stage:
        for i, trace, columns in zip(todo, traces, fields):
            last = trace.state.epoch
            new = "".join(f"{epoch},{g},{d},{ce}\n" for epoch, g, d, ce in zip(
                range(last - len(trace.loss_g) + 1, last + 1), *columns)).encode()
            old = losses[i].read_bytes() if resume and losses[i].exists() else head
            write_blocks(stage(losses[i]), None, [old, new])
            save_checkpoint(stage(ckpts[i]), train_cfg, trace.state, rows[i], digest,
                            None if resume else hashlib.sha256(old + new).hexdigest())
        for i in stale:
            ckpt, loss = kept[i]
            loss = head + loss[loss.index(b"\n", loss.index(b"\n") + 1) + 1:]
            write_blocks(stage(losses[i]), None, [loss])
            ckpt.write(stage(ckpts[i]), digest, hashlib.sha256(loss).hexdigest())
    users = [*by_user]
    for i, trace in zip(todo, traces):
        final = (f"cross_entropy={trace.cross_entropy[-1]:.4f}"
                 if trace.cross_entropy else "no epochs run")
        print(f"trained {users[i]}: {len(trace.loss_g)} epochs, {final} -> {ckpts[i]}")
    for i in stale:
        print(f"reused {users[i]} under the new config digest -> {ckpts[i]}")
    print(f"{len(todo)} user(s) trained, {len(data) - len(todo)} reused")
    return EXIT_OK


def _reference_distributions(params, cfg: RunConfig) -> np.ndarray:
    """Scoring references: the exact output distribution of the generator
    ``params``, or in sampled mode a stack of measured histograms (nearest
    one wins per test row), all drawn in one call."""
    probs = probabilities(run_generator_circuit(params))[None, :]
    if not cfg.sampled:
        return probs
    rng = np.random.default_rng(cfg.seed + 2)
    return sample(probs.repeat(cfg.reference_samples, axis=0), SHOTS, rng) / SHOTS


def cmd_detect(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out_dir)
    test_path = out_dir / "features_test.csv"
    train, test = _train_days(out_dir), features.read_features_csv(test_path)
    train_by_user, test_by_user = train.by_user(), test.by_user()
    untrained = [user for user in test_by_user if user not in train_by_user]
    if untrained:
        raise SchemaError(f"{test_path}: user {untrained[0]} has no "
                          f"training rows to score against")
    digest = cfg.digest()

    # every user's training window, then every user's test days: the
    # order of the score files
    days = features.Days.join(
        [*map(train.__getitem__, train_by_user.values()),
         *(test[test_by_user.get(user, [])] for user in train_by_user)])
    x = features.to_simplex(days.x)

    # every checkpoint's generator loads, and is checked against the config
    # and the training rows, before any scorer is looked up or trained; the
    # training state after it is read by train --resume alone
    users, reals, generated = [], [], []
    train_path, train_cfg = out_dir / "features_train.csv", cfg.train_config()
    for user, at in days.by_user().items():   # a training window, then test days
        real = x[at[:len(train_by_user[user])]]
        _, params, _ = load_generator(_ckpt_path(cfg, user, len(train_by_user)),
                                      train_cfg, Rows.of(real, train_path))
        references = _reference_distributions(params, cfg)
        tiled = np.tile(references, (-(-len(real) // len(references)), 1))
        reals.append(real)
        generated.append(tiled[:len(real)])
        users.append((at, len(real), references))

    # a scorer saved for exactly these inputs is reused; one call trains
    # the rest, and is made even when it has none to train
    paths = [out_dir / f"scorer_{user}.ckpt" for user in train_by_user]
    keys = [bde.scorer_key(real, gen, cfg.bde_epochs, cfg.seed + 1)
            for real, gen in zip(reals, generated)]
    nets = [bde.load_scorer(path, key) for path, key in zip(paths, keys)]
    missed = [i for i, net in enumerate(nets) if net is None]
    trained = bde.train_bde([reals[i] for i in missed],
                            [generated[i] for i in missed],
                            cfg.bde_epochs, cfg.seed + 1)
    for i, net in zip(missed, trained):
        bde.save_scorer(paths[i], keys[i], net)
        nets[i] = net

    scores = bde.score_rows(days, x, [bde.UserDays(*user, net) for user, net
                                      in zip(users, nets)], cfg.lam)
    train, test = scores[:len(train)], scores[len(train):]

    bde.write_score_csv(out_dir / "scores.csv", test, digest)
    bde.write_score_csv(out_dir / "scores_train.csv", train, digest)
    acc = bde.write_summary(out_dir / "detect_summary.txt", test, train,
                            cfg.lam, digest)
    acc_text = f", accuracy {acc:.4f}" if acc is not None else ""
    print(f"scored {len(test)} test rows over {len(train_by_user)} user(s)"
          f" ({len(missed)} scorer(s) trained, {len(nets) - len(missed)} reused)"
          f"{acc_text}")
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out_dir)
    scores_path, summary_path = out_dir / "scores.csv", out_dir / "detect_summary.txt"
    records = bde.read_score_csv(scores_path)
    summary = bde.read_summary(summary_path)
    users = set(summary["users"].split())
    unlisted = next((rec["user"] for rec in records if rec["user"] not in users), None)
    if unlisted is not None:
        raise SchemaError(f"{scores_path}: user {unlisted} has no thresholds "
                          f"in {summary_path}")
    if not records:
        print("no test records")
        return EXIT_OK
    print(f"detection report ({len(records)} user-days)")
    print(f"  lambda = {summary['lambda']}")
    for user in summary["users"].split():
        print(f"  thresholds[{user}]: abnormal > {float(summary[f'th_d.{user}']):.4f}, "
              f"threat > {float(summary[f'th_f.{user}']):.4f}")
    print("  verdicts:")
    for verdict in bde.VERDICTS:
        print(f"    {verdict:<12} {summary[f'count.{verdict}']}")
    if "accuracy" in summary:
        print(f"  accuracy: {float(summary['accuracy']):.4f}  (TP "
              f"{summary['confusion.TP']}, TN {summary['confusion.TN']}, "
              f"FP {summary['confusion.FP']}, FN {summary['confusion.FN']})")
    print("  top-scoring days:")
    top = sorted(records, key=lambda r: -r["d"])[:10]
    for rec in top:
        label = f"  [{rec['label']}]" if rec["label"] else ""
        print(f"    {rec['user']} {rec['day']}  d={rec['d']:.4f} "
              f"{rec['verdict']}{label}")
    return EXIT_OK


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------

_COMMANDS = {
    "synth": (cmd_synth, "generate synthetic logs with labelled anomalies"),
    "ingest": (cmd_ingest, "extract, split and normalize behavior features"),
    "train": (cmd_train, "adversarially train the generator, write a checkpoint"),
    "detect": (cmd_detect, "score test days and classify threat levels"),
    "report": (cmd_report, "print a human-readable detection summary"),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Each flag's ``dest`` is the ``RunConfig`` field it overrides, or the
    keyword of its command's function; a flag not given is left out.  Built
    once per process: parsing leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="qbde",
        description="Model normal user behavior with a quantum-circuit GAN "
                    "and score daily activity for insider threats.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text,
                             argument_default=argparse.SUPPRESS)
        cmd.add_argument("--config", metavar="FILE", help="key = value config file")
        cmd.add_argument("--seed", type=int, help="override the run seed")
        cmd.add_argument("--k", type=int, help="override the circuit depth")
        cmd.add_argument("--lambda", dest="lam", type=float,
                         help="override the score weight in [0, 1]")
        cmd.add_argument("--out", dest="out_dir", metavar="DIR",
                         help="override the output directory")
        cmd.add_argument("--input-dir", metavar="DIR", help="override the log directory")
        cmd.add_argument("--epochs", type=int, help="override the epoch count")
        if name == "train":
            cmd.add_argument("--resume", action="store_true",
                             help="continue training from the existing checkpoint")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
    except SystemExit as exc:  # argparse printed the help, or usage and an error
        return EXIT_CONFIG if exc.code else EXIT_OK
    run, _ = _COMMANDS[args.pop("command")]
    path = args.pop("config", None)
    overrides = {name: args.pop(name) for name in list(args) if name in _FIELD_TYPES}
    try:
        cfg = dataclasses.replace(load_config(path), **overrides)
        cfg.validate()
        return run(cfg, **args)   # what is left are the command's own flags
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:   # settings that need more memory than the host has
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return EXIT_IO
    except (SchemaError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
