"""Time-to-verdict benchmark for qbde.

Drives the ``qbde`` phases in-process on a synthetic corpus made from
``--seed``, checks their outputs, and prints one JSON result as the last
line of standard output::

    python3 bench/run.py --workload acceptance --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Times are reported in reference seconds: wall seconds scaled by how fast
the host ran a fixed kernel just before and just after each phase (see
``hostspeed.py``), so that a busy shared host does not read as a slow
program.

With ``--trace 0`` the result holds the end-to-end metrics, measured
with no wrappers installed.  With ``--trace 1`` the same iterations run
first plain and then with every public function of interest wrapped
(see ``spans.py``), and the result holds the per-layer metrics.
``README.md`` beside this file explains the workloads and what each
metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from hostspeed import REFERENCE_S, kernel_seconds
from spans import Tracer, self_times, totals

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

SETUP_REPEATS = 5
ACCURACY_BOUND = 0.95
DIGESTED = ("loss_*.csv", "features_train.csv", "features_test.csv",
            "scores*.csv", "detect_summary.txt")
TIME_UNITS = ("s", "ms", "us")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict            # run.cfg settings; the seed is added per run
    phases: tuple           # timed qbde command lines, in order
    setup: tuple = ()       # qbde command lines run after synth in set-up


# Each train_days value leaves every user a number of normal rows (the
# window less its ~5% abnormal days) that fills the same count of
# 16-row batches on ~99% of seeds, so the seed does not step train or
# detect time by a whole batch.  No phase takes much over a second on an
# idle core, so the reference kernel run on either side of it tracks the
# host's speed during it (see hostspeed.py); bde_epochs is cut from 200
# for that.
WORKLOADS = {w.name: w for w in (
    Workload(
        "acceptance",
        "the acceptance corpus end to end; circuit training is most of the time",
        {"n_users": 1, "n_days": 300, "train_days": 196, "test_days": 100,
         "k": 8, "batch": 16, "epochs": 3, "bde_epochs": 40},
        (("ingest",), ("train",), ("detect",))),
    Workload(
        "fleet-score",
        "daily scoring of a multi-user fleet from saved checkpoints; no training",
        {"n_users": 6, "n_days": 70, "train_days": 46, "test_days": 24,
         "k": 8, "batch": 16, "epochs": 1, "bde_epochs": 40},
        (("ingest",), ("detect",)),
        setup=(("ingest",), ("train",))),
    Workload(
        "fleet-train",
        "multi-user training in resumed chunks, then sampled-reference detection",
        {"n_users": 3, "n_days": 70, "train_days": 46, "test_days": 24,
         "k": 8, "batch": 16, "epochs": 1, "sampled": "true",
         "reference_samples": 64, "bde_epochs": 40},
        (("ingest",), ("train",), ("train", "--resume"),
         ("train", "--resume"), ("detect",))),
)}

# (name, unit, better) -- BENCHMARK.json lists the same metrics.
END_TO_END = (
    ("pipeline_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("train_user_epochs_per_s", "1/s", "higher"),
    ("ingest_events_per_s", "1/s", "higher"),
    ("detect_user_days_per_s", "1/s", "higher"),
    ("accuracy", "ratio", "higher"),
    ("ok_ops_ratio", "ratio", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("qsim.prob_jacobian.calls", "count", "lower"),
    ("qsim.prob_jacobian.us", "us", "lower"),
    ("qsim.prob_jacobian.share_of_train", "ratio", "lower"),
    ("qsim.run_generator_circuit.calls", "count", "lower"),
    ("qsim.run_generator_circuit.us", "us", "lower"),
    ("qsim.sample.calls", "count", "lower"),
    ("qsim.sample.us", "us", "lower"),
    ("qgan.loss_d.us", "us", "lower"),
    ("qgan.loss_g.us", "us", "lower"),
    ("qgan.disc_grads.us", "us", "lower"),
    ("qgan.gen_grads.us", "us", "lower"),
    ("qgan.step_us", "us", "lower"),
    ("qgan.batch_steps", "count", "lower"),
    ("optim.Adam.step.calls", "count", "lower"),
    ("optim.Adam.step.us", "us", "lower"),
    ("features.synth_generate.s", "s", "lower"),
    ("features.parse_logs.s", "s", "lower"),
    ("features.parse_logs.us_per_event", "us", "lower"),
    ("features.extract_daily.us_per_event", "us", "lower"),
    ("features.normalize.s", "s", "lower"),
    ("features.read_features_csv.s", "s", "lower"),
    ("features.write_features_csv.s", "s", "lower"),
    ("bde.train_bde.s", "s", "lower"),
    ("bde.bce_loss_and_grads.calls", "count", "lower"),
    ("bde.bce_loss_and_grads.us", "us", "lower"),
    ("bde.score_rows.us_per_row", "us", "lower"),
    ("bde.bde_forward.calls_per_row", "ratio", "lower"),
    ("bde.write_score_csv.s", "s", "lower"),
    ("checkpoint.save_checkpoint.calls", "count", "lower"),
    ("checkpoint.save_checkpoint.ms", "ms", "lower"),
    ("checkpoint.save_checkpoint.bytes", "bytes", "lower"),
    ("checkpoint.load_checkpoint.calls", "count", "lower"),
    ("checkpoint.load_checkpoint.ms", "ms", "lower"),
    ("cli.ingest.s", "s", "lower"),
    ("cli.ingest.self_s", "s", "lower"),
    ("cli.train.s", "s", "lower"),
    ("cli.train.self_s", "s", "lower"),
    ("cli.detect.s", "s", "lower"),
    ("cli.detect.self_s", "s", "lower"),
    ("trace_overhead_ratio", "ratio", "lower"),
)


LAYER_UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _first_len(args, result):
    return len(result[0])


def _len_result(args, result):
    return len(result)


def _len_arg(args, result):
    return len(args[0])


def _file_size(args, result):
    return Path(args[0]).stat().st_size


# Wrapped where the caller looks the name up: (owner, attribute, span
# name, amount of work per call).
TRACE_POINTS = (
    ("qbde.qgan", "prob_jacobian", "qsim.prob_jacobian", None),
    ("qbde.qgan", "run_generator_circuit", "qsim.run_generator_circuit", None),
    ("qbde.cli", "run_generator_circuit", "qsim.run_generator_circuit", None),
    ("qbde.cli", "sample", "qsim.sample", None),
    ("qbde.qgan", "train", "qgan.train", None),
    ("qbde.qgan", "loss_d", "qgan.loss_d", None),
    ("qbde.qgan", "loss_g", "qgan.loss_g", None),
    ("qbde.qgan", "disc_grads", "qgan.disc_grads", None),
    ("qbde.qgan", "gen_grads", "qgan.gen_grads", None),
    ("qbde.optim:Adam", "step", "optim.Adam.step", None),
    ("qbde.features", "synth_generate", "features.synth_generate", None),
    ("qbde.features", "parse_logs", "features.parse_logs", _first_len),
    ("qbde.features", "extract_daily", "features.extract_daily", _len_arg),
    ("qbde.features", "normalize", "features.normalize", None),
    ("qbde.features", "read_features_csv", "features.read_features_csv", None),
    ("qbde.features", "write_features_csv", "features.write_features_csv", None),
    ("qbde.bde", "train_bde", "bde.train_bde", None),
    ("qbde.bde", "bce_loss_and_grads", "bde.bce_loss_and_grads", None),
    ("qbde.bde", "score_rows", "bde.score_rows", _len_result),
    ("qbde.bde", "bde_forward", "bde.bde_forward", None),
    ("qbde.bde", "write_score_csv", "bde.write_score_csv", None),
    ("qbde.cli", "save_checkpoint", "checkpoint.save_checkpoint", _file_size),
    ("qbde.cli", "load_checkpoint", "checkpoint.load_checkpoint", None),
)


# --------------------------------------------------------------------------
# Environment record
# --------------------------------------------------------------------------

def import_qbde() -> float:
    """Import numpy and qbde from this checkout's ``src``; returns seconds."""
    start = time.perf_counter()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    from qbde import cli
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"qbde imported from {cli.__file__}, not {SRC}")
    return time.perf_counter() - start


def git_sha() -> str:
    """HEAD of the checkout read from ``.git``, or "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV}}


# --------------------------------------------------------------------------
# One benchmark run
# --------------------------------------------------------------------------

def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _digests(directory: Path, patterns) -> dict[str, str]:
    files = sorted({p for pattern in patterns for p in directory.glob(pattern)})
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def _read_kv(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _train_rows_per_user(path: Path) -> Counter:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(line for line in handle if not line.startswith("#"))
        next(reader, None)
        return Counter(rec[0] for rec in reader if rec)


class Timed(NamedTuple):
    wall: float     # seconds on the clock
    ref: float      # reference seconds: wall scaled to an idle host


@dataclass
class Run:
    """State of one run: where it works, what it attempted, what failed."""

    workload: Workload
    seed: int
    work: Path
    import_s: float = 0.0
    tracer: Tracer | None = None
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    reference: dict = field(default_factory=dict)
    kernels: list = field(default_factory=list)     # hostspeed samples

    def __post_init__(self):
        self.cfg_path = self.work / "run.cfg"
        self.data = self.work / "data"
        self.out = self.work / "out"
        self.config = {"input_dir": str(self.data), "out_dir": str(self.out),
                       **self.workload.config, "seed": self.seed}
        self.work.mkdir(parents=True, exist_ok=True)
        self.cfg_path.write_text(
            "".join(f"{k} = {v}\n" for k, v in self.config.items()),
            encoding="utf-8")

    def fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    def phase(self, argv: tuple) -> Timed | None:
        """Run one qbde command; its time, or None if it failed.

        The reference kernel runs on either side of the command (one
        pass is shared with the neighbouring command), and the mean of
        the two passes scales the wall time to reference seconds.
        """
        from qbde import cli
        if not self.kernels:
            kernel_seconds()                # warm-up pass, not counted
            self.kernels.append(kernel_seconds())
        before = self.kernels[-1]
        self.attempted += 1
        command = [*argv, "--config", str(self.cfg_path)]
        span = self.tracer.begin(f"cli.{argv[0]}") if self.tracer else None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(command)
        except SystemExit as exc:       # argparse refused the command line
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:               # a traceback is a failed phase too
            traceback.print_exc()
            code = -1
        elapsed = time.perf_counter() - start
        if span is not None:
            self.tracer.end(span)
        self.kernels.append(kernel_seconds())
        if code != 0:
            self.fail(f"qbde {' '.join(argv)} exited {code}")
            return None
        slowdown = (before + self.kernels[-1]) / 2 / REFERENCE_S
        return Timed(elapsed, elapsed / slowdown)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def check_same(self, key: str, digests: dict) -> None:
        """Outputs of every repeat must match those of the first."""
        first = self.reference.setdefault(key, digests)
        self.check(bool(digests) and digests == first,
                   f"{key} outputs differ between repeats of seed {self.seed}")

    @property
    def n_users(self) -> int:
        return int(self.config["n_users"])

    def setup_once(self) -> dict | None:
        """Synthesize the corpus and run the workload's set-up commands."""
        for path in (self.data, self.out):
            shutil.rmtree(path, ignore_errors=True)
        times = defaultdict(float)
        wall = 0.0
        for argv in (("synth",), *self.workload.setup):
            timed = self.phase(argv)
            if timed is None:
                return None
            times[argv[0]] += timed.ref
            wall += timed.wall
        self.check_same("setup", {**_digests(self.data, ("*.csv",)),
                                  **_digests(self.out, DIGESTED)})
        # the one import of the run counts in every set-up, scaled by the
        # kernel pass that follows it
        import_ref = self.import_s * REFERENCE_S / self.kernels[0]
        out = {"setup_s": import_ref + sum(times.values()),
               "wall_s": self.import_s + wall}
        if times["train"]:
            out["train_user_epochs_per_s"] = (
                self.n_users * int(self.config["epochs"]) / times["train"])
        return out

    def iteration(self) -> dict | None:
        """One timed pass over the workload's phases, then its checks."""
        times, walls = defaultdict(float), defaultdict(float)
        for argv in self.workload.phases:
            timed = self.phase(argv)
            if timed is None:
                return None
            times[argv[0]] += timed.ref
            walls[argv[0]] += timed.wall
        self.check_same("pipeline", _digests(self.out, DIGESTED))
        try:
            summary = _read_kv(self.out / "detect_summary.txt")
            events = int(_read_kv(self.out / "parse_report.txt")["events.total"])
            scored = (int(summary["train_records"])
                      + int(summary["test_records"]))
            accuracy = float(summary["accuracy"])
            rows = _train_rows_per_user(self.out / "features_train.csv")
        except (OSError, KeyError, ValueError) as exc:
            self.check(False, f"unreadable outputs: {exc!r}")
            return None
        self.check(summary.get("train_abnormal_verdicts") == "0",
                   "abnormal verdicts on training rows")
        n_train = sum(1 for argv in self.workload.phases if argv[0] == "train")
        batch = int(self.config["batch"])
        epochs = int(self.config["epochs"])
        out = {
            "times": dict(times),
            "walls": dict(walls),
            "pipeline_s": sum(times.values()),
            "wall_s": sum(walls.values()),
            "ingest_events_per_s": events / times["ingest"],
            "detect_user_days_per_s": scored / times["detect"],
            "accuracy": accuracy,
            "batch_steps": n_train * epochs * sum(math.ceil(n / batch)
                                                  for n in rows.values()),
        }
        if n_train:
            out["train_user_epochs_per_s"] = (
                n_train * epochs * self.n_users / times["train"])
        return out


def layer_metrics(spans, batch_steps: int) -> dict[str, float]:
    """Per-layer figures of one traced pipeline iteration."""
    t = totals(spans)
    own = self_times(spans)

    def per_call(name, scale):
        return t[name].seconds / t[name].calls * scale if t[name].calls else 0.0

    def per_amount(name):
        return t[name].seconds / t[name].amount * 1e6 if t[name].amount else 0.0

    train_s = t["cli.train"].seconds
    rows = t["bde.score_rows"].amount
    out = {
        "qsim.prob_jacobian.calls": t["qsim.prob_jacobian"].calls,
        "qsim.prob_jacobian.us": per_call("qsim.prob_jacobian", 1e6),
        "qsim.prob_jacobian.share_of_train":
            t["qsim.prob_jacobian"].seconds / train_s if train_s else 0.0,
        "qgan.step_us": t["qgan.train"].seconds / batch_steps * 1e6
        if batch_steps else 0.0,
        "qgan.batch_steps": batch_steps,
        "features.parse_logs.s": t["features.parse_logs"].seconds,
        "features.parse_logs.us_per_event": per_amount("features.parse_logs"),
        "features.extract_daily.us_per_event":
            per_amount("features.extract_daily"),
        "bde.score_rows.us_per_row": per_amount("bde.score_rows"),
        "bde.bde_forward.calls_per_row":
            t["bde.bde_forward"].calls / rows if rows else 0.0,
        "checkpoint.save_checkpoint.bytes":
            t["checkpoint.save_checkpoint"].amount
            / t["checkpoint.save_checkpoint"].calls
            if t["checkpoint.save_checkpoint"].calls else 0.0,
    }
    for name in ("qsim.run_generator_circuit", "qsim.sample",
                 "optim.Adam.step", "bde.bce_loss_and_grads",
                 "checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
        out[f"{name}.calls"] = t[name].calls
    for name in ("qsim.run_generator_circuit", "qsim.sample", "qgan.loss_d",
                 "qgan.loss_g", "qgan.disc_grads", "qgan.gen_grads",
                 "optim.Adam.step", "bde.bce_loss_and_grads"):
        out[f"{name}.us"] = per_call(name, 1e6)
    for name in ("checkpoint.save_checkpoint", "checkpoint.load_checkpoint"):
        out[f"{name}.ms"] = per_call(name, 1e3)
    for name in ("features.normalize", "features.read_features_csv",
                 "features.write_features_csv", "bde.train_bde",
                 "bde.write_score_csv"):
        out[f"{name}.s"] = t[name].seconds
    for phase in ("ingest", "train", "detect"):
        name = f"cli.{phase}"
        out[f"{name}.s"] = t[name].seconds
        out[f"{name}.self_s"] = sum(own[s.id] for s in spans if s.name == name)
    return out


@contextlib.contextmanager
def _tracing(run: Run, tracer: Tracer | None):
    """Wrap every trace point for the duration of the block."""
    if tracer is None:
        yield
        return
    for target, attr, name, amount in TRACE_POINTS:
        tracer.patch(target, attr, name, amount)
    run.tracer = tracer
    try:
        yield
    finally:
        tracer.restore()
        run.tracer = None


def _iterate(run: Run, seconds: float) -> list[dict]:
    """Timed iterations until ``seconds`` have passed, at least one."""
    results = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < seconds:
        result = run.iteration()
        if result is None:
            break
        if run.tracer is not None:
            layers = layer_metrics(run.tracer.spans, result["batch_steps"])
            scale = result["pipeline_s"] / result["wall_s"]
            result["layers"] = {name: value * scale
                                if LAYER_UNITS[name] in TIME_UNITS else value
                                for name, value in layers.items()}
            run.tracer.clear()
        results.append(result)
    return results


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work: Path, import_s: float = 0.0) -> dict:
    """Set up ``SETUP_REPEATS`` times, measure, check; returns the record.

    A traced run spends half of ``seconds`` on plain iterations and half
    on traced ones, so the tracing overhead is measured in the same run.
    """
    loadavg_before = os.getloadavg()
    run = Run(workload, seed, work, import_s)
    tracer = Tracer() if trace else None
    setups, plain, traced, synth_s = [], [], [], []
    try:
        for _ in range(SETUP_REPEATS):
            with _tracing(run, tracer):
                setup = run.setup_once()
            if tracer is not None:
                if setup is not None:
                    synth_s.append(
                        totals(tracer.spans)["features.synth_generate"].seconds
                        * setup["setup_s"] / setup["wall_s"])
                tracer.clear()
            if setup is None:
                break
            setups.append(setup)
        if len(setups) == SETUP_REPEATS:
            plain = _iterate(run, seconds / 2 if trace else seconds)
        if trace and plain:
            with _tracing(run, tracer):
                traced = _iterate(run, seconds / 2)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def med(key, rows):
        return _median(r[key] for r in rows if key in r)

    trained = any("train_user_epochs_per_s" in r for r in plain)
    end_to_end = {
        "pipeline_s": med("pipeline_s", plain),
        "setup_s": med("setup_s", setups),
        # fleet-score trains only in set-up, so its training rate comes
        # from there
        "train_user_epochs_per_s": med("train_user_epochs_per_s",
                                       plain if trained else setups),
        "ingest_events_per_s": med("ingest_events_per_s", plain),
        "detect_user_days_per_s": med("detect_user_days_per_s", plain),
        "accuracy": med("accuracy", plain),
        "ok_ops_ratio": 1.0 - run.failed / max(run.attempted, 1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    layers = {}
    if traced:
        layers = {name: _median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["features.synth_generate.s"] = _median(synth_s)
        layers["trace_overhead_ratio"] = (med("pipeline_s", traced)
                                          / end_to_end["pipeline_s"])
    units = {name: unit for name, unit, _ in (*END_TO_END, *PER_LAYER)}
    chosen = layers if trace else end_to_end
    metrics = {name: {"value": float(chosen.get(name, 0.0)), "unit": units[name]}
               for name, _, _ in (PER_LAYER if trace else END_TO_END)}
    accuracy = end_to_end["accuracy"]
    return {
        "result": {"correct": run.failed == 0 and bool(traced if trace else plain),
                   "attempted": run.attempted, "failed": run.failed,
                   "metrics": metrics},
        "record": {
            "workload": workload.name, "seed": seed, "seconds": seconds,
            "trace": int(trace), **environment(),
            "loadavg_before": loadavg_before, "loadavg_after": os.getloadavg(),
            "setup_repeats": len(setups), "iterations": len(plain),
            "traced_iterations": len(traced),
            # wall clock, beside the reference seconds of the metrics
            "setup_wall_s": med("wall_s", setups),
            "pipeline_wall_s": med("wall_s", plain),
            "phase_s": [r["times"] for r in plain],
            "phase_wall_s": [r["walls"] for r in plain],
            "host_slowdown": _median(run.kernels) / REFERENCE_S,
            "accuracy_bound": f"accuracy {accuracy:.4f} "
                              f"{'>=' if accuracy >= ACCURACY_BOUND else '<'} "
                              f"{ACCURACY_BOUND} (reported, not gated)",
            "failed_ops_ratio": run.failed / max(run.attempted, 1),
            "problems": run.problems,
            "digests": run.reference,
        },
    }


# --------------------------------------------------------------------------
# Command line
# --------------------------------------------------------------------------

def _print_report(outcome: dict) -> None:
    record, result = outcome["record"], outcome["result"]
    print(f"# {record['workload']}: " + json.dumps(record, sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"{record['workload']:<12} {name:<40} {metric['value']:>16.6g} "
              f"{metric['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_s = import_qbde()
    except ImportError as exc:
        print(f"cannot import qbde from {SRC}: {exc}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    outcomes = []
    for name in names:
        work = WORK_ROOT / f"{name}-s{args.seed}-p{os.getpid()}"
        outcome = run_workload(WORKLOADS[name], args.seed, args.seconds,
                               bool(args.trace), work, import_s)
        _print_report(outcome)
        outcomes.append(outcome)
    with contextlib.suppress(OSError):
        WORK_ROOT.rmdir()           # only if no other run is using it
    if len(outcomes) == 1:
        result = outcomes[0]["result"]
    else:
        result = {
            "correct": all(o["result"]["correct"] for o in outcomes),
            "attempted": sum(o["result"]["attempted"] for o in outcomes),
            "failed": sum(o["result"]["failed"] for o in outcomes),
            "metrics": {f"{o['record']['workload']}.{k}": v
                        for o in outcomes
                        for k, v in o["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
