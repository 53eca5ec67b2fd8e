"""Quantum-circuit GAN modelling of normal user behavior, plus the
reconstruction-error scoring stage that turns behavior vectors into
Normal / Low_threat / High_threat verdicts."""

from .qsim import (
    GeneratorParams,
    adjoint_gradient,
    entangler_pairs,
    prob_jacobian,
    probabilities,
    run_generator_circuit,
    sample,
)
from .qgan import (
    DiscriminatorNet,
    TrainConfig,
    TrainTrace,
    cross_entropy_to_target,
    disc_forward,
    disc_grads,
    gen_grads,
    generator_output,
    loss_d,
    loss_g,
    train,
)
from .features import (
    FEATURE_NAMES,
    BehaviorVector,
    Dataset,
    SynthConfig,
    extract_daily,
    normalize,
    parse_logs,
    split,
    synth_generate,
    to_simplex,
)
from .bde import (
    BdeNet,
    BdeTrainConfig,
    ScoreRecord,
    Thresholds,
    accuracy,
    bde_forward,
    behavior_score,
    fit_thresholds,
    recon_errors,
    train_bde,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .errors import ConfigError, SchemaError

__version__ = "0.1.0"
