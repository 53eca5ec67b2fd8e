"""Quantum-circuit GAN modelling of normal user behavior, plus the
reconstruction-error scoring stage that turns behavior vectors into
Normal / Low_threat / High_threat verdicts.

Import the submodules (``from qbde import cli, qgan``); the package
itself exports only ``__version__``."""

__version__ = "0.1.0"
