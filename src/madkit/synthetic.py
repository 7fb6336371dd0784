"""Seeded synthetic corpora with known collinearity and planted anomalies.

The base signal is a stationary low-order autoregressive process: a few
latent AR(1) factors loaded across variables plus per-variable AR(1)
noise.  Collinear groups then overwrite chosen variables with linear
functions of a base variable (optionally plus small noise), and anomalies
add mean shifts expressed in units of the per-variable training standard
deviation.  Everything is a pure function of the configuration and seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import SeriesMatrix, SplitSpec

_BURN_IN = 500
_FACTOR_AR = 0.7
_IDIO_AR = 0.5
_LOADING_SCALE = 0.35


@dataclass(frozen=True)
class CollinearGroup:
    """Variables to overwrite as linear functions of a base variable.

    ``noise_scale = 0`` makes the dependence exact (infinite VIF).
    """

    base: int
    dependents: tuple[int, ...]
    noise_scale: float = 0.0

    def __post_init__(self):
        if not self.dependents:
            raise ValueError("a collinear group needs at least one dependent")
        if self.base in self.dependents:
            raise ValueError("base variable cannot depend on itself")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be non-negative")


@dataclass(frozen=True)
class AnomalySpec:
    """An additive mean shift over ``start .. start + length - 1``.

    ``start`` indexes the full (train + test) timeline and must lie in the
    test range; ``magnitude`` is in training standard deviations.
    """

    start: int
    length: int
    variables: tuple[int, ...]
    magnitude: float

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("anomaly length must be at least 1")
        if not self.variables:
            raise ValueError("an anomaly must touch at least one variable")
        if self.magnitude == 0:
            raise ValueError("anomaly magnitude cannot be zero")


@dataclass(frozen=True)
class SynthConfig:
    n: int
    t_train: int
    t_test: int
    collinear_groups: tuple[CollinearGroup, ...] = ()
    anomalies: tuple[AnomalySpec, ...] = ()
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one variable")
        if self.t_train < 2 or self.t_test < 1:
            raise ValueError("need t_train >= 2 and t_test >= 1")
        touched = set()
        for group in self.collinear_groups:
            self._check_var(group.base)
            for d in group.dependents:
                self._check_var(d)
                if d in touched:
                    raise ValueError(f"variable {d} is a dependent twice")
                touched.add(d)
        for group in self.collinear_groups:
            if group.base in touched:
                raise ValueError("a group's base is another group's dependent")
        t_end = self.t_train + self.t_test
        for a in self.anomalies:
            for v in a.variables:
                self._check_var(v)
            if not (self.t_train <= a.start and a.start + a.length <= t_end):
                raise ValueError(
                    f"anomaly window [{a.start}, {a.start + a.length}) must "
                    f"lie inside the test range [{self.t_train}, {t_end})"
                )

    def _check_var(self, v: int):
        if not 0 <= v < self.n:
            raise ValueError(f"variable index {v} out of range for n = {self.n}")


def _ar1(rng: np.random.Generator, phi: float, t: int, rows: int) -> np.ndarray:
    """Stationary AR(1) rows with unit innovation variance, burn-in dropped.

    ``scipy.signal`` is imported on first use, so that only ``synth`` pays
    for it and not every command's start-up.
    """
    from scipy.signal import lfilter

    innov = rng.standard_normal((rows, t + _BURN_IN))
    series = lfilter([1.0], [1.0, -phi], innov, axis=1)
    return series[:, _BURN_IN:]


def generate(config: SynthConfig) -> tuple[SeriesMatrix, np.ndarray, SplitSpec]:
    """Generate (matrix, truth labels, split) from a configuration.

    The ``int8`` truth vector spans the full timeline and is 1 exactly on
    the configured anomaly windows (training positions are all 0).
    """
    rng = np.random.default_rng(config.seed)
    n, t = config.n, config.t_train + config.t_test

    k = min(3, n)
    factors = _ar1(rng, _FACTOR_AR, t, k)
    loadings = rng.standard_normal((n, k)) * _LOADING_SCALE
    values = loadings @ factors + _ar1(rng, _IDIO_AR, t, n)

    for group in config.collinear_groups:
        base = values[group.base]
        for d in group.dependents:
            slope = rng.uniform(0.5, 2.0) * rng.choice((-1.0, 1.0))
            offset = rng.uniform(-1.0, 1.0)
            noise = (
                group.noise_scale * rng.standard_normal(t)
                if group.noise_scale > 0
                else 0.0
            )
            values[d] = slope * base + offset + noise

    train_std = values[:, : config.t_train].std(axis=1)
    truth = np.zeros(t, dtype=np.int8)
    for a in config.anomalies:
        stop = a.start + a.length
        for v in a.variables:
            values[v, a.start : stop] += a.magnitude * train_std[v]
        truth[a.start : stop] = 1

    matrix = SeriesMatrix(
        names=[f"v{i + 1}" for i in range(n)], values=values
    )
    return matrix, truth, SplitSpec(config.t_train)
