"""Seeded input generation for the benchmark workloads.

Inputs are made here with numpy and written by this module's own CSV
writer (every real as ``%.17g``, which round-trips a float64 exactly).
Nothing is taken from ``madkit.synthetic`` or ``madkit.data``, so a change
to those modules cannot change what a workload feeds the program.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
from scipy.signal import lfilter

_BURN_IN = 500


def rng_for(workload: str, seed: int) -> np.random.Generator:
    """Generator seeded by the run seed and the workload name."""
    salt = int.from_bytes(hashlib.sha256(workload.encode()).digest()[:4], "big")
    return np.random.default_rng(np.random.SeedSequence([seed, salt]))


def ar1(rng: np.random.Generator, phi, rows: int, t: int) -> np.ndarray:
    """Stationary AR(1) rows scaled to unit variance; ``phi`` per row."""
    phi = np.broadcast_to(np.asarray(phi, dtype=np.float64), (rows,))
    innov = rng.standard_normal((rows, t + _BURN_IN))
    out = np.empty((rows, t))
    for r in range(rows):
        series = lfilter([1.0], [1.0, -phi[r]], innov[r])[_BURN_IN:]
        out[r] = series * np.sqrt(1.0 - phi[r] ** 2)
    return out


def factor_block(rng, n: int, t: int, n_factors: int, loading: float):
    """``n`` unit-scale series sharing a few slow factors weakly."""
    factors = ar1(rng, 0.98, n_factors, t)
    loadings = rng.standard_normal((n, n_factors)) * loading
    phi = rng.uniform(0.3, 0.9, size=n)
    return loadings @ factors + ar1(rng, phi, n, t)


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write equal-length columns as CSV; reals as ``%.17g``, ints as-is."""
    fmts = ["%d" if np.issubdtype(c.dtype, np.integer) else "%.17g" for c in columns]
    row = ",".join(fmts) + "\n"
    # one float64 table; integer columns stay exact below 2**53
    table = np.column_stack([np.asarray(c, dtype=np.float64) for c in columns])
    chunk = 4096
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, table.shape[0], chunk):
            block = table[start:start + chunk]
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


def digest(path: Path) -> str:
    """SHA-256 of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
