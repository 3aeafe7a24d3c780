"""Bulk effective sample size of MCMC draws.

Follows Vehtari, Gelman, Simpson, Carpenter and Bürkner (2021),
"Rank-normalization, folding, and localization: an improved R-hat for
assessing convergence of MCMC" (arXiv:1903.08008): every chain is split in
half, all draws are replaced by the normal scores of their pooled ranks, and
the autocorrelation sum is truncated by Geyer's initial monotone sequence.

The benchmark keeps its own estimator so that ``ess_per_s`` keeps its
definition when the library grows one of its own.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import ndtri
from scipy.stats import rankdata


def _autocovariance(x: np.ndarray) -> np.ndarray:
    """Biased autocovariance of each row at every lag, by FFT."""
    n = x.shape[1]
    centred = x - x.mean(axis=1, keepdims=True)
    size = 1 << (2 * n - 1).bit_length()
    spectrum = np.fft.rfft(centred, size, axis=1)
    return np.fft.irfft(spectrum * np.conj(spectrum), size, axis=1)[:, :n] / n


def _ess(chains: np.ndarray) -> float:
    """Multi-chain ESS of an (m, n) array, without splitting or ranking."""
    m, n = chains.shape
    acov = _autocovariance(chains)
    within = float(np.mean(acov[:, 0])) * n / (n - 1)
    var_plus = within * (n - 1) / n
    if m > 1:
        var_plus += float(np.var(chains.mean(axis=1), ddof=1))
    if var_plus <= 0.0:
        return float(m * n)
    rho = 1.0 - (within - acov.mean(axis=0)) / var_plus
    rho[0] = 1.0
    # Geyer: sum pairs rho[2k] + rho[2k+1] while positive, forced non-increasing.
    tau = -1.0
    previous = math.inf
    for k in range(0, n - 1, 2):
        pair = float(rho[k] + rho[k + 1])
        if pair <= 0.0:
            break
        pair = min(pair, previous)
        tau += 2.0 * pair
        previous = pair
    total = m * n
    tau = max(tau, 1.0 / math.log10(total))
    return total / tau


def rank_normalize(x: np.ndarray) -> np.ndarray:
    """Normal scores of the pooled average ranks, with Blom's offset."""
    ranks = rankdata(x, method="average").reshape(x.shape)
    return ndtri((ranks - 0.375) / (x.size + 0.25))


def bulk_ess(draws) -> float:
    """Bulk ESS of one chain (a vector) or of several chains (rows)."""
    x = np.atleast_2d(np.asarray(draws, dtype=float))
    n = x.shape[1]
    if n < 8:
        raise ValueError("bulk ESS needs at least 8 draws per chain")
    half = n // 2
    split = np.concatenate([x[:, :half], x[:, n - half :]], axis=0)
    return _ess(rank_normalize(split))
