"""The twelve fourth-order exchange processes and their energy denominators.

Each process p contributes 1/D_p under the double frequency integral, where
D_p is a product of three linear factors in (w, w') built from the probe
resonance (1, in omega0 units), the array resonance mu, and the detuning
delta = 1 - mu. Summing the twelve inverse denominators, symmetrized under
w <-> w', collapses by partial fractions to a single closed form with one
(w+w') and one (w-w') pole; this module exists to verify that collapse
numerically, since the closed form is what justifies splitting the shift
into its resonant and off-resonant pieces.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, _check_mu

PROCESS_IDS = ("I", "II", "III", "IV", "V", "VI", "VII", "VIII", "IX", "X", "XI", "XII")

# Process groups whose inverse denominators combine to the 1/delta-carrying
# blocks of the partial-fraction collapse (the remaining six are delta-free).
DELTA_BLOCK_PROCESSES = ("I", "XI", "II", "VIII", "IX", "XII")


class PoleHit(ArithmeticError):
    """A denominator factor vanished at the sampled (w, w') point."""


def denominator(process: str, w, wp, params: ModelParams):
    """D_p(w, w') in omega0 units. Vectorized over w, w'.

    Poles are legal input; the result is simply 0 there and the caller of
    the inverse sums is responsible for avoiding them.
    """
    mu = params.mu
    if process == "I":
        return -(1 - w) * (1 - mu) * (wp + mu)
    if process == "II":
        return (1 - w) * (1 - mu) * (1 - wp)
    if process == "III":
        return (1 - w) * (1 - mu - w - wp) * (1 - wp)
    if process == "IV":
        return (1 - w) * (w + wp) * (mu + w)
    if process == "V":
        return -(1 - w) * (1 - mu - w - wp) * (mu + w)
    if process == "VI":
        return -(mu + w) * (1 - mu - w - wp) * (1 - w)
    if process == "VII":
        return (mu + w) * (1 - mu - w - wp) * (mu + wp)
    if process == "VIII":
        return (mu + w) * (1 - mu) * (mu + wp)
    if process == "IX":
        return -(mu + w) * (1 - mu) * (1 - wp)
    if process == "X":
        return (mu + w) * (w + wp) * (1 - w)
    if process == "XI":
        return (mu + wp) * (w + wp) * (1 - w)
    if process == "XII":
        return (mu + w) * (w + wp) * (1 - wp)
    raise ValueError(f"unknown process id {process!r}")


def _inverse_sum(w, wp, params: ModelParams, processes=PROCESS_IDS):
    total = 0.0
    for p in processes:
        d = denominator(p, w, wp, params)
        if np.any(d == 0.0):
            raise PoleHit(f"D_{p} vanished")
        total = total + 1.0 / d
    return total


def symmetrized_inverse_sum(w, wp, params: ModelParams, *, processes=PROCESS_IDS):
    """(1/2) [ sum_p 1/D_p(w,w') + sum_p 1/D_p(w',w) ].

    Symmetric under w <-> w' by construction; vectorized.
    """
    return 0.5 * (_inverse_sum(w, wp, params, processes)
                  + _inverse_sum(wp, w, params, processes))


def _combined_half(w, wp, mu):
    d = 1.0 - mu
    lead = 4.0 * (w - d) / (d * (w - 1.0) * (w + mu))
    return lead / (w + wp) - lead / (w - wp)


def combined_denominator_form(w, wp, params: ModelParams):
    """Closed-form target of the twelve-process collapse (symmetrized).

    Has a removable 0/0 at w = w'; callers probing that point should take a
    two-sided limit. Vectorized.
    """
    mu = params.mu
    if np.any(np.asarray(w) == np.asarray(wp)):
        raise PoleHit("combined form evaluated literally at w = w'")
    return 0.5 * (_combined_half(w, wp, mu) + _combined_half(wp, w, mu))


def delta_block_symmetrized(w, wp, params: ModelParams):
    """Symmetrized inverse-denominator sum over the 1/delta-carrying blocks."""
    return symmetrized_inverse_sum(w, wp, params, processes=DELTA_BLOCK_PROCESSES)


def combined_delta_part(w, wp, params: ModelParams):
    """The 1/delta piece of the combined form, block-for-block.

    The collapse assigns (2/delta)(2w - delta) style numerators to the four
    delta blocks; written per half:
      (2/delta) [1/(w+w') - 1/(w-w')] [1/(w-1) + 1/(w+mu)].
    """
    mu = params.mu
    d = 1.0 - mu

    def half(w, wp):
        return (2.0 / d) * (1.0 / (w + wp) - 1.0 / (w - wp)) * (1.0 / (w - 1.0) + 1.0 / (w + mu))

    return 0.5 * (half(w, wp) + half(wp, w))


@dataclass(frozen=True)
class DiagramReport:
    max_rel_error: float
    samples: int
    mus: tuple[float, ...]


_EXCLUSION = 1e-6


def _admissible(w: np.ndarray, wp: np.ndarray, mu: float) -> np.ndarray:
    """Mask of samples at least the exclusion radius away from every pole."""
    ok = np.abs(w - 1.0) > _EXCLUSION
    ok &= np.abs(wp - 1.0) > _EXCLUSION
    ok &= np.abs(w + mu) > _EXCLUSION
    ok &= np.abs(wp + mu) > _EXCLUSION
    ok &= np.abs(w + wp) > _EXCLUSION
    ok &= np.abs(w - wp) > _EXCLUSION
    ok &= np.abs(1.0 - mu - w - wp) > _EXCLUSION
    return ok


def verify_identity(samples: int, seed: int, mus=(0.25, 0.5, 0.9)) -> DiagramReport:
    """Fuzz the collapse identity over random (w, w') in (0,2)^2.

    Rejection-samples an exclusion radius of 1e-6 around every linear-factor
    zero set, evaluates both sides vectorized, and reports the worst
    relative deviation. Every mu must pass the model's detuning rules
    (:class:`cplattice.model.DetuningTooSmall` otherwise), checked before
    any sample is drawn.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    for mu in mus:
        _check_mu(mu)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for mu in mus:
        params = ModelParams(mu=mu, rho=1e-6)
        kept = 0
        while kept < samples:
            n = max(64, samples - kept)
            w = rng.uniform(0.0, 2.0, n)
            wp = rng.uniform(0.0, 2.0, n)
            m = _admissible(w, wp, mu)
            w, wp = w[m], wp[m]
            if w.size == 0:
                continue
            take = min(w.size, samples - kept)
            w, wp = w[:take], wp[:take]
            kept += take
            lhs = symmetrized_inverse_sum(w, wp, params)
            rhs = combined_denominator_form(w, wp, params)
            rel = np.max(np.abs(lhs - rhs) / np.abs(rhs))
            worst = max(worst, float(rel))
    return DiagramReport(max_rel_error=worst, samples=samples, mus=tuple(mus))
