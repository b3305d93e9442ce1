"""The twelve fourth-order exchange processes and their energy denominators.

Each process p contributes 1/D_p under the double frequency integral, where
D_p is a product of three linear factors in (w, w') built from the probe
resonance (1, in omega0 units), the array resonance mu, and the detuning
delta = 1 - mu. Summing the twelve inverse denominators, symmetrized under
w <-> w', collapses by partial fractions to a single closed form with one
(w+w') and one (w-w') pole; that closed form is what justifies splitting
the shift into its resonant and off-resonant pieces.

The tables ``FACTORS`` and ``PROCESSES`` are the one statement of the
factors: :func:`denominator` multiplies them out and :func:`verify_identity`
excludes their zero sets. The denominators and both sides of the collapse
take only integer literals, so they are exact on ``fractions.Fraction``
inputs and give floats the bits that float literals gave.
``tests/test_diagrams.py`` proves the collapse, and its 1/delta part, as
identities in exact arithmetic on a grid; :func:`verify_identity`
(``cplattice verify-diagrams``) is the float check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, _check_mu

# The linear factors of the denominators in (w, w', mu), and the (w - w')
# pole of the combined form, which no denominator carries
FACTORS = {
    "1-w": lambda w, wp, mu: 1 - w,
    "1-w'": lambda w, wp, mu: 1 - wp,
    "mu+w": lambda w, wp, mu: mu + w,
    "mu+w'": lambda w, wp, mu: mu + wp,
    "1-mu": lambda w, wp, mu: 1 - mu,
    "w+w'": lambda w, wp, mu: w + wp,
    "1-mu-w-w'": lambda w, wp, mu: 1 - mu - w - wp,
    "w-w'": lambda w, wp, mu: w - wp,
}

# Each process: the sign of D_p and its three factors, multiplied left to right
PROCESSES = {
    "I": (-1, ("1-w", "1-mu", "mu+w'")),
    "II": (1, ("1-w", "1-mu", "1-w'")),
    "III": (1, ("1-w", "1-mu-w-w'", "1-w'")),
    "IV": (1, ("1-w", "w+w'", "mu+w")),
    "V": (-1, ("1-w", "1-mu-w-w'", "mu+w")),
    "VI": (-1, ("mu+w", "1-mu-w-w'", "1-w")),
    "VII": (1, ("mu+w", "1-mu-w-w'", "mu+w'")),
    "VIII": (1, ("mu+w", "1-mu", "mu+w'")),
    "IX": (-1, ("mu+w", "1-mu", "1-w'")),
    "X": (1, ("mu+w", "w+w'", "1-w")),
    "XI": (1, ("mu+w'", "w+w'", "1-w")),
    "XII": (1, ("mu+w", "w+w'", "1-w'")),
}
PROCESS_IDS = tuple(PROCESSES)


class PoleHit(ArithmeticError):
    """A denominator factor vanished at the sampled (w, w') point."""


def denominator(process: str, w, wp, params: ModelParams):
    """D_p(w, w') in omega0 units, from the table ``PROCESSES``. Vectorized
    over w, w'; exact on ``fractions.Fraction`` inputs.

    Poles are legal input; the result is simply 0 there and the caller of
    the inverse sums is responsible for avoiding them.
    """
    if process not in PROCESSES:
        raise ValueError(f"unknown process id {process!r}")
    sign, names = PROCESSES[process]
    a, b, c = (FACTORS[name](w, wp, params.mu) for name in names)
    return sign * (a * b * c)


def _inverse_sum(w, wp, params: ModelParams, processes=PROCESS_IDS):
    total = 0
    for p in processes:
        d = denominator(p, w, wp, params)
        if np.any(d == 0):
            raise PoleHit(f"D_{p} vanished")
        total = total + 1 / d
    return total


def symmetrized_inverse_sum(w, wp, params: ModelParams, *, processes=PROCESS_IDS):
    """(1/2) [ sum_p 1/D_p(w,w') + sum_p 1/D_p(w',w) ].

    Symmetric under w <-> w' by construction; vectorized.
    """
    return (_inverse_sum(w, wp, params, processes) + _inverse_sum(wp, w, params, processes)) / 2


def _combined_half(w, wp, mu):
    d = 1 - mu
    lead = 4 * (w - d) / (d * (w - 1) * (w + mu))
    return lead / (w + wp) - lead / (w - wp)


def combined_denominator_form(w, wp, params: ModelParams):
    """Closed-form target of the twelve-process collapse (symmetrized).

    Has a removable 0/0 at w = w'; callers probing that point should take a
    two-sided limit. Vectorized.
    """
    mu = params.mu
    if np.any(np.asarray(w) == np.asarray(wp)):
        raise PoleHit("combined form evaluated literally at w = w'")
    return (_combined_half(w, wp, mu) + _combined_half(wp, w, mu)) / 2


@dataclass(frozen=True)
class DiagramReport:
    max_rel_error: float
    samples: int
    mus: tuple[float, ...]


_EXCLUSION = 1e-6


def _admissible(w: np.ndarray, wp: np.ndarray, mu: float) -> np.ndarray:
    """Mask of samples at least the exclusion radius away from every pole:
    the zero set of each factor of ``FACTORS``."""
    ok = np.ones(w.shape, dtype=bool)
    for factor in FACTORS.values():
        ok &= np.abs(factor(w, wp, mu)) > _EXCLUSION
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
