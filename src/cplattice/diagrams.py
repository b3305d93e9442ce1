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
checks that none vanishes on its grid. The denominators and both sides of
the collapse take only integer literals, so they are exact on
``fractions.Fraction`` inputs and give floats the bits that float literals
gave. :func:`verify_identity` (``cplattice verify-diagrams``) proves the
collapse in exact arithmetic on a grid; its docstring carries the proof.
"""
from __future__ import annotations

import itertools

import numpy as np

from .model import ModelParams

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


def _inverse_sum(w, wp, params: ModelParams):
    total = 0
    for p in PROCESSES:
        d = denominator(p, w, wp, params)
        if np.any(d == 0):
            raise PoleHit(f"D_{p} vanished")
        total = total + 1 / d
    return total


def symmetrized_inverse_sum(w, wp, params: ModelParams):
    """(1/2) [ sum_p 1/D_p(w,w') + sum_p 1/D_p(w',w) ].

    Symmetric under w <-> w' by construction; vectorized.
    """
    return (_inverse_sum(w, wp, params) + _inverse_sum(wp, w, params)) / 2


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


def grid_points():
    """The 6 x 6 x 5 points (w, w', mu) of :func:`verify_identity`, as
    ``fractions.Fraction`` triples in ``itertools.product`` order."""
    from fractions import Fraction  # ~2 ms, paid only by the check
    s_w = [Fraction(k, 7) for k in (-3, 1, 2, 5, 9, 13)]
    s_wp = [Fraction(m, 11) for m in (-4, 1, 3, 7, 15, 20)]
    s_mu = [Fraction(j, 5) for j in (1, 2, 3, 4, 8)]
    return itertools.product(s_w, s_wp, s_mu)


def verify_identity():
    """Prove the twelve-process collapse, symmetrized_inverse_sum ==
    combined_denominator_form, as an identity of rational functions:
    check it in exact arithmetic on a product grid large enough that the
    check is a proof. Returns the first (w, w', mu) of :func:`grid_points`
    where the two sides differ, or None.

    Let D be the product of the eight factors of ``FACTORS``: (1-w),
    (1-w'), (mu+w), (mu+w'), (1-mu), (w+w'), (1-mu-w-w') and (w-w'). w
    occurs in five of them and w' in five, mu in four ((mu+w), (mu+w'),
    (1-mu), (1-mu-w-w')), so D has degree 5 in w, 5 in w' and 4 in mu.
    N = D (LHS - RHS) is a polynomial of at most those degrees, since every
    term of either side, times D, is D divided by distinct factors of D,
    times a numerator no higher in any variable than the factors it
    replaces:
    - 1/D_p(w, w') and 1/D_p(w', w): D_p is +-1 times three distinct
      factors of D (the swap w <-> w' maps the factors onto themselves up
      to sign), so D/D_p is +-1 times the other five;
    - the combined form: each half is lead/(w+w') - lead/(w-w') with lead
      = 4 (w - delta)/(delta (w-1)(w+mu)), delta = 1 - mu. D times a term is
      4 (w - 1 + mu) times D over four distinct factors, among them (1-w)
      and (1-mu), so the linear numerator only takes their place.
    So deg_w N <= 5, deg_w' N <= 5 and deg_mu N <= 4. A polynomial of
    degree at most t_i in x_i that vanishes on a grid S_1 x S_2 x S_3 with
    |S_i| > t_i vanishes identically (Alon, Combin. Probab. Comput. 8
    (1999) 7, Lemma 2.1; Schwartz, J. ACM 27 (1980) 701). The grid has
    6 x 6 x 5 points, and D != 0 on it: every factor is checked nonzero at
    every point (PoleHit otherwise), which also keeps each evaluation off
    the poles. Equality there gives N = 0 there, so N = 0 everywhere and
    LHS = RHS wherever D != 0. Since the twelve-term sum is continuous
    across w = w', its value there is the limit of the combined form's
    removable 0/0, and the residues of the remaining poles agree.

    S_w = k/7, S_w' = m/11 and S_mu = j/5 with no k, m, j a multiple of its
    denominator: no element is an integer, and, the denominators being
    distinct primes, no sum or difference of elements of two or three
    different sets is one, so none of the eight factors can vanish.
    """
    for w, wp, mu in grid_points():
        for name, factor in FACTORS.items():
            if factor(w, wp, mu) == 0:
                raise PoleHit(f"factor {name} vanishes at (w, w', mu) = ({w}, {wp}, {mu})")
        params = ModelParams(mu=mu, rho=1e-6)
        if symmetrized_inverse_sum(w, wp, params) != combined_denominator_form(w, wp, params):
            return w, wp, mu
    return None
