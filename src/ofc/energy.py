"""Region energies whose minimizers maximize a classification measure.

Writing H for the smoothed step at width eps and f+/f- for the unit-mass
class densities, a decision field u has the three fractions

    A = integral H(u) f+     (true-positive fraction)
    B = integral H(-u) f+    (false-negative fraction)
    C = integral H(u) f-     (false-positive fraction),

and a measure is an energy E[u] = g(A, B, C).  For F-beta,

    g = (k * B + C) / A,   k = beta**2 * p_count / n_count,

proportional to the misclassification ratio (beta**2*FN + FP)/TP, so
driving E down drives F-beta up.  For accuracy, g is the count-scaled
error mass p_count * B + n_count * C, minimized where the positive region
is exactly the set where p_count*f+ > n_count*f-.

A variation of u moves A by delta(u) f+, B by -delta(u) f+ and C by
delta(u) f-, so the first variation of any such energy is

    delta(u) * ((g_A - g_B) * f+ + g_C * f-),

one flow for every measure given g and its partials (g_C must not vanish).
For F-beta a cheaper surrogate "G" is also available: A**2 times the
variation with k replaced by beta**2, which has the same zero set.

Taking A, B and C over {u >= 0} instead of through H gives the
sign-pattern energy: the measure that the classifier sign(u) attains on
the densities.  Dinkelbach's (1967) iteration finds its exact minimizer
on the grid, where training starts by default, in a few products of the
weighted densities with a vector; an F-beta step is the plug-in rule of
Narasimhan, Vaish & Agarwal (2014) at the current score.  Training stops
at the first redistanced field scoring above the one before it, the
start included, so a run from the minimizer ends at its first
redistancing.

The training loop evaluates these on every iteration, so each is written
as few whole-grid passes.  With H = 1/2 + arctan(u/eps)/pi, the three
fractions come from one weighted sum S+/- of arctan(u/eps) against the
quadrature-weighted densities, whose masses are W+/-:

    A = W+/2 + S+/pi,   B = W+/2 - S+/pi,   C = W-/2 + S-/pi.

The flow is f- + q * f+, one product of (1, q) with the densities stacked
as a (2, nodes) matrix, divided by eps**2 + u**2 with every other scalar
(eps/pi, g_C) folded into that denominator.  The unit coefficient on f-
keeps the flow exactly zero where f- == -q * f+: a fused multiply-add
with two rounded coefficients would leave a residue there.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .density import DensityPair
from .errors import VanishingPositiveMassError
from .field import ScalarField
from .metrics import check_positive, smoothed_delta

_MASS_FLOOR = 1e-12
_BAND_FRACTION = 1e-3


def _f_beta(k: float, a: float, b: float, c: float):
    """F-beta's g = (k*B + C)/A and its partials; raises once A vanishes."""
    if a < _MASS_FLOOR:
        raise VanishingPositiveMassError(
            f"positive region holds {a:.3e} of the positive density"
        )
    g = (k * b + c) / a
    return g, (-g / a, k / a, 1.0 / a)


# measure name -> (energy, A, B, C) -> (g, (g_A, g_B, g_C))
_MEASURES = {
    "f_measure": lambda e, a, b, c: _f_beta(e.k, a, b, c),
    "accuracy": lambda e, a, b, c: (
        e.pair.p_count * b + e.pair.n_count * c, (0.0, e.pair.p_count, e.pair.n_count)
    ),
}


_DESCENTS = ("derivative", "G")  # the measure's own derivative, F-beta's surrogate


def check_measure(kind: str, descent: str = "derivative") -> None:
    """Raise ValueError unless ``kind`` is a measure that ``descent`` applies to."""
    if kind not in _MEASURES:
        raise ValueError(f"unknown energy kind {kind!r}")
    if descent not in _DESCENTS:
        raise ValueError(f"unknown descent kind {descent!r}")
    if descent == "G" and kind != "f_measure":
        raise ValueError("descent kind 'G' only applies to the f_measure energy")


@dataclass(frozen=True)
class MeasureEnergy:
    """Energy functional for one density pair, measure and smoothing width.

    kind "f_measure" uses beta, through k = beta**2 * p_count / n_count;
    kind "accuracy" ignores beta and has k None.  The arrays it reads are
    built once per pair and cached on it (:class:`~ofc.density.DensityPair`),
    so energies at several betas on one pair share them.
    """

    pair: DensityPair
    eps: float
    kind: str = "f_measure"
    beta: float = 1.0
    k: float = field(init=False, default=None)  # type: ignore[assignment]

    def __post_init__(self):
        check_measure(self.kind)
        check_positive("eps", self.eps)
        check_positive("beta", self.beta)
        object.__setattr__(self, "beta", float(self.beta))
        if self.kind == "f_measure":
            p, n = self.pair.p_count, self.pair.n_count
            k = self.beta**2 * p / n
            if k == 0.0:  # beta passed its check, so k underflowed
                raise ValueError(
                    f"beta {self.beta!r} is too small for {p} positives and {n} "
                    f"negatives: k = beta**2 * {p} / {n} underflows to 0"
                )
            check_positive("k", k)
            object.__setattr__(self, "k", float(k))

    def _fractions(self, u: ScalarField) -> tuple[float, float, float]:
        """(A, B, C) of u."""
        s = self.pair._weighted @ np.arctan(u.values / self.eps).ravel()
        s_pos, s_neg = s.tolist()
        half_pos, half_neg = self.pair._half_mass
        a = half_pos + s_pos / math.pi
        b = half_pos - s_pos / math.pi
        c = half_neg + s_neg / math.pi
        return a, b, c

    def _flow(self, u: ScalarField, coef_pos: float, coef_neg: float) -> ScalarField:
        """``smoothed_delta(u) * (coef_pos * f+ + coef_neg * f-)`` as a field."""
        num = np.array([1.0, coef_pos / coef_neg]) @ self.pair._stacked
        den = u.values * u.values
        den += self.eps**2
        den *= math.pi / (coef_neg * self.eps)
        num /= den.ravel()
        return u.with_values(num.reshape(u.grid.shape))

    def _objective(self, descent: str, a: float, b: float, c: float):
        """g(A, B, C) and its partials for the objective ``descent`` minimizes:
        the energy's own measure, or for "G" F-beta at k = beta**2."""
        if descent == "G":
            return _f_beta(self.beta**2, a, b, c)
        return _MEASURES[self.kind](self, a, b, c)

    def evaluate(self, u: ScalarField, return_fractions: bool = False):
        """Energy at u; with ``return_fractions``, (energy, (A, B, C)).

        The fractions can be handed to :meth:`descent_direction` at the
        same u, which then skips recomputing them.
        """
        fractions = self._fractions(u)
        energy, _ = self._objective("derivative", *fractions)
        return (energy, fractions) if return_fractions else energy

    def gradient(self, u: ScalarField, fractions: tuple = None) -> ScalarField:
        """First variation of the energy at u, as a field on the same grid.

        ``fractions`` are u's (A, B, C) when already known.  The variation
        is ``delta(u) * ((g_A - g_B) * f+ + g_C * f-)``.
        """
        return self.descent_direction(u, "derivative", fractions)

    def descent_direction(
        self, u: ScalarField, kind: str = "derivative", fractions: tuple = None
    ) -> ScalarField:
        """Field to subtract (times dt) from u; "derivative" or "G".

        ``fractions`` are u's (A, B, C) when already known.  "G" is
        ``delta(u) * ((f- - beta**2 * f+) * A - f+ * (C + beta**2 * B))``.
        """
        check_measure(self.kind, kind)
        a, b, c = fractions if fractions is not None else self._fractions(u)
        _, (g_a, g_b, g_c) = self._objective(kind, a, b, c)
        scale = a * a if kind == "G" else 1.0
        return self._flow(u, scale * (g_a - g_b), scale * g_c)

    def sign_pattern_energy(self, u: ScalarField, descent: str = "derivative") -> float:
        """g(A, B, C) of the objective ``descent`` minimizes, with A, B and C
        taken over {u >= 0} instead of through the smoothed step.

        This is the measure the classifier sign(u) attains on the densities,
        so it does not change when u is redistanced.  A field holding none
        of the positive mass scores inf under F-beta.
        """
        return self._mask_energy(u.values >= 0, descent)

    def _mask_energy(self, mask: np.ndarray, descent: str) -> float:
        """:meth:`sign_pattern_energy` of the classifier positive on ``mask``."""
        a, c = (self.pair._weighted @ mask.ravel()).tolist()
        try:
            return self._objective(descent, a, 2.0 * self.pair._half_mass[0] - a, c)[0]
        except VanishingPositiveMassError:
            return math.inf

    def _optimum_mask(self, descent: str = "derivative") -> np.ndarray:
        """The grid-shaped node mask whose classifier scores the lowest
        :meth:`sign_pattern_energy` for ``descent``.

        Dinkelbach's iteration: the nodes where the first variation at the
        current set S, ``(g_A - g_B) * a_i + g_C * c_i``, is negative form
        the next set, which under F-beta's ratio N / A minimizes N - E(S) * A;
        the first set not scoring strictly lower than S ends it, returning S.
        """
        weighted = self.pair._weighted
        total_pos = 2.0 * self.pair._half_mass[0]
        mask = best = weighted[0] > 0
        score = math.inf
        while True:
            a, c = (weighted @ mask).tolist()
            try:
                g, (g_a, g_b, g_c) = self._objective(descent, a, total_pos - a, c)
            except VanishingPositiveMassError:
                g = math.inf
            if not g < score:
                return best.reshape(self.pair.grid.shape)
            best, score = mask, g
            mask = np.array([g_a - g_b, g_c]) @ weighted < 0

    def stationarity_residual(self, u: ScalarField, fractions: tuple = None) -> float:
        """Largest gradient magnitude on the active band around the zero set.

        The band is where the smoothed impulse exceeds 1e-3 of its current
        maximum; outside it the flow cannot move u regardless of the
        densities.  ``fractions`` are u's (A, B, C) when already known.
        """
        delta = smoothed_delta(u.values, self.eps)
        band = delta > _BAND_FRACTION * delta.max()
        return float(np.abs(self.gradient(u, fractions).values[band]).max())
