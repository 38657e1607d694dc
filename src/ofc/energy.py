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
the densities.  One sort finds its exact minimizer on the grid, where
training starts by default.  Training also stops on it: at the first
redistanced field that scores above the one before it, the start
included, so a run from the minimizer ends at its first redistancing.

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
from .field import ScalarField, _quadrature_weights
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
    kind "accuracy" ignores beta and has k None.  The pair's density values
    are read once, at construction.
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
            k = self.beta**2 * self.pair.p_count / self.pair.n_count
            check_positive("k", k)
            object.__setattr__(self, "k", float(k))
        # quadrature-weighted densities, one row per class, and half their
        # masses: the fractions are then one matrix-vector product
        w = _quadrature_weights(self.pair.grid)
        fp, fn = self.pair.f_pos.values, self.pair.f_neg.values
        weighted = np.stack([fp * w, fn * w]).reshape(2, -1)
        object.__setattr__(self, "_weighted", weighted)
        object.__setattr__(self, "_half_mass", (0.5 * weighted.sum(axis=1)).tolist())
        # (f-, f+) rows: a flow's numerator is one product with (1, q)
        object.__setattr__(self, "_densities", np.stack([fn, fp]).reshape(2, -1))

    def _fractions(self, u: ScalarField) -> tuple[float, float, float]:
        """(A, B, C) of u."""
        s = self._weighted @ np.arctan(u.values / self.eps).ravel()
        s_pos, s_neg = s.tolist()
        half_pos, half_neg = self._half_mass
        a = half_pos + s_pos / math.pi
        b = half_pos - s_pos / math.pi
        c = half_neg + s_neg / math.pi
        return a, b, c

    def _flow(self, u: ScalarField, coef_pos: float, coef_neg: float) -> ScalarField:
        """``smoothed_delta(u) * (coef_pos * f+ + coef_neg * f-)`` as a field."""
        num = np.array([1.0, coef_pos / coef_neg]) @ self._densities
        den = u.values * u.values
        den += self.eps**2
        den *= math.pi / (coef_neg * self.eps)
        num /= den.ravel()
        return u.with_values(num.reshape(u.grid.shape))

    def evaluate(self, u: ScalarField, return_fractions: bool = False):
        """Energy at u; with ``return_fractions``, (energy, (A, B, C)).

        The fractions can be handed to :meth:`descent_direction` at the
        same u, which then skips recomputing them.
        """
        fractions = self._fractions(u)
        energy, _ = _MEASURES[self.kind](self, *fractions)
        return (energy, fractions) if return_fractions else energy

    def gradient(self, u: ScalarField, fractions: tuple = None) -> ScalarField:
        """First variation of the energy at u, as a field on the same grid.

        ``fractions`` are u's (A, B, C) when already known.  The variation
        is ``delta(u) * ((g_A - g_B) * f+ + g_C * f-)``.
        """
        a, b, c = fractions if fractions is not None else self._fractions(u)
        _, (g_a, g_b, g_c) = _MEASURES[self.kind](self, a, b, c)
        return self._flow(u, g_a - g_b, g_c)

    def descent_direction(
        self, u: ScalarField, kind: str = "derivative", fractions: tuple = None
    ) -> ScalarField:
        """Field to subtract (times dt) from u; "derivative" or "G".

        ``fractions`` are u's (A, B, C) when already known.  "G" is
        ``delta(u) * ((f- - beta**2 * f+) * A - f+ * (C + beta**2 * B))``.
        """
        if kind == "derivative":
            return self.gradient(u, fractions)
        check_measure(self.kind, kind)
        a, b, c = fractions if fractions is not None else self._fractions(u)
        # A**2 times the F-beta variation at k = beta**2
        _, (g_a, g_b, g_c) = _f_beta(self.beta**2, a, b, c)
        return self._flow(u, a * a * (g_a - g_b), a * a * g_c)

    def sign_pattern_energy(self, u: ScalarField, descent: str = "derivative") -> float:
        """g(A, B, C) of the objective ``descent`` minimizes, with A, B and C
        taken over {u >= 0} instead of through the smoothed step.

        This is the measure the classifier sign(u) attains on the densities,
        so it does not change when u is redistanced.  "derivative" scores
        the energy's own measure and "G" F-beta at k = beta**2.  A field
        holding none of the positive mass scores inf under F-beta.
        """
        return self._mask_energy(u.values >= 0, descent)

    def _mask_energy(self, mask: np.ndarray, descent: str) -> float:
        """:meth:`sign_pattern_energy` of the classifier positive on ``mask``."""
        a, c = (self._weighted @ mask.ravel()).tolist()
        b = 2.0 * self._half_mass[0] - a
        try:
            if descent == "G":
                return _f_beta(self.beta**2, a, b, c)[0]
            return _MEASURES[self.kind](self, a, b, c)[0]
        except VanishingPositiveMassError:
            return math.inf

    def _optimum_mask(self, descent: str = "derivative") -> np.ndarray:
        """The grid-shaped node mask whose classifier scores the lowest
        :meth:`sign_pattern_energy` for ``descent``.

        Accuracy takes the nodes where n_count * f- < p_count * f+.  F-beta
        scores a node set S as (k * (W+ - A(S)) + C(S)) / A(S), a ratio of
        sums, so by Dinkelbach (1967) its best S is {c_i < t * a_i} for some
        t: a prefix of the nodes sorted by c_i / a_i, whose scores come from
        two cumulative sums.
        """
        a, c = self._weighted
        if self.kind == "accuracy":
            return (self.pair.n_count * c < self.pair.p_count * a).reshape(self.pair.grid.shape)
        k = self.k if descent == "derivative" else self.beta**2
        # a node without positive mass has ratio inf or nan and sorts last; a
        # ratio that overflows on a denormal a_i is inf and sorts with them
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            order = np.argsort(c / a, kind="stable")
        pos, neg = np.cumsum(a[order]), np.cumsum(c[order])
        score = np.full(pos.shape, np.inf)
        np.divide(k * (2.0 * self._half_mass[0] - pos) + neg, pos, out=score,
                  where=pos >= _MASS_FLOOR)
        mask = np.zeros(a.size, dtype=bool)
        mask[order[:int(np.argmin(score)) + 1]] = True
        return mask.reshape(self.pair.grid.shape)

    def stationarity_residual(self, u: ScalarField, fractions: tuple = None) -> float:
        """Largest gradient magnitude on the active band around the zero set.

        The band is where the smoothed impulse exceeds 1e-3 of its current
        maximum; outside it the flow cannot move u regardless of the
        densities.  ``fractions`` are u's (A, B, C) when already known.
        """
        delta = smoothed_delta(u.values, self.eps)
        band = delta > _BAND_FRACTION * delta.max()
        return float(np.abs(self.gradient(u, fractions).values[band]).max())
