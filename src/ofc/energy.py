"""Region energies whose minimizers maximize a classification measure.

For the F-beta measure the energy of a decision field u is

    E[u] = (k * B + C) / A,   k = beta**2 * p_count / n_count,

where, writing H for the smoothed step at width eps and f+/f- for the
unit-mass class densities,

    A = integral H(u) f+     (true-positive fraction)
    B = integral H(-u) f+    (false-negative fraction)
    C = integral H(u) f-     (false-positive fraction).

E is proportional to the misclassification ratio (beta**2*FN + FP)/TP, so
driving E down drives F-beta up.  For the accuracy measure the energy is
the count-scaled error mass

    E[u] = p_count * B + n_count * C,

minimized where the positive region is exactly the set where
p_count*f+ > n_count*f-.

Two descent directions are available: the first variation of E, and a
cheaper surrogate proportional to it (the scale factor is A**2 with k
replaced by beta**2), which has the same zero set.

The training loop evaluates these on every iteration, so each is written
as few whole-grid passes.  With H = 1/2 + arctan(u/eps)/pi, the three
fractions come from one weighted sum S+/- of arctan(u/eps) against the
quadrature-weighted densities, whose masses are W+/-:

    A = W+/2 + S+/pi,   B = W+/2 - S+/pi,   C = W-/2 + S-/pi.

The descent directions divide one numerator, a combination of f+ and f-
with every scalar factor (eps/pi, 1/A, ...) folded into its two
coefficients, by eps**2 + u**2.  The numerator is one product of those
two coefficients with the densities stacked as a (2, nodes) matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .density import DensityPair
from .errors import VanishingPositiveMassError
from .field import ScalarField, _quadrature_weights
from .metrics import check_beta, smoothed_delta

_MASS_FLOOR = 1e-12
_BAND_FRACTION = 1e-3


@dataclass(frozen=True)
class MeasureEnergy:
    """Energy functional for one density pair, measure and smoothing width.

    kind "f_measure" uses beta (and an optional explicit k overriding the
    default beta**2 * p_count / n_count); kind "accuracy" ignores both.
    The pair's density values are read once, at construction.
    """

    pair: DensityPair
    eps: float
    kind: str = "f_measure"
    beta: float = 1.0
    k: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.kind not in ("f_measure", "accuracy"):
            raise ValueError(f"unknown energy kind {self.kind!r}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        check_beta(self.beta)
        if self.kind == "accuracy":
            if self.k is not None:
                raise ValueError("k only applies to the f_measure energy")
        elif self.k is None:
            object.__setattr__(
                self, "k", self.beta**2 * self.pair.p_count / self.pair.n_count
            )
        elif self.k <= 0:
            raise ValueError(f"k must be positive, got {self.k}")
        # quadrature-weighted densities, one row per class, and half their
        # masses: the fractions are then one matrix-vector product
        w = _quadrature_weights(self.pair.grid)
        fp, fn = self.pair.f_pos.values, self.pair.f_neg.values
        weighted = np.stack([fp * w, fn * w]).reshape(2, -1)
        object.__setattr__(self, "_weighted", weighted)
        object.__setattr__(self, "_half_mass", (0.5 * weighted.sum(axis=1)).tolist())
        # (f-, f+) rows: a flow's numerator is one product with its coefficients
        object.__setattr__(self, "_densities", np.stack([fn, fp]).reshape(2, -1))
        if self.kind == "accuracy":
            # the accuracy flow's numerator does not depend on u
            num = (self.eps / math.pi) * (self.pair.n_count * fn - self.pair.p_count * fp)
            object.__setattr__(self, "_accuracy_numerator", num)

    def _fractions(self, u: ScalarField) -> tuple[float, float, float]:
        """(A, B, C); raises once the positive region loses all f+ mass."""
        s = self._weighted @ np.arctan(u.values / self.eps).ravel()
        s_pos, s_neg = s.tolist()
        half_pos, half_neg = self._half_mass
        a = half_pos + s_pos / math.pi
        b = half_pos - s_pos / math.pi
        c = half_neg + s_neg / math.pi
        if self.kind == "f_measure" and a < _MASS_FLOOR:
            raise VanishingPositiveMassError(
                f"positive region holds {a:.3e} of the positive density"
            )
        return a, b, c

    def _impulse_denominator(self, u: ScalarField) -> np.ndarray:
        """eps**2 + u**2, the impulse's denominator, as a fresh array."""
        den = u.values * u.values
        den += self.eps**2
        return den

    def _flow(self, u: ScalarField, ratio: float, scale: float) -> ScalarField:
        """``scale * (f- - ratio * f+) / (eps**2 + u**2)`` as a field.

        With ``scale = c * eps / pi`` this is ``c * smoothed_delta(u) *
        (f- - ratio * f+)``.
        """
        num = np.array([scale, -scale * ratio]) @ self._densities
        num /= self._impulse_denominator(u).ravel()
        return u.with_values(num.reshape(u.grid.shape))

    def evaluate(self, u: ScalarField, return_fractions: bool = False):
        """Energy at u; with ``return_fractions``, (energy, (A, B, C)).

        The fractions can be handed to :meth:`descent_direction` at the
        same u, which then skips recomputing them.
        """
        fractions = self._fractions(u)
        a, b, c = fractions
        if self.kind == "accuracy":
            energy = self.pair.p_count * b + self.pair.n_count * c
        else:
            energy = (self.k * b + c) / a
        return (energy, fractions) if return_fractions else energy

    def gradient(self, u: ScalarField, fractions: tuple = None) -> ScalarField:
        """First variation of the energy at u, as a field on the same grid.

        ``fractions`` are u's (A, B, C) when already known.  The f_measure
        form is ``delta(u) * (f- - (k + E) * f+) / A``.
        """
        if self.kind == "accuracy":
            den = self._impulse_denominator(u)
            return u.with_values(np.divide(self._accuracy_numerator, den, out=den))
        a, b, c = fractions if fractions is not None else self._fractions(u)
        e = (self.k * b + c) / a
        return self._flow(u, self.k + e, self.eps / (math.pi * a))

    def descent_direction(
        self, u: ScalarField, kind: str = "derivative", fractions: tuple = None
    ) -> ScalarField:
        """Field to subtract (times dt) from u; "derivative" or "G".

        ``fractions`` are u's (A, B, C) when already known.  "G" is
        ``delta(u) * ((f- - beta**2 * f+) * A - f+ * (C + beta**2 * B))``.
        """
        if kind == "derivative":
            return self.gradient(u, fractions)
        if kind != "G":
            raise ValueError(f"unknown descent kind {kind!r}")
        if self.kind != "f_measure":
            raise ValueError("descent kind 'G' only applies to the f_measure energy")
        a, b, c = fractions if fractions is not None else self._fractions(u)
        b2 = self.beta**2
        return self._flow(u, b2 + (c + b2 * b) / a, self.eps * a / math.pi)

    def stationarity_residual(self, u: ScalarField, fractions: tuple = None) -> float:
        """Largest gradient magnitude on the active band around the zero set.

        The band is where the smoothed impulse exceeds 1e-3 of its current
        maximum; outside it the flow cannot move u regardless of the
        densities.  ``fractions`` are u's (A, B, C) when already known.
        """
        delta = smoothed_delta(u.values, self.eps)
        band = delta > _BAND_FRACTION * delta.max()
        return float(np.abs(self.gradient(u, fractions).values[band]).max())
