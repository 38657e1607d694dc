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
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import DensityPair
from .errors import VanishingPositiveMassError
from .field import ScalarField, _quadrature_weights
from .metrics import check_beta, smoothed_delta, smoothed_heaviside

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
        # quadrature-weighted densities: each fraction is then one sum
        w = _quadrature_weights(self.pair.grid)
        object.__setattr__(self, "_w_pos", self.pair.f_pos.values * w)
        object.__setattr__(self, "_w_neg", self.pair.f_neg.values * w)

    def _fractions(self, u: ScalarField) -> tuple[float, float, float]:
        """(A, B, C); raises once the positive region loses all f+ mass."""
        h = smoothed_heaviside(u.values, self.eps)
        a = float(np.sum(h * self._w_pos))
        b = float(np.sum((1.0 - h) * self._w_pos))
        c = float(np.sum(h * self._w_neg))
        if self.kind == "f_measure" and a < _MASS_FLOOR:
            raise VanishingPositiveMassError(
                f"positive region holds {a:.3e} of the positive density"
            )
        return a, b, c

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

        ``fractions`` are u's (A, B, C) when already known.
        """
        delta = smoothed_delta(u.values, self.eps)
        fp, fn = self.pair.f_pos.values, self.pair.f_neg.values
        if self.kind == "accuracy":
            return u.with_values(
                delta * (self.pair.n_count * fn - self.pair.p_count * fp)
            )
        a, b, c = fractions if fractions is not None else self._fractions(u)
        e = (self.k * b + c) / a
        return u.with_values(delta * (fn - (self.k + e) * fp) / a)

    def descent_direction(
        self, u: ScalarField, kind: str = "derivative", fractions: tuple = None
    ) -> ScalarField:
        """Field to subtract (times dt) from u; "derivative" or "G".

        ``fractions`` are u's (A, B, C) when already known.
        """
        if kind == "derivative":
            return self.gradient(u, fractions)
        if kind != "G":
            raise ValueError(f"unknown descent kind {kind!r}")
        if self.kind != "f_measure":
            raise ValueError("descent kind 'G' only applies to the f_measure energy")
        a, b, c = fractions if fractions is not None else self._fractions(u)
        delta = smoothed_delta(u.values, self.eps)
        fp, fn = self.pair.f_pos.values, self.pair.f_neg.values
        b2 = self.beta**2
        return u.with_values(delta * ((fn - b2 * fp) * a - fp * (c + b2 * b)))

    def stationarity_residual(self, u: ScalarField) -> float:
        """Largest gradient magnitude on the active band around the zero set.

        The band is where the smoothed impulse exceeds 1e-3 of its current
        maximum; outside it the flow cannot move u regardless of the
        densities.
        """
        delta = smoothed_delta(u.values, self.eps)
        band = delta > _BAND_FRACTION * delta.max()
        return float(np.abs(self.gradient(u).values[band]).max())
