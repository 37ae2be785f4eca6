"""Capacity estimate record shared by the enumeration and analytic solvers."""

from dataclasses import dataclass

EMPIRICAL = "empirical"
CHARACTERISTIC_ROOT = "characteristic_root"
SPECTRAL_RADIUS = "spectral_radius"
ABSCISSA = "abscissa"

_METHODS = (EMPIRICAL, CHARACTERISTIC_ROOT, SPECTRAL_RADIUS, ABSCISSA)


@dataclass(frozen=True)
class CapacityEstimate:
    """A capacity value in nats per weight unit, with solver provenance.

    ``bracket`` is, for ``characteristic_root`` and ``spectral_radius``, the
    final enclosing interval, across which the target function changes sign;
    for ``empirical`` and ``abscissa`` it is the trailing window's [min, max],
    which need not hold the capacity.  ``residual`` is the target function's
    absolute deviation from its target at ``value``, 0.0 for the last two,
    and ``iterations`` counts Newton steps or the length of their sequence.
    """

    value: float
    method: str
    bracket: tuple[float, float]
    residual: float
    iterations: int

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method tag: {self.method!r}")
        lo, hi = self.bracket
        if not lo <= self.value <= hi:
            raise ValueError(
                f"value {self.value} outside bracket [{lo}, {hi}]"
            )

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "value": self.value,
            "bracket": [self.bracket[0], self.bracket[1]],
            "residual": self.residual,
            "iterations": self.iterations,
        }
