"""Angles that remember whether they are exact rational multiples of pi.

The classifier decides membership in measure-zero sets (pi*Z, (pi/2)*Z, ...),
which is meaningless on raw floats.  An ExactAngle therefore carries two
things: the float value in radians (used for all numerics, never snapped)
and, when known, the exact multiple of pi as a Fraction in lowest terms
(used for all set membership).  Angles that arrive as plain floats are
tagged by rational reconstruction with a bounded denominator.  Only
rational(), from_radians() and parse_angle() tag; an untagged angle (one
that failed reconstruction, ExactAngle.real, or a sum with one) is generic,
belongs to none of the special sets, and is never reconstructed later.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError

RECONSTRUCT_MAX_DENOMINATOR = 64
RECONSTRUCT_TOL = 1e-9
# The tag decision sits this far past RECONSTRUCT_TOL, so that an angle at
# exactly RECONSTRUCT_TOL from pi*p/q is tagged whatever rounding reaches it
# on the way in: the Euler extraction of U and of e^{ia} U differ by a few
# ulps of pi.  A sharp edge stays, but no longer at the declared tolerance.
_ROUNDING_SLACK = 2.0 ** -40

_ANGLE_RE = re.compile(r"^([+-]?)pi(?:\*(-?\d+)(?:/(\d+))?)?$")


@dataclass(frozen=True)
class ExactAngle:
    radians: float
    pi_multiple: Fraction | None = None

    @staticmethod
    def rational(p: int | Fraction, q: int = 1) -> "ExactAngle":
        """The angle (p/q)*pi, exactly."""
        frac = Fraction(p, q)
        return ExactAngle(float(frac) * math.pi, frac)

    @staticmethod
    def real(radians: float) -> "ExactAngle":
        """An opaque real angle; no exactness is claimed."""
        return ExactAngle(float(radians), None)

    @staticmethod
    def from_radians(radians: float) -> "ExactAngle":
        """Tag a float with a rational pi-multiple when one reconstructs."""
        frac = _reconstruct(radians)
        return ExactAngle(float(radians), frac)

    # -- membership in the sets the classification cares about --

    def in_pi_z(self) -> bool:
        return self.pi_multiple is not None and self.pi_multiple.denominator == 1

    def in_half_pi_z(self) -> bool:
        return self.pi_multiple is not None and self.pi_multiple.denominator in (1, 2)

    def in_half_pi_z_odd(self) -> bool:
        """True iff the angle is an odd multiple of pi/2."""
        return self.pi_multiple is not None and self.pi_multiple.denominator == 2

    def in_quarter_pi_z(self) -> bool:
        return self.pi_multiple is not None and self.pi_multiple.denominator in (1, 2, 4)

    # -- arithmetic, exactness-preserving where possible --

    def __add__(self, other: "ExactAngle") -> "ExactAngle":
        if self.pi_multiple is not None and other.pi_multiple is not None:
            return ExactAngle.rational(self.pi_multiple + other.pi_multiple)
        return ExactAngle.real(self.radians + other.radians)

    def __sub__(self, other: "ExactAngle") -> "ExactAngle":
        return self + (-other)

    def __neg__(self) -> "ExactAngle":
        if self.pi_multiple is not None:
            return ExactAngle.rational(-self.pi_multiple)
        return ExactAngle.real(-self.radians)

    def __float__(self) -> float:
        return self.radians

    def __str__(self) -> str:
        if self.pi_multiple is not None:
            f = self.pi_multiple
            if f == 0:
                return "0"
            return f"pi*{f.numerator}/{f.denominator}"
        return repr(self.radians)


def _reconstruct(radians: float) -> Fraction | None:
    frac = Fraction(radians / math.pi).limit_denominator(RECONSTRUCT_MAX_DENOMINATOR)
    if abs(float(frac) * math.pi - radians) <= RECONSTRUCT_TOL + _ROUNDING_SLACK:
        return frac
    return None


def parse_angle(text: str) -> ExactAngle:
    """Parse 'pi', 'pi*3', 'pi*1/3', '-pi*1/2' exactly, or a decimal.

    Decimals are tagged by rational reconstruction (max denominator 64,
    tolerance 1e-9); anything that fails stays an opaque REAL angle.
    """
    text = text.strip()
    m = _ANGLE_RE.match(text)
    if m:
        sign = -1 if m.group(1) == "-" else 1
        p = int(m.group(2)) if m.group(2) is not None else 1
        q = int(m.group(3)) if m.group(3) is not None else 1
        if q == 0:
            raise ParseError(f"zero denominator in angle {text!r}")
        return ExactAngle.rational(sign * p, q)
    try:
        radians = float(text)
    except ValueError:
        raise ParseError(f"cannot parse angle {text!r}") from None
    if not math.isfinite(radians):
        raise ParseError(f"angle {text!r} is not finite")
    return ExactAngle.from_radians(radians)
