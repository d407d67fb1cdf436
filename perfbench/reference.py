"""Extended-precision reference for the iterated-log series integrals.

The registry's series terms are integrals int_0^1 P(r) S_K(r) dr of an exact
power sum P = sum_i c_i r^{p_i} against the truncated correction weight
S_K = sum_{i<=K} X_1^2 ... X_i^2.  In s = ln(1/r) every moment

    M(p) = int_0^1 r^p S_K(r) dr = int_0^inf e^{-(p+1) s} w_K(s) ds

has a smooth, positive integrand, so the reference integrates moments, not
the power sum: the cancellation that spoils the float path (the expanded
power sum evaluated pointwise) is done afterwards in exact rational
arithmetic, sum_i c_i M(p_i).

Nodes, weights and w_K are computed with mpmath at 40 significant digits
(Gauss-Legendre, 48 nodes on each dyadic panel of s); the moment recurrence
M(p + 1) <- e^{-s} M(p) runs in integer fixed point with FRACTION_BITS bits,
which keeps a run's reference under a second in pure Python.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
from mpmath.calculus.quadrature import GaussLegendre

DIGITS = 40
FRACTION_BITS = 192
# Gauss-Legendre degree 5 in mpmath's numbering: 3 * 2**4 = 48 nodes.
GL_DEGREE = 5
# Dyadic panels of s cover [0, 2**S_MAX_EXP]; mass beyond it is below
# e^{-(p+1) 2**S_MAX_EXP}, negligible for every p + 1 >= MIN_DECAY.
S_MIN_EXP = -7
S_MAX_EXP = 8
MIN_DECAY = 0.5


class SeriesReference:
    """Moments of S_K at DIGITS digits, grouped by the fractional part of p."""

    def __init__(self, K: int):
        self.K = K
        self._one = 1 << FRACTION_BITS
        self._families: dict[Fraction, list[int]] = {}
        with mpmath.workdps(DIGITS + 10):
            std = GaussLegendre(mpmath.mp).calc_nodes(GL_DEGREE, mpmath.mp.prec)
            edges = [mpmath.mpf(0)] + [mpmath.mpf(2) ** k for k in range(S_MIN_EXP, S_MAX_EXP + 1)]
            self._s = []
            self._ws = []  # quadrature weight times w_K(s)
            self._decay = []  # e^{-s} in fixed point
            for lo, hi in zip(edges[:-1], edges[1:]):
                half, mid = (hi - lo) / 2, (hi + lo) / 2
                for x, wt in std:
                    s = mid + half * x
                    self._s.append(s)
                    self._ws.append(half * wt * self._weight(s))
                    self._decay.append(int(mpmath.exp(-s) * self._one))

    def _weight(self, s):
        total, prod = mpmath.mpf(0), mpmath.mpf(1)
        x = 1 / (1 + s)
        for _ in range(self.K):
            prod *= x * x
            total += prod
            x = 1 / (1 - mpmath.log(x))
        return total

    def _family(self, shift: Fraction, n_max: int) -> list[int]:
        """Fixed-point moments M(shift + n) for n = 0 .. n_max."""
        fam = self._families.get(shift)
        if fam is not None and len(fam) > n_max:
            return fam
        if shift + 1 < MIN_DECAY:
            raise ValueError(f"moment power {float(shift)} too close to divergence")
        with mpmath.workdps(DIGITS + 10):
            p1 = mpmath.mpf(shift.numerator) / shift.denominator + 1
            cur = [int(w * mpmath.exp(-p1 * s) * self._one) for w, s in zip(self._ws, self._s)]
        bits = FRACTION_BITS
        fam = []
        while True:
            fam.append(sum(cur))
            if len(fam) > n_max:
                break
            cur = [(c * d) >> bits for c, d in zip(cur, self._decay)]
        self._families[shift] = fam
        return fam

    def integral(self, powers, coeffs) -> Fraction:
        """int_0^1 sum_i c_i r^{p_i} S_K(r) dr for exact rational p_i, c_i."""
        groups: dict[Fraction, list[tuple[int, Fraction]]] = {}
        for p, c in zip(powers, coeffs):
            p, c = Fraction(p), Fraction(c)
            if c == 0:
                continue
            base = p - (p.numerator // p.denominator)
            groups.setdefault(base - 1 if base >= MIN_DECAY else base, []).append((p, c))
        total = Fraction(0)
        for shift, terms in groups.items():
            idx = [(int(p - shift), c) for p, c in terms]
            if min(n for n, _ in idx) < 0:
                raise ValueError("power below the family shift")
            fam = self._family(shift, max(n for n, _ in idx))
            for n, c in idx:
                total += c * fam[n]
        return total / self._one

    def power_sum_integral(self, ps) -> float:
        """The reference value for a rellich PowerSum, rounded once."""
        return float(self.integral(ps.powers, ps.coeffs))
