"""Truncated Taylor-series (jet) arithmetic.

A :class:`Jet` holds the Taylor coefficients ``a_j = f^(j)(x)/j!`` of a scalar
function at a batch of points ``x``.  Propagating jets through closed-form
expressions yields exact derivatives of radial profiles (cutoffs, iterated-log
factors, power laws) without finite differencing.  Coefficients are numpy
arrays, so a single jet evaluates a whole batch of quadrature nodes at once.

Binary operations truncate to the shorter operand's order.

Every operation performs the same floating-point operations in the same order
as the generic route, which lifts a scalar ``c`` to ``Jet.constant(c)`` (rows
``c, 0, 0, ...``) and combines two jets row by row, so results are bitwise
those of that route, signed zeros included.  The fast paths rest on this
contract:

- Scalar ``+`` and ``-`` and reflected ``-`` change the value row only;
  rows ``k >= 1`` go through ``+ 0.0`` and ``0.0 -``, which is what adding a
  row of zeros does (``-0.0 + 0.0`` is ``+0.0``), and ``- 0.0``, which is the
  identity and so shares the row.
- Cauchy-product style sums (``*``, ``/``, ``log``, ``exp``) accumulate each
  row in place, in the same ascending order; an accumulator is always a
  fresh array, never an operand's row.
- Rows are shared between jets (``truncate``, scalar ``-``, ``x ** 1``), so
  no operation mutates the rows of its operands, and callers must not either.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Jet"]


def _jet(rows: list) -> "Jet":
    """A jet on ``rows`` as they are: results of array arithmetic need no
    re-validation.  The rows of a jet share one shape; arithmetic on 0-d rows
    yields numpy scalars, which are converted so that every row stays an
    ndarray."""
    if type(rows[0]) is not np.ndarray:
        rows = [np.asarray(c, dtype=float) for c in rows]
    out = object.__new__(Jet)
    out.coeffs = rows
    return out


def _is_scalar(c) -> bool:
    return isinstance(c, (int, float))


class Jet:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = [np.asarray(c, dtype=float) for c in coeffs]

    # ------------------------------------------------------------- builders
    @classmethod
    def variable(cls, x, order: int) -> "Jet":
        """Jet of the identity function at points ``x``."""
        x = np.asarray(x, dtype=float)
        coeffs = [x]
        if order >= 1:
            coeffs.append(np.ones_like(x))
        for _ in range(order - 1):
            coeffs.append(np.zeros_like(x))
        return _jet(coeffs)

    @classmethod
    def constant(cls, c, order: int, like=None) -> "Jet":
        base = np.asarray(c, dtype=float)
        if like is not None:
            base = base * np.ones_like(np.asarray(like, dtype=float))
        coeffs = [base] + [np.zeros_like(base) for _ in range(order)]
        return cls(coeffs)

    # ------------------------------------------------------------ accessors
    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def value(self) -> np.ndarray:
        return self.coeffs[0]

    def deriv(self, j: int) -> np.ndarray:
        """The j-th derivative values, ``j! * a_j``."""
        if j > self.order:
            raise IndexError(f"jet of order {self.order} has no derivative {j}")
        return self.coeffs[j] * math.factorial(j)

    def truncate(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        return _jet(self.coeffs[: order + 1])

    def derivative(self) -> "Jet":
        """Jet of f' (order drops by one)."""
        if self.order < 1:
            raise IndexError("cannot differentiate an order-0 jet")
        return _jet([(j + 1) * c for j, c in enumerate(self.coeffs[1:])])

    # ----------------------------------------------------------- arithmetic
    def _coerce(self, other):
        if isinstance(other, Jet):
            return other
        return Jet.constant(other, self.order, like=self.coeffs[0])

    def __add__(self, other):
        a = self.coeffs
        if _is_scalar(other):
            return _jet([a[0] + other] + [c + 0.0 for c in a[1:]])
        b = self._coerce(other).coeffs
        return _jet([x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __sub__(self, other):
        a = self.coeffs
        if _is_scalar(other):
            return _jet([a[0] - other, *a[1:]])
        b = self._coerce(other).coeffs
        return _jet([x - y for x, y in zip(a, b)])

    def __rsub__(self, other):
        if _is_scalar(other):
            a = self.coeffs
            return _jet([other - a[0]] + [0.0 - c for c in a[1:]])
        return self._coerce(other).__sub__(self)

    def __neg__(self):
        return _jet([-c for c in self.coeffs])

    def __mul__(self, other):
        a = self.coeffs
        if not isinstance(other, Jet):
            return _jet([c * other for c in a])
        b = other.coeffs
        out = []
        for k in range(min(len(a), len(b))):
            acc = a[0] * b[k]
            for j in range(1, k + 1):
                acc += a[j] * b[k - j]
            out.append(acc)
        return _jet(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a = self.coeffs
        if not isinstance(other, Jet):
            return _jet([c / other for c in a])
        return _jet(_quotient(a, other.coeffs, min(len(a), len(other.coeffs))))

    def __rtruediv__(self, other):
        if _is_scalar(other):
            b = self.coeffs
            return _jet(_quotient([other], b, len(b)))
        return self._coerce(other).__truediv__(self)

    def log(self) -> "Jet":
        a = self.coeffs
        a0 = a[0]
        g = [np.log(a0)]
        if len(a) > 1:
            g.append(a[1] / a0)
        for k in range(2, len(a)):
            acc = a[k] - (1 / k) * g[1] * a[k - 1]
            for j in range(2, k):
                acc -= (j / k) * g[j] * a[k - j]
            acc /= a0
            g.append(acc)
        return _jet(g)

    def exp(self) -> "Jet":
        a = self.coeffs
        h = [np.exp(a[0])]
        for k in range(1, len(a)):
            acc = a[1] * h[k - 1]
            for j in range(2, k + 1):
                acc += j * a[j] * h[k - j]
            acc /= k
            h.append(acc)
        return _jet(h)

    def __pow__(self, p) -> "Jet":
        if isinstance(p, Jet):
            raise TypeError("jet exponents are not supported")
        pf = float(p)
        if pf == int(pf) and abs(pf) <= 64:
            n = int(abs(pf))
            if n == 0:
                return Jet.constant(1.0, self.order, like=self.coeffs[0])
            acc = None
            base = self
            while True:
                if n & 1:
                    acc = base if acc is None else acc * base
                n >>= 1
                if not n:
                    break
                base = base * base
            return acc if pf > 0 else 1.0 / acc
        return (self.log() * pf).exp()

    # ------------------------------------------------------------ piecewise
    @staticmethod
    def select(mask, when_true: "Jet", when_false: "Jet") -> "Jet":
        """Elementwise choice between two jets (same order)."""
        n = min(when_true.order, when_false.order)
        return _jet(
            [np.where(mask, when_true.coeffs[j], when_false.coeffs[j]) for j in range(n + 1)]
        )


def _quotient(a: list, b: list, n: int) -> list:
    """The first ``n`` rows of a / b, where the missing rows of ``a`` are zero."""
    b0 = b[0]
    q = [a[0] / b0]
    for k in range(1, n):
        acc = (a[k] if k < len(a) else 0.0) - q[0] * b[k]
        for j in range(1, k):
            acc -= q[j] * b[k - j]
        acc /= b0
        q.append(acc)
    return q
