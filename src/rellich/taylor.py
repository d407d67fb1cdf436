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
- Arithmetic is truncation invariant: row ``k`` of a result comes from rows
  ``0..k`` of the operands through the same operations at every order, so
  an expression evaluated at order ``n`` and truncated to ``m <= n`` is
  bitwise the expression evaluated at order ``m``.  One evaluation at the
  highest order needed may therefore serve every lower order.

:func:`polynomial` evaluates a polynomial given as linear factors on a jet;
on :meth:`Jet.variable`'s jet it works on the rows stacked as one array,
two or three numpy calls per factor at any order, and elsewhere it is the
same factors' :class:`Jet` product (see its docstring for where the two
agree bitwise).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["Jet", "polynomial"]


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
        """Jet of the identity function at points ``x``, typed
        :class:`_Variable` so that :func:`polynomial` knows its rows."""
        x = np.asarray(x, dtype=float)
        coeffs = [x]
        if order >= 1:
            coeffs.append(np.ones(x.shape))
        if order >= 2:
            coeffs += [np.zeros(x.shape)] * (order - 1)  # one row: rows are never mutated
        out = object.__new__(_Variable)
        out.coeffs = coeffs
        return out

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
        return self.power(p)

    def power(self, p, log: "Jet | None" = None) -> "Jet":
        """``self ** p``: repeated squaring for an integer p with |p| <= 64,
        else exp(p ln self), where ``log``, when given, is ``self.log()``."""
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
        return ((self.log() if log is None else log) * pf).exp()

    # ------------------------------------------------------------ piecewise
    @staticmethod
    def select(mask, when_true: "Jet", when_false: "Jet") -> "Jet":
        """Elementwise choice between two jets (same order)."""
        n = min(when_true.order, when_false.order)
        return _jet(
            [np.where(mask, when_true.coeffs[j], when_false.coeffs[j]) for j in range(n + 1)]
        )


class _Variable(Jet):
    """A jet made by :meth:`Jet.variable`: rows x, 1, 0, 0, ...  Only the
    type is new; arithmetic on it returns plain jets."""

    __slots__ = ()


def polynomial(J: Jet, coeffs, boundary: int = 0, lead: int = 0) -> Jet:
    """The jet of q(x) (1 - x)^boundary x^lead at J, for q(x) = sum_i
    coeffs[i] x^i with float coefficients, by Horner over linear factors:
    q's Horner steps from its top coefficient, then ``boundary`` products
    by 1 - J, then ``lead`` products by J.

    On :meth:`Jet.variable`'s jet the rows are one array A of shape
    (order + 1, *x.shape), and each factor costs two or three numpy calls
    at any order:

    - a step of q:  B = A x,  B[1:] += A[:-1],  B[0] += c;
    - a factor 1 - x:  B = A (1 - x),  B[1:] -= A[:-1];
    - a factor x:  B = A x,  B[1:] += A[:-1].

    Any other jet takes the generic route: the same factors in :class:`Jet`
    arithmetic.  On the variable's rows that route's row k >= 1 of a product
    by J or 1 - J adds zero terms, then +-A[k-1], then A[k] times the
    factor's value, and its ``+ c`` adds 0.0 to rows k >= 1; the stacked
    route adds the two nonzero terms only.  So the routes can differ only
    in the sign of a zero row past the value.  They agree bit for bit
    wherever no such row holds -0, as at every node in (0, 1) on the
    package's profiles; at x = 1, where 1 - x is 0, a zero's sign may
    differ."""
    top, rest = coeffs[-1], coeffs[-2::-1]
    if type(J) is not _Variable:
        acc = Jet.constant(top, J.order, like=J.value)
        for c in rest:
            acc = acc * J + c
        if boundary:
            one_minus = 1.0 - J
            for _ in range(boundary):
                acc = acc * one_minus
        for _ in range(lead):
            acc = acc * J
        return acc
    x = J.coeffs[0]
    shape = (len(J.coeffs), *x.shape)
    X = np.empty(shape)
    X[:] = x  # on every row, so that each product takes numpy's elementwise loop
    steps = [(X, np.add, c) for c in rest]
    if boundary:
        steps += [(1.0 - X, np.subtract, None)] * boundary
    steps += [(X, np.add, None)] * lead
    A, B = np.zeros(shape), np.empty(shape)
    A[0] = top
    # the steps alternate between two buffers, each with its views made once:
    # (all rows, rows past the value, rows but the last, the value row)
    a, b = (A, A[1:], A[:-1], A[:1]), (B, B[1:], B[:-1], B[:1])
    rows = shape[0] > 1
    for F, shift, c in steps:  # each ufunc writes to its third argument
        np.multiply(a[0], F, b[0])
        if rows:
            shift(b[1], a[2], b[1])
        if c is not None:
            np.add(b[3], c, b[3])
        a, b = b, a
    return _jet(list(a[0]))


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


def _memoized(fn, size: int):
    """``fn``, remembering each input jet and its result.

    ``fn(J, *key)`` takes a jet J and hashable constants ``key`` and returns
    a tuple of jets of J's order.  An entry is stored under the key
    and the bytes and shape of J's value row.  A later call is served from
    the store, as the stored result truncated to its order, only when its
    rows are a bytewise prefix of the stored input's rows; any other input
    is evaluated afresh and replaces the entry for its key.  Served results
    are bitwise fresh evaluations because jet arithmetic is truncation
    invariant.  The store keeps the ``size`` latest entries and drops the
    oldest; it is the returned function's ``store``.
    """
    store: dict = {}

    def remembered(J: Jet, *key):
        rows = J.coeffs
        at = (*key, rows[0].shape, rows[0].tobytes())
        hit = store.get(at)
        if hit is not None:
            higher, out = hit
            if len(rows) - 1 <= len(higher) and all(r.tobytes() == b for r, b in zip(rows[1:], higher)):
                return tuple(x.truncate(J.order) for x in out)
            del store[at]
        out = fn(J, *key)
        store[at] = ([r.tobytes() for r in rows[1:]], out)
        if len(store) > size:
            del store[next(iter(store))]
        return out

    remembered.store = store
    return remembered
