"""Finite sums of real powers of r, with exact calculus.

The verification suite works on profiles of the form r^k (1-r)^p q(r) whose
derived densities under the radial mode operator are finite power sums,
possibly with non-integer exponents once weights r^{-2m} or the substitution
v = r^a u enter.  Both coefficients and exponents are kept as exact
rationals: the suite's high-dimension cases integrate to values ten orders
of magnitude below their coefficient scale, so any floating-point round-off
inside the algebra would swamp the identity residuals.  The single rounding
happens on output.

Representation.  A sum is a short tuple of blocks, one per exponent class
mod 1.  A block ``(b, [a_0, a_1, ...])`` holds sum_j a_j r^{b+j}: a rational
base and a dense list of rational coefficients whose first and last entries
are non-zero (zeros inside a block stay).  The profiles carry integer powers
and every weight, shift or substitution moves all of them by one rational,
so the suite's sums have a single class: over the ops of one pass of the
identity registry (seed 1) all 14 330 sums built have one block, and all
9 238 of the inequality registry.  A product is then a list convolution per
pair of blocks, a derivative or ``mode_apply`` one elementwise pass, a shift
a move of the bases, and no exponent is hashed, compared or sorted on the
way.  The convolution runs in integers: each factor block's coefficients are
brought to one common denominator, the least common multiple of theirs, the
integer numerators are convolved, and each output coefficient is built once
as a ``Fraction`` over the product of the two denominators, so no gcd is paid
per coefficient product.  The float arrays ``__call__`` needs are built on
its first call.

Exactness.  Bases and coefficients are ``Fraction``s, so every operation
yields the same rational sum as adding the terms one by one.  ``powers`` and
``coeffs`` list the same non-zero terms in ascending order, ``__call__``
adds the same float terms in the same order, and ``integrate01`` rounds the
exact rational ``exact_integral01`` once, so every output is bitwise what a
term-by-term (dict-merge) representation gives, by construction and not
within a tolerance.  Every sum, the algebra's results included, is built
through ``PowerSum.__init__``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import DivergenceError, DomainError

__all__ = ["PowerSum"]

_ZERO = Fraction(0)
# longest dense block, so that r^0 + r^(10^9) fails instead of allocating
_MAX_SPAN = 1 << 20


def _to_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)):
        return Fraction(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"non-finite value {x} in a power sum")
    return Fraction(x)


def _block(base: Fraction, cs: list):
    """The block (base, cs) with its leading and trailing zeros trimmed, or
    None when every coefficient is zero."""
    lo, hi = 0, len(cs)
    while lo < hi and not cs[lo]:
        lo += 1
    if lo == hi:
        return None
    while not cs[hi - 1]:
        hi -= 1
    if lo or hi < len(cs):
        return base + lo, cs[lo:hi]
    return base, cs


def _merged(base: Fraction, cs: list, offset: int, ds: list):
    """The block (base, cs) plus the coefficients ds starting ``offset``
    places after cs does (offset >= 0), trimmed."""
    if offset + len(ds) > _MAX_SPAN:
        raise DomainError(f"exponent span {offset + len(ds)} exceeds {_MAX_SPAN}")
    overlap = cs[offset:]
    out = cs[:offset] + [_ZERO] * (offset - len(cs))
    out += [x + y for x, y in zip(overlap, ds)]
    out += overlap[len(ds):] if len(overlap) > len(ds) else ds[len(overlap):]
    return _block(base, out)


def _add_blocks(blocks, others) -> tuple:
    """The blocks of the sum of two power sums."""
    out = list(blocks)
    for base, ds in others:
        for i, (b, cs) in enumerate(out):
            offset = base - b
            if offset.denominator == 1:  # same exponent class
                offset = offset.numerator
                merged = _merged(b, cs, offset, ds) if offset >= 0 else _merged(base, ds, -offset, cs)
                if merged is None:
                    del out[i]
                else:
                    out[i] = merged
                break
        else:
            out.append((base, ds))
    return tuple(out)


def _numerators(cs: list) -> tuple[list, int]:
    """The coefficients as integer numerators over their least common
    denominator, and that denominator."""
    d = math.lcm(*(c.denominator for c in cs))
    return [c.numerator * (d // c.denominator) for c in cs], d


def _convolve(a: list, b: list) -> list:
    """Coefficients of the product of two dense blocks: their integer
    numerators convolved, each output built once over the product of the two
    common denominators, which is the rational the term-by-term sum gives."""
    na, da = _numerators(a)
    nb, db = (na, da) if b is a else _numerators(b)
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(na):
        if x:
            for j, y in enumerate(nb, i):
                out[j] += x * y
    d = da * db
    return [Fraction(n, d) for n in out]


def _scaled(blocks, c) -> tuple:
    """The blocks times a non-zero rational c, or no blocks when c is 0."""
    return tuple((b, [x * c for x in cs]) for b, cs in blocks) if c else ()


class PowerSum:
    """sum_i c_i r^{p_i} with exact rational exponents and coefficients."""

    __slots__ = ("_blocks", "_terms", "_floats")

    def __init__(self, powers, coeffs, *, _blocks=None):
        if _blocks is None:
            powers = [_to_fraction(p) for p in powers]
            coeffs = [_to_fraction(c) for c in coeffs]
            if len(powers) != len(coeffs):
                raise DomainError("powers and coeffs must have matching lengths")
            classes: dict[Fraction, list] = {}
            for p, c in zip(powers, coeffs):
                if c:
                    classes.setdefault(p - math.floor(p), []).append((p, c))
            blocks = []
            for terms in classes.values():
                base = min(p for p, _ in terms)
                offsets = [(int(p - base), c) for p, c in terms]
                span = max(j for j, _ in offsets) + 1
                if span > _MAX_SPAN:
                    raise DomainError(f"exponent span {span} exceeds {_MAX_SPAN}")
                cs = [_ZERO] * span
                for j, c in offsets:
                    cs[j] += c
                blk = _block(base, cs)
                if blk is not None:
                    blocks.append(blk)
            _blocks = tuple(blocks)
        self._blocks = _blocks
        self._terms = None
        self._floats = None

    # ------------------------------------------------------------- builders
    @classmethod
    def zero(cls) -> "PowerSum":
        return cls([0], [0])

    @classmethod
    def from_poly(cls, coeffs) -> "PowerSum":
        """Polynomial c_0 + c_1 r + ... as a power sum."""
        return cls(range(len(coeffs)), coeffs)

    @classmethod
    def monomial(cls, power, coeff=1) -> "PowerSum":
        return cls([power], [coeff])

    def is_zero(self) -> bool:
        return not self._blocks

    def _sorted(self) -> tuple[list, list]:
        """The non-zero terms in ascending power order, as (powers, coeffs);
        ([0], [0]) for the zero sum.  Built on first use and kept."""
        if self._terms is None:
            terms = [(b + j, c) for b, cs in self._blocks for j, c in enumerate(cs) if c]
            if len(self._blocks) > 1:
                terms.sort()
            self._terms = [p for p, _ in terms] or [_ZERO], [c for _, c in terms] or [_ZERO]
        return self._terms

    @property
    def powers(self) -> list:
        return self._sorted()[0]

    @property
    def coeffs(self) -> list:
        return self._sorted()[1]

    def _lowest(self) -> Fraction:
        """The smallest power (0 for the zero sum): each block starts with a
        non-zero coefficient, so it is the smallest base."""
        return min((b for b, _ in self._blocks), default=_ZERO)

    @property
    def min_power(self) -> float:
        return float(self._lowest())

    # ------------------------------------------------------------- algebra
    def __add__(self, other: "PowerSum") -> "PowerSum":
        return PowerSum((), (), _blocks=_add_blocks(self._blocks, other._blocks))

    def __sub__(self, other: "PowerSum") -> "PowerSum":
        return PowerSum((), (), _blocks=_add_blocks(self._blocks, _scaled(other._blocks, -1)))

    def __mul__(self, other):
        if isinstance(other, PowerSum):
            blocks = ()
            for b1, c1 in self._blocks:
                for b2, c2 in other._blocks:
                    blocks = _add_blocks(blocks, [(b1 + b2, _convolve(c1, c2))])
            return PowerSum((), (), _blocks=blocks)
        return PowerSum((), (), _blocks=_scaled(self._blocks, _to_fraction(other)))

    __rmul__ = __mul__

    def shift(self, alpha) -> "PowerSum":
        """Multiply by r^alpha."""
        a = _to_fraction(alpha)
        return PowerSum((), (), _blocks=tuple((b + a, cs) for b, cs in self._blocks))

    def _termwise(self, drop: int, factor) -> "PowerSum":
        """sum_i c_i factor(p_i) r^{p_i - drop}, one pass over each block."""
        blocks = []
        for b, cs in self._blocks:
            blk = _block(b - drop, [c * factor(b + j) for j, c in enumerate(cs)])
            if blk is not None:
                blocks.append(blk)
        return PowerSum((), (), _blocks=tuple(blocks))

    def deriv(self) -> "PowerSum":
        return self._termwise(1, lambda p: p)

    def square(self) -> "PowerSum":
        return self * self

    def mode_apply(self, N: int, ck) -> "PowerSum":
        """f'' + (N-1) f'/r - c_k f / r^2, exactly: each term c r^p becomes
        c (p(p-1) + (N-1)p - c_k) r^{p-2}."""
        n2 = _to_fraction(N - 1) - 1
        c = _to_fraction(ck)
        return self._termwise(2, lambda p: p * (p + n2) - c)

    # ---------------------------------------------------------- evaluation
    def __call__(self, r):
        if self._floats is None:
            self._floats = tuple(np.array([float(x) for x in xs]) for xs in self._sorted())
        r = np.asarray(r, dtype=float)
        flat = r.ravel()
        out = np.zeros_like(flat)
        for p, c in zip(*self._floats):
            if p == 0.0:
                out += c
            else:
                out += c * flat**p
        return out.reshape(r.shape)

    def exact_integral01(self) -> Fraction:
        """The exact value of int_0^1 of this power sum."""
        low = self._lowest()
        if low <= -1:
            raise DivergenceError(f"non-integrable power {float(low)} at the origin")
        total = _ZERO
        for b, cs in self._blocks:
            p1 = b + 1
            for j, c in enumerate(cs):
                if c:
                    total += c / (p1 + j)
        return total

    def integrate01(self) -> float:
        """int_0^1 of this power sum, its exact value rounded once."""
        return float(self.exact_integral01())
