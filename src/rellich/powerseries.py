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
mod 1.  A block ``(b, den, [n_0, n_1, ...])`` holds sum_j (n_j / den) r^{b+j}:
a rational base, a positive integer denominator and a dense list of integer
numerators whose first and last entries are non-zero (zeros inside a block
stay), in lowest terms, gcd(den, n_0, n_1, ...) = 1, so each sum has one
representation.  The profiles carry integer powers and every weight, shift
or substitution moves all of them by one rational, so the suite's sums have
a single class: over the ops of one pass of the identity registry (seed 1)
all 14 330 sums built have one block, and all 9 238 of the inequality
registry.  A product is then an integer convolution per pair of blocks over
the product of their denominators, a sum an integer addition over the least
common multiple of the two, a derivative or ``mode_apply`` one integer pass
(the factor at power p = t / bd, bd the base's denominator, is an integer in
t over a power of bd), a shift a move of the bases, and no exponent is
hashed, compared or sorted on the way.  ``exact_integral01`` sums
n_j / (den (b + 1 + j)) over the least common multiple of the integers
(b + 1 + j) pd, pd the denominator of b + 1, and builds one ``Fraction`` per
block.  Only the reduction to lowest terms pays a gcd, once per block and
not per coefficient.  ``powers`` and ``coeffs`` are built as ``Fraction``s,
and the float arrays ``__call__`` needs, on first use.

Exactness.  The bases are ``Fraction``s and every kernel does integer
arithmetic on the numerators, so every operation yields the same rational
sum as adding the terms one by one.  ``powers`` and ``coeffs`` list the same
non-zero terms in ascending order, ``__call__`` adds the same float terms in
the same order, each taken as n / den, which Python's int true division
rounds correctly, as ``float`` of the ``Fraction`` does, and ``integrate01``
rounds the exact rational ``exact_integral01`` once, so every output is
bitwise what a term-by-term (dict-merge) representation gives, by
construction and not within a tolerance.  Every sum, the algebra's results
included, is built through ``PowerSum.__init__``.
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


def _block(base: Fraction, den: int, nums: list):
    """The block (base, den, nums) with its leading and trailing zeros
    trimmed and in lowest terms, or None when every numerator is zero."""
    lo, hi = 0, len(nums)
    while lo < hi and not nums[lo]:
        lo += 1
    if lo == hi:
        return None
    while not nums[hi - 1]:
        hi -= 1
    if lo or hi < len(nums):
        base, nums = base + lo, nums[lo:hi]
    g = math.gcd(den, *nums)
    if g != 1:
        den, nums = den // g, [n // g for n in nums]
    return base, den, nums


def _merged(base: Fraction, den: int, nums: list, offset: int, oden: int, onums: list):
    """The block (base, den, nums) plus the block of numerators onums over
    oden starting ``offset`` places after it (offset >= 0), both brought to
    the least common multiple of the denominators."""
    if offset + len(onums) > _MAX_SPAN:
        raise DomainError(f"exponent span {offset + len(onums)} exceeds {_MAX_SPAN}")
    d = math.lcm(den, oden)
    s, t = d // den, d // oden
    out = [n * s for n in nums] + [0] * (offset + len(onums) - len(nums))
    for i, n in enumerate(onums, offset):
        out[i] += n * t
    return _block(base, d, out)


def _add_blocks(blocks, others) -> tuple:
    """The blocks of the sum of two power sums."""
    out = list(blocks)
    for base, den, nums in others:
        for i, (b, d, ns) in enumerate(out):
            offset = base - b
            if offset.denominator == 1:  # same exponent class
                offset = offset.numerator
                if offset >= 0:
                    merged = _merged(b, d, ns, offset, den, nums)
                else:
                    merged = _merged(base, den, nums, -offset, d, ns)
                if merged is None:
                    del out[i]
                else:
                    out[i] = merged
                break
        else:
            out.append((base, den, nums))
    return tuple(out)


def _convolve(a: tuple, b: tuple):
    """The block of the product of two blocks: their numerators convolved
    over the product of their denominators."""
    (ba, da, na), (bb, db, nb) = a, b
    out = [0] * (len(na) + len(nb) - 1)
    for i, x in enumerate(na):
        if x:
            for j, y in enumerate(nb, i):
                out[j] += x * y
    return _block(ba + bb, da * db, out)


def _scaled(blocks, c) -> tuple:
    """The blocks times a non-zero rational c, or no blocks when c is 0."""
    if not c:
        return ()
    cn, cd = c.numerator, c.denominator
    return tuple(_block(b, den * cd, [n * cn for n in nums]) for b, den, nums in blocks)


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
                den = math.lcm(*(c.denominator for _, c in terms))
                nums = [0] * span
                for j, c in offsets:
                    nums[j] += c.numerator * (den // c.denominator)
                blk = _block(base, den, nums)
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

    def _ascending(self) -> list:
        """The non-zero terms n/den r^{b+j} as (b, j, n, den), in ascending
        power order."""
        terms = [(b, j, n, den) for b, den, nums in self._blocks for j, n in enumerate(nums) if n]
        if len(self._blocks) > 1:
            terms.sort(key=lambda t: t[0] + t[1])
        return terms

    def _sorted(self) -> tuple[list, list]:
        """The non-zero terms in ascending power order, as (powers, coeffs);
        ([0], [0]) for the zero sum.  Built on first use and kept."""
        if self._terms is None:
            terms = self._ascending()
            self._terms = ([b + j for b, j, _, _ in terms] or [_ZERO],
                           [Fraction(n, den) for _, _, n, den in terms] or [_ZERO])
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
        return min((b for b, _, _ in self._blocks), default=_ZERO)

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
            for a in self._blocks:
                for b in other._blocks:
                    blocks = _add_blocks(blocks, [_convolve(a, b)])
            return PowerSum((), (), _blocks=blocks)
        return PowerSum((), (), _blocks=_scaled(self._blocks, _to_fraction(other)))

    __rmul__ = __mul__

    def shift(self, alpha) -> "PowerSum":
        """Multiply by r^alpha."""
        a = _to_fraction(alpha)
        return PowerSum((), (), _blocks=tuple((b + a, den, nums) for b, den, nums in self._blocks))

    def _termwise(self, drop: int, factor) -> "PowerSum":
        """sum_i c_i factor(p_i) r^{p_i - drop}, one integer pass over each
        block.  For a block whose base has denominator bd, ``factor(bd)``
        gives (g, e): an integer function g of the power's numerator
        t = p bd and a denominator e with factor(p) = g(t) / e."""
        blocks = []
        for b, den, nums in self._blocks:
            bn, bd = b.numerator, b.denominator
            g, e = factor(bd)
            blk = _block(b - drop, den * e, [n * g(bn + j * bd) for j, n in enumerate(nums)])
            if blk is not None:
                blocks.append(blk)
        return PowerSum((), (), _blocks=tuple(blocks))

    def deriv(self) -> "PowerSum":
        return self._termwise(1, lambda bd: (lambda t: t, bd))

    def square(self) -> "PowerSum":
        return self * self

    def mode_apply(self, N: int, ck) -> "PowerSum":
        """f'' + (N-1) f'/r - c_k f / r^2, exactly: each term c r^p becomes
        c (p(p-1) + (N-1)p - c_k) r^{p-2}."""
        n2 = _to_fraction(N - 1) - 1
        c = _to_fraction(ck)
        # p (p + n2) - c at p = t / bd is (t (q t + a bd) - cq bd^2) / (q bd^2),
        # with n2 = a / q and c = cq / q over one integer q
        q = math.lcm(n2.denominator, c.denominator)
        a, cq = int(n2 * q), int(c * q)
        return self._termwise(2, lambda bd: (lambda t: t * (q * t + a * bd) - cq * bd * bd, q * bd * bd))

    # ---------------------------------------------------------- evaluation
    def __call__(self, r):
        if self._floats is None:
            # int true division rounds n / den correctly, as float(Fraction) does
            terms = self._ascending()
            self._floats = (np.array([float(b + j) for b, j, _, _ in terms]),
                            np.array([n / den for _, _, n, den in terms]))
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
        for b, den, nums in self._blocks:
            # sum_j n_j / (den (b + 1 + j)) over the lcm L of the q_j = pd (b + 1 + j)
            p1 = b + 1
            pn, pd = p1.numerator, p1.denominator
            qs = [pn + j * pd if n else 1 for j, n in enumerate(nums)]
            L = math.lcm(*qs)
            total += Fraction(pd * sum(n * (L // q) for n, q in zip(nums, qs)), den * L)
        return total

    def integrate01(self) -> float:
        """int_0^1 of this power sum, its exact value rounded once."""
        return float(self.exact_integral01())
