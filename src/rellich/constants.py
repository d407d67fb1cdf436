"""Closed-form and minimized best constants for the Hardy-Rellich family.

Everything here is exact arithmetic where the formula is rational in integer
inputs (fractions.Fraction), with floats on the irrational branches.  The
piecewise weighted constant a_{m,N} is produced by a guarded minimization
over spherical modes together with the threshold analysis (m*, m^1_k, m^2_k,
x_0) that labels which branch the parameters fall in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from numbers import Rational

from .errors import DomainError

__all__ = [
    "ConstantReport",
    "TermSpec",
    "HigherOrderVariant",
    "hardy_constant",
    "rellich_constant",
    "rellich_grad_constant",
    "sigma",
    "sigma_bar",
    "per_mode_quotient",
    "mode_eigenvalue",
    "a_mn",
    "m_star",
    "k_bar",
    "m1k",
    "m2k",
    "x0",
    "reduction_constant_A",
    "higher_order_coefficients",
    "section2_constants",
    "brezis_vazquez_z0",
]


@dataclass
class ConstantReport:
    """A computed constant plus branch metadata.

    ``exact`` carries the value as a Fraction whenever the inputs were
    rational and the active formula is rational in them.
    """

    value: float
    exact: Fraction | None = None
    argmin_k: int | None = None
    branch: str | None = None
    per_mode_values: list[tuple[int, float]] | None = None


def _as_exact(x):
    """Fraction for int/Fraction inputs and floats with exact binary value."""
    if isinstance(x, Rational):
        return Fraction(x)
    return Fraction(float(x))


def _check_dimension(N: int, minimum: int) -> int:
    if N != int(N) or N < minimum:
        raise DomainError(f"dimension must be an integer >= {minimum}, got {N}")
    return int(N)


def _check_weight(m, N: int):
    mf = float(m)
    if not 0 <= mf < (N - 4) / 2:
        raise DomainError(f"weight exponent must satisfy 0 <= m < (N-4)/2 = {(N-4)/2}, got {m}")
    return mf


def hardy_constant(N: int) -> float:
    """((N-2)/2)^2, the sharp gradient-vs-u^2/|x|^2 constant; N >= 3."""
    N = _check_dimension(N, 3)
    return float(Fraction(N - 2, 2) ** 2)


def rellich_constant(N: int) -> float:
    """(N(N-4)/4)^2, the sharp Laplacian-vs-u^2/|x|^4 constant; N >= 5."""
    N = _check_dimension(N, 5)
    return float(Fraction(N * (N - 4), 4) ** 2)


def rellich_grad_constant(N: int) -> float:
    """N^2/4, the sharp Laplacian-vs-gradient/|x|^2 constant; N >= 5."""
    N = _check_dimension(N, 5)
    return float(Fraction(N * N, 4))


def mode_eigenvalue(k: int, N: int) -> int:
    """Laplace-Beltrami eigenvalue c_k = k(N+k-2) on the (N-1)-sphere."""
    if k < 0 or k != int(k):
        raise DomainError(f"mode index must be a nonnegative integer, got {k}")
    return int(k) * (N + int(k) - 2)


def _sigma_exact(m, N):
    m = _as_exact(m)
    return (Fraction(N + 2 * m) * (N - 4 - 2 * m) / 4) ** 2


def _sigma_bar_exact(m, N):
    m = _as_exact(m)
    return (1 + m) ** 2 + Fraction(N + 2 * m) * (N - 4 - 2 * m) / 8


def sigma(m, N: int) -> float:
    """((N+2m)(N-4-2m)/4)^2, the weighted Rellich constant; 0 <= m < (N-4)/2."""
    N = _check_dimension(N, 5)
    _check_weight(m, N)
    return float(_sigma_exact(m, N))


def sigma_bar(m, N: int) -> float:
    """(1+m)^2 + (N+2m)(N-4-2m)/8, the weighted series coefficient."""
    N = _check_dimension(N, 5)
    _check_weight(m, N)
    return float(_sigma_bar_exact(m, N))


def _per_mode_exact(k: int, N: int, m) -> Fraction:
    ck = mode_eigenvalue(k, N)
    m = _as_exact(m)
    beta = Fraction(N - 4 - 2 * m) * (N + 2 * m) / 4
    return (beta + ck) ** 2 / (Fraction(N - 4 - 2 * m, 1) ** 2 / 4 + ck)


def per_mode_quotient(k: int, N: int, m) -> float:
    """The k-th candidate for the weighted gradient-Rellich constant.

    A(k, N, m) = ((N-4-2m)(N+2m)/4 + c_k)^2 / (((N-4-2m)/2)^2 + c_k).
    """
    N = _check_dimension(N, 5)
    _check_weight(m, N)
    return float(_per_mode_exact(k, N, m))


def m_star(N: int) -> float:
    """Threshold below which the k = 0 candidate wins: (-(N+4)+2 sqrt(N^2-N+1))/6."""
    N = _check_dimension(N, 5)
    return (-(N + 4) + 2.0 * math.sqrt(N * N - N + 1)) / 6.0


def k_bar(N: int) -> int:
    """Largest mode index that can carry the minimum: floor((sqrt(3)/3 - 1/2)(N-2))."""
    N = _check_dimension(N, 5)
    return int(math.floor((math.sqrt(3.0) / 3.0 - 0.5) * (N - 2)))


def _threshold_discriminant(N: int, k: int) -> int:
    return (N - 2) ** 2 - 12 * mode_eigenvalue(k, N)


def m1k(N: int, k: int) -> float | None:
    """Lower threshold (2(N-5) - sqrt((N-2)^2 - 12 c_k))/6; None when no threshold."""
    N = _check_dimension(N, 5)
    if k < 1:
        raise DomainError("thresholds are indexed by k >= 1")
    D = _threshold_discriminant(N, k)
    if D <= 0:
        return None
    return (2 * (N - 5) - math.sqrt(D)) / 6.0


def m2k(N: int, k: int) -> float | None:
    """Upper threshold (2(N-5) + sqrt((N-2)^2 - 12 c_k))/6; None when no threshold."""
    N = _check_dimension(N, 5)
    if k < 1:
        raise DomainError("thresholds are indexed by k >= 1")
    D = _threshold_discriminant(N, k)
    if D <= 0:
        return None
    return (2 * (N - 5) + math.sqrt(D)) / 6.0


def x0(N: int, m) -> float:
    """Location of the minimum of the per-mode candidate in the eigenvalue variable.

    x_0 = (N-4-2m)(-N+6m+8)/4; the minimizing modes are those whose c_k
    bracket it (when positive).
    """
    N = _check_dimension(N, 5)
    _check_weight(m, N)
    mq = _as_exact(m)
    return float(Fraction(N - 4 - 2 * mq) * (-N + 6 * mq + 8) / 4)


def _branch_label(N: int, mf: float) -> str:
    """Which interval of the threshold decomposition contains m."""
    ms = m_star(N)
    if mf <= ms:
        return "m <= m*"
    kb = k_bar(N)
    if N <= 8 or kb <= 1:
        return "m > m* (single comparison, candidates {0, 1})"
    m1 = {k: m1k(N, k) for k in range(1, kb + 1)}
    m2 = {k: m2k(N, k) for k in range(1, kb + 1)}
    m1[0] = (N - 8) / 6.0
    m2[0] = (N - 4) / 2.0
    for k in range(0, kb):
        lo1, hi1 = m1[k], m1[k + 1]
        if lo1 is not None and hi1 is not None and lo1 < mf <= hi1:
            return f"(m1_{k}, m1_{k+1}]: candidates {{{k}, {k+1}}}"
        hi2, lo2 = m2[k], m2[k + 1]
        if lo2 is not None and hi2 is not None and lo2 <= mf < hi2:
            return f"[m2_{k+1}, m2_{k}): candidates {{{k}, {k+1}}}"
    return f"(m1_{kb}, m2_{kb}): candidates {{{kb}, {kb+1}}}"


def a_mn(N: int, m, per_mode: bool = False) -> ConstantReport:
    """The best weighted gradient-Rellich constant: min_k of the per-mode quotients.

    Searches k up to k_bar(N) + 2 (the proven bound plus a safety margin),
    reports the argmin and the threshold branch, and carries the exact
    rational value when m is rational.
    """
    N = _check_dimension(N, 5)
    mf = _check_weight(m, N)
    kmax = k_bar(N) + 2
    candidates = [(_per_mode_exact(k, N, m), k) for k in range(kmax + 1)]
    best, best_k = min(candidates, key=lambda it: (it[0], it[1]))
    if best_k > k_bar(N) + 1:
        raise AssertionError("minimizing mode exceeded the proven search bound")
    exact = best if isinstance(m, Rational) else None
    report = ConstantReport(
        value=float(best),
        exact=exact,
        argmin_k=best_k,
        branch=_branch_label(N, mf),
        per_mode_values=[(k, float(v)) for v, k in candidates] if per_mode else None,
    )
    return report


def reduction_constant_A(N: int, m) -> float:
    """Best constant for the v-gradient lower bound of the weighted Rellich deficit.

    Piecewise in m with the switch at (-2 + sqrt(N-1))/2; the boundary point is
    assigned to the small-m branch.
    """
    N = _check_dimension(N, 5)
    _check_weight(m, N)
    mq = _as_exact(m)
    switch = (-2 + math.sqrt(N - 1)) / 2.0
    if float(m) <= switch:
        return float(4 * (1 + mq) ** 2 + Fraction(N + 2 * mq) * (N - 4 - 2 * mq) / 2)
    return float((N - 1) + Fraction(N + 2 * mq) * (N - 4 - 2 * mq) / 2)


class HigherOrderVariant(Enum):
    """The three polyharmonic improvement chains.

    RELLICH_CHAIN: (Delta^m u)^2 reduced by weighted Rellich steps, landing on
    (Delta^{m-l-1} u)^2 / |x|^{4l+4}.
    GRADIENT_CHAIN: |grad Delta^m u|^2 reduced by one Hardy step then weighted
    Rellich steps, landing on (Delta^{m-l} u)^2 / |x|^{4l+2}.
    ALTERNATING_CHAIN: (Delta^m u)^2 reduced by alternating gradient-Rellich
    and weighted-Hardy steps, landing on (Delta^{m-l} u)^2 / |x|^{4l}.
    """

    RELLICH_CHAIN = "rellich-chain"
    GRADIENT_CHAIN = "gradient-chain"
    ALTERNATING_CHAIN = "alternating-chain"


@dataclass(frozen=True)
class TermSpec:
    """One right-hand-side term of a higher-order improvement inequality.

    kind: "laplacian" for (Delta^d u)^2 densities, "gradient" for
    |grad Delta^d u|^2 densities.  weight_power w means division by |x|^w.
    with_series marks terms carrying the iterated-log correction weight.
    """

    kind: str
    delta_order: int
    weight_power: int
    with_series: bool


def _alternating_upper_l(N: int) -> float:
    return (-N + 8 + 2 * math.sqrt(N * N - N + 1)) / 12.0


def higher_order_coefficients(N: int, m: int, l: int, variant: HigherOrderVariant):
    """Ordered (TermSpec, coefficient) pairs for a polyharmonic improvement.

    ``m`` is the polyharmonic order (the operator is Delta^m), requiring
    4m < N; ``l`` counts reduction steps.  Coefficients are exact Fractions.
    The left-hand side is (Delta^m u)^2 for the Laplacian chains and
    |grad Delta^m u|^2 for the gradient chain.
    """
    N = _check_dimension(N, 5)
    if m != int(m) or m < 1:
        raise DomainError(f"polyharmonic order must be a positive integer, got {m}")
    m = int(m)
    if 4 * m >= N:
        raise DomainError(f"need 4m < N, got m={m}, N={N}")
    if l != int(l):
        raise DomainError("l must be an integer")
    l = int(l)

    hardy = Fraction(N - 2, 2) ** 2
    terms: list[tuple[TermSpec, Fraction]] = []
    if variant is HigherOrderVariant.RELLICH_CHAIN:
        if not 0 <= l <= m - 1:
            raise DomainError(f"need 0 <= l <= m-1 = {m-1}, got l={l}")
        lead = math.prod((_sigma_exact(2 * j, N) for j in range(l + 1)), start=Fraction(1))
        terms.append((TermSpec("laplacian", m - l - 1, 4 * l + 4, False), lead))
        for k in range(1, l + 1):
            coeff = _sigma_bar_exact(2 * k, N) * math.prod(
                (_sigma_exact(2 * j, N) for j in range(k)), start=Fraction(1)
            )
            terms.append((TermSpec("laplacian", m - k - 1, 4 * k + 4, True), coeff))
        terms.append((TermSpec("laplacian", m - 1, 4, True), 1 + Fraction(N * (N - 4), 8)))
    elif variant is HigherOrderVariant.GRADIENT_CHAIN:
        if not 0 <= l <= m - 1:
            raise DomainError(f"need 0 <= l <= m-1 = {m-1}, got l={l}")
        lead = hardy * math.prod((_sigma_exact(2 * j + 1, N) for j in range(l)), start=Fraction(1))
        terms.append((TermSpec("laplacian", m - l, 4 * l + 2, False), lead))
        for k in range(2, l + 1):
            coeff = hardy * _sigma_bar_exact(2 * k - 1, N) * math.prod(
                (_sigma_exact(2 * j + 1, N) for j in range(k - 1)), start=Fraction(1)
            )
            terms.append((TermSpec("laplacian", m - k, 4 * k + 2, True), coeff))
        if l >= 1:
            # the first Rellich step's own improvement series
            terms.append((TermSpec("laplacian", m - 1, 6, True), hardy * _sigma_bar_exact(1, N)))
        terms.append((TermSpec("laplacian", m, 2, True), Fraction(1, 4)))
    elif variant is HigherOrderVariant.ALTERNATING_CHAIN:
        upper = _alternating_upper_l(N)
        if not (1 <= l <= upper):
            raise DomainError(f"need 1 <= l <= {upper:.6g}, got l={l}")
        if l > m:
            raise DomainError(f"need l <= m = {m}, got l={l}")
        lead = math.prod((_sigma_exact(2 * j, N) for j in range(l)), start=Fraction(1))
        terms.append((TermSpec("laplacian", m - l, 4 * l, False), lead))
        # The k-th round applies the weighted gradient-Rellich improvement at
        # weight 2(k-1) (its validity range is exactly the stated l-bound)
        # and then the weighted Hardy improvement; each contributes its 1/4
        # series scaled by the constants accumulated in earlier rounds.
        for k in range(1, l + 1):
            acc = math.prod((_sigma_exact(2 * j, N) for j in range(k - 1)), start=Fraction(1))
            terms.append((TermSpec("gradient", m - k, 4 * k - 2, True), acc / 4))
        for k in range(1, l + 1):
            acc = math.prod((_sigma_exact(2 * j, N) for j in range(k - 1)), start=Fraction(1))
            coeff = acc * Fraction(N + 4 * (k - 1)) ** 2 / 16
            terms.append((TermSpec("laplacian", m - k, 4 * k, True), coeff))
    else:  # pragma: no cover - exhaustive enum
        raise DomainError(f"unknown variant {variant}")
    return terms


def _section2_exact(N: int) -> dict[str, Fraction]:
    N = _check_dimension(N, 5)
    return {
        "rellich-deficit-vgrad": 4 + Fraction(N * (N - 4), 2),
        "rellich-deficit-vlap": Fraction(1, 2) + Fraction(2, (N - 2) ** 2),
        "gradrellich-deficit-vgrad": Fraction(N - 4, 2) ** 2,
        "v-laplacian-radial-excess": Fraction(2 * (N - 2) ** 2),
        "gradrellich-deficit-vlap": Fraction(N - 4, 2 * (N - 2)) ** 2,
        "rellich-gradient": Fraction(N * N, 4),
    }


def section2_constants(N: int) -> dict[str, float]:
    """The six sharp constants of the v-side deficit inequalities, keyed by
    the verification registry's inequality identifiers."""
    return {key: float(value) for key, value in _section2_exact(N).items()}


#: First zero of the order-zero Bessel function, to double precision.
_BESSEL_J0_FIRST_ZERO = 2.404825557695773


def brezis_vazquez_z0() -> float:
    """First positive zero of J_0, the coefficient of the L^2 remainder in the
    sharpened Hardy inequality on bounded domains."""
    return _BESSEL_J0_FIRST_ZERO
