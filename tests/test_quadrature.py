import math
from dataclasses import replace

import numpy as np
import pytest

from rellich.errors import DivergenceError, DomainError
from rellich.quadrature import (
    OriginSubstitution,
    QuadratureSpec,
    classify_origin_integral,
    count_quadrature,
    integrate,
    integrate_halfline,
    integrate_logweighted,
)

SPEC = QuadratureSpec()


def test_smooth_integral():
    res = integrate(np.sin, 0.0, math.pi, SPEC)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-13)


@pytest.mark.parametrize("eps", [0.5, 0.05, 0.005])
def test_golden_power_singularity(eps):
    res = integrate_logweighted(-1.0 + 2 * eps, [], None, SPEC)
    assert res.converged
    assert res.value == pytest.approx(1.0 / (2 * eps), rel=1e-10)


def test_golden_iterated_log_antiderivatives():
    # antiderivative of X_1^2/r is X_1, so the integral over (0,1] is exactly 1
    res = integrate_logweighted(-1.0, [1.0], None, SPEC)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-10)
    for a in (1.0, 0.1):
        res = integrate_logweighted(-1.0, [a], None, SPEC)
        assert res.converged
        assert res.value == pytest.approx(1.0 / a, rel=1e-10)


def test_error_estimates_are_honest():
    cases = [
        (lambda: integrate_logweighted(-0.9, [], None, SPEC), 10.0),
        (lambda: integrate_logweighted(-1.0, [1.0], None, SPEC), 1.0),
        (lambda: integrate(np.cos, 0.0, 1.0, SPEC), math.sin(1.0)),
    ]
    for run, exact in cases:
        res = run()
        true_err = abs(res.value - exact)
        assert true_err <= 3.0 * res.error_estimate + 1e-15


def test_substitution_invariance_on_regular_integrand():
    f = lambda r: np.cos(3 * r) * r**2
    plain = integrate(f, 0.0, 1.0, SPEC)
    logged = integrate(f, 0.0, 1.0, replace(SPEC, origin_substitution=OriginSubstitution.LOG))
    assert abs(plain.value - logged.value) <= plain.error_estimate + logged.error_estimate + 1e-14


def test_non_convergence_is_reported_not_silent():
    rough = replace(SPEC, max_subdivisions=4, rel_tol=1e-14)
    res = integrate(lambda r: np.abs(r - 1 / math.pi) ** -0.5, 0.0, 1.0, rough)
    assert not res.converged


def test_halfline_matches_exponential():
    res = integrate_halfline(lambda s: np.exp(-0.3 * s), 0.0, SPEC)
    assert res.converged
    assert res.value == pytest.approx(1.0 / 0.3, rel=1e-11)


def test_logweighted_matches_generic_quadrature():
    # mass within double-precision radii: the r-space oracle resolves it fully
    eps, a = 0.05, 0.1
    res = integrate_logweighted(-1.0 + 2 * eps, [a], None, SPEC)

    def explicit(r):
        x1 = 1.0 / (1.0 - np.log(r))
        return r ** (-1.0 + 2 * eps) * x1 ** (1.0 + a)

    ref = integrate(explicit, 0.0, 1.0, replace(SPEC, origin_substitution=OriginSubstitution.LOG))
    assert ref.converged
    assert res.value == pytest.approx(ref.value, rel=1e-10)
    # deeper singularity: the r-space oracle is truncated at denormal radii,
    # so it can only confirm to its own (honestly reported) tail error
    eps = 0.01
    res = integrate_logweighted(-1.0 + 2 * eps, [a], None, SPEC)
    ref = integrate(explicit := (lambda r: r ** (-1.0 + 2 * eps) * (1.0 / (1.0 - np.log(r))) ** (1.0 + a)),
                    0.0, 1.0, replace(SPEC, origin_substitution=OriginSubstitution.LOG))
    assert abs(res.value - ref.value) <= 3.0 * ref.error_estimate


def test_logweighted_divergence_cascade():
    with pytest.raises(DivergenceError):
        integrate_logweighted(-1.0, [-0.5], None, SPEC)
    with pytest.raises(DivergenceError):
        integrate_logweighted(-1.0, [0.0, 0.0], None, SPEC)
    with pytest.raises(DivergenceError):
        integrate_logweighted(-1.2, [1.0], None, SPEC)
    # eps = 0 with the first offset zero defers to the second offset
    res = integrate_logweighted(-1.0, [0.0, 0.2], None, SPEC)
    assert res.value > 0.0


def test_logweighted_with_cutoff():
    from rellich.minseq import CutoffSpec

    cut = CutoffSpec()
    res = integrate_logweighted(-0.5, [], cut, SPEC)
    full = integrate_logweighted(-0.5, [], None, SPEC)
    assert 0.0 < res.value < full.value


def test_classification_finite_and_divergent():
    kind, value = classify_origin_integral(lambda r: r**-0.5, SPEC)
    assert kind == "finite"
    assert value == pytest.approx(2.0, rel=1e-6)
    kind, _ = classify_origin_integral(lambda r: 1.0 / r, SPEC)
    assert kind == "divergent"
    # log-type divergence: increments decay like 1/j but never summably
    kind, _ = classify_origin_integral(lambda r: 1.0 / (r * (1.0 - np.log(r))), SPEC)
    assert kind == "divergent"
    kind, value = classify_origin_integral(lambda r: np.zeros_like(r), SPEC)
    assert kind == "finite"
    assert value == 0.0


def test_spec_validation():
    with pytest.raises(DomainError):
        QuadratureSpec(rel_tol=0.0)
    with pytest.raises(DomainError):
        integrate(np.sin, 1.0, 0.5, SPEC)


def test_breakpoints_split_kinked_integrand():
    f = lambda r: np.abs(r - 0.5)
    with_bp = integrate(f, 0.0, 1.0, SPEC, breakpoints=(0.5,))
    assert with_bp.converged
    assert with_bp.value == pytest.approx(0.25, rel=1e-13)


def test_count_quadrature_counts_each_entry_call_once():
    log = replace(SPEC, origin_substitution=OriginSubstitution.LOG)
    with count_quadrature() as outer:
        first = integrate(lambda r: r**-0.5, 0.0, 1.0, log)  # nests the half-line rule
        with count_quadrature() as inner:
            rough = integrate(lambda r: np.sin(200.0 * r), 0.0, 1.0, replace(SPEC, max_subdivisions=1))
    assert first.converged and not rough.converged
    assert (inner.calls, inner.evaluations, inner.unconverged) == (1, rough.evaluations, 1)
    assert (outer.calls, outer.unconverged) == (2, 1)
    assert outer.evaluations == first.evaluations + rough.evaluations
    integrate(lambda r: r, 0.0, 1.0, SPEC)
    assert outer.calls == 2  # the block has closed
