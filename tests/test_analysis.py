import math

import numpy as np
import pytest

from hilferbvp.analysis import (
    CERT_CONTRACTION,
    CERT_KERNEL_BOUND,
    CERT_MU_NONZERO,
    CERT_RHS_NONNEGATIVE,
    check_kernel_bound,
    check_mu,
    contraction_certificate,
    hypothesis_report,
)
from hilferbvp.core import DerivedConstants, HilferProblem, derive_constants
from hilferbvp.errors import SingularProblem


def problem_with(rhs, alpha=0.5, beta=0.5, lam=0.0, d=1.0, **kw):
    return HilferProblem(alpha=alpha, beta=beta, lam=lam, d=d, rhs=rhs, **kw)


class TestCheckMu:
    def test_lambda_zero(self):
        cert = check_mu(derive_constants(problem_with(lambda t, y: 1.0)))
        assert cert.holds
        assert cert.value == 1.0

    def test_exact_cancellation_fails(self):
        # lam = Gamma(gamma+1) makes mu exactly zero; build the constants by
        # hand since derive_constants refuses them.
        consts = DerivedConstants(gamma=0.75, mu=0.0, capital_lambda=math.inf)
        cert = check_mu(consts)
        assert not cert.holds
        assert cert.value == 0.0

    def test_positive_case_against_gamma_oracle(self):
        # mu = 1 - 0.2/Gamma(1.75) = 0.78238694957379653838 (mpmath)
        consts = derive_constants(problem_with(lambda t, y: 1.0, lam=0.2))
        cert = check_mu(consts)
        assert cert.holds
        assert cert.value == pytest.approx(0.78238694957379653838, rel=1e-15)
        assert "positive: True" in cert.detail

    def test_negative_mu_recorded(self):
        consts = derive_constants(problem_with(lambda t, y: 1.0,
                                               alpha=0.9, beta=0.0, lam=2.0))
        cert = check_mu(consts)
        assert not cert.holds
        assert "positive: False" in cert.detail


class TestKernelBound:
    def test_alpha_one(self):
        cert = check_kernel_bound(1.0, grid_size=100)
        assert cert.holds
        assert cert.value == pytest.approx(1.0, rel=1e-15)

    def test_alpha_half(self):
        # sup = Q(0)/Gamma(0.5) = 2/sqrt(pi) = 1.1283791670955125739 (mpmath)
        cert = check_kernel_bound(0.5)
        assert cert.holds
        assert cert.value == pytest.approx(1.1283791670955125739, rel=1e-14)

    def test_alpha_near_pole(self):
        # Q(0)/Gamma(0.01) = 100/99.432585119150601632 (mpmath)
        #                  = 1.0057065285003850596
        cert = check_kernel_bound(0.01)
        assert cert.holds
        assert cert.value == pytest.approx(1.0057065285003850596, rel=1e-13)

    def test_log_spaced_orders_all_hold(self):
        for alpha in np.logspace(-3, 0, 60):
            assert check_kernel_bound(float(alpha), grid_size=200).holds

    def test_validation(self):
        with pytest.raises(ValueError):
            check_kernel_bound(0.0)
        with pytest.raises(ValueError):
            check_kernel_bound(0.5, grid_size=1)


class TestContractionCertificate:
    def test_zero_lipschitz(self):
        consts = derive_constants(problem_with(lambda t, y: 1.0, lam=0.2))
        cert = contraction_certificate(consts, 0.5, 0.2, 0.0)
        assert cert.holds
        assert cert.value == 0.0

    def test_boundary_case_exactly_one(self):
        consts = derive_constants(problem_with(lambda t, y: 1.0, lam=0.0))
        lipschitz = math.gamma(1.5)
        cert = contraction_certificate(consts, 0.5, 0.0, lipschitz)
        assert cert.value == 1.0
        assert not cert.holds

    def test_reference_case(self):
        # (0.2 e/(Gamma(0.75) mu) + 1/Gamma(1.5)) * 0.25
        #   = 0.42385655067671243746  (mpmath, 30 digits)
        consts = derive_constants(problem_with(lambda t, y: 1.0, lam=0.2))
        cert = contraction_certificate(consts, 0.5, 0.2, 0.25)
        assert cert.holds
        assert cert.value == pytest.approx(0.42385655067671243746, rel=1e-14)

    def test_monotone_in_lipschitz_and_lambda(self):
        consts = derive_constants(problem_with(lambda t, y: 1.0, lam=0.2))
        values = [contraction_certificate(consts, 0.5, 0.2, L).value
                  for L in (0.1, 0.3, 0.9, 2.0)]
        assert all(b > a for a, b in zip(values, values[1:]))
        lams = (0.0, 0.2, 0.5)
        by_lam = []
        for lam in lams:
            c = derive_constants(problem_with(lambda t, y: 1.0, lam=lam))
            by_lam.append(contraction_certificate(c, 0.5, lam, 0.5).value)
        assert all(b > a for a, b in zip(by_lam, by_lam[1:]))

    def test_nonpositive_mu_rejected(self):
        consts = derive_constants(problem_with(lambda t, y: 1.0,
                                               alpha=0.9, beta=0.0, lam=2.0))
        with pytest.raises(SingularProblem):
            contraction_certificate(consts, 0.9, 2.0, 0.1)


class TestHypothesisReport:
    def test_constant_problem_all_hold(self):
        p = problem_with(lambda t, y: 1.0, lipschitz=0.0)
        certs = hypothesis_report(p)
        names = [c.name for c in certs]
        assert names == [CERT_RHS_NONNEGATIVE, CERT_MU_NONZERO,
                         CERT_KERNEL_BOUND, CERT_CONTRACTION]
        assert all(c.holds for c in certs)

    def test_forced_singularity_reported_not_raised(self):
        lam = math.gamma(1.75)
        p = problem_with(lambda t, y: 1.0, lam=lam, lipschitz=0.1)
        certs = hypothesis_report(p)
        by_name = {c.name: c for c in certs}
        assert not by_name[CERT_MU_NONZERO].holds
        assert by_name[CERT_RHS_NONNEGATIVE].holds
        assert by_name[CERT_KERNEL_BOUND].holds
        assert CERT_CONTRACTION not in by_name   # not evaluable at mu = 0

    def test_steep_rhs_fails_contraction_only(self):
        # L_f = 2 over y in [0, 1] exceeds Gamma(alpha+1) for alpha = 0.5.
        p = problem_with(lambda t, y: y ** 2, lipschitz=2.0)
        certs = hypothesis_report(p)
        by_name = {c.name: c for c in certs}
        assert by_name[CERT_RHS_NONNEGATIVE].holds
        assert by_name[CERT_MU_NONZERO].holds
        assert by_name[CERT_KERNEL_BOUND].holds
        assert not by_name[CERT_CONTRACTION].holds

    def test_negative_rhs_flagged(self):
        p = problem_with(lambda t, y: math.sin(8.0 * t) - 0.5)
        certs = hypothesis_report(p)
        assert not certs[0].holds

    def test_without_lipschitz_no_contraction_row(self):
        p = problem_with(lambda t, y: 1.0)
        assert all(c.name != CERT_CONTRACTION for c in hypothesis_report(p))

    def test_deterministic(self):
        p = problem_with(lambda t, y: 1.0 + y / (1.0 + y), lipschitz=1.0)
        first = hypothesis_report(p)
        second = hypothesis_report(p)
        assert [(c.name, c.value, c.holds) for c in first] == \
               [(c.name, c.value, c.holds) for c in second]
