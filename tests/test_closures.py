import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coevnet.closures import (
    ClosureKind,
    ClosureTrajectory,
    closure_rhs,
    closure_rhs_array,
    continue_small_epsilon,
    decay_envelope_check,
    finite_difference_jacobian,
    integrate_closure,
    linearized_jacobian,
    polarization_stable,
    stationary_mixed_h,
    stationary_polarized,
    weight_averaged_rhs,
)
from coevnet.errors import ConsensusBoundary, ContinuationFailed, ModelError
from coevnet.models import MinimalParams
from coevnet.moments import MinimalMoments

KINDS = (ClosureKind.CONDITIONAL, ClosureKind.KIRKWOOD)


def random_moments(rng, floor=0.02):
    raw = rng.random(6) + floor
    raw /= raw[0] + raw[1] + raw[2] + raw[3] + 2 * raw[4] + 2 * raw[5]
    return MinimalMoments(*raw)


def random_params(rng, scale=2.0, beta_pm=None):
    vals = rng.uniform(0.05, scale, size=8)
    if beta_pm is not None:
        vals[4] = beta_pm
    return MinimalParams(*vals)


def rho_p_of(y):
    return y[0] + y[1] + y[4] + y[5]


class TestClosureRhs:
    def test_zero_rates_give_zero_derivative(self):
        rng = np.random.default_rng(0)
        m = random_moments(rng)
        for kind in KINDS:
            assert np.all(closure_rhs(m, MinimalParams(), kind) == 0.0)

    def test_stationary_family_has_zero_rhs(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = random_params(rng, beta_pm=0.0)
            rho = rng.uniform(0.1, 0.9)
            g_pm = rng.uniform(0, min(rho, 1 - rho))
            m = stationary_polarized(p, rho, g_pm)
            for kind in KINDS:
                assert np.max(np.abs(closure_rhs(m, p, kind))) < 1e-14

    def test_rho_plus_frozen_for_equal_alpha(self):
        m = MinimalMoments(0.2, 0.1, 0.2, 0.1, 0.15, 0.05)
        p = MinimalParams(alpha_pm=1.0, alpha_mp=1.0, beta_pp=0.5, beta_mm=0.5,
                          beta_pm=0.5, gamma_pp=0.5, gamma_mm=0.5, gamma_pm=0.5)
        for kind in KINDS:
            rhs = closure_rhs(m, p, kind)
            drho = rhs[0] + rhs[1] + rhs[4] + rhs[5]
            assert abs(drho) < 1e-15

    def test_rho_plus_evolution_identity(self):
        # conditional: drho_+ = (a_mp - a_pm)/2 * f_pm; kirkwood carries the
        # extra mixed-density quotient
        rng = np.random.default_rng(2)
        for _ in range(30):
            m = random_moments(rng)
            p = random_params(rng)
            rhs = closure_rhs(m, p, ClosureKind.CONDITIONAL)
            drho = rhs[0] + rhs[1] + rhs[4] + rhs[5]
            expected = 0.5 * (p.alpha_mp - p.alpha_pm) * m.f_pm
            assert drho == pytest.approx(expected, rel=1e-10, abs=1e-14)

            rhs_k = closure_rhs(m, p, ClosureKind.KIRKWOOD)
            drho_k = rhs_k[0] + rhs_k[1] + rhs_k[4] + rhs_k[5]
            mix = (m.rho_m * m.h_pp + m.rho_p * m.h_mm) / (m.rho_p * m.rho_m)
            expected_k = 0.5 * (p.alpha_mp - p.alpha_pm) * mix \
                * m.h_pm / (m.rho_p * m.rho_m) * m.f_pm
            assert drho_k == pytest.approx(expected_k, rel=1e-10, abs=1e-14)

    def test_mass_conservation_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m = random_moments(rng)
            p = random_params(rng, scale=5.0)
            for kind in KINDS:
                rhs = closure_rhs(m, p, kind)
                total = rhs[0] + rhs[1] + rhs[2] + rhs[3] + 2 * rhs[4] + 2 * rhs[5]
                assert abs(total) < 1e-14

    def test_consensus_boundary_raises(self):
        m_arr = np.array([1.0 - 2e-11, 0.0, 0.0, 0.0, 1e-11, 0.0])
        p = MinimalParams(1, 1, 1, 1, 1, 1, 1, 1)
        with pytest.raises(ConsensusBoundary):
            closure_rhs_array(m_arr, p, ClosureKind.CONDITIONAL)

    def test_matches_triplet_integral_assembly(self):
        # the alpha part of the pair equations is the particle-1 flip
        # bookkeeping of the closure collision integral
        from coevnet.moments import kirkwood_triplet_integral
        rng = np.random.default_rng(4)
        p = MinimalParams(alpha_pm=1.3, alpha_mp=0.7)

        def U(s1, s3, w):
            if s1 == 1 and s3 == -1:
                return w * p.alpha_pm
            if s1 == -1 and s3 == 1:
                return w * p.alpha_mp
            return 0.0

        for _ in range(20):
            m = random_moments(rng)
            tri = kirkwood_triplet_integral(m, U)
            for kind, key in ((ClosureKind.CONDITIONAL, "conditional"),
                              (ClosureKind.KIRKWOOD, "kirkwood")):
                rhs = closure_rhs(m, p, kind)
                I = tri[key]
                # f_pp gain/loss: particle 1 of (+,+,1) flipping
                assert rhs[0] == pytest.approx(I[0, 1, 1] - I[1, 1, 1], rel=1e-11, abs=1e-15)
                # g_pp: unlinked (+,+) pair
                assert rhs[1] == pytest.approx(I[0, 1, 0] - I[1, 1, 0], rel=1e-11, abs=1e-15)


class TestWeightAveraged:
    def test_consistency_with_component_sums(self):
        rng = np.random.default_rng(5)
        for _ in range(10_000):
            m = random_moments(rng)
            p = random_params(rng)
            kind = KINDS[int(rng.random() < 0.5)]
            rhs = closure_rhs(m, p, kind)
            dh = weight_averaged_rhs(m, p, kind)
            assert abs(dh[0] - (rhs[0] + rhs[1])) < 1e-14
            assert abs(dh[1] - (rhs[2] + rhs[3])) < 1e-14
            assert abs(dh[2] - (rhs[4] + rhs[5])) < 1e-14

    def test_h_pm_is_minus_half_sum(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            m = random_moments(rng)
            p = random_params(rng)
            for kind in KINDS:
                dh = weight_averaged_rhs(m, p, kind)
                assert dh[2] == -0.5 * (dh[0] + dh[1])

    def test_zero_cross_links_freeze_h(self):
        m = MinimalMoments(0.3, 0.2, 0.2, 0.1, 0.0, 0.1)
        p = MinimalParams(1, 2, 3, 4, 5, 6, 7, 8)
        for kind in KINDS:
            assert weight_averaged_rhs(m, p, kind) == (0.0, 0.0, -0.0)


class TestIntegrate:
    def test_stationary_trajectory_constant(self):
        p = MinimalParams(alpha_pm=1, alpha_mp=1, beta_pp=1, beta_mm=1, beta_pm=0,
                          gamma_pp=1, gamma_mm=1, gamma_pm=2)
        m0 = stationary_polarized(p, 0.6, 0.1)
        for kind in KINDS:
            traj = integrate_closure(m0, p, kind, dt=1e-2, T=100.0, sample_stride=100)
            drift = np.max(np.abs(traj.moments - m0.as_array()))
            assert drift < 1e-12
            assert traj.status == "completed"

    def test_rho_conservation_equal_alpha(self):
        rng = np.random.default_rng(7)
        m0 = random_moments(rng)
        p = MinimalParams(alpha_pm=1.2, alpha_mp=1.2, beta_pp=0.5, beta_mm=0.7,
                          beta_pm=0.2, gamma_pp=0.4, gamma_mm=0.6, gamma_pm=0.8)
        for kind in KINDS:
            traj = integrate_closure(m0, p, kind, dt=1e-3, T=50.0, sample_stride=1000)
            assert np.max(np.abs(traj.rho_p - m0.rho_p)) <= 1e-10
            assert np.max(np.abs(traj.rho_p + traj.rho_m - 1.0)) <= 1e-10

    def test_gronwall_envelope_conditional(self):
        rng = np.random.default_rng(8)
        m0 = random_moments(rng)
        p = MinimalParams(alpha_pm=1, alpha_mp=1, beta_pp=0.5, beta_mm=0.5,
                          beta_pm=0.0, gamma_pp=0.5, gamma_mm=0.5, gamma_pm=2.0)
        traj = integrate_closure(m0, p, ClosureKind.CONDITIONAL, dt=1e-3, T=20.0,
                                 sample_stride=10)
        rep = decay_envelope_check(traj, p, ClosureKind.CONDITIONAL)
        assert rep.rate == pytest.approx(1.0)
        assert rep.holds

    def test_gronwall_envelope_kirkwood(self):
        rng = np.random.default_rng(9)
        m0 = random_moments(rng)
        p = MinimalParams(alpha_pm=1, alpha_mp=1, beta_pp=0.5, beta_mm=0.5,
                          beta_pm=0.0, gamma_pp=0.5, gamma_mm=0.5, gamma_pm=3.0)
        traj = integrate_closure(m0, p, ClosureKind.KIRKWOOD, dt=1e-3, T=20.0,
                                 sample_stride=10)
        rep = decay_envelope_check(traj, p, ClosureKind.KIRKWOOD)
        assert rep.rate == pytest.approx(1.0)
        assert rep.holds

    def test_envelope_zero_start_stays_zero(self):
        p = MinimalParams(alpha_pm=1, alpha_mp=1, beta_pp=1, beta_mm=1, beta_pm=0,
                          gamma_pp=1, gamma_mm=1, gamma_pm=2)
        m0 = stationary_polarized(p, 0.5, 0.2)
        traj = integrate_closure(m0, p, ClosureKind.CONDITIONAL, dt=1e-2, T=5.0)
        rep = decay_envelope_check(traj, p, ClosureKind.CONDITIONAL)
        assert rep.holds
        assert np.all(traj.f_pm == 0.0)

    def test_rho_monotone_with_flip_bias(self):
        rng = np.random.default_rng(10)
        m0 = random_moments(rng)
        p = MinimalParams(alpha_pm=0.5, alpha_mp=1.5, beta_pp=0.5, beta_mm=0.5,
                          beta_pm=0.5, gamma_pp=0.5, gamma_mm=0.5, gamma_pm=0.5)
        for kind in KINDS:
            traj = integrate_closure(m0, p, kind, dt=1e-3, T=5.0, sample_stride=100)
            diffs = np.diff(traj.rho_p)
            assert np.all(diffs >= -1e-14)

    def test_nonnegativity_random_sweeps(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            m0 = random_moments(rng, floor=0.01)
            p = random_params(rng, scale=8.0)
            for kind in KINDS:
                traj = integrate_closure(m0, p, kind, dt=1e-3, T=5.0, sample_stride=100)
                assert traj.moments.min() >= -1e-9

    def test_cross_mass_integral_bound(self):
        # (a_mp - a_pm)/2 * integral of f_pm stays below 1
        rng = np.random.default_rng(12)
        m0 = random_moments(rng)
        p = MinimalParams(alpha_pm=0.3, alpha_mp=2.0, beta_pp=0.5, beta_mm=0.5,
                          beta_pm=0.4, gamma_pp=0.5, gamma_mm=0.5, gamma_pm=0.5)
        traj = integrate_closure(m0, p, ClosureKind.CONDITIONAL, dt=1e-3, T=50.0,
                                 sample_stride=10)
        integral = np.trapezoid(traj.f_pm, traj.times)
        assert 0.5 * (p.alpha_mp - p.alpha_pm) * integral <= 1.0 + 1e-6

    def test_consensus_stop(self):
        # strong bias toward plus drives rho_- to zero in finite time
        m0 = MinimalMoments(0.05, 0.05, 0.05, 0.05, 0.38, 0.02)
        p = MinimalParams(alpha_pm=0.0, alpha_mp=8.0, beta_pp=1, beta_mm=1,
                          beta_pm=1, gamma_pp=1, gamma_mm=1, gamma_pm=0.1)
        traj = integrate_closure(m0, p, ClosureKind.CONDITIONAL, dt=1e-3, T=200.0,
                                 sample_stride=10)
        assert traj.status == "consensus_boundary"
        assert traj.times[-1] < 200.0

    def test_kirkwood_artifact_flag(self):
        m0 = MinimalMoments(1e-4, 1e-4, 1e-4, 1e-4, 0.2498, 0.25)
        p = MinimalParams(1, 1, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
        traj = integrate_closure(m0, p, ClosureKind.KIRKWOOD, dt=1e-3, T=0.1)
        assert traj.kirkwood_artifact


_unit = st.floats(0.0, 1.0)
_rates = st.lists(st.floats(0.0, 2.0), min_size=8, max_size=8).map(lambda v: MinimalParams(*v))


@st.composite
def on_product_manifold(draw):
    """Moments with h_pp = rho_+^2, h_mm = rho_-^2, h_pm = rho_+ rho_- and any
    link fractions, where the three Kirkwood factors are 1."""
    rho = draw(st.floats(0.05, 0.95))
    h = (rho * rho, (1.0 - rho) ** 2, rho * (1.0 - rho))
    links = [draw(_unit) for _ in h]
    return MinimalMoments(*[v for hk, lk in zip(h, links) for v in (lk * hk, (1.0 - lk) * hk)])


class TestProductManifold:
    """Kirkwood equals conditional on the product manifold, which the flow keeps."""

    @settings(max_examples=150)
    @given(on_product_manifold(), _rates)
    def test_closure_rhs_agrees_to_rounding(self, m, p):
        gap = closure_rhs(m, p, ClosureKind.KIRKWOOD) - closure_rhs(m, p, ClosureKind.CONDITIONAL)
        assert np.max(np.abs(gap)) <= 1e-15

    @settings(max_examples=20)
    @given(on_product_manifold(), _rates)
    def test_trajectories_agree_to_rounding(self, m, p):
        a, b = (integrate_closure(m, p, kind, dt=1e-3, T=2.0) for kind in KINDS)
        assert a.status == b.status and np.array_equal(a.times, b.times)
        assert np.max(np.abs(a.moments - b.moments)) <= 1e-14


class TestStationaryPolarized:
    def test_reference_point(self):
        p = MinimalParams(alpha_pm=1, alpha_mp=1, beta_pp=1, beta_mm=1, beta_pm=0,
                          gamma_pp=1, gamma_mm=1, gamma_pm=2)
        m = stationary_polarized(p, 0.6, 0.1)
        assert m.as_array() == pytest.approx([0.25, 0.25, 0.15, 0.15, 0.0, 0.1])
        assert m.h_pp + m.h_mm + 2 * m.h_pm == pytest.approx(1.0, abs=1e-15)
        for kind in KINDS:
            assert np.max(np.abs(closure_rhs(m, p, kind))) <= 1e-15

    def test_consensus_corner(self):
        p = MinimalParams(beta_pp=1, gamma_pp=1, beta_mm=1, gamma_mm=1)
        m = stationary_polarized(p, 1.0, 0.0)
        assert m.f_pp + m.g_pp == pytest.approx(1.0)
        assert m.f_mm == m.g_mm == m.f_pm == m.g_pm == 0.0

    def test_boundary_g_pm(self):
        p = MinimalParams(beta_pp=1, gamma_pp=1, beta_mm=1, gamma_mm=1)
        m = stationary_polarized(p, 0.5, 0.5)
        assert m.f_pp == m.g_pp == m.f_mm == m.g_mm == 0.0
        assert m.g_pm == 0.5

    def test_invalid_inputs(self):
        p = MinimalParams(beta_pp=1, gamma_pp=1, beta_mm=1, gamma_mm=1)
        with pytest.raises(ModelError):
            stationary_polarized(p, 1.2, 0.0)
        with pytest.raises(ModelError):
            stationary_polarized(p, 0.5, 0.6)
        with pytest.raises(ModelError):
            stationary_polarized(MinimalParams(beta_pm=0.1, beta_pp=1, gamma_pp=1,
                                               beta_mm=1, gamma_mm=1), 0.5, 0.1)


class TestStationaryMixedH:
    def test_equal_alpha_exact(self):
        p = MinimalParams(alpha_pm=1.7, alpha_mp=1.7)
        h = stationary_mixed_h(p, 0.5)
        assert h == (0.25, 0.25, 0.25)
        h3 = stationary_mixed_h(p, 0.3)
        rho_p, rho_m = 0.3, 0.7
        assert h3 == (rho_p * rho_p, rho_m * rho_m, rho_p * rho_m)
        assert h3[0] + h3[1] + 2 * h3[2] == pytest.approx(1.0, abs=1e-15)

    def test_unequal_alpha(self):
        p = MinimalParams(alpha_pm=1.0, alpha_mp=2.0)
        h = stationary_mixed_h(p, 0.5)
        assert h[0] == pytest.approx(4.0 / 9.0)
        assert h[0] + h[1] + 2 * h[2] == pytest.approx(1.0, abs=1e-14)

    def test_h_equations_vanish_at_mixed_values(self):
        # with the densities held as parameters the mixed profile balances
        # the h-equations for any flip rates; the structural densities agree
        # with the parameters only at equal rates
        rng = np.random.default_rng(13)
        for _ in range(50):
            a = rng.uniform(0.2, 3.0, size=2)
            p = MinimalParams(alpha_pm=a[0], alpha_mp=a[1])
            rho = rng.uniform(0.1, 0.9)
            h_pp, h_mm, h_pm = stationary_mixed_h(p, rho)
            m = MinimalMoments(f_pp=h_pp, g_pp=0.0, f_mm=h_mm, g_mm=0.0,
                               f_pm=h_pm, g_pm=0.0)
            dh = weight_averaged_rhs(m, p, ClosureKind.CONDITIONAL,
                                     rho_override=(rho, 1 - rho))
            assert np.max(np.abs(dh)) < 1e-13

    def test_h_equations_vanish_without_override_for_equal_alpha(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            a = rng.uniform(0.2, 3.0)
            p = MinimalParams(alpha_pm=a, alpha_mp=a)
            rho = rng.uniform(0.1, 0.9)
            h_pp, h_mm, h_pm = stationary_mixed_h(p, rho)
            m = MinimalMoments(f_pp=h_pp, g_pp=0.0, f_mm=h_mm, g_mm=0.0,
                               f_pm=h_pm, g_pm=0.0)
            dh = weight_averaged_rhs(m, p, ClosureKind.CONDITIONAL)
            assert np.max(np.abs(dh)) < 1e-13
            # structural densities match the parameter at equal rates
            assert m.rho_p == pytest.approx(rho, abs=1e-15)


class TestLinearizedJacobian:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            p = random_params(rng, beta_pm=0.0)
            rho = rng.uniform(0.2, 0.8)
            g_pm = rng.uniform(0, 0.8 * min(rho, 1 - rho))
            m = stationary_polarized(p, rho, g_pm)
            for kind in KINDS:
                rep = linearized_jacobian(p, m, kind)
                J_fd = finite_difference_jacobian(m.as_array(), p, kind)
                assert np.max(np.abs(rep.matrix - J_fd)) < 1e-6

    def test_reference_lambda_pm(self):
        p = MinimalParams(alpha_pm=1, alpha_mp=1, beta_pp=1, beta_mm=1, beta_pm=0,
                          gamma_pp=1, gamma_mm=1, gamma_pm=2)
        m = stationary_polarized(p, 0.6, 0.1)
        rep = linearized_jacobian(p, m, ClosureKind.CONDITIONAL)
        assert rep.lambda_pm == pytest.approx(0.25 / 1.2 + 0.15 / 0.8 - 2.0)
        assert rep.lambda_pm == pytest.approx(-1.6042, abs=1e-4)

    def test_threefold_zero_eigenvalue(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            p = random_params(rng, beta_pm=0.0)
            rho = rng.uniform(0.2, 0.8)
            g_pm = rng.uniform(0, 0.8 * min(rho, 1 - rho))
            m = stationary_polarized(p, rho, g_pm)
            for kind in KINDS:
                rep = linearized_jacobian(p, m, kind)
                n_zero = int(np.sum(np.abs(rep.eigenvalues) <= 1e-8))
                assert n_zero >= 3

    def test_nonstationary_rejected(self):
        p = MinimalParams(alpha_pm=1, alpha_mp=1, beta_pp=1, beta_mm=1, beta_pm=0,
                          gamma_pp=1, gamma_mm=1, gamma_pm=2)
        m = MinimalMoments(0.3, 0.2, 0.1, 0.1, 0.0, 0.15)   # link balance broken
        with pytest.raises(ModelError):
            linearized_jacobian(p, m, ClosureKind.CONDITIONAL)


class TestPolarizationStable:
    def test_sufficient_condition(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            p = random_params(rng, beta_pm=0.0)
            if not 2 * p.gamma_pm > p.alpha_pm + p.alpha_mp:
                vals = p.as_array()
                vals[7] = 0.51 * (p.alpha_pm + p.alpha_mp)
                p = MinimalParams(*vals)
            for rho in np.linspace(0.0, 1.0, 11):
                stable, margin = polarization_stable(p, rho)
                assert stable
                assert margin > 0

    def test_zero_removal_unstable_report(self):
        p = MinimalParams(alpha_pm=1, alpha_mp=1, beta_pp=1, beta_mm=1, beta_pm=0,
                          gamma_pp=1, gamma_mm=1, gamma_pm=0.0)
        stable, margin = polarization_stable(p, 0.5)
        assert not stable
        assert margin < 0

    def test_no_within_state_creation_always_stable(self):
        p = MinimalParams(alpha_pm=2, alpha_mp=3, beta_pp=0, beta_mm=0, beta_pm=0,
                          gamma_pp=1, gamma_mm=1, gamma_pm=0.01)
        stable, margin = polarization_stable(p, 0.4)
        assert stable
        assert margin == pytest.approx(0.01)


class TestContinuation:
    BASE = dict(alpha_pm=1.0, alpha_mp=1.0, beta_pp=1.0, beta_mm=1.0,
                gamma_pp=1.0, gamma_mm=1.0, gamma_pm=2.0)

    def test_eps_zero_is_polarized_point(self):
        p = MinimalParams(beta_pm=0.0, **self.BASE)
        branch = continue_small_epsilon(p, 0.5, ClosureKind.CONDITIONAL)
        # the branch seed pins g_pm at the cross-balance root rho_p rho_m
        expected = stationary_polarized(p, 0.5, 0.25)
        assert branch.moments.as_array() == pytest.approx(expected.as_array(), abs=1e-12)
        assert branch.dfdeps > 0
        assert branch.residual <= 1e-12

    def test_small_eps_branch(self):
        p = MinimalParams(beta_pm=1e-3, **self.BASE)
        branch = continue_small_epsilon(p, 0.5, ClosureKind.CONDITIONAL)
        assert branch.residual <= 1e-10
        assert 0 < branch.moments.f_pm
        ratio = branch.moments.f_pm / 1e-3
        assert abs(ratio - branch.dfdeps) / branch.dfdeps < 0.2

    def test_first_order_halving(self):
        f_vals = {}
        for eps in (1e-3, 5e-4):
            p = MinimalParams(beta_pm=eps, **self.BASE)
            branch = continue_small_epsilon(p, 0.5, ClosureKind.CONDITIONAL)
            f_vals[eps] = branch.moments.f_pm
        ratio = f_vals[5e-4] / f_vals[1e-3]
        assert 0.45 <= ratio <= 0.55

    def test_kirkwood_branch(self):
        p = MinimalParams(beta_pm=1e-3, alpha_pm=1.0, alpha_mp=1.0, beta_pp=1.0,
                          beta_mm=1.0, gamma_pp=1.0, gamma_mm=1.0, gamma_pm=2.5)
        branch = continue_small_epsilon(p, 0.5, ClosureKind.KIRKWOOD)
        assert branch.residual <= 1e-10
        assert branch.moments.f_pm > 0
        assert branch.dfdeps > 0

    def test_hypothesis_violation_rejected(self):
        p = MinimalParams(beta_pm=1e-3, alpha_pm=2.0, alpha_mp=2.0, beta_pp=1.0,
                          beta_mm=1.0, gamma_pp=1.0, gamma_mm=1.0, gamma_pm=1.0)
        with pytest.raises(ModelError):
            continue_small_epsilon(p, 0.5, ClosureKind.CONDITIONAL)

    def test_dfdeps_matches_analytic_slope(self):
        # f' = g* / |lambda_pm| at eps = 0 from the factored cross equation
        p = MinimalParams(beta_pm=0.0, **self.BASE)
        branch = continue_small_epsilon(p, 0.5, ClosureKind.CONDITIONAL)
        g_star = 0.25
        f_pp = 0.5 * (0.5 - g_star)
        lam = 1.0 * f_pp / (2 * 0.5) * 2 - 2.0
        assert branch.dfdeps == pytest.approx(g_star / abs(lam), rel=1e-5)
