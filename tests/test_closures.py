import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coevnet import _native, closures
from coevnet.closures import (
    ClosureKind,
    ClosureTrajectory,
    check_continuation,
    closure_rhs,
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
from coevnet.errors import (
    ClosureSingular,
    ConsensusBoundary,
    ContinuationFailed,
    IntegrationError,
    ModelError,
)
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
            closure_rhs(m_arr, p, ClosureKind.CONDITIONAL)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("j", [0, 2, 4], ids=["in-rho_p", "in-rho_m", "in-both"])
    def test_a_nan_moment_is_a_consensus_boundary(self, kind, j):
        y = np.full(6, 1.0 / 8)
        y[j] = np.nan
        with pytest.raises(ConsensusBoundary, match=r"^rho_\+ rho_- = nan at or below the "
                                                    r"consensus threshold 1e-10$"):
            closure_rhs(y, MinimalParams(*[1.0] * 8), kind)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("rho", [(np.nan, 0.5), (0.5, np.nan)], ids=["rho_p", "rho_m"])
    def test_a_nan_density_override_is_a_consensus_boundary(self, kind, rho):
        m = MinimalMoments(0.3, 0.2, 0.2, 0.1, 0.0, 0.1)
        with pytest.raises(ConsensusBoundary, match="at or below the consensus threshold"):
            weight_averaged_rhs(m, MinimalParams(*[1.0] * 8), kind, rho_override=rho)

    def test_a_denominator_below_the_float_range_is_closure_singular(self):
        # rho_+ rho_- = 1e-9 passes the consensus check, but rho_+^2 is 0
        y = [1e-170, 0.0, 1e161, 0.0, 0.0, 0.0]
        p = MinimalParams(*[1.0] * 8)
        assert np.all(np.isfinite(closure_rhs(y, p, ClosureKind.CONDITIONAL)))
        with pytest.raises(ClosureSingular, match="a closure denominator is 0"):
            closure_rhs(y, p, ClosureKind.KIRKWOOD)

    def test_matches_triplet_integral_assembly(self):
        # the alpha part of the pair equations is the particle-1 flip
        # bookkeeping of the closure collision integral, for all six moments
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
                for k, w in ((0, 1), (1, 0)):       # f (linked), then g (unlinked)
                    # (+,+): particle 1 of (-,+,w) flips in, of (+,+,w) flips out
                    assert rhs[0 + k] == pytest.approx(I[0, 1, w] - I[1, 1, w],
                                                       rel=1e-11, abs=1e-15)
                    # (-,-): particle 1 of (+,-,w) flips in, of (-,-,w) flips out
                    assert rhs[2 + k] == pytest.approx(I[1, 0, w] - I[0, 0, w],
                                                       rel=1e-11, abs=1e-15)
                    # the cross pair, stored once: the mean of (+,-,w) and (-,+,w)
                    cross = 0.5 * (I[0, 0, w] - I[1, 0, w] + I[1, 1, w] - I[0, 1, w])
                    assert rhs[4 + k] == pytest.approx(cross, rel=1e-11, abs=1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    def test_python_floats_match_the_reference_loop_bitwise(self, kind):
        # closure_rhs evaluates the statement on python floats, the
        # reference loop on the float64 scalars of its state array
        rng = np.random.default_rng(17)
        p = random_params(rng)
        ys = [random_moments(rng).as_array() for _ in range(200)]
        for t in (1.0000001e-10, 1.5e-10, 1e-9, 1e-6):     # rho_+ or rho_- about t
            for _ in range(20):
                share = rng.random(4) + 0.02
                share *= t / share.sum()
                rest = 1.0 - share[0] - share[1] - 2 * (share[2] + share[3])
                split = rng.random()
                ys.append(np.array([share[0], share[1], split * rest, (1 - split) * rest,
                                    share[2], share[3]]))
                ys.append(ys[-1][[2, 3, 0, 1, 4, 5]])
        r, kirk = p.as_array(), int(kind is ClosureKind.KIRKWOOD)
        for y in ys:
            got = closure_rhs(y, p, kind)
            assert got.tobytes() == closures._rhs_arrays_py(y, r, kirk).tobytes()

    @pytest.mark.parametrize("y", [[0.2, 0.1, 0.2, 0.1, 0.1, 0.1, 5.0],
                                   [0.2, 0.1, 0.2, 0.1, 0.1],
                                   np.full((2, 6), 1.0 / 12)],
                             ids=["seven", "five", "two-rows"])
    def test_a_vector_not_of_six_moments_is_a_model_error(self, y):
        p = MinimalParams(*[1.0] * 8)
        for kind in KINDS:
            with pytest.raises(ModelError, match=r"a moment vector has shape \(6,\)"):
                closure_rhs(y, p, kind)
            with pytest.raises(ModelError, match=r"a moment vector has shape \(6,\)"):
                weight_averaged_rhs(y, p, kind)


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


@pytest.fixture(params=["compiled", "reference"])
def loop(request, monkeypatch):
    """integrate_closure on the compiled loop, then on the python reference."""
    if request.param == "reference":
        monkeypatch.setattr(_native, "LIB", None)


class TestIntegrate:
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_run_off_the_stride_samples_its_last_step(self, loop, kind):
        rng = np.random.default_rng(11)
        m0, p = random_moments(rng), random_params(rng)
        traj = integrate_closure(m0, p, kind, dt=0.1, T=1.0, sample_stride=3)
        assert traj.times[-1] == 1.0
        assert np.array_equal(traj.times, np.array([0, 3, 6, 9, 10]) * 0.1)
        every = integrate_closure(m0, p, kind, dt=0.1, T=1.0)
        assert np.array_equal(traj.moments, every.moments[[0, 3, 6, 9, 10]])

    def test_a_non_finite_step_raises(self, loop):
        # rates of 1e308 overflow the first step from rho_+ = rho_- = 0.5
        m0 = MinimalMoments(0.15, 0.05, 0.1, 0.1, 0.15, 0.15)
        p = MinimalParams(alpha_pm=1, alpha_mp=1, beta_pp=1e308, beta_mm=1, beta_pm=0,
                          gamma_pp=1e308, gamma_mm=1, gamma_pm=1)
        with np.errstate(all="ignore"), pytest.raises(
                IntegrationError, match=r"^non-finite state in the step from t=0$"):
            integrate_closure(m0, p, ClosureKind.CONDITIONAL, dt=1e-2, T=1.0)

    NEGATIVE_P = MinimalParams(4.908, 3.783, 2.971, 2.696, 0.049, 3.919, 1.92, 0.533)
    NEGATIVE_M0 = MinimalMoments(0.0491, 0.0009, 0.0813, 0.0057, 0.4296, 0.0019)
    NEGATIVE_MESSAGE = ("closure integration produced a negative component beyond "
                        "tolerance after 0 steps; reduce dt")

    def test_a_negative_component_beyond_tolerance_raises(self, loop):
        # the first Kirkwood step of 0.2 takes g_pp below -1e-9
        with pytest.raises(IntegrationError, match=f"^{self.NEGATIVE_MESSAGE}$"):
            integrate_closure(self.NEGATIVE_M0, self.NEGATIVE_P, ClosureKind.KIRKWOOD,
                              dt=0.2, T=2.0)

    def test_a_negative_component_beyond_tolerance_exits_3(self, tmp_path, capsys):
        from coevnet.cli import main
        cfg = {"kind": "closure", "kind_closure": "kirkwood", "seed": 1, "T": 2.0,
               "dt": 0.2, "rates": dict(zip(
                   ("alpha_pm", "alpha_mp", "beta_pp", "beta_mm", "beta_pm", "gamma_pp",
                    "gamma_mm", "gamma_pm"), self.NEGATIVE_P.as_array().tolist())),
               "init": {"moments": self.NEGATIVE_M0.as_array().tolist()}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 3
        err = {"error": "IntegrationError", "exit_code": 3, "message": self.NEGATIVE_MESSAGE}
        assert json.loads(capsys.readouterr().out) == err
        assert json.loads((tmp_path / "out" / "error.json").read_text()) == err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_an_unknown_kind_is_a_model_error(self):
        m0 = MinimalMoments(0.1, 0.1, 0.1, 0.1, 0.15, 0.15)
        with pytest.raises(ModelError, match="unknown closure kind 'kirk'"):
            integrate_closure(m0, MinimalParams(*[1.0] * 8), "kirk", dt=0.1, T=1.0)

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
        rep = decay_envelope_check(traj)
        assert rep.rate == pytest.approx(1.0)
        assert rep.holds

    def test_gronwall_envelope_kirkwood(self):
        rng = np.random.default_rng(9)
        m0 = random_moments(rng)
        p = MinimalParams(alpha_pm=1, alpha_mp=1, beta_pp=0.5, beta_mm=0.5,
                          beta_pm=0.0, gamma_pp=0.5, gamma_mm=0.5, gamma_pm=3.0)
        traj = integrate_closure(m0, p, ClosureKind.KIRKWOOD, dt=1e-3, T=20.0,
                                 sample_stride=10)
        rep = decay_envelope_check(traj)
        assert rep.rate == pytest.approx(1.0)
        assert rep.holds

    def test_envelope_refuses_a_nonpositive_rate(self):
        # the kirkwood envelope of this run has rate 0, which the check
        # refuses; the conditional one would read rate 1 and hold
        rng = np.random.default_rng(9)
        p = MinimalParams(alpha_pm=1, alpha_mp=1, beta_pp=0.5, beta_mm=0.5,
                          beta_pm=0.0, gamma_pp=0.5, gamma_mm=0.5, gamma_pm=2.0)
        traj = integrate_closure(random_moments(rng), p, ClosureKind.KIRKWOOD, dt=1e-2, T=1.0)
        with pytest.raises(ModelError, match="positive decay rate"):
            decay_envelope_check(traj)

    def test_envelope_zero_start_stays_zero(self):
        p = MinimalParams(alpha_pm=1, alpha_mp=1, beta_pp=1, beta_mm=1, beta_pm=0,
                          gamma_pp=1, gamma_mm=1, gamma_pm=2)
        m0 = stationary_polarized(p, 0.5, 0.2)
        traj = integrate_closure(m0, p, ClosureKind.CONDITIONAL, dt=1e-2, T=5.0)
        rep = decay_envelope_check(traj)
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

    # strong bias toward plus drives rho_- to zero in finite time
    CONSENSUS_M0 = MinimalMoments(0.05, 0.05, 0.05, 0.05, 0.38, 0.02)
    CONSENSUS_P = MinimalParams(alpha_pm=0.0, alpha_mp=8.0, beta_pp=1, beta_mm=1,
                                beta_pm=1, gamma_pp=1, gamma_mm=1, gamma_pm=0.1)

    def test_consensus_stop(self):
        traj = integrate_closure(self.CONSENSUS_M0, self.CONSENSUS_P, ClosureKind.CONDITIONAL,
                                 dt=1e-3, T=200.0, sample_stride=10)
        assert traj.status == "consensus_boundary"
        assert traj.times[-1] < 200.0

    def test_a_consensus_stop_records_where_it_stopped(self, loop):
        trajs = [integrate_closure(self.CONSENSUS_M0, self.CONSENSUS_P, ClosureKind.CONDITIONAL,
                                   dt=1e-3, T=200.0, sample_stride=stride)
                 for stride in (1, 10, 1000)]
        assert trajs[0].times[-1] == 6253 * 1e-3
        for traj in trajs:
            assert traj.status == "consensus_boundary"
            assert np.all(np.diff(traj.times) > 0)   # the stop's step is recorded once
            assert traj.times[-1] == trajs[0].times[-1]
            assert np.array_equal(traj.moments[-1], trajs[0].moments[-1])

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

    @pytest.mark.parametrize("kind", KINDS)
    def test_both_checks_refuse_the_boundary_decay_rate(self, kind):
        # alpha_pm + alpha_mp = 2: the cross-link decay rate is 0 at
        # 2 gamma_pm = 2 (conditional) and at gamma_pm = 2 (Kirkwood)
        kirk = kind is ClosureKind.KIRKWOOD
        at = 2.0 if kirk else 1.0

        def rates(gamma_pm):
            return MinimalParams(alpha_pm=0.75, alpha_mp=1.25, beta_pp=1.0, beta_mm=1.0,
                                 beta_pm=0.0, gamma_pp=1.0, gamma_mm=1.0, gamma_pm=gamma_pm)

        def envelope(p):
            traj = ClosureTrajectory(times=np.array([0.0, 1.0]), kind=kind, params=p,
                                     moments=np.array([[0.2, 0.1, 0.2, 0.1, 0.1, 0.1],
                                                       [0.2, 0.1, 0.2, 0.1, 0.05, 0.15]]))
            return decay_envelope_check(traj)

        with pytest.raises(ModelError, match="positive decay rate"):
            envelope(rates(at))
        with pytest.raises(ModelError, match=f"^{kind.value} continuation requires "
                                             f"{'' if kirk else '2 '}gamma_pm > alpha_pm"):
            check_continuation(rates(at), 0.5, kind)
        above = rates(np.nextafter(at, np.inf))
        rep = envelope(above)
        assert rep.rate > 0 and rep.rate == above.gamma_pm - (2.0 if kirk else 0.5 * 2.0)
        check_continuation(above, 0.5, kind)

    def test_dfdeps_matches_analytic_slope(self):
        # f' = g* / |lambda_pm| at eps = 0 from the factored cross equation
        p = MinimalParams(beta_pm=0.0, **self.BASE)
        branch = continue_small_epsilon(p, 0.5, ClosureKind.CONDITIONAL)
        g_star = 0.25
        f_pp = 0.5 * (0.5 - g_star)
        lam = 1.0 * f_pp / (2 * 0.5) * 2 - 2.0
        assert branch.dfdeps == pytest.approx(g_star / abs(lam), rel=1e-5)
