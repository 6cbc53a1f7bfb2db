import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from coevnet.cli import kernel_from_spec
from coevnet.errors import ModelError
from coevnet.models import (
    MinimalParams,
    PotentialModel,
    SmoothModel,
    catalog,
    derive_forces,
    kernel_potential,
    probe_symmetry_gap,
    quadratic_potential,
)


def _s(*vals):
    # scalar states as (1,) vectors
    return np.array([list(vals)], dtype=float) if len(vals) > 1 else np.array([vals[0]], dtype=float)


class TestDeriveForces:
    def test_constant_potential_has_zero_forces(self):
        pot = PotentialModel(F=lambda s, sig, w: np.full(np.shape(w), 7.0), c=1.0)
        model = derive_forces(pot)
        s, sig, w = _s(0.3), _s(-1.2), np.array(0.5)
        assert np.allclose(model.U(s, sig, w), 0.0, atol=1e-9)
        assert np.allclose(model.V(s, sig, w), 0.0, atol=1e-9)

    def test_hand_differentiated_quadratic(self):
        # F = w (s - sigma)^2 + w^2/2 at (1, 0, 2): U = -2 w (s - sigma) = -4,
        # V = -((s - sigma)^2 + w) = -3.  Cross-checked against central
        # differences by dropping the analytic derivatives.
        pot = quadratic_potential(kappa=1.0, c=1.0)
        model = derive_forces(pot)
        s, sig, w = _s(1.0), _s(0.0), np.array(2.0)
        assert model.U(s, sig, w) == pytest.approx(-4.0)
        assert model.V(s, sig, w) == pytest.approx(-3.0)

        fd_pot = PotentialModel(F=pot.F, c=1.0)   # finite differences only
        fd_model = derive_forces(fd_pot)
        assert fd_model.U(s, sig, w) == pytest.approx(-4.0, rel=1e-6)
        assert fd_model.V(s, sig, w) == pytest.approx(-3.0, rel=1e-6)

    def test_kernel_potential_reproduces_relaxation_forces(self):
        # F = w G(s - sigma) + kappa w^2/(2c) must give U = -w grad G and
        # V = -c G(x) - kappa w, i.e. the relaxation form with eta = -c G.
        c, kappa = 1.5, 0.7
        G = lambda x: np.sum(np.sin(x), axis=-1)
        gradG = lambda x: np.cos(x)
        pot = kernel_potential(G, gradG, kappa=kappa, c=c)
        model = derive_forces(pot)
        rng = np.random.default_rng(3)
        s = rng.uniform(-2, 2, size=(1000, 1))
        sig = rng.uniform(-2, 2, size=(1000, 1))
        w = rng.uniform(-2, 2, size=1000)
        U_exp = -w[:, None] * gradG(s - sig)
        V_exp = -c * G(s - sig) - kappa * w
        assert np.allclose(model.U(s, sig, w), U_exp, atol=1e-12)
        assert np.allclose(model.V(s, sig, w), V_exp, atol=1e-12)

    def test_nonfinite_potential_rejected(self):
        with np.errstate(invalid="ignore"), pytest.raises(ModelError):
            PotentialModel(F=lambda s, sig, w: np.log(np.asarray(w)), c=1.0)

    def test_bad_analytic_derivative_rejected(self):
        pot = PotentialModel(
            F=lambda s, sig, w: np.asarray(w) ** 2,
            c=1.0,
            d_w=lambda s, sig, w: 3.0 * np.asarray(w),  # wrong: should be 2w
        )
        with pytest.raises(ModelError):
            derive_forces(pot)


class TestCatalog:
    def test_kernel_relaxation_example(self):
        model = catalog("kernel-relaxation", {
            "K": lambda x: x,
            "eta": lambda x: np.exp(-np.sum(x * x, axis=-1)),
            "kappa": 1.0,
        })
        s, sig, w = _s(1.0), _s(0.0), np.array(0.5)
        assert model.U(s, sig, w) == pytest.approx(-0.5)
        assert model.V(s, sig, w) == pytest.approx(np.exp(-1.0) - 0.5)

    def test_boschi_zero_sigmoid_decays_weights(self):
        model = catalog("boschi", {"g": lambda x: np.zeros_like(x), "J0": 2.0, "gamma": 1.0})
        s, sig = _s(0.4), _s(-0.3)
        w = np.array(1.7)
        assert np.allclose(model.U(s, sig, w), 0.0)
        assert model.V(s, sig, w) == pytest.approx(-1.7)

    def test_boschi_logistic_example(self):
        model = catalog("boschi", {
            "g": lambda x: 1.0 / (1.0 + np.exp(-x)), "J0": 2.0, "gamma": 1.0,
        })
        s, sig, w = _s(0.0), _s(0.0), np.array(1.0)
        assert model.V(s, sig, w) == pytest.approx(-0.5)
        assert model.U0(s) == pytest.approx(0.0)
        assert model.Q(s) == pytest.approx(0.0)

    @pytest.mark.parametrize("J0", [0.3, 1.5, 1.7, 3.0])
    def test_boschi_builds_for_any_J0(self, J0):
        model = catalog("boschi", {
            "g": lambda x: 1.0 / (1.0 + np.exp(-x)), "J0": J0, "gamma": 1.0,
        })
        assert probe_symmetry_gap(model) == 0.0

    def test_quadratic_potential_catalog(self):
        model = catalog("quadratic-potential", {"kappa": 1.0, "c": 1.0})
        s, sig, w = _s(1.0), _s(0.0), np.array(2.0)
        assert model.U(s, sig, w) == pytest.approx(-4.0)
        assert model.V(s, sig, w) == pytest.approx(-3.0)
        assert model.potential is not None

    def test_unknown_name_and_missing_param(self):
        with pytest.raises(ModelError):
            catalog("no-such-model", {})
        with pytest.raises(ModelError):
            catalog("kernel-relaxation", {"K": lambda x: x})


class TestInvariants:
    def test_catalog_symmetry_probe_is_exact(self):
        models = [
            catalog("kernel-relaxation", {
                "K": lambda x: x,
                "eta": lambda x: np.exp(-np.sum(x * x, axis=-1)),
                "kappa": 1.0,
            }),
            catalog("boschi", {"g": lambda x: 1.0 / (1.0 + np.exp(-x)), "J0": 2.0, "gamma": 0.5}),
            catalog("quadratic-potential", {"kappa": 2.0, "c": 0.5}),
        ]
        for model in models:
            assert model.symmetric_V
            assert probe_symmetry_gap(model, n=10_000) == 0.0

    def test_symmetric_flag_violation_detected(self):
        with pytest.raises(ModelError):
            SmoothModel(
                U=lambda s, sig, w: np.zeros_like(np.asarray(s, dtype=float)),
                V=lambda s, sig, w: np.asarray(s)[..., 0] - np.asarray(sig)[..., 0],
                symmetric_V=True,
            )

    def test_fd_and_analytic_forces_agree(self):
        pot = quadratic_potential(kappa=0.8, c=2.0)
        rng = np.random.default_rng(11)
        s = rng.uniform(-2, 2, size=(500, 1))
        sig = rng.uniform(-2, 2, size=(500, 1))
        w = rng.uniform(-2, 2, size=500)
        gs, fgs = pot.eval_grad_s(s, sig, w), pot.fd_grad_s(s, sig, w)
        dw, fdw = pot.eval_d_w(s, sig, w), pot.fd_d_w(s, sig, w)
        scale = np.maximum(1.0, np.abs(gs))
        assert np.all(np.abs(gs - fgs) <= 1e-6 * scale)
        assert np.all(np.abs(dw - fdw) <= 1e-6 * np.maximum(1.0, np.abs(dw)))

    def test_boschi_weight_nonnegativity_at_zero(self):
        model = catalog("boschi", {"g": lambda x: 1.0 / (1.0 + np.exp(-x)), "J0": 2.0, "gamma": 1.0})
        rng = np.random.default_rng(5)
        s = rng.uniform(-3, 3, size=(2000, 1))
        sig = rng.uniform(-3, 3, size=(2000, 1))
        v0 = model.V(s, sig, np.zeros(2000))
        assert np.all(v0 >= 0.0)


class TestMinimalParams:
    def test_negative_rate_rejected(self):
        with pytest.raises(ModelError):
            MinimalParams(alpha_pm=-0.1)

    def test_nonfinite_rate_rejected(self):
        with pytest.raises(ModelError):
            MinimalParams(beta_pp=float("inf"))

    def test_array_roundtrip(self):
        p = MinimalParams(1, 2, 3, 4, 5, 6, 7, 8)
        assert np.array_equal(p.as_array(), np.arange(1.0, 9.0))


# ----------------------------------------------------------------- folded kernels
#
# The catalog kernels fold away unit parameters, read a length-1 state axis
# instead of summing it and negate in place.  Each must stay bitwise equal
# to its literal formula, -0.0 and +0.0 kept apart.

_unit_or_not = st.sampled_from([1.0, 0.5, 0.7, 1.3, 2.0])
_entries = st.one_of(st.floats(-30.0, 30.0), st.sampled_from([0.0, -0.0]))


@st.composite
def pair_views(draw):
    """(m, s, sigma, w): broadcastable pair views of n states, as the micro flow passes them."""
    m = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, 4))
    states = np.array(draw(st.lists(_entries, min_size=n * m, max_size=n * m))).reshape(n, m)
    w = np.array(draw(st.lists(_entries, min_size=n * n, max_size=n * n))).reshape(n, n)
    return m, states[:, None, :], states[None, :, :], w


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _literal_gaussian(a, ell, on_states):
    if on_states:
        return lambda x: a * np.exp(-np.sum(np.square(np.asarray(x, dtype=float)), axis=-1) / ell ** 2)
    return lambda d: a * np.exp(-np.square(np.asarray(d, dtype=float)) / ell ** 2)


class TestFoldedKernels:
    @given(pair_views(), _unit_or_not, _unit_or_not, st.sampled_from(["eta", "W0", "K"]))
    def test_gaussian_is_its_formula(self, views, a, ell, role):
        _, s, sig, _ = views
        kernel = kernel_from_spec({"form": "gaussian", "amplitude": a, "length": ell}, role)
        literal = _literal_gaussian(a, ell, role in ("eta", "W0"))
        x = s - sig
        assert _same_bits(kernel(x), literal(x))
        assert _same_bits(kernel(x[0, 0]), literal(x[0, 0]))   # one pair: a scalar on states

    @given(pair_views(), _unit_or_not, _unit_or_not, _unit_or_not)
    def test_kernel_relaxation_is_its_formula(self, views, a, ell, kappa):
        m, s, sig, w = views
        eta = kernel_from_spec({"form": "gaussian", "amplitude": a, "length": ell}, "eta")
        model = catalog("kernel-relaxation", {"K": lambda x: x, "eta": eta, "kappa": kappa, "m": m})
        d = s - sig
        assert _same_bits(model.V(s, sig, w), _literal_gaussian(a, ell, True)(d) - kappa * w)
        assert _same_bits(model.U(s, sig, w), -w[..., None] * d)

    @given(pair_views(), _unit_or_not, _unit_or_not)
    def test_quadratic_potential_is_its_formula(self, views, kappa, c):
        m, s, sig, w = views
        pot = quadratic_potential(kappa=kappa, c=c, m=m)
        G = np.sum(np.square(s - sig), axis=-1)
        d_w = G + (kappa / c) * w
        assert _same_bits(pot.d_w(s, sig, w), d_w)
        assert _same_bits(pot.F(s, sig, w), w * G + kappa * np.square(w) / (2.0 * c))
        model = catalog("quadratic-potential", {"kappa": kappa, "c": c, "m": m})
        assert _same_bits(model.V(s, sig, w), -c * d_w)
