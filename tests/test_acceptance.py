"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The stochastic criteria
use frozen seeds; Monte-Carlo consistency bands follow the three-standard-
error convention used throughout the statistical invariants.
"""

import functools
import json
import time

import numpy as np
import pytest

from coevnet.characteristics import (
    CharacteristicEnsemble,
    integrate_characteristics_conditional,
    integrate_characteristics_wc,
    make_wc_ensemble,
    pair_energy_dissipation,
    uniform_masses,
)
from coevnet.closures import (
    ClosureKind,
    closure_rhs,
    continue_small_epsilon,
    decay_envelope_check,
    finite_difference_jacobian,
    integrate_closure,
    linearized_jacobian,
    stationary_mixed_h,
    stationary_polarized,
    weight_averaged_rhs,
)
from coevnet.compare import run_comparison, run_epsilon_sweep
from coevnet.microsim import AgentConfiguration, energy_report, integrate_micro, solve_weight_nullcline
from coevnet.models import MinimalParams, catalog, quadratic_potential
from coevnet.moments import MinimalMoments

KINDS = (ClosureKind.CONDITIONAL, ClosureKind.KIRKWOOD)


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {num:02d} {name}: PASS")
        return wrapper
    return deco


def random_valid_moments(rng, floor=0.02):
    raw = rng.random(6) + floor
    raw /= raw[0] + raw[1] + raw[2] + raw[3] + 2 * raw[4] + 2 * raw[5]
    return MinimalMoments(*raw)


def random_rates(rng, equal_alpha=False, beta_pm=None):
    vals = rng.uniform(0.05, 2.0, size=8)
    if equal_alpha:
        vals[1] = vals[0]
    if beta_pm is not None:
        vals[4] = beta_pm
    return MinimalParams(*vals)


@criterion(1, "closure conservation over long trajectories")
def test_criterion_01_conservation():
    rng = np.random.default_rng(101)
    cases = []
    for k in range(20):
        p = random_rates(rng, equal_alpha=(k < 10))
        m0 = random_valid_moments(rng)
        cases.append((p, m0))
    # warm the jitted stepper outside the timed region
    integrate_closure(cases[0][1], cases[0][0], ClosureKind.CONDITIONAL, dt=1e-3, T=0.01)

    t0 = time.monotonic()
    for p, m0 in cases:
        for kind in KINDS:
            traj = integrate_closure(m0, p, kind, dt=1e-3, T=50.0, sample_stride=50)
            total = traj.moments[:, :4].sum(axis=1) + 2 * traj.moments[:, 4:].sum(axis=1)
            assert np.max(np.abs(total - 1.0)) <= 1e-10
            if p.alpha_pm == p.alpha_mp:
                assert np.max(np.abs(traj.rho_p - m0.rho_p)) <= 1e-10
    elapsed = time.monotonic() - t0
    print(f"  [criterion 1 runtime {elapsed:.2f} s]", end=" ")
    assert elapsed < 10.0


@criterion(2, "polarized stationary family residual")
def test_criterion_02_stationary_residual():
    rng = np.random.default_rng(202)
    for _ in range(100):
        p = random_rates(rng, beta_pm=0.0)
        rho = rng.uniform(0.05, 0.95)
        g_pm = rng.uniform(0.0, min(rho, 1 - rho))
        m = stationary_polarized(p, rho, g_pm)
        for kind in KINDS:
            assert np.max(np.abs(closure_rhs(m, p, kind))) <= 1e-13


@criterion(3, "mixed stationary h-profile residual and equal-rate values")
def test_criterion_03_mixed_h():
    rng = np.random.default_rng(303)
    for k in range(100):
        equal = k % 2 == 0
        a = rng.uniform(0.1, 3.0, size=2)
        if equal:
            a[1] = a[0]
        p = MinimalParams(alpha_pm=a[0], alpha_mp=a[1])
        rho_p = rng.uniform(0.05, 0.95)
        rho_m = 1.0 - rho_p
        h_pp, h_mm, h_pm = stationary_mixed_h(p, rho_p)
        m = MinimalMoments(f_pp=h_pp, g_pp=0.0, f_mm=h_mm, g_mm=0.0,
                           f_pm=h_pm, g_pm=0.0)
        dh = weight_averaged_rhs(m, p, ClosureKind.CONDITIONAL,
                                 rho_override=(rho_p, rho_m))
        assert np.max(np.abs(dh)) <= 1e-13
        if equal:
            assert h_pp == rho_p * rho_p
            assert h_mm == rho_m * rho_m
            assert h_pm == rho_p * rho_m


@criterion(4, "Gronwall decay envelopes for the cross mass")
def test_criterion_04_envelopes():
    rng = np.random.default_rng(404)
    settings = ((ClosureKind.CONDITIONAL, 2.0), (ClosureKind.KIRKWOOD, 3.0))
    for kind, gamma_pm in settings:
        for _ in range(10):
            other = rng.uniform(0.1, 1.0, size=4)
            p = MinimalParams(alpha_pm=1.0, alpha_mp=1.0,
                              beta_pp=other[0], beta_mm=other[1], beta_pm=0.0,
                              gamma_pp=other[2], gamma_mm=other[3], gamma_pm=gamma_pm)
            m0 = random_valid_moments(rng)
            traj = integrate_closure(m0, p, kind, dt=1e-3, T=20.0, sample_stride=10)
            rep = decay_envelope_check(traj)
            assert rep.rate == pytest.approx(1.0)
            assert rep.holds, f"envelope violated at t={rep.first_violation_t}"


@criterion(5, "linearization matches finite differences with a threefold kernel")
def test_criterion_05_jacobian():
    rng = np.random.default_rng(505)
    for _ in range(20):
        p = random_rates(rng, beta_pm=0.0)
        rho = rng.uniform(0.1, 0.9)
        g_pm = rng.uniform(0.0, 0.8 * min(rho, 1 - rho))
        m = stationary_polarized(p, rho, g_pm)
        for kind in KINDS:
            rep = linearized_jacobian(p, m, kind)
            J_fd = finite_difference_jacobian(m.as_array(), p, kind)
            assert np.max(np.abs(rep.matrix - J_fd)) <= 1e-6
            assert int(np.sum(np.abs(rep.eigenvalues) <= 1e-8)) >= 3


@criterion(6, "first-order continuation branch in the cross-creation rate")
def test_criterion_06_continuation():
    base = dict(alpha_pm=1.0, alpha_mp=1.0, beta_pp=1.0, beta_mm=1.0,
                gamma_pp=1.0, gamma_mm=1.0, gamma_pm=2.0)
    t0 = time.monotonic()
    ratios = {}
    for eps in (1e-2, 1e-3, 1e-4):
        p = MinimalParams(beta_pm=eps, **base)
        branch = continue_small_epsilon(p, 0.5, ClosureKind.CONDITIONAL)
        assert branch.residual <= 1e-10
        assert branch.moments.f_pm > 0.0
        ratios[eps] = branch.moments.f_pm / eps
    elapsed = time.monotonic() - t0
    ref = ratios[1e-4]
    for eps, ratio in ratios.items():
        assert abs(ratio - ref) / ref <= 0.10, f"f_pm/eps drifted at eps={eps}"
    print(f"  [criterion 6 runtime {elapsed:.2f} s]", end=" ")
    assert elapsed < 5.0


@criterion(7, "microscopic gradient-flow dissipation identity")
def test_criterion_07_micro_dissipation():
    pot = quadratic_potential(kappa=1.0, c=1.0)
    model = catalog("quadratic-potential", {"kappa": 1.0, "c": 1.0})
    rng = np.random.default_rng(707)
    N = 50
    states = rng.uniform(-0.3, 0.3, size=(N, 1))
    W = rng.uniform(0.0, 0.3, size=(N, N))
    W = np.triu(W, 1)
    W = W + W.T
    cfg = AgentConfiguration(states=states, weights=W)
    dt = 1e-4
    energies, dissipations = [], []

    def observe(c):
        rep = energy_report(c, pot)
        energies.append(rep.energy)
        dissipations.append(rep.dissipation)

    integrate_micro(cfg, model, dt=dt, T=1.0, store=False, callback=observe)
    E = np.array(energies)
    D = np.array(dissipations)
    assert np.all(np.isfinite(E))
    dEdt = (E[2:] - E[:-2]) / (2 * dt)
    rel = np.abs(dEdt + D[1:-1]) / np.abs(D[1:-1])
    assert float(rel.max()) <= 1e-3
    assert np.all(E[1:] <= E[:-1] + 1e-9)


@criterion(8, "pair-level dissipation identity along characteristics")
def test_criterion_08_pair_dissipation():
    pot = quadratic_potential(kappa=1.0, c=1.0)
    model = catalog("quadratic-potential", {"kappa": 1.0, "c": 1.0})
    rng = np.random.default_rng(808)
    M = 16
    anchors = rng.uniform(-0.5, 0.5, size=(M, 1))
    W = rng.uniform(0.0, 0.3, size=(M, M))
    W = np.triu(W, 1)
    W = W + W.T
    ens = CharacteristicEnsemble(anchors=anchors, pair_weights=W,
                                 masses=uniform_masses(M))
    dt = 1e-4
    traj = integrate_characteristics_conditional(ens, model, dt=dt, T=0.1)
    E = np.array([pair_energy_dissipation(e, pot)[0] for e in traj.ensembles])
    D = np.array([pair_energy_dissipation(e, pot)[1] for e in traj.ensembles])
    dEdt = (E[2:] - E[:-2]) / (2 * dt)
    rel = np.abs(dEdt + D[1:-1]) / np.abs(D[1:-1])
    assert float(rel.max()) <= 1e-3
    assert np.all(E[1:] <= E[:-1] + 1e-9)


@criterion(9, "weight-concentration data embed into the conditional flow")
def test_criterion_09_embedding():
    model = catalog("kernel-relaxation", {
        "K": lambda x: x,
        "eta": lambda x: np.exp(-np.sum(x * x, axis=-1)),
        "kappa": 1.0,
    })
    rng = np.random.default_rng(909)
    anchors = rng.uniform(-1.0, 1.0, size=(10, 1))
    W0 = lambda s, sig: np.exp(-np.sum((np.asarray(s) - sig) ** 2, axis=-1))
    ens = make_wc_ensemble(anchors, W0)
    t_wc = integrate_characteristics_wc(ens, model, W0, dt=1e-2, T=5.0, sample_stride=25)
    t_cond = integrate_characteristics_conditional(ens, model, dt=1e-2, T=5.0, sample_stride=25)
    gap = 0.0
    for a, b in zip(t_wc.ensembles, t_cond.ensembles):
        gap = max(gap, float(np.max(np.abs(a.anchors - b.anchors))))
        gap = max(gap, float(np.max(np.abs(a.pair_weights - b.pair_weights))))
    assert gap <= 1e-12


@criterion(10, "instantaneous-network limit: strictly decreasing gaps")
def test_criterion_10_epsilon_sweep():
    model = catalog("kernel-relaxation", {
        "K": lambda x: x,
        "eta": lambda x: np.exp(-np.sum(x * x, axis=-1)),
        "kappa": 1.0,
    })
    states = np.array([[0.0], [0.7], [1.5], [-0.6]])
    N = states.shape[0]
    W = np.zeros((N, N))
    for i in range(N):
        for j in range(i + 1, N):
            W[i, j] = W[j, i] = solve_weight_nullcline(model, states[i], states[j]) + 0.5
    cfg = AgentConfiguration(states=states, weights=W)
    rep = run_epsilon_sweep(model, cfg, eps_list=[0.1, 0.01, 0.001],
                            dt=1e-4, T=1.0, reduced_dt=1e-3)
    assert rep.gaps[0] > rep.gaps[1] > rep.gaps[2]
    assert rep.monotone


@criterion(11, "micro/macro agreement trend in system size")
def test_criterion_11_micro_macro_trend():
    p = MinimalParams(alpha_pm=1.0, alpha_mp=1.0, beta_pp=0.4, beta_mm=0.4,
                      beta_pm=0.1, gamma_pp=0.4, gamma_mm=0.4, gamma_pm=1.0)
    init = {"rho_p": 0.5, "p_pp": 0.5, "p_mm": 0.5, "p_pm": 0.25}
    sizes = (250, 500, 1000, 2000)
    t0 = time.monotonic()
    sups, stderrs = [], []
    for N in sizes:
        rep = run_comparison(p, N=N, runs=20, T=1.25, dt=0.25, seed=0, init=init,
                             workers=2)
        # conservation components: total mass is exact, rho_+ within the
        # three-standard-error Monte-Carlo band of its conserved value
        mass = rep.mean_moments[:, :4].sum(axis=1) + 2 * rep.mean_moments[:, 4:].sum(axis=1)
        assert np.max(np.abs(mass - 1.0)) <= 1e-12
        rho_closure = rep.closure_conditional[:, [0, 1, 4, 5]].sum(axis=1)
        gap = np.abs(rep.mean_rho_p[:rho_closure.size] - rho_closure)
        assert np.all(gap <= np.maximum(3.0 * rep.stderr_rho_p[:rho_closure.size], 1e-12))
        sups.append(rep.sup_error_conditional)
        stderrs.append(rep.monte_carlo_stderr)
    elapsed = time.monotonic() - t0
    for k in range(len(sizes) - 1):
        slack = 2.0 * max(stderrs[k], stderrs[k + 1])
        assert sups[k + 1] <= sups[k] + slack, (
            f"sup error increased beyond slack between N={sizes[k]} and N={sizes[k+1]}")
    print(f"  [criterion 11 runtime {elapsed:.1f} s, sup errors {sups}]", end=" ")
    assert elapsed < 300.0


@criterion(12, "bitwise weight symmetry over seeded ensembles")
def test_criterion_12_symmetry():
    model = catalog("kernel-relaxation", {
        "K": lambda x: x,
        "eta": lambda x: np.exp(-np.sum(x * x, axis=-1)),
        "kappa": 1.0,
    })
    for seed in range(100):
        rng = np.random.default_rng(seed)
        N = 8
        states = rng.uniform(-1, 1, size=(N, 1))
        W = rng.uniform(0, 1, size=(N, N))
        W = np.triu(W, 1)
        W = W + W.T
        cfg = AgentConfiguration(states=states, weights=W)
        traj = integrate_micro(cfg, model, dt=1e-2, T=0.5)
        for c in traj.configs:
            assert np.max(np.abs(c.weights - c.weights.T)) == 0.0


@criterion(13, "every experiment kind reproduces bit-identical CSVs")
def test_criterion_13_determinism(tmp_path):
    from coevnet.cli import main

    model_kr = {"name": "kernel-relaxation",
                "params": {"K": {"form": "identity"},
                           "eta": {"form": "gaussian"}, "kappa": 1.0}}
    rates = {"alpha_pm": 1.0, "alpha_mp": 1.0, "beta_pp": 0.5, "beta_mm": 0.5,
             "beta_pm": 0.2, "gamma_pp": 0.5, "gamma_mm": 0.5, "gamma_pm": 1.0}
    rates_nocross = dict(rates, beta_pm=0.0, gamma_pm=2.0)
    configs = {
        "micro": {"kind": "micro", "seed": 11, "N": 6, "T": 0.2, "dt": 1e-2,
                  "model": {"name": "quadratic-potential", "params": {"kappa": 1.0, "c": 1.0}},
                  "init": {"states": {"dist": "uniform", "low": -0.3, "high": 0.3},
                           "weights": {"dist": "uniform", "low": 0, "high": 0.2}}},
        "diffusive": {"kind": "diffusive", "seed": 12, "N": 6, "T": 0.2, "dt": 1e-2,
                      "model": {"name": "boschi",
                                "params": {"g": {"form": "sigmoid"}, "J0": 2.0,
                                           "gamma": 1.0, "sigma_noise": 0.2}},
                      "init": {"states": {"dist": "normal", "mean": 0, "std": 1},
                               "weights": {"dist": "uniform", "low": 0, "high": 1}}},
        "minimal": {"kind": "minimal", "seed": 13, "N": 16, "T": 1.0, "sample_dt": 0.5,
                    "rates": rates, "init": {"rho_p": 0.5, "p_pp": 0.4, "p_mm": 0.4, "p_pm": 0.2}},
        "voter": {"kind": "voter", "seed": 14, "N": 12, "T": 1.0, "p": 0.3, "q": 0.5,
                  "variant": "pq", "sample_dt": 0.5,
                  "init": {"rho_p": 0.5, "link_prob": 0.4}},
        "hybrid-bc": {"kind": "hybrid-bc", "seed": 15, "N": 8, "T": 0.1, "dt": 1e-3,
                      "tau": 0.01, "F": {"form": "identity"},
                      "r": {"form": "indicator", "threshold": 1.0},
                      "init": {"states": {"dist": "uniform", "low": 0, "high": 2},
                               "link_prob": 0.3}, "sample_stride": 50},
        "closure": {"kind": "closure", "kind_closure": "kirkwood", "seed": 16,
                    "T": 2.0, "dt": 1e-2, "sample_stride": 20, "rates": rates_nocross,
                    "init": {"stationary": {"rho_p": 0.6, "g_pm": 0.1}}},
        "stationary": {"kind": "stationary", "rho_p": 0.6, "g_pm": 0.1,
                       "rates": rates_nocross},
        "continuation": {"kind": "continuation", "kind_closure": "conditional",
                         "rho_p": 0.5, "eps_list": [1e-3],
                         "rates": {k: v for k, v in rates_nocross.items() if k != "beta_pm"}},
        "characteristics": {"kind": "characteristics", "seed": 17, "variant": "wc",
                            "M": 6, "T": 0.5, "dt": 1e-2, "model": model_kr,
                            "init": {"anchors": {"dist": "uniform", "low": -1, "high": 1},
                                     "W0": {"form": "gaussian"}}},
        "compare": {"kind": "compare", "seed": 18, "N": 30, "runs": 2, "T": 1.0,
                    "dt": 0.5, "rates": rates,
                    "init": {"rho_p": 0.5, "p_pp": 0.4, "p_mm": 0.4, "p_pm": 0.2}},
        "epsilon-sweep": {"kind": "epsilon-sweep", "seed": 19, "N": 4, "T": 0.5,
                          "dt": 1e-3, "eps_list": [0.1, 0.01], "model": model_kr,
                          "init": {"states": {"dist": "uniform", "low": -1, "high": 1},
                                   "weights": {"nullcline": True, "offset": 0.3}}},
    }
    assert len(configs) == 11
    for name, cfg in configs.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out_a = tmp_path / f"{name}-a"
        out_b = tmp_path / f"{name}-b"
        assert main(["run", str(cfg_path), "--out", str(out_a)]) == 0, name
        assert main(["run", str(cfg_path), "--out", str(out_b)]) == 0, name
        csvs = sorted(f.name for f in out_a.iterdir() if f.suffix == ".csv")
        assert csvs or name in ("stationary", "continuation"), name
        for csv_name in csvs:
            assert (out_a / csv_name).read_bytes() == (out_b / csv_name).read_bytes(), \
                f"{name}/{csv_name} not bit-identical"
