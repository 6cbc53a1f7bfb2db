"""The benchmark's four workloads.

Each workload builds its inputs from the workload seed only, runs a fixed
batch of public coevnet calls ("ops"), and checks every op's output.  The
checks that hold for any seed are invariants; for ``DEFAULT_SEED`` the
outputs are also compared with ``reference.json``, recorded from the
program when the benchmark was defined.

Functions are looked up on the package (``pkg.integrate_closure``) or the
module (``cli.main``) at call time, so the traced run sees its wrappers.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import numpy as np

DEFAULT_SEED = 0

# Rates and initial link densities of acceptance criterion 11.
CRITERION_11_RATES = dict(alpha_pm=1.0, alpha_mp=1.0, beta_pp=0.4, beta_mm=0.4,
                          beta_pm=0.1, gamma_pp=0.4, gamma_mm=0.4, gamma_pm=1.0)
CRITERION_11_INIT = {"rho_p": 0.5, "p_pp": 0.5, "p_mm": 0.5, "p_pm": 0.25}


def _random_rates(rng, equal_alpha=False, beta_pm=None) -> np.ndarray:
    vals = rng.uniform(0.05, 2.0, size=8)
    if equal_alpha:
        vals[1] = vals[0]
    if beta_pm is not None:
        vals[4] = beta_pm
    return vals


def _random_moments(rng, floor=0.02) -> np.ndarray:
    raw = rng.random(6) + floor
    return raw / (raw[0] + raw[1] + raw[2] + raw[3] + 2 * raw[4] + 2 * raw[5])


def _mass(y: np.ndarray) -> np.ndarray:
    return y[..., :4].sum(axis=-1) + 2.0 * y[..., 4:].sum(axis=-1)


def _rho_p(y: np.ndarray) -> np.ndarray:
    return y[..., 0] + y[..., 1] + y[..., 4] + y[..., 5]


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


class Workload:
    """A named, seeded batch of public calls with output checks.

    ``inputs`` is the set-up (everything built before the timed batch);
    ``ops`` lists (label, callable) pairs, one per public call; ``check``
    returns the invariant violations of one op's output; ``fingerprint``
    is what ``reference.json`` stores for the default seed, compared with
    ``tolerance`` (0 means exactly equal).
    """

    name = ""
    why = ""
    tolerance = 0.0

    def inputs(self, pkg, seed: int, workdir: str) -> dict:
        raise NotImplementedError

    def warmup(self, pkg, inp: dict) -> None:
        raise NotImplementedError

    def reset(self, inp: dict) -> None:
        """Undo what the previous batch left behind (not timed)."""

    def ops(self, pkg, inp: dict) -> list:
        raise NotImplementedError

    def check(self, pkg, inp: dict, label: str, out) -> list[str]:
        raise NotImplementedError

    def fingerprint(self, pkg, inp: dict, label: str, out):
        raise NotImplementedError

    def check_reference(self, pkg, inp: dict, label: str, out, ref) -> list[str]:
        """Differences between an op's fingerprint and its reference."""
        return compare_fingerprint(self.fingerprint(pkg, inp, label, out), ref, self.tolerance, label)


def compare_fingerprint(got, ref, tol: float, where: str) -> list[str]:
    """Recursive comparison of JSON-like values; numbers within ``tol``."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or set(got) != set(ref):
            return [f"{where}: keys differ from the reference"]
        errs = []
        for k in ref:
            errs += compare_fingerprint(got[k], ref[k], tol, f"{where}.{k}")
        return errs
    if isinstance(ref, str):
        return [] if got == ref else [f"{where}: {got!r} != reference {ref!r}"]
    a = np.asarray(got, dtype=float)
    b = np.asarray(ref, dtype=float)
    if a.shape != b.shape:
        return [f"{where}: shape {a.shape} != reference {b.shape}"]
    diff = float(np.max(np.abs(a - b))) if a.size else 0.0
    if diff > tol or not np.all(np.isfinite(a)):
        return [f"{where}: differs from the reference by {diff:.3e} (allowed {tol:g})"]
    return []


class ClosureScan(Workload):
    name = "closure-scan"
    why = "closure RK4 loop under both closures plus stationary, Jacobian and continuation calls; touches only closures"
    tolerance = 1e-12
    T = 2.0

    def inputs(self, pkg, seed, workdir):
        rng = np.random.default_rng(seed)
        cases = [(pkg.MinimalParams(*_random_rates(rng, equal_alpha=k < 4)),
                  pkg.MinimalMoments(*_random_moments(rng))) for k in range(8)]
        polar = []
        for _ in range(8):
            p = pkg.MinimalParams(*_random_rates(rng, beta_pm=0.0))
            rho = float(rng.uniform(0.1, 0.9))
            polar.append((p, rho, float(rng.uniform(0.0, 0.8 * min(rho, 1 - rho)))))
        base = dict(alpha_pm=1.0, alpha_mp=1.0, beta_pp=1.0, beta_mm=1.0,
                    gamma_pp=1.0, gamma_mm=1.0, gamma_pm=2.0)
        cont = [pkg.MinimalParams(beta_pm=eps, **base) for eps in (1e-2, 1e-3, 1e-4)]
        return {"cases": cases, "polar": polar, "cont": cont,
                "cont_rho": float(rng.uniform(0.3, 0.7))}

    def warmup(self, pkg, inp):
        p, m0 = inp["cases"][0]
        pkg.integrate_closure(m0, p, pkg.ClosureKind.CONDITIONAL, dt=1e-3, T=0.01)

    def ops(self, pkg, inp):
        kinds = (pkg.ClosureKind.CONDITIONAL, pkg.ClosureKind.KIRKWOOD)
        ops = []
        for k, (p, m0) in enumerate(inp["cases"]):
            for kind in kinds:
                ops.append((f"closure{k}.{kind.value}",
                            lambda p=p, m0=m0, kind=kind: pkg.integrate_closure(
                                m0, p, kind, dt=1e-3, T=self.T, sample_stride=50)))

        def polarized(p, rho, g):
            m = pkg.stationary_polarized(p, rho, g)
            return m, [pkg.linearized_jacobian(p, m, kind) for kind in kinds]
        for k, args in enumerate(inp["polar"]):
            ops.append((f"polarized{k}", lambda args=args: polarized(*args)))
        for p in inp["cont"]:
            ops.append((f"continuation.eps{p.beta_pm:g}",
                        lambda p=p: pkg.continue_small_epsilon(
                            p, inp["cont_rho"], pkg.ClosureKind.CONDITIONAL)))
        return ops

    def check(self, pkg, inp, label, out):
        errs = []
        if label.startswith("closure"):
            k = int(label[len("closure"):].split(".")[0])
            p, m0 = inp["cases"][k]
            y = out.moments
            if np.max(np.abs(_mass(y) - 1.0)) > 1e-10:
                errs.append(f"{label}: mass drifted beyond 1e-10")
            if p.alpha_pm == p.alpha_mp and np.max(np.abs(_rho_p(y) - m0.rho_p)) > 1e-10:
                errs.append(f"{label}: rho_+ drifted beyond 1e-10 with equal flip rates")
        elif label.startswith("polarized"):
            p = inp["polar"][int(label[len("polarized"):])][0]
            m, jacs = out
            for kind in (pkg.ClosureKind.CONDITIONAL, pkg.ClosureKind.KIRKWOOD):
                if np.max(np.abs(pkg.closure_rhs(m, p, kind))) > 1e-10:
                    errs.append(f"{label}: stationary residual above 1e-10 ({kind.value})")
            for jac in jacs:
                if int(np.sum(np.abs(jac.eigenvalues) <= 1e-8)) < 3:
                    errs.append(f"{label}: fewer than three zero eigenvalues ({jac.kind.value})")
        else:
            if not out.residual <= 1e-10:
                errs.append(f"{label}: branch residual {out.residual:.3e} above 1e-10")
            if not out.moments.f_pm > 0.0:
                errs.append(f"{label}: f_pm is not positive")
        return errs

    def fingerprint(self, pkg, inp, label, out):
        if label.startswith("closure"):
            return out.moments[-1].tolist()
        if label.startswith("polarized"):
            m, jacs = out
            return {"moments": m.as_array().tolist(),
                    "lambda_pm": [jac.lambda_pm for jac in jacs]}
        return out.moments.as_array().tolist()


class MicroMacro(Workload):
    name = "micro-macro"
    why = "exact Gillespie ensemble against both closures (run_comparison); jumpsim ~90%, closures ~7%"
    tolerance = 0.0
    N, RUNS, T, DT = 400, 4, 1.25, 0.25

    def inputs(self, pkg, seed, workdir):
        return {"p": pkg.MinimalParams(**CRITERION_11_RATES), "seed": seed}

    def warmup(self, pkg, inp):
        pkg.run_comparison(inp["p"], N=20, runs=2, T=self.DT, dt=self.DT,
                           seed=inp["seed"], init=CRITERION_11_INIT)

    def ops(self, pkg, inp):
        return [("run_comparison", lambda: pkg.run_comparison(
            inp["p"], N=self.N, runs=self.RUNS, T=self.T, dt=self.DT,
            seed=inp["seed"], init=CRITERION_11_INIT, workers=1))]

    def check(self, pkg, inp, label, out):
        errs = []
        if np.max(np.abs(_mass(out.mean_moments) - 1.0)) > 1e-12:
            errs.append(f"{label}: ensemble-mean mass differs from 1 by more than 1e-12")
        if out.closure_status != {"conditional": "completed", "kirkwood": "completed"}:
            errs.append(f"{label}: closure status {out.closure_status}")
        return errs

    def check_reference(self, pkg, inp, label, out, ref):
        # criterion 11's Monte-Carlo band is a statistical statement, so it
        # is only required of the seed whose outcome was recorded
        errs = super().check_reference(pkg, inp, label, out, ref)
        rho_closure = _rho_p(out.closure_conditional)
        n = rho_closure.size
        gap = np.abs(out.mean_rho_p[:n] - rho_closure)
        if np.any(gap > np.maximum(3.0 * out.stderr_rho_p[:n], 1e-12)):
            errs.append(f"{label}: rho_+ outside the 3-stderr band of the closure")
        return errs

    def fingerprint(self, pkg, inp, label, out):
        return out.mean_moments.tolist()


class FastNetwork(Workload):
    name = "fast-network"
    why = "epsilon sweep to the fast-network limit at N=4 plus an RKF45 leg: nullcline bisection, stepping, per-call overhead"
    tolerance = 1e-12
    EPS = (0.1, 0.01, 0.001)

    def inputs(self, pkg, seed, workdir):
        rng = np.random.default_rng(seed)
        model = pkg.catalog("kernel-relaxation", {
            "K": lambda x: x,
            "eta": lambda x: np.exp(-np.sum(x * x, axis=-1)),
            "kappa": 1.0,
        })
        states = rng.uniform(-1.0, 1.5, size=(4, 1))
        W = np.zeros((4, 4))
        for i in range(4):
            for j in range(i + 1, 4):
                W[i, j] = W[j, i] = pkg.solve_weight_nullcline(model, states[i], states[j]) + 0.5
        return {"model": model, "cfg": pkg.AgentConfiguration(states=states, weights=W)}

    def warmup(self, pkg, inp):
        pkg.run_epsilon_sweep(inp["model"], inp["cfg"], eps_list=[0.1], dt=1e-3, T=2e-3)

    def ops(self, pkg, inp):
        return [
            ("run_epsilon_sweep", lambda: pkg.run_epsilon_sweep(
                inp["model"], inp["cfg"], eps_list=list(self.EPS), dt=1e-4, T=0.1,
                reduced_dt=1e-3)),
            ("integrate_micro.rkf45", lambda: pkg.integrate_micro(
                inp["cfg"], inp["model"], dt=1e-2, T=0.5, eps_w=1e-3, method="rkf45")),
        ]

    def check(self, pkg, inp, label, out):
        errs = []
        if label == "run_epsilon_sweep":
            g = out.gaps
            if not (all(g[k] > g[k + 1] for k in range(len(g) - 1)) and out.monotone):
                errs.append(f"{label}: gaps {g} are not strictly decreasing")
        else:
            if out.aborted:
                errs.append(f"{label}: aborted: {out.diagnostic}")
            if not all(np.array_equal(c.weights, c.weights.T) for c in out.configs):
                errs.append(f"{label}: weight matrix lost bitwise symmetry")
        return errs

    def fingerprint(self, pkg, inp, label, out):
        if label == "run_epsilon_sweep":
            return out.gaps
        return {"states": out.final().states.tolist(), "weights": out.final().weights.tolist()}


class FieldCli(Workload):
    name = "field-cli"
    why = "in-process CLI sweep (micro N=200, characteristics M=150, minimal N=200, closure) writing every artifact"
    tolerance = 0.0
    N_MICRO, N_CHAR, N_MIN = 200, 150, 200
    LEGS = ("sweep-0000", "sweep-0001", "sweep-0002", "sweep-0003")

    def inputs(self, pkg, seed, workdir):
        rng = np.random.default_rng(seed)
        kr = {"name": "kernel-relaxation", "params": {
            "K": {"form": "identity"},
            "eta": {"form": "gaussian", "amplitude": 1.0, "length": 1.0},
            "kappa": 1.0}}
        rates = dict(CRITERION_11_RATES)
        sweep = [
            {"kind": "micro", "seed": 4 * seed, "model": kr, "N": self.N_MICRO,
             "T": 1.5, "dt": 0.01, "sample_stride": 30,
             "init": {"states": {"dist": "uniform", "low": -1.0, "high": 1.0},
                      "weights": {"dist": "uniform", "low": 0.0, "high": 1.0}}},
            {"kind": "characteristics", "seed": 4 * seed + 1, "model": kr,
             "variant": "conditional", "M": self.N_CHAR, "T": 1.5, "dt": 0.01,
             "sample_stride": 75,
             "init": {"anchors": {"dist": "uniform", "low": -1.0, "high": 1.0},
                      "W0": {"form": "gaussian", "amplitude": 1.0, "length": 1.0}}},
            {"kind": "minimal", "seed": 4 * seed + 2, "rates": rates, "N": self.N_MIN,
             "T": 1.0, "sample_dt": 0.5, "record_events": True, "init": CRITERION_11_INIT},
            {"kind": "closure", "seed": 4 * seed + 3, "rates": rates,
             "kind_closure": "kirkwood", "T": 2.0, "dt": 1e-3, "sample_stride": 10,
             "init": {"moments": _random_moments(rng).tolist()}},
        ]
        os.makedirs(workdir, exist_ok=True)
        path = os.path.join(workdir, "field-cli.json")
        with open(path, "w") as f:
            json.dump({"sweep": sweep}, f, indent=1)
        return {"config": path, "out": os.path.join(workdir, "out")}

    def warmup(self, pkg, inp):
        with open(inp["config"]) as f:
            sys.modules["coevnet.cli"].validate_config(json.load(f))

    def reset(self, inp):
        shutil.rmtree(inp["out"], ignore_errors=True)

    def ops(self, pkg, inp):
        cli = sys.modules["coevnet.cli"]
        return [("cli.main", lambda: cli.main(["run", inp["config"], "--out", inp["out"]]))]

    def _csvs(self, out_dir):
        found = {}
        for leg in self.LEGS:
            d = os.path.join(out_dir, leg)
            for fname in sorted(os.listdir(d)) if os.path.isdir(d) else ():
                if fname.endswith(".csv"):
                    found[f"{leg}/{fname}"] = os.path.join(d, fname)
        return found

    def check(self, pkg, inp, label, rc):
        if rc != 0:
            return [f"{label}: exit code {rc}"]
        errs = []
        out = inp["out"]
        expect = {
            "sweep-0000/states.csv": None, "sweep-0000/weights.csv": 6 * self.N_MICRO * (self.N_MICRO - 1),
            "sweep-0001/anchors.csv": None, "sweep-0001/pair_weights.csv": 3 * self.N_CHAR * (self.N_CHAR - 1),
            "sweep-0002/states.csv": None, "sweep-0002/weights.csv": 3 * self.N_MIN * (self.N_MIN - 1),
            "sweep-0002/events.csv": None, "sweep-0002/moments.csv": None,
            "sweep-0003/trajectory.csv": None,
        }
        csvs = self._csvs(out)
        if set(csvs) != set(expect):
            return [f"{label}: artifacts {sorted(csvs)} differ from {sorted(expect)}"]
        for key, rows in expect.items():
            if rows is not None:
                with open(csvs[key], "rb") as f:
                    n = f.read().count(b"\n") - 1
                if n != rows:
                    errs.append(f"{label}: {key} has {n} rows, expected {rows}")
        # the minimal leg's last moments row must be the moments of its final
        # snapshot, read back from states.csv and weights.csv
        final_moments = _read_rows(csvs["sweep-0002/moments.csv"], 1)[0][1:]
        states_rows = _read_rows(csvs["sweep-0002/states.csv"], self.N_MIN)
        weight_rows = _read_rows(csvs["sweep-0002/weights.csv"], self.N_MIN * (self.N_MIN - 1))
        states = np.array([r[2] for r in states_rows], dtype=np.int8)
        W = np.zeros((self.N_MIN, self.N_MIN), dtype=np.int8)
        ij = np.array([r[1:3] for r in weight_rows], dtype=np.int64)
        W[ij[:, 0], ij[:, 1]] = np.array([r[3] for r in weight_rows], dtype=np.int8)
        readback = pkg.minimal_moments(pkg.DiscreteConfiguration(states=states, weights=W))
        if readback.as_array().tolist() != list(final_moments):
            errs.append(f"{label}: last moments.csv row differs from the moments of the final snapshot")
        last = np.array(_read_rows(csvs["sweep-0003/trajectory.csv"], 1)[0][1:7])
        if abs(float(_mass(last)) - 1.0) > 1e-10:
            errs.append(f"{label}: closure leg mass drifted beyond 1e-10")
        return errs

    def fingerprint(self, pkg, inp, label, rc):
        return {key: _sha256(path) for key, path in self._csvs(inp["out"]).items()}


def _read_rows(path, last: int) -> list[list[float]]:
    """The last ``last`` rows of a numeric CSV file."""
    with open(path) as f:
        lines = f.read().splitlines()[1:][-last:]
    return [[float(v) for v in line.split(",")] for line in lines]


WORKLOADS = {w.name: w for w in (ClosureScan(), MicroMacro(), FastNetwork(), FieldCli())}
