"""Pinned bytes of CLI runs.

Criterion 13 compares a run with its own rerun; this test compares every
CSV of 14 fixed CLI configurations with the sha256s recorded in
``cli_bytes.json``.  The configurations are the 11 of criterion 13 plus an
RKF45 ``micro`` leg, a five-leg ``epsilon-sweep`` whose eps list is
unsorted and holds a duplicate, and a ``sweep`` of m=2 models whose kernel
parameters differ from 1 (gaussian amplitude 0.7 and length 1.3, kappa 0.5,
quadratic c 1.3), so the kernels run every multiply and divide that a
parameter of 1 folds away.

The hashes depend on numpy's SIMD ``exp`` and friends, so they hold for the
numpy version and CPU features named in the file; on another numpy build
the test is skipped rather than failed.  The file is a record of the code
as it was when it was made: a change that alters a CSV on purpose must say
so, not regenerate it.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from coevnet.cli import main

PINNED = Path(__file__).with_name("cli_bytes.json")

_MODEL_KR = {"name": "kernel-relaxation",
             "params": {"K": {"form": "identity"}, "eta": {"form": "gaussian"}, "kappa": 1.0}}
_RATES = {"alpha_pm": 1.0, "alpha_mp": 1.0, "beta_pp": 0.5, "beta_mm": 0.5,
          "beta_pm": 0.2, "gamma_pp": 0.5, "gamma_mm": 0.5, "gamma_pm": 1.0}
_RATES_NOCROSS = dict(_RATES, beta_pm=0.0, gamma_pm=2.0)
_MICRO_INIT = {"states": {"dist": "uniform", "low": -0.3, "high": 0.3},
               "weights": {"dist": "uniform", "low": 0, "high": 0.2}}
_SWEEP_INIT = {"states": {"dist": "uniform", "low": -1, "high": 1},
               "weights": {"nullcline": True, "offset": 0.3}}

_MODEL_KR2 = {"name": "kernel-relaxation",
              "params": {"K": {"form": "identity"},
                         "eta": {"form": "gaussian", "amplitude": 0.7, "length": 1.3},
                         "kappa": 0.5, "m": 2}}

CONFIGS = {
    "micro": {"kind": "micro", "seed": 11, "N": 6, "T": 0.2, "dt": 1e-2,
              "model": {"name": "quadratic-potential", "params": {"kappa": 1.0, "c": 1.0}},
              "init": _MICRO_INIT},
    "diffusive": {"kind": "diffusive", "seed": 12, "N": 6, "T": 0.2, "dt": 1e-2,
                  "model": {"name": "boschi",
                            "params": {"g": {"form": "sigmoid"}, "J0": 2.0,
                                       "gamma": 1.0, "sigma_noise": 0.2}},
                  "init": {"states": {"dist": "normal", "mean": 0, "std": 1},
                           "weights": {"dist": "uniform", "low": 0, "high": 1}}},
    "minimal": {"kind": "minimal", "seed": 13, "N": 16, "T": 1.0, "sample_dt": 0.5,
                "rates": _RATES, "init": {"rho_p": 0.5, "p_pp": 0.4, "p_mm": 0.4, "p_pm": 0.2}},
    "voter": {"kind": "voter", "seed": 14, "N": 12, "T": 1.0, "p": 0.3, "q": 0.5,
              "variant": "pq", "sample_dt": 0.5, "init": {"rho_p": 0.5, "link_prob": 0.4}},
    "hybrid-bc": {"kind": "hybrid-bc", "seed": 15, "N": 8, "T": 0.1, "dt": 1e-3,
                  "tau": 0.01, "F": {"form": "identity"},
                  "r": {"form": "indicator", "threshold": 1.0},
                  "init": {"states": {"dist": "uniform", "low": 0, "high": 2}, "link_prob": 0.3},
                  "sample_stride": 50},
    "closure": {"kind": "closure", "kind_closure": "kirkwood", "seed": 16,
                "T": 2.0, "dt": 1e-2, "sample_stride": 20, "rates": _RATES_NOCROSS,
                "init": {"stationary": {"rho_p": 0.6, "g_pm": 0.1}}},
    "stationary": {"kind": "stationary", "rho_p": 0.6, "g_pm": 0.1, "rates": _RATES_NOCROSS},
    "continuation": {"kind": "continuation", "kind_closure": "conditional",
                     "rho_p": 0.5, "eps_list": [1e-3],
                     "rates": {k: v for k, v in _RATES_NOCROSS.items() if k != "beta_pm"}},
    "characteristics": {"kind": "characteristics", "seed": 17, "variant": "wc",
                        "M": 6, "T": 0.5, "dt": 1e-2, "model": _MODEL_KR,
                        "init": {"anchors": {"dist": "uniform", "low": -1, "high": 1},
                                 "W0": {"form": "gaussian"}}},
    "compare": {"kind": "compare", "seed": 18, "N": 30, "runs": 2, "T": 1.0,
                "dt": 0.5, "rates": _RATES,
                "init": {"rho_p": 0.5, "p_pp": 0.4, "p_mm": 0.4, "p_pm": 0.2}},
    "epsilon-sweep": {"kind": "epsilon-sweep", "seed": 19, "N": 4, "T": 0.5,
                      "dt": 1e-3, "eps_list": [0.1, 0.01], "model": _MODEL_KR,
                      "init": _SWEEP_INIT},
    "micro-rkf45": {"kind": "micro", "seed": 20, "N": 5, "T": 0.3, "dt": 5e-2,
                    "eps_w": 0.05, "method": "rkf45", "model": _MODEL_KR, "init": _MICRO_INIT},
    "epsilon-sweep-5": {"kind": "epsilon-sweep", "seed": 21, "N": 6, "T": 0.2,
                        "dt": 1e-3, "eps_list": [0.01, 0.2, 0.05, 0.2, 0.003],
                        "reduced_dt": 1e-2, "model": _MODEL_KR, "init": _SWEEP_INIT},
    "unfolded": {"sweep": [
        {"kind": "micro", "seed": 22, "N": 5, "T": 0.2, "dt": 1e-2, "model": _MODEL_KR2,
         "init": _MICRO_INIT},
        {"kind": "characteristics", "seed": 23, "variant": "wc", "M": 5, "T": 0.3,
         "dt": 1e-2, "model": _MODEL_KR2,
         "init": {"anchors": {"dist": "uniform", "low": -1, "high": 1},
                  "W0": {"form": "gaussian", "amplitude": 0.7, "length": 1.3}}},
        {"kind": "micro", "seed": 24, "N": 5, "T": 0.2, "dt": 1e-2,
         "model": {"name": "quadratic-potential", "params": {"kappa": 0.5, "c": 1.3, "m": 2}},
         "init": _MICRO_INIT}]},
}


def _hash_runs(tmp_path: Path) -> dict:
    """sha256 of every CSV each configuration writes, keyed "<config>/<file>"
    (a sweep leg's files under "<config>/sweep-<k>/<file>")."""
    hashes = {}
    for name, cfg in CONFIGS.items():
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / name
        assert main(["run", str(cfg_path), "--out", str(out)]) == 0, name
        for csv in sorted(out.rglob("*.csv")):
            hashes[f"{name}/{csv.relative_to(out).as_posix()}"] = hashlib.sha256(csv.read_bytes()).hexdigest()
    return hashes


def test_cli_csvs_match_their_pinned_sha256s(tmp_path):
    pinned = json.loads(PINNED.read_text())
    if np.__version__ != pinned["numpy"]:
        pytest.skip(f"hashes were made with numpy {pinned['numpy']}, this is {np.__version__}")
    got = _hash_runs(tmp_path)
    assert sorted(got) == sorted(pinned["sha256"])
    changed = [k for k in got if got[k] != pinned["sha256"][k]]
    assert not changed, f"CSV bytes differ from the pinned run: {changed}"
