"""Model catalog: force bundles for continuous dynamics and rate bundles
for the discrete minimal model.

Kernel conventions
------------------
All callables are numpy-vectorized and broadcast:

* state arguments ``s``, ``sigma`` have shape ``(..., m)`` (state axis last),
* weight argument ``w`` has shape ``(...,)``,
* ``U(s, sigma, w) -> (..., m)`` is the state drift exerted on ``s`` by a
  partner at ``sigma`` through a link of weight ``w``,
* ``V(s, sigma, w) -> (...)`` is the weight drift,
* ``U0(s) -> (..., m)`` is an optional external force,
* ``Q(s) -> (...)`` and ``R(s, sigma, w) -> (...)`` are optional nonnegative
  diffusion coefficients for states and weights.

The micro flow passes broadcastable views, not full grids: ``s`` has shape
``(L, N, 1, m)``, ``sigma`` ``(L, 1, N, m)`` and ``w`` ``(L, N, N)``, with a
leading axis of L stacked legs.  A result is read in place, with any
strides, and never written, so a kernel may return a view of its
arguments, a read-only array or a list.  One smaller than the pair grid
(say ``np.zeros(np.shape(s))``) is broadcast to it; one that does not
broadcast raises ModelError.

Pair potentials generate forces via ``U = -grad_s F`` and ``V = -c d_w F``;
catalog potentials carry closed-form derivatives so production runs never
fall back to finite differences.

The catalog kernels are bitwise their formulas but skip known results: a
parameter of 1.0 is folded away when built (``1.0 * x`` is ``x`` in IEEE
arithmetic), a length-1 state axis is read, not summed, and U negates in place.

Pair form: the catalog's kernel-relaxation model also carries its kernels
K and eta, its kappa and the U and V built from them, as a ``PairForm`` in
the private field ``_pair_form``, which neither a constructor argument nor
a config sets.  ``microsim`` uses it while the model's U and V are still
the form's own (a copy with a replaced U or V, a ``dataclasses.replace``
and every hand-built model run on U and V as they are): a flow evaluation
then calls eta and K once each, each on s_i - s_j in scratch of its own,
reads their results as it reads U and V (a result smaller than its grid
too), and forms U = -(w K) and V = eta - kappa w itself, with the same IEEE
operations on the same operands as the catalog's U and V, so the bytes are
theirs; a nullcline solve takes eta once.  exp, where eta has one, stays in the model's eta.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, NamedTuple

import numpy as np

from .errors import ModelError

_FD_STEP = 1e-5
_FD_RTOL = 1e-6
_PROBE_SEED = 20260301


def _probe_points(m: int, n: int, seed: int = _PROBE_SEED):
    rng = np.random.default_rng(seed)
    s = rng.uniform(-2.0, 2.0, size=(n, m))
    sig = rng.uniform(-2.0, 2.0, size=(n, m))
    w = rng.uniform(-2.0, 2.0, size=n)
    return s, sig, w


class PairForm(NamedTuple):
    """The kernel-relaxation model's pair form (see the module docstring):
    U = -w K(s - sigma) and V = eta(s - sigma) - kappa w, the U and V that
    catalog built from K, eta and kappa."""

    K: Callable
    eta: Callable
    kappa: float
    U: Callable
    V: Callable


@dataclass(frozen=True)
class SmoothModel:
    """Force bundle (U, V, U0, Q, R) for the continuous co-evolution system."""

    U: Callable
    V: Callable
    m: int = 1
    U0: Callable | None = None
    Q: Callable | None = None
    R: Callable | None = None
    symmetric_V: bool = False
    potential: "PotentialModel | None" = None
    name: str = "custom"
    _pair_form: PairForm | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ModelError("state dimension m must be >= 1")
        s, sig, w = _probe_points(self.m, 64)
        u = np.asarray(self.U(s, sig, w), dtype=float)
        v = np.asarray(self.V(s, sig, w), dtype=float)
        if u.shape != s.shape:
            raise ModelError(f"U must return shape (..., m); got {u.shape}")
        if v.shape != w.shape:
            raise ModelError(f"V must return shape (...,); got {v.shape}")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ModelError("U/V produced non-finite values on the probe grid")
        if self.U0 is not None and not np.all(np.isfinite(self.U0(s))):
            raise ModelError("U0 produced non-finite values on the probe grid")
        if self.Q is not None:
            q = np.asarray(self.Q(s), dtype=float)
            if not np.all(np.isfinite(q)):
                raise ModelError("Q produced non-finite values on the probe grid")
            if np.any(q < 0):
                raise ModelError("state diffusion coefficient Q must be nonnegative")
        if self.R is not None:
            r = np.asarray(self.R(s, sig, w), dtype=float)
            if not np.all(np.isfinite(r)) or np.any(r < 0):
                raise ModelError("weight diffusion coefficient R must be nonnegative and finite")
        if self.symmetric_V:
            v_swapped = np.asarray(self.V(sig, s, w), dtype=float)
            if np.any(v != v_swapped):
                raise ModelError("symmetric_V is set but V(s, sigma, w) != V(sigma, s, w) on probes")


def probe_symmetry_gap(model: SmoothModel, n: int = 10_000, seed: int = 7) -> float:
    """Max |V(s, sigma, w) - V(sigma, s, w)| over n random probe triples."""
    s, sig, w = _probe_points(model.m, n, seed)
    return float(np.max(np.abs(model.V(s, sig, w) - model.V(sig, s, w))))


@dataclass(frozen=True)
class PotentialModel:
    """Pair potential F(s, sigma, w) with weight mobility constant c.

    ``grad_s`` / ``d_w`` are optional closed-form derivatives; when absent,
    central differences (step 1e-5) are used and cross-checked at 1e-6
    relative tolerance.
    """

    F: Callable
    c: float = 1.0
    m: int = 1
    grad_s: Callable | None = None
    d_w: Callable | None = None
    name: str = "custom-potential"

    def __post_init__(self):
        if not self.c > 0:
            raise ModelError("weight mobility c must be positive")
        s, sig, w = _probe_points(self.m, 64)
        f = np.asarray(self.F(s, sig, w), dtype=float)
        if not np.all(np.isfinite(f)):
            raise ModelError("potential F produced non-finite values on the probe grid")

    def fd_grad_s(self, s, sig, w):
        s = np.asarray(s, dtype=float)
        out = np.empty(np.broadcast_shapes(s.shape, np.shape(sig), np.shape(w) + (self.m,)))
        for k in range(self.m):
            e = np.zeros(self.m)
            e[k] = _FD_STEP
            out[..., k] = (self.F(s + e, sig, w) - self.F(s - e, sig, w)) / (2 * _FD_STEP)
        return out

    def fd_d_w(self, s, sig, w):
        w = np.asarray(w, dtype=float)
        return (self.F(s, sig, w + _FD_STEP) - self.F(s, sig, w - _FD_STEP)) / (2 * _FD_STEP)

    def eval_grad_s(self, s, sig, w):
        if self.grad_s is not None:
            return np.asarray(self.grad_s(s, sig, w), dtype=float)
        return self.fd_grad_s(s, sig, w)

    def eval_d_w(self, s, sig, w):
        if self.d_w is not None:
            return np.asarray(self.d_w(s, sig, w), dtype=float)
        return self.fd_d_w(s, sig, w)


def _times(k: float) -> Callable:
    """x -> k * x, folded to the identity when k is 1.0 (exact: 1.0 * x is x)."""
    return (lambda x: x) if k == 1.0 else (lambda x: k * x)


def _rel_close(a: np.ndarray, b: np.ndarray, rtol: float) -> bool:
    scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return bool(np.all(np.abs(a - b) <= rtol * scale))


def derive_forces(pot: PotentialModel) -> SmoothModel:
    """Build the force bundle U = -grad_s F, V = -c d_w F from a potential.

    Closed-form derivatives are used when the potential carries them; they
    are validated against central differences on a probe grid.  The V
    symmetry flag is set only when F is exactly exchange-symmetric on probes.
    """
    s, sig, w = _probe_points(pot.m, 200)
    gs = pot.eval_grad_s(s, sig, w)
    dw = pot.eval_d_w(s, sig, w)
    if pot.grad_s is not None and not _rel_close(gs, pot.fd_grad_s(s, sig, w), _FD_RTOL):
        raise ModelError("analytic grad_s disagrees with central differences on the probe grid")
    if pot.d_w is not None and not _rel_close(dw, pot.fd_d_w(s, sig, w), _FD_RTOL):
        raise ModelError("analytic d_w disagrees with central differences on the probe grid")

    c = pot.c

    def U(s, sig, w, _p=pot):
        return -_p.eval_grad_s(np.asarray(s, dtype=float), np.asarray(sig, dtype=float), np.asarray(w, dtype=float))

    def V(s, sig, w, _p=pot, _c=c):
        return -_c * _p.eval_d_w(np.asarray(s, dtype=float), np.asarray(sig, dtype=float), np.asarray(w, dtype=float))

    f_fwd = np.asarray(pot.F(s, sig, w), dtype=float)
    f_swp = np.asarray(pot.F(sig, s, w), dtype=float)
    symmetric = bool(np.all(f_fwd == f_swp))
    return SmoothModel(U=U, V=V, m=pot.m, symmetric_V=symmetric, potential=pot,
                       name=f"potential:{pot.name}")


def kernel_potential(
    G: Callable,
    grad_G: Callable | None = None,
    kappa: float = 1.0,
    c: float = 1.0,
    m: int = 1,
    name: str = "kernel",
) -> PotentialModel:
    """Pair potential F = w G(s - sigma) + kappa w^2 / (2c) for a kernel G.

    ``G`` maps a difference vector (..., m) to a scalar (...); ``grad_G`` is
    its gradient, enabling closed-form forces.
    """

    def F(s, sig, w):
        return np.asarray(w, dtype=float) * G(np.asarray(s, dtype=float) - sig) \
            + kappa * np.square(np.asarray(w, dtype=float)) / (2.0 * c)

    grad_s = None
    if grad_G is not None:
        def grad_s(s, sig, w):
            return np.asarray(w, dtype=float)[..., None] * np.asarray(
                grad_G(np.asarray(s, dtype=float) - sig), dtype=float)

    def d_w(s, sig, w, _relax=_times(kappa / c)):
        return G(np.asarray(s, dtype=float) - sig) + _relax(np.asarray(w, dtype=float))

    return PotentialModel(F=F, c=c, m=m, grad_s=grad_s, d_w=d_w, name=name)


def quadratic_potential(kappa: float = 1.0, c: float = 1.0, m: int = 1) -> PotentialModel:
    """F = w |s - sigma|^2 + kappa w^2 / (2c), with closed-form derivatives."""

    def G(x):
        sq = np.square(np.asarray(x, dtype=float))
        return sq[..., 0] if sq.shape[-1] == 1 else np.sum(sq, axis=-1)

    def grad_G(x):
        return 2.0 * np.asarray(x, dtype=float)

    return kernel_potential(G, grad_G, kappa=kappa, c=c, m=m, name="quadratic")


@dataclass(frozen=True)
class MinimalParams:
    """Rates of the binary-state / binary-weight minimal model.

    ``alpha_pm`` is the rate at which a plus agent in contact with a minus
    agent flips to minus; ``alpha_mp`` the reverse.  ``beta_ab`` creates and
    ``gamma_ab`` removes links, looked up by the unordered state pair of the
    endpoints.  Same-state contacts never flip states.
    """

    alpha_pm: float = 0.0
    alpha_mp: float = 0.0
    beta_pp: float = 0.0
    beta_mm: float = 0.0
    beta_pm: float = 0.0
    gamma_pp: float = 0.0
    gamma_mm: float = 0.0
    gamma_pm: float = 0.0

    def __post_init__(self):
        for rate in fields(self):
            v = getattr(self, rate.name)
            if not np.isfinite(v) or v < 0:
                raise ModelError(f"rate {rate.name} must be finite and nonnegative, got {v}")

    def as_array(self) -> np.ndarray:
        return np.array([self.alpha_pm, self.alpha_mp, self.beta_pp, self.beta_mm,
                         self.beta_pm, self.gamma_pp, self.gamma_mm, self.gamma_pm])


# catalog model name -> (its kernel parameters, each mapped to whether it takes
# a state vector to a scalar, (..., m) -> (...), rather than acting elementwise;
# its numeric parameters with their defaults, where None marks a required
# parameter and an int default an integer one)
MODEL_SCHEMA = {
    "kernel-relaxation": ({"K": False, "eta": True}, {"kappa": None, "m": 1}),
    "boschi": ({"g": False}, {"J0": None, "gamma": None, "sigma_noise": 0.0, "m": 1}),
    "quadratic-potential": ({}, {"kappa": 1.0, "c": 1.0, "m": 1}),
}


def catalog(name: str, params: Mapping | None = None) -> SmoothModel:
    """Construct a named catalog model from the parameters MODEL_SCHEMA lists;
    a parameter it does not list raises ModelError.

    * ``kernel-relaxation``: U = -w K(s - sigma), V = eta(s - sigma) - kappa w;
      K odd, (..., m) -> (..., m), eta even and nonnegative, (..., m) -> (...).
    * ``boschi``: U = w g(sigma), U0 = -s, V = gamma (J0 g(s) g(sigma) - w),
      Q = sigma_noise^2 / 2, R = 0; g a scalar kernel on states, m = 1 only.
    * ``quadratic-potential``: the quadratic pair potential through derive_forces.
    """
    if name not in MODEL_SCHEMA:
        raise ModelError(f"unknown catalog model {name!r}")
    kernels, numbers = MODEL_SCHEMA[name]
    params = params or {}
    unknown = set(params) - {*kernels, *numbers}
    if unknown:
        raise ModelError(f"catalog model {name!r} has no parameter(s) {sorted(unknown)}")
    for key in (*kernels, *(k for k, d in numbers.items() if d is None)):
        if key not in params:
            raise ModelError(f"catalog model {name!r} requires parameter {key!r}")
    args = {k: params[k] for k in kernels}
    args.update({k: (int if isinstance(d, int) else float)(params.get(k, d))
                 for k, d in numbers.items()})

    if name == "quadratic-potential":
        return derive_forces(quadratic_potential(**args))

    if name == "kernel-relaxation":
        def U(s, sig, w, _K=args["K"]):
            u = np.asarray(w, dtype=float)[..., None] * np.asarray(_K(np.asarray(s, dtype=float) - sig), dtype=float)
            return np.negative(u, out=u)   # -(w K) is (-w) K: negation is exact

        def V(s, sig, w, _eta=args["eta"], _relax=_times(args["kappa"])):
            return np.asarray(_eta(np.asarray(s, dtype=float) - sig), dtype=float) - _relax(np.asarray(w, dtype=float))

        model = SmoothModel(U=U, V=V, m=args["m"], symmetric_V=True, name=name)
        object.__setattr__(model, "_pair_form", PairForm(args["K"], args["eta"], args["kappa"], U, V))
        return model

    # boschi: a scalar-opinion model; g is an elementwise function of the opinion
    if args["m"] != 1:
        raise ModelError("the boschi catalog model is scalar (m = 1)")
    if args["gamma"] < 0:
        raise ModelError("boschi relaxation rate gamma must be nonnegative")

    def U(s, sig, w, _g=args["g"]):
        gval = np.asarray(_g(np.asarray(sig, dtype=float)[..., 0]), dtype=float)
        return (np.asarray(w, dtype=float) * gval)[..., None]

    def V(s, sig, w, _g=args["g"], _J0=args["J0"], _gam=args["gamma"]):
        gs = np.asarray(_g(np.asarray(s, dtype=float)[..., 0]), dtype=float)
        gsig = np.asarray(_g(np.asarray(sig, dtype=float)[..., 0]), dtype=float)
        # J0 (g(s) g(sigma)) is bitwise exchange-symmetric; (J0 g(s)) g(sigma) is not
        return _gam * (_J0 * (gs * gsig) - np.asarray(w, dtype=float))

    def U0(s):
        return -np.asarray(s, dtype=float)

    def Q(s, _q=0.5 * args["sigma_noise"] ** 2):
        return np.full(np.asarray(s).shape[:-1], _q)

    def R(s, sig, w):
        return np.zeros(np.asarray(w).shape)

    return SmoothModel(U=U, V=V, m=1, U0=U0, Q=Q, R=R, symmetric_V=True, name=name)
