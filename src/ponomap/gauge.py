"""Gauge functions and the sequence solvers that drive the cube construction.

A gauge is a continuous non-decreasing function h with h(0) = 0; it induces a
generalized Hausdorff measure through cover sums of h(diam U_i).  Two shapes
are supported:

* product gauges h(t) = t^n * tau(t), where tau is a slowly varying factor
  from a small config family (constant, logs, iterated logs, products);
* raw gauges given directly by a formula descriptor (powers, powers damped
  by a log, steep exponentials), used for the null-measure regime.

The two sequence solvers turn a gauge into the scale sequence a_0, ..., a_K
of a nested-cube construction:

* ``finite_measure_sequence`` solves t^n * tau(p t) = 1 at p = 2^-k, which
  calibrates the depth-k cover sums to stay bounded away from 0 and infinity;
* ``null_measure_sequence`` picks a_k small enough that the depth-k cover
  sums collapse geometrically, forcing the measure of the limit set to zero.

All arithmetic is binary64.  tau factors are clamped at 1 from below (the
families may dip slightly under 1 at moderate arguments); ``TauSpec.raw_value``
gives the factor before the clamp.
"""

from __future__ import annotations

import contextlib
import functools
import math
import types
import typing
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .cantor import half_edge
from .errors import (
    ConstructionError,
    GaugeRangeError,
    HypothesisViolatedError,
    NoRootError,
    ToleranceError,
)

# coarse log grid used to locate the first sign crossing of t^n*tau(pt) - 1:
# 256 points per decade over 12 decades, ending at t = 1
_SCAN_DECADES = 12
_SCAN_COUNT = _SCAN_DECADES * 256
_SCAN_GRID = np.array([10.0 ** (-_SCAN_DECADES * (1.0 - i / _SCAN_COUNT))
                       for i in range(1, _SCAN_COUNT + 1)])
# grid points whose array-form g is within this of 0 (or NaN) are decided
# again by the scalar g; the two forms agree to ~1e-15 near the crossing
_SCAN_MARGIN = 1e-9


def _stable_log_arg(shift: float, t: float) -> float:
    # log(shift + 1/t) evaluated as log(shift) + log1p(1/(shift*t))
    return math.log(shift) + math.log1p(1.0 / (shift * t))


def from_json(cls, data, keys=None, **given):
    """``cls(**data, **given)`` for a dataclass ``cls``, a decoded JSON
    object ``data`` and field values ``given`` by the caller.

    Every key of ``data`` must be in ``keys`` (default: the fields of
    ``cls``) and not in ``given``, and every field without a default must
    be set.  Each value is read on its field's type hint: ``int`` takes a
    JSON integer and not true/false, ``float`` any finite JSON number
    (stored as a float), ``str`` a string, ``None`` null, ``tuple[X, ...]``
    a list of X, ``X | Y`` what X or Y takes, and a dataclass an object,
    read by its ``from_dict`` or else by ``from_json``.  Every failure is a
    ValueError whose message names the key.
    """
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {data!r}")
    init = [f for f in fields(cls) if f.init]
    allowed = ({f.name for f in init} if keys is None else set(keys)) - set(given)
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown fields {sorted(unknown)}, expected some of {sorted(allowed)}")
    missing = {f.name for f in init if f.default is MISSING} - set(data) - set(given)
    if missing:
        raise ValueError(f"missing fields {sorted(missing)}")
    hints = _type_hints(cls)
    kwargs = dict(given)
    for key, value in data.items():
        try:
            kwargs[key] = _json_value(hints[key], value)
        except ValueError as exc:
            raise ValueError(f"{key}: {exc}") from exc
    return cls(**kwargs)


# resolving a class's hints costs more than reading a config with them
_type_hints = functools.cache(typing.get_type_hints)

_JSON_TYPES = {int: "integer", float: "number", str: "string", type(None): "null"}


def _json_value(kind, value):
    name = _JSON_TYPES.get(kind)
    if name is not None:
        # Python's json reads NaN and Infinity, which JSON itself has not
        if (isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind)
                or kind is float and not math.isfinite(value)):
            raise ValueError(f"expected a JSON {name}, got {value!r}")
        return float(value) if kind is float else value
    args = typing.get_args(kind)
    if isinstance(kind, types.UnionType):  # X | Y: a failure raises the first arm's error
        for arm in args[1:]:
            with contextlib.suppress(ValueError):
                return _json_value(arm, value)
        return _json_value(args[0], value)
    if typing.get_origin(kind) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ValueError(f"expected a JSON list, got {value!r}")
        return tuple(_json_value(args[0], v) for v in value)
    return kind.from_dict(value) if hasattr(kind, "from_dict") else from_json(kind, value)


class _FamilySpec:
    """JSON form shared by the family specs: ``KEYS`` maps each family to
    the fields it reads, and only those appear in the dict."""

    KEYS: dict[str, tuple[str, ...]]

    def _check_family(self) -> None:
        """Refuse an unknown family, and a field that the family does not
        read unless it keeps its default: the formula and ``to_dict`` would
        drop it.  So each field's range check holds for every family."""
        if self.family not in self.KEYS:
            raise ValueError(f"unknown {type(self).__name__} family {self.family!r}")
        unread = [f.name for f in fields(self)
                  if f.name not in ("family", *self.KEYS[self.family])
                  and getattr(self, f.name) != f.default]
        if unread:
            raise ValueError(f"the {self.family} family does not read {unread}")

    def to_dict(self) -> dict:
        out = {"family": self.family}
        for key in self.KEYS[self.family]:
            value = getattr(self, key)
            out[key] = [f.to_dict() for f in value] if key == "factors" else value
        return out

    @classmethod
    def from_dict(cls, data: dict):
        if not isinstance(data, dict) or "family" not in data:
            raise ValueError(f"{cls.__name__} must be an object with a 'family' field")
        family = data["family"]
        if not isinstance(family, str) or family not in cls.KEYS:
            raise ValueError(f"unknown {cls.__name__} family {family!r}")
        return from_json(cls, data, ("family", *cls.KEYS[family]))


@dataclass(frozen=True)
class TauSpec(_FamilySpec):
    """Slowly varying factor tau: (0, inf) -> [1, inf), non-increasing.

    Families:
      constant      tau(t) = value                      (value >= 1)
      iterated_log  tau(t) = (log o ... o log(shift + 1/t))^exponent,
                    with ``iterations`` nested logs     (shift >= e)
      log_power     iterated_log with one log
      log           iterated_log with one log and exponent 1
      composed      product of the factor specs

    Values below 1 are clamped to 1 so the factor stays a valid
    slowly varying multiplier.
    """

    KEYS = {
        "constant": ("value",),
        "log": ("shift",),
        "log_power": ("exponent", "shift"),
        "iterated_log": ("iterations", "exponent", "shift"),
        "composed": ("factors",),
    }

    family: str
    value: float = 1.0
    exponent: float = 1.0
    iterations: int = 1
    shift: float = math.e
    factors: tuple[TauSpec, ...] = ()

    def __post_init__(self):
        self._check_family()
        if self.value < 1.0:
            raise ValueError("constant tau requires value >= 1")
        if self.exponent < 0.0:
            raise ValueError("exponent must be >= 0")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.shift < math.e:
            raise ValueError("shift must be >= e")
        if self.family == "composed" and not self.factors:
            raise ValueError("composed tau requires a non-empty factors list")

    def raw_value(self, t: float) -> float:
        """Family formula before the clamp at 1."""
        if t <= 0.0 or math.isnan(t):
            raise ValueError("tau is defined for t > 0")
        if self.family == "constant":
            return self.value
        if self.family == "composed":
            prod = 1.0
            for f in self.factors:
                prod *= f(t)
            return prod
        x = _stable_log_arg(self.shift, t)
        for _ in range(self.iterations - 1):
            if x <= 0.0:
                return 0.0
            x = math.log(x)
        if x <= 0.0:
            return 0.0
        # pow(x, 1.0) is x exactly
        return x ** self.exponent

    def __call__(self, t: float) -> float:
        return max(1.0, self.raw_value(t))

    def values(self, t: np.ndarray) -> np.ndarray:
        """``__call__`` over an array of t > 0, the clamp at 1 included.

        Same formulas as ``raw_value``; NaN in the clamp propagates instead of
        reading as 1, and overflow gives inf instead of raising.
        """
        if self.family == "constant":
            raw = np.full(t.shape, self.value)
        elif self.family == "composed":
            raw = np.ones(t.shape)
            for f in self.factors:
                raw *= f.values(t)
        else:
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                x = math.log(self.shift) + np.log1p(1.0 / (self.shift * t))
                dead = x <= 0.0
                for _ in range(self.iterations - 1):
                    x = np.log(np.where(dead, 1.0, x))
                    dead |= x <= 0.0
                x = x ** self.exponent
            raw = np.where(dead, 0.0, x)
        return np.maximum(1.0, raw)

    @property
    def diverges_at_zero(self) -> bool:
        """True when lim_{t->0+} tau(t) = inf for this family."""
        if self.family == "constant":
            return False
        if self.family == "composed":
            return any(f.diverges_at_zero for f in self.factors)
        return self.exponent > 0.0


@dataclass(frozen=True)
class RawGauge(_FamilySpec):
    """Direct gauge descriptor, not of the t^n * tau(t) shape.

    Families:
      power        h(t) = t^alpha                          (alpha > 0)
      log_inverse  h(t) = t^alpha / log(shift + 1/t)^exponent
      exp_inverse  h(t) = exp(-scale / t)                  (scale > 0)
    """

    KEYS = {
        "power": ("alpha",),
        "log_inverse": ("alpha", "exponent", "shift"),
        "exp_inverse": ("scale",),
    }

    family: str
    alpha: float = 1.0
    exponent: float = 1.0
    shift: float = math.e
    scale: float = 1.0

    def __post_init__(self):
        self._check_family()
        if self.alpha <= 0.0:
            raise ValueError("alpha must be > 0")
        if self.exponent < 0.0:
            raise ValueError("exponent must be >= 0")
        if self.shift < math.e:
            raise ValueError("shift must be >= e")
        if self.scale <= 0.0:
            raise ValueError("scale must be > 0")

    def __call__(self, t: float) -> float:
        if t == 0.0:
            return 0.0
        if self.family == "power":
            return t ** self.alpha
        if self.family == "log_inverse":
            return t ** self.alpha / _stable_log_arg(self.shift, t) ** self.exponent
        return math.exp(-self.scale / t)

    @classmethod
    def from_dict(cls, data: dict) -> "RawGauge":
        if isinstance(data, dict) and data.get("family") == "power" and "alpha" not in data:
            raise ValueError("power gauge requires an 'alpha' field")
        return super().from_dict(data)


@dataclass(frozen=True)
class GaugeSpec:
    """A gauge function h on [0, inf), either h = t^n * tau(t) or a raw formula."""

    n: int
    tau: TauSpec | None = None
    raw: RawGauge | None = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("dimension n must be >= 2")
        if (self.tau is None) == (self.raw is None):
            raise ValueError("exactly one of tau or raw must be given")

    def to_dict(self) -> dict:
        if self.tau is not None:
            return {"n": self.n, "tau": self.tau.to_dict()}
        return {"n": self.n, "raw": self.raw.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "GaugeSpec":
        return from_json(cls, data)


def eval_h(spec: GaugeSpec, t: float) -> float:
    """Evaluate the gauge at t >= 0; exactly 0 at t = 0.

    Raises GaugeRangeError when the value overflows binary64.
    """
    t = float(t)
    if math.isnan(t) or math.isinf(t):
        raise ValueError("t must be finite")
    if t < 0.0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0
    try:
        if spec.tau is not None:
            out = t ** spec.n * spec.tau(t)
        else:
            out = spec.raw(t)
    except OverflowError as exc:
        raise GaugeRangeError(f"gauge overflow at t={t!r}") from exc
    if math.isinf(out):
        raise GaugeRangeError(f"gauge overflow at t={t!r}")
    return out


IDENTITY_TOL = 1e-10  # residual up to which a_k meets the theorem-1 identity
_ROOT_TOL = 1e-12  # largest |g| the first-crossing root may leave
_MAX_ITER = 400  # cap on the halvings, and on the bisection steps, of the theorem-2 solver


def _identity_gap(tau, n: int, p: float, t: float) -> float:
    """t^n * tau(p t) - 1; theorem 1 puts a_k at its first zero for p = 2^-k."""
    return t ** n * tau(p * t) - 1.0


def tau_root(tau: TauSpec, p: float, n: int) -> float:
    """Solve 1/tau(p t) = t^n for the first crossing t_p in (0, 1]: the
    first t where g(t) = t^n * tau(p t) - 1 crosses to >= 0.

    ``tau`` is called on floats and its ``values`` on arrays.  g is
    evaluated on the whole scan grid at once; grid points not clearly
    below 0 are decided again, in grid order, by the scalar g, and the
    first one at >= 0 closes the bracket for the bisection.  So g < 0 at
    all grid points below the returned root, which is the strict
    inequality the construction relies on below the crossing.  Raises
    NoRootError / HypothesisViolatedError when the gauge family does not
    admit a crossing for this p.
    """
    if not (0.0 < p <= 1.0):
        raise ValueError("p must lie in (0, 1]")

    def g(t: float) -> float:
        return _identity_gap(tau, n, p, t)

    lo_t = 10.0 ** (-_SCAN_DECADES)
    if g(lo_t) >= 0.0:
        raise HypothesisViolatedError(
            f"t^{n}*tau({p}*t) >= 1 already at t={lo_t:g}; tau grows too fast near 0"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        g_grid = _SCAN_GRID ** n * tau.values(p * _SCAN_GRID) - 1.0
    bracket = None
    for i in np.flatnonzero(~(g_grid < -_SCAN_MARGIN)).tolist():
        t = float(_SCAN_GRID[i])
        if g(t) >= 0.0:
            bracket = (float(_SCAN_GRID[i - 1]) if i else lo_t, t)
            break
    if bracket is None:
        raise NoRootError(f"t^{n}*tau({p}*t) < 1 on all of (0, 1]")
    lo, hi = bracket
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    root = hi
    if abs(g(root)) > _ROOT_TOL:
        raise ToleranceError(
            f"bisection stalled: |g| = {abs(g(root)):g} > tol = {_ROOT_TOL:g} at t = {root:g}"
        )
    return root


def finite_measure_sequence(tau: TauSpec, n: int, K: int) -> tuple[float, ...]:
    """Scale sequence a_0 = 1, a_k = root of t^n * tau(2^-k t) = 1, k = 1..K.

    The sequence is non-increasing; a failing root search raises NoRootError
    naming the failing k.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    a = [1.0]
    for k in range(1, K + 1):
        try:
            root = tau_root(tau, 2.0 ** -k, n)
        except NoRootError as exc:
            raise NoRootError(f"no root at k={k}: {exc}") from exc
        if root > a[-1]:
            # roots are monotone in p; tolerate only float-level jitter
            if root > a[-1] * (1.0 + 1e-12):
                raise ConstructionError(
                    f"root sequence not monotone at k={k}: "
                    f"a_k={root!r} > a_(k-1)={a[-1]!r}"
                )
            root = a[-1]
        a.append(root)
    return tuple(a)


def null_measure_sequence(h: GaugeSpec, K: int, safety: float = 0.5) -> tuple[float, ...]:
    """Scale sequence with a_k <= a_{k-1}/2 and h(c_n 2^-k a_k) <= safety * 2^(-2nk).

    c_n = 2*sqrt(n) is the Euclidean diameter of a unit-half-edge cube.  The
    bound makes the depth-k cover sums collapse like 2^(-nk).  Found by
    monotone bisection in log scale; h(0) = 0 guarantees feasibility.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if not (0.0 < safety < 1.0):
        raise ValueError("safety must lie in (0, 1)")
    a = [1.0]
    for k in range(1, K + 1):
        cap = a[-1] / 2.0

        def excess(aa: float) -> float:
            observed, bound = scale_condition(h, 2, k, aa, safety)
            return observed - bound

        if excess(cap) <= 0.0:
            a.append(cap)
            continue
        lo = cap
        for _ in range(_MAX_ITER):
            lo /= 2.0
            if excess(lo) <= 0.0:
                break
        else:
            raise ToleranceError(f"could not bracket the gauge bound at k={k}")
        hi = lo * 2.0
        for _ in range(_MAX_ITER):
            mid = math.sqrt(lo * hi)
            if mid <= lo or mid >= hi:
                break
            if excess(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        if excess(lo) > 0.0:
            raise ToleranceError(f"bisection failed to certify the bound at k={k}")
        a.append(lo)
    return tuple(a)


def scale_condition(h: GaugeSpec, theorem: int, k: int, a_k: float,
                    safety: float = 0.5) -> tuple[float, float]:
    """(observed, bound) of theorem 1's identity or theorem 2's inequality
    for the scale a_k at depth k >= 1, with r_k = 2^-k a_k; it holds when
    observed <= bound.  Theorem 1: |a_k^n tau(r_k) - 1| against IDENTITY_TOL.
    Theorem 2: h(2 sqrt(n) r_k) against safety * 2^(-2nk)."""
    if theorem == 1:
        return abs(_identity_gap(h.tau, h.n, math.ldexp(1.0, -k), a_k)), IDENTITY_TOL
    return (eval_h(h, 2.0 * math.sqrt(h.n) * half_edge(a_k, k)),
            safety * 2.0 ** (-2 * h.n * k))


def check_gauge_monotone(spec: GaugeSpec, points: int) -> tuple[bool, float]:
    """Sample h on a [0, 4] grid; returns (non-decreasing?, worst drop)."""
    worst = 0.0
    prev = eval_h(spec, 0.0)
    for i in range(1, points + 1):
        t = 4.0 * i / points
        cur = eval_h(spec, t)
        worst = max(worst, prev - cur)
        prev = cur
    return worst <= 0.0, worst


def check_tau_invariants(tau: TauSpec) -> dict:
    """Probe the tau invariants on standard grids.

    Returns observations: clamped lower bound, worst monotonicity violation
    on the 2,000-point grid of (0, 1], and whether tau(10^-j) increases
    along j = 1..12 for divergent families.
    """
    points = 2_000
    min_val = math.inf
    worst_increase = 0.0
    prev = None
    for i in range(1, points + 1):
        t = i / points
        val = tau(t)
        min_val = min(min_val, val)
        if prev is not None:
            worst_increase = max(worst_increase, val - prev)
        prev = val  # grid ascending; tau should be non-increasing
    ladder_ok = True
    if tau.diverges_at_zero:
        ladder = [tau(10.0 ** -j) for j in range(1, 13)]
        ladder_ok = all(b > a for a, b in zip(ladder, ladder[1:]))
    return {
        "min_value": min_val,
        "worst_monotonicity_violation": worst_increase,
        "ladder_increasing": ladder_ok,
    }
