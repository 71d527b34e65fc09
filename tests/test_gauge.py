import math

import mpmath as mp
import numpy as np
import pytest

from ponomap import (
    GaugeRangeError,
    GaugeSpec,
    HypothesisViolatedError,
    NoRootError,
    RawGauge,
    TauSpec,
    eval_h,
    finite_measure_sequence,
    null_measure_sequence,
    tau_root,
)
from ponomap import gauge
from ponomap.gauge import (
    _SCAN_DECADES,
    _SCAN_GRID,
    _SCAN_MARGIN,
    _first_crossing_root,
    check_gauge_monotone,
    check_tau_invariants,
)

LOGLOG = TauSpec(family="iterated_log", iterations=2, exponent=1.0, shift=4.0)
LOG_E = TauSpec(family="log", shift=math.e)

FAMILIES = [
    TauSpec(family="constant", value=2.0),
    LOG_E,
    TauSpec(family="log_power", exponent=2.0, shift=math.e),
    TauSpec(family="iterated_log", iterations=1, exponent=0.5, shift=math.e),
    LOGLOG,
    TauSpec(family="composed", factors=(LOG_E, TauSpec(family="constant", value=1.5))),
]

# taus whose raw value drops under 1 on the scan arguments: in part (three
# nested logs of 16 + 1/t), and everywhere, through a log that reaches <= 0
CLAMPED = [
    TauSpec(family="iterated_log", iterations=3, exponent=1.0, shift=16.0),
    TauSpec(family="iterated_log", iterations=4, exponent=0.5, shift=math.e),
]

RAW_GAUGES = [
    GaugeSpec(n=2, raw=RawGauge(family="power", alpha=1.0)),
    GaugeSpec(n=2, raw=RawGauge(family="log_inverse", alpha=2.0, exponent=1.0, shift=math.e)),
    GaugeSpec(n=2, raw=RawGauge(family="exp_inverse", scale=1.0)),
]


def test_eval_h_power():
    spec = GaugeSpec(n=2, tau=TauSpec(family="constant", value=1.0))
    assert eval_h(spec, 0.5) == 0.25
    assert eval_h(spec, 0.0) == 0.0


def test_eval_h_zero_for_all_specs():
    for spec in RAW_GAUGES + [GaugeSpec(n=2, tau=t) for t in FAMILIES]:
        assert eval_h(spec, 0.0) == 0.0


def test_eval_h_iterated_log_against_mpmath():
    # t = 0.01: loglog(4 + 100) > 1, no clamp; oracle at 50 digits
    spec = GaugeSpec(n=2, tau=LOGLOG)
    mp.mp.dps = 50
    t = mp.mpf("0.01")
    expected = float(t ** 2 * mp.log(mp.log(4 + 1 / t)))
    got = eval_h(spec, 0.01)
    assert math.isclose(got, expected, rel_tol=1e-14)


def test_eval_h_iterated_log_clamps_near_one():
    # loglog(14) = 0.9704... < 1, so the factor clamps to 1 and h = t^2
    spec = GaugeSpec(n=2, tau=LOGLOG)
    assert LOGLOG.raw_value(0.1) < 1.0
    mp.mp.dps = 50
    expected = float(mp.log(mp.log(14)))
    assert LOGLOG.raw_value(0.1) == pytest.approx(expected, rel=1e-14)
    assert eval_h(spec, 0.1) == 0.1 ** 2


def test_eval_h_overflow():
    spec = GaugeSpec(n=2, tau=TauSpec(family="constant", value=1.0))
    with pytest.raises(GaugeRangeError):
        eval_h(spec, 1e200)
    with pytest.raises(ValueError):
        eval_h(spec, -1.0)
    with pytest.raises(ValueError):
        eval_h(spec, math.inf)


def test_tau_root_constant_analytic():
    tau = TauSpec(family="constant", value=4.0)
    for p in (1.0, 0.5, 2.0 ** -7, 2.0 ** -20):
        assert abs(tau_root(tau, p, 2) - 0.5) <= 1e-12


def _oracle_first_crossing(tau_fn, p, n, per_decade=2560, tol=1e-14):
    # independent scan at 10x finer resolution plus plain bisection
    decades = 12
    count = decades * per_decade
    prev = 10.0 ** -decades
    gprev = prev ** n * tau_fn(p * prev) - 1.0
    assert gprev < 0.0
    bracket = None
    for i in range(1, count + 1):
        t = 10.0 ** (-decades * (1.0 - i / count))
        g = t ** n * tau_fn(p * t) - 1.0
        if g >= 0.0:
            bracket = (prev, t)
            break
        prev = t
    assert bracket is not None
    lo, hi = bracket
    while hi - lo > tol * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if mid ** n * tau_fn(p * mid) - 1.0 >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def test_tau_root_log_family_vs_oracle():
    got = tau_root(LOG_E, 1.0, 2)
    expected = _oracle_first_crossing(LOG_E, 1.0, 2)
    assert math.isclose(got, expected, rel_tol=1e-12)


def test_tau_root_monotone_in_p():
    for tau in FAMILIES:
        roots = [tau_root(tau, 2.0 ** -k, 2) for k in range(0, 16)]
        assert all(b <= a for a, b in zip(roots, roots[1:]))


def test_tau_root_identity_and_strictness():
    # the two core gauge-module properties, over the full p = 2^-k ladder
    for tau in FAMILIES:
        for k in range(0, 21):
            p = 2.0 ** -k
            tp = tau_root(tau, p, 2)
            assert abs(tp ** 2 * tau(p * tp) - 1.0) <= 1e-10
            for i in range(64):
                t = tp * 10.0 ** (-12.0 * (1.0 - i / 63.0)) * (1.0 - 1e-6)
                assert t ** 2 * tau(p * t) < 1.0


class _ExprTau:
    """A tau given by one expression that takes floats and arrays alike."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, t):
        return self.fn(t)

    def values(self, t):
        return self.fn(t) * np.ones_like(t)


def test_tau_root_error_paths():
    with pytest.raises(HypothesisViolatedError):
        _first_crossing_root(_ExprTau(lambda t: 1.0 / t ** 3), 1.0, 2)
    with pytest.raises(HypothesisViolatedError):
        tau_root(TauSpec(family="constant", value=1e30), 1.0, 2)
    with pytest.raises(NoRootError):
        _first_crossing_root(_ExprTau(lambda t: 0.5), 1.0, 2)
    with pytest.raises(ValueError):
        tau_root(LOG_E, 0.0, 2)


def reference_first_crossing_root(tau_fn, p, n):
    """Scalar reference for ``_first_crossing_root``: g at every grid point
    in order up to the first at >= 0, then the same bisection."""

    def g(t):
        return t ** n * tau_fn(p * t) - 1.0

    count = _SCAN_DECADES * 256
    prev = 10.0 ** (-_SCAN_DECADES)
    if g(prev) >= 0.0:
        raise HypothesisViolatedError("tau grows too fast near 0")
    bracket = None
    for i in range(1, count + 1):
        t = 10.0 ** (-_SCAN_DECADES * (1.0 - i / count))
        if g(t) >= 0.0:
            bracket = (prev, t)
            break
        prev = t
    if bracket is None:
        raise NoRootError("no crossing")
    lo, hi = bracket
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    assert abs(g(hi)) <= 1e-12
    return hi


def test_scan_grid_is_the_scalar_grid():
    count = _SCAN_DECADES * 256
    assert _SCAN_GRID.tolist() == [10.0 ** (-_SCAN_DECADES * (1.0 - i / count))
                                   for i in range(1, count + 1)]


@pytest.mark.parametrize("tau", FAMILIES + CLAMPED, ids=lambda t: str(t.to_dict()))
def test_tau_values_match_scalar_on_scan_grid(tau):
    # the array form of tau and of g against the scalar forms, on every
    # argument the scan feeds them; the gap must sit far inside the margin
    worst_tau = worst_g = 0.0
    for p in (1.0, 0.3, 2.0 ** -20, 2.0 ** -40):
        x = p * _SCAN_GRID
        scalar = np.array([tau(float(a)) for a in x])
        worst_tau = max(worst_tau, float(np.max(np.abs(tau.values(x) - scalar) / scalar)))
        for n in (2, 3):
            g_np = _SCAN_GRID ** n * tau.values(x) - 1.0
            g_sc = np.array([float(t) ** n * tau(p * float(t)) - 1.0 for t in _SCAN_GRID])
            gap = np.abs(g_np - g_sc) / np.maximum(1.0, np.abs(g_sc))
            worst_g = max(worst_g, float(np.max(gap)))
    assert worst_tau <= 4 * 2.0 ** -52
    assert worst_g <= 1e-14 < _SCAN_MARGIN * 1e-4


def test_clamped_taus_clamp_on_scan_grid():
    for tau in CLAMPED:
        clamps = np.array([tau.raw_value(float(t)) < 1.0 for t in _SCAN_GRID])
        assert clamps.any()
        assert (tau.values(_SCAN_GRID)[clamps] == 1.0).all()


@pytest.mark.parametrize("n", [2, 3])
def test_roots_equal_reference_scan(n, monkeypatch):
    for tau in FAMILIES + CLAMPED:
        for p in (1.0, 0.3, 2.0 ** -33):
            assert tau_root(tau, p, n) == reference_first_crossing_root(tau, p, n)
    got = [finite_measure_sequence(tau, n, 40) for tau in FAMILIES + CLAMPED]
    monkeypatch.setattr(gauge, "_first_crossing_root", reference_first_crossing_root)
    assert got == [finite_measure_sequence(tau, n, 40) for tau in FAMILIES + CLAMPED]


@pytest.mark.parametrize("n", [2, 3])
def test_tau_root_exact_ties_on_grid(n, monkeypatch):
    # constant tau = 1/t_i^n puts g(t_i) within an ulp of 0; its float
    # neighbours put it just above and just below.  Where numpy's t^n differs
    # from the scalar pow in the last bit, the two forms of g can disagree in
    # sign at such a tie, so those grid points are included.
    scalar_pow = np.array([float(t) ** n for t in _SCAN_GRID])
    off_by_ulp = np.flatnonzero(_SCAN_GRID ** n != scalar_pow)[:3].tolist()
    args = []
    scalar_call = TauSpec.__call__

    def spy(self, t):
        args.append(t)
        return scalar_call(self, t)

    monkeypatch.setattr(TauSpec, "__call__", spy)
    for i in [5, 1000, 2047, 3070] + off_by_ulp:
        t_i = float(_SCAN_GRID[i])
        v = 1.0 / t_i ** n
        for value in (math.nextafter(v, 0.0), v, math.nextafter(v, math.inf)):
            tau = TauSpec(family="constant", value=value)
            assert abs(t_i ** n * value - 1.0) <= 8 * 2.0 ** -52
            expected = reference_first_crossing_root(tau, 1.0, n)
            args.clear()
            assert tau_root(tau, 1.0, n) == expected
            # after the check at the grid's low end, the scalar g decides
            # t_i itself before any bisection step
            assert args[:2] == [10.0 ** -_SCAN_DECADES, t_i]


def test_finite_measure_sequence_identity():
    a = finite_measure_sequence(LOGLOG, 2, 20)
    assert a[0] == 1.0
    assert all(b <= x for x, b in zip(a, a[1:]))
    for k in range(1, 21):
        assert abs(a[k] ** 2 * LOGLOG(2.0 ** -k * a[k]) - 1.0) <= 1e-10


def test_finite_measure_sequence_decays():
    tau = TauSpec(family="iterated_log", iterations=1, exponent=5.0, shift=math.e)
    a = finite_measure_sequence(tau, 2, 40)
    assert a[40] < a[20] < a[5] < 1.0
    assert 2.0 ** 2 * a[40] ** 2 < 1e-6


def test_finite_measure_propagates_failing_k():
    tau = TauSpec(family="constant", value=1.0)
    # value=1 keeps g(t) = t^n - 1 <= 0 with root exactly at 1; fine
    a = finite_measure_sequence(tau, 2, 3)
    assert a == (1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("spec", RAW_GAUGES)
def test_null_measure_sequence_bound(spec):
    K = 40
    safety = 0.5
    a = null_measure_sequence(spec, K, safety=safety)
    cn = 2.0 * math.sqrt(spec.n)
    assert a[0] == 1.0
    for k in range(1, K + 1):
        assert a[k] <= a[k - 1] / 2.0
        # re-evaluate the defining inequality directly
        assert eval_h(spec, cn * 2.0 ** -k * a[k]) <= safety * 2.0 ** (-2 * spec.n * k)


def test_null_measure_sequence_composed_gauge():
    spec = GaugeSpec(n=2, tau=LOG_E)
    a = null_measure_sequence(spec, 12)
    cn = 2.0 * math.sqrt(2)
    for k in range(1, 13):
        assert eval_h(spec, cn * 2.0 ** -k * a[k]) <= 0.5 * 2.0 ** (-4 * k)


def test_null_measure_upper_sum_consequence():
    spec = RAW_GAUGES[0]
    a = null_measure_sequence(spec, 20)
    for k in range(1, 21):
        total = 2.0 ** (2 * k) * eval_h(spec, 2.0 * math.sqrt(2) * 2.0 ** -k * a[k])
        assert total < 2.0 ** (-2 * k)


def test_gauge_monotone_on_grids():
    for spec in RAW_GAUGES + [GaugeSpec(n=2, tau=t) for t in FAMILIES]:
        ok, worst = check_gauge_monotone(spec, points=10_000)
        assert ok, f"{spec.to_dict()} drops by {worst}"


def test_tau_invariants():
    for tau in FAMILIES:
        obs = check_tau_invariants(tau)
        assert obs["min_value"] >= 1.0
        assert obs["worst_monotonicity_violation"] <= 0.0
        assert obs["ladder_increasing"]


def test_tau_validation():
    with pytest.raises(ValueError):
        TauSpec(family="constant", value=0.5)
    with pytest.raises(ValueError):
        TauSpec(family="log", shift=1.0)
    with pytest.raises(ValueError):
        TauSpec(family="iterated_log", iterations=0)
    with pytest.raises(ValueError):
        TauSpec(family="nope")
    with pytest.raises(ValueError):
        TauSpec(family="composed")


def test_gauge_spec_validation():
    with pytest.raises(ValueError):
        GaugeSpec(n=1, tau=LOG_E)
    with pytest.raises(ValueError):
        GaugeSpec(n=2)
    with pytest.raises(ValueError):
        GaugeSpec(n=2, tau=LOG_E, raw=RawGauge(family="power", alpha=1.0))


def test_serialization_round_trip():
    spec = GaugeSpec(n=2, tau=TauSpec(family="iterated_log", iterations=2,
                                      exponent=1.0, shift=4.0))
    d = spec.to_dict()
    assert d == {"n": 2, "tau": {"family": "iterated_log", "iterations": 2,
                                 "exponent": 1.0, "shift": 4.0}}
    assert GaugeSpec.from_dict(d) == spec

    raw = GaugeSpec(n=2, raw=RawGauge(family="power", alpha=1.0))
    d2 = raw.to_dict()
    assert d2 == {"n": 2, "raw": {"family": "power", "alpha": 1.0}}
    assert GaugeSpec.from_dict(d2) == raw

    comp = GaugeSpec(n=3, tau=TauSpec(family="composed", factors=(LOG_E, LOGLOG)))
    assert GaugeSpec.from_dict(comp.to_dict()) == comp


def test_serialization_rejects_unknown_fields():
    with pytest.raises(ValueError):
        GaugeSpec.from_dict({"n": 2, "tau": {"family": "log", "bogus": 1}})
    with pytest.raises(ValueError):
        GaugeSpec.from_dict({"n": 2, "raw": {"family": "power"}})
    with pytest.raises(ValueError):
        GaugeSpec.from_dict({"n": 2})
    with pytest.raises(ValueError):
        GaugeSpec.from_dict({"n": 2.5, "tau": {"family": "log"}})
