import math

from ponomap import (
    GaugeSpec,
    RawGauge,
    SequencePack,
    TauSpec,
    finite_measure_sequence,
    geometric_sequence,
    harmonic_sequence,
    null_measure_sequence,
)
from ponomap.verify import VerifyScale, _check_measures, _Suite, run_suite

FAST = VerifyScale(
    boundary_points=100,
    face_points=10,
    face_depth=6,
    roundtrip_points=300,
    jacobian_points=300,
    fd_points=40,
    injectivity_pairs=500,
    mc_samples=50_000,
    depth_cap=6,
)


def test_suite_passes_finite_measure():
    tau = TauSpec(family="log", shift=math.e)
    gauge = GaugeSpec(n=2, tau=tau)
    pack = SequencePack.from_standard(2, finite_measure_sequence(tau, 2, 12))
    rep = run_suite(pack, gauge=gauge, kind="finite_measure", seed=3, scale=FAST)
    failed = [c.name for c in rep.checks if not c.passed]
    assert rep.passed, failed


def test_suite_passes_finite_measure_n3():
    # the cover sums of theorem 1 approach (2 sqrt(n))^n = 41.6 at n = 3, so
    # the band bound grows with the dimension.  Run at the default scale:
    # at FAST, seed 9 draws a Monte Carlo shell estimate past its 3 sigma bound
    tau = TauSpec(family="log", shift=math.e)
    pack = SequencePack.from_standard(3, finite_measure_sequence(tau, 3, 20))
    rep = run_suite(pack, gauge=GaugeSpec(n=3, tau=tau), kind="finite_measure", seed=9)
    band = next(c for c in rep.checks if c.name == "measure.upper_sum_band")
    assert band.bound == 10.0 * 12.0 ** 1.5 / 8.0 and band.observed > 10.0
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


def test_upper_sum_band_rejects_sums_outside():
    # a log-gauge pack measured with a gauge 100 times too heavy: its sums
    # reach past the n = 3 band
    tau = TauSpec(family="log", shift=math.e)
    pack = SequencePack.from_standard(3, finite_measure_sequence(tau, 3, 20))
    heavy = GaugeSpec(n=3, tau=TauSpec(family="constant", value=100.0))
    s = _Suite()
    _check_measures(s, pack, heavy, "finite_measure", 0.5)
    band = next(c for c in s.checks if c.name == "measure.upper_sum_band")
    assert not band.passed and band.observed > band.bound


def test_suite_passes_null_measure():
    gauge = GaugeSpec(n=2, raw=RawGauge(family="power", alpha=1.0))
    pack = SequencePack.from_standard(2, null_measure_sequence(gauge, 12))
    rep = run_suite(pack, gauge=gauge, kind="null_measure", seed=5, scale=FAST)
    failed = [c.name for c in rep.checks if not c.passed]
    assert rep.passed, failed


def test_suite_passes_identity_pack():
    a = geometric_sequence(10)
    pack = SequencePack.from_scales(2, a, a)
    rep = run_suite(pack, seed=1, scale=FAST)
    assert rep.passed
    jac = next(c for c in rep.checks if c.name == "jacobian.min_det")
    assert jac.observed == 1.0


def test_suite_detects_tampered_pack():
    pack = SequencePack.from_standard(2, harmonic_sequence(10))
    beta = list(pack.beta)
    beta[3] += 1e-3
    object.__setattr__(pack, "beta", tuple(beta))
    rep = run_suite(pack, seed=2, scale=FAST)
    assert not rep.passed
    gate = next(c for c in rep.checks if c.name == "pack.validate")
    assert not gate.passed and "gluing" in gate.note


def test_report_serializes():
    pack = SequencePack.from_standard(2, harmonic_sequence(8))
    rep = run_suite(pack, seed=11, scale=FAST)
    d = rep.to_dict()
    assert d["passed"] is True
    assert d["seed"] == 11
    assert all(set(c) == {"name", "observed", "bound", "passed", "note"}
               for c in d["checks"])


def test_determinism_same_seed():
    pack = SequencePack.from_standard(2, harmonic_sequence(8))
    r1 = run_suite(pack, seed=9, scale=FAST)
    r2 = run_suite(pack, seed=9, scale=FAST)
    assert r1.to_dict() == r2.to_dict()
