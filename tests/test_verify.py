import math

import numpy as np
import pytest

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
from ponomap.mapping import build
from ponomap.verify import (
    VerifyScale,
    _check_cantor,
    _check_jacobian,
    _check_map,
    _check_measures,
    _check_norms,
    _Suite,
    run_suite,
)
from reference_json import reference_json_data
from reference_packs import pack_from_scales
from reference_verify import (
    reference_check_cantor,
    reference_check_jacobian,
    reference_check_map,
)
from tie_points import log_pack

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

LOG_GAUGE = GaugeSpec(n=2, tau=TauSpec(family="log", shift=math.e))


def run_custom(pack, seed):
    """The suite on a pack of no theorem, as ``"theorem": "custom"`` runs
    it: the gauge checks read the log gauge, and no sequence check runs."""
    return run_suite(pack, gauge=LOG_GAUGE, theorem="custom", seed=seed, scale=FAST,
                     safety=0.5)


def test_suite_passes_finite_measure():
    tau = TauSpec(family="log", shift=math.e)
    gauge = GaugeSpec(n=2, tau=tau)
    pack = SequencePack.from_standard(2, finite_measure_sequence(tau, 2, 12))
    rep = run_suite(pack, gauge=gauge, theorem=1, seed=3, scale=FAST, safety=0.5)
    failed = [c.name for c in rep.checks if not c.passed]
    assert rep.passed, failed


def test_suite_passes_finite_measure_n3():
    # the cover sums of theorem 1 approach (2 sqrt(n))^n = 41.6 at n = 3, so
    # the band bound grows with the dimension.  Run at the default scale:
    # at FAST, seed 9 draws a Monte Carlo shell estimate past its 3 sigma bound
    tau = TauSpec(family="log", shift=math.e)
    pack = SequencePack.from_standard(3, finite_measure_sequence(tau, 3, 20))
    rep = run_suite(pack, gauge=GaugeSpec(n=3, tau=tau), theorem=1, seed=9,
                    scale=VerifyScale(), safety=0.5)
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
    _check_measures(s, pack, heavy, 1, 0.5)
    band = next(c for c in s.checks if c.name == "measure.upper_sum_band")
    assert not band.passed and band.observed > band.bound


def test_suite_passes_null_measure():
    gauge = GaugeSpec(n=2, raw=RawGauge(family="power", alpha=1.0))
    pack = SequencePack.from_standard(2, null_measure_sequence(gauge, 12))
    rep = run_suite(pack, gauge=gauge, theorem=2, seed=5, scale=FAST, safety=0.5)
    failed = [c.name for c in rep.checks if not c.passed]
    assert rep.passed, failed


def test_suite_passes_identity_pack():
    a = geometric_sequence(10)
    pack = pack_from_scales(2, a, a)
    rep = run_custom(pack, seed=1)
    assert rep.passed
    jac = next(c for c in rep.checks if c.name == "jacobian.min_det")
    assert jac.observed == 1.0


def test_suite_detects_tampered_pack():
    pack = SequencePack.from_standard(2, harmonic_sequence(10))
    beta = list(pack.beta)
    beta[3] += 1e-3
    object.__setattr__(pack, "beta", tuple(beta))
    rep = run_custom(pack, seed=2)
    assert not rep.passed
    gate = next(c for c in rep.checks if c.name == "pack.validate")
    assert not gate.passed and "gluing" in gate.note


def test_report_serializes():
    pack = SequencePack.from_standard(2, harmonic_sequence(8))
    d = reference_json_data(run_custom(pack, seed=11))
    assert d["passed"] is True
    assert d["seed"] == 11
    assert all(set(c) == {"name", "observed", "bound", "passed", "note"}
               for c in d["checks"])


def test_determinism_same_seed():
    pack = SequencePack.from_standard(2, harmonic_sequence(8))
    assert run_custom(pack, seed=9) == run_custom(pack, seed=9)


TINY = VerifyScale(boundary_points=3, face_points=2, face_depth=3, roundtrip_points=3,
                   jacobian_points=3, fd_points=2, injectivity_pairs=4, mc_samples=2,
                   depth_cap=1)


def _steep_pack():
    gauge = GaugeSpec(n=2, raw=RawGauge(family="exp_inverse", scale=1.0))
    return SequencePack.from_standard(2, null_measure_sequence(gauge, 40))


@pytest.mark.parametrize("make_pack, scale, seed", [
    (lambda: log_pack(2, 40), VerifyScale(), 0),
    (lambda: log_pack(3, 20), VerifyScale(), 1),
    (_steep_pack, FAST, 2),
    (lambda: pack_from_scales(2, geometric_sequence(10), geometric_sequence(10)),
     FAST, 3),
    (lambda: log_pack(2, 12), TINY, 4),
    (lambda: log_pack(4, 12), FAST, 5),
], ids=["log-n2-K40", "log-n3-K20", "exp_inverse-theorem2", "identity", "tiny-scale",
        "log-n4-K12"])
def test_check_map_matches_scalar_reference(make_pack, scale, seed):
    # the batched sampling loops against the one-sample-at-a-time loops they
    # replace: the same checks, bit for bit, and the same rng state after
    pmap = build(make_pack())
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, ref = _Suite(), _Suite()
    _check_map(got, pmap, rng, scale)
    reference_check_map(ref, pmap, ref_rng, scale)
    assert repr(got.checks) == repr(ref.checks)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    _check_jacobian(got, pmap, rng, scale)
    reference_check_jacobian(ref, pmap, ref_rng, scale)
    assert repr(got.checks) == repr(ref.checks)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_shell_mc_sigma_without_spread_fails():
    # two Monte Carlo samples often both miss a thin shell (at depth 3 of
    # this pack, with probability 0.6), and an estimate with a zero standard
    # error fails the check instead of dividing by zero
    s = _Suite()
    _check_norms(s, build(log_pack(2, 6)), np.random.default_rng(3), TINY)
    sigma = next(c for c in s.checks if c.name == "norm.shell_mc_sigma")
    assert sigma.observed == math.inf and not sigma.passed


@pytest.mark.parametrize("make_pack, caps", [
    (lambda: log_pack(2, 30), [*range(1, 17), 20]),
    (_steep_pack, range(1, 17)),
    (lambda: pack_from_scales(2, geometric_sequence(20), geometric_sequence(20, 0.25)),
     range(1, 17)),
], ids=["log-K30", "exp_inverse-theorem2", "from_scales"])
def test_check_cantor_matches_list_reference(make_pack, caps):
    # the array disjointness centres against the list form they replace.  The
    # list form at cap 20 takes about 0.7 s, so only one pack runs the top cap
    pack = make_pack()
    for depth_cap in caps:
        scale = VerifyScale(depth_cap=depth_cap)
        got, ref = _Suite(), _Suite()
        _check_cantor(got, pack, scale)
        reference_check_cantor(ref, pack, scale)
        assert repr(got.checks) == repr(ref.checks)
