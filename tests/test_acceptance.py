"""Acceptance gate: one test per quantitative claim, at desk scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion with its runtime and recorded constants.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from ponomap import (
    DomainError,
    GaugeSpec,
    RawGauge,
    RidgeSetError,
    SequencePack,
    TauSpec,
    VertexWord,
    all_words,
    build,
    canonical_cover,
    center,
    dyadic_cube,
    dyadic_preimage,
    eval_h,
    finite_measure_sequence,
    grand_norm_report,
    GradientPower,
    harmonic_sequence,
    hausdorff_lower_probe,
    null_measure_sequence,
    pushforward_check,
    random_cover,
    shell_integral,
    shell_integral_mc,
    sobolev_depth_profile,
)
from ponomap.analysis import default_eps_grid, upper_sum_at_scale
from ponomap.cli import main

ULP1 = math.ulp(1.0)
SEED = 20260810


def _report(criterion: str, t0: float, limit: float, detail: str = ""):
    dt = time.perf_counter() - t0
    print(f"[acceptance {criterion}] PASS in {dt:.2f}s (limit {limit:.0f}s) {detail}")
    assert dt < limit, f"criterion {criterion} exceeded its runtime budget"


def test_acceptance_01_gluing_coefficients():
    t0 = time.perf_counter()
    pack = SequencePack.from_standard(2, harmonic_sequence(40))
    for k in range(1, 41):
        assert abs(pack.alpha[k] - 0.5) <= 4 * math.ulp(0.5)
        ref = 2.0 ** (-k - 1)
        assert abs(pack.beta[k] - ref) <= 4 * math.ulp(ref)
        inner = pack.alpha[k] * pack.r[k] + pack.beta[k]
        outer = pack.alpha[k] * (pack.r[k - 1] / 2.0) + pack.beta[k]
        assert abs(inner - pack.rt[k]) <= 4 * math.ulp(pack.rt[k])
        assert abs(outer - pack.rt[k - 1] / 2.0) <= 4 * math.ulp(pack.rt[k - 1] / 2.0)
    _report("1 gluing coefficients", t0, 1.0)


def test_acceptance_02_homeomorphism_sanity():
    t0 = time.perf_counter()
    pmap = build(SequencePack.from_standard(2, harmonic_sequence(20)))
    pack = pmap.pack
    rng = np.random.default_rng(SEED)

    worst_boundary = 0.0
    for _ in range(1000):
        x = [float(rng.uniform(-1.0, 1.0)) for _ in range(2)]
        x[int(rng.integers(2))] = 1.0 if rng.uniform() > 0.5 else -1.0
        worst_boundary = max(worst_boundary,
                             max(abs(a - b) for a, b in zip(pmap.eval(x), x)))
    assert worst_boundary <= 8 * ULP1

    worst_face = 0.0
    for depth in range(1, 13):
        for _ in range(42):
            signs = tuple(tuple(1 if rng.uniform() > 0.5 else -1 for _ in range(2))
                          for _ in range(depth))
            z = center(VertexWord(2, signs), pack)
            j = int(rng.integers(2))
            direction = [float(rng.uniform(-0.7, 0.7)) for _ in range(2)]
            direction[j] = 1.0
            for radius in (pack.r[depth], pack.r[depth - 1] / 2.0):
                lo = tuple(z[i] + radius * (1.0 - 4e-16) * direction[i] for i in range(2))
                hi = tuple(z[i] + radius * (1.0 + 4e-16) * direction[i] for i in range(2))
                try:
                    err = max(abs(a - b) for a, b in zip(pmap.eval(lo), pmap.eval(hi)))
                except DomainError:
                    continue  # depth-1 outer faces touch the cube boundary
                worst_face = max(worst_face, err)
    assert worst_face <= 8 * ULP1

    worst_trip = 0.0
    for _ in range(10_000):
        x = tuple(float(rng.uniform(-1.0, 1.0)) for _ in range(2))
        y = pmap.eval(x)
        back = pmap.eval(pmap.eval_inverse(y))
        worst_trip = max(worst_trip, max(abs(a - b) for a, b in zip(back, y)))
    assert worst_trip <= 2.0 * pmap.truncation_error
    _report("2 homeomorphism sanity", t0, 10.0,
            f"boundary {worst_boundary / ULP1:.2f} ulps, face {worst_face / ULP1:.2f} "
            f"ulps, round-trip {worst_trip:.3g}")


def _fd_det(pmap, x, depth, pack):
    m = pmap.locate(x).m
    if depth <= 7:
        h = 1e-7 * m
    else:
        h = m * (ULP1 / (2.0 * pack.beta[depth])) ** (1.0 / 3.0)
    h = max(h, 64.0 * ULP1)
    n = pmap.n
    fd = np.zeros((n, n))
    for l in range(n):
        xp = list(x)
        xm = list(x)
        xp[l] += h
        xm[l] -= h
        delta = xp[l] - xm[l]
        fp = pmap.eval(tuple(xp))
        fm = pmap.eval(tuple(xm))
        for i in range(n):
            fd[i, l] = (fp[i] - fm[i]) / delta
    return float(np.linalg.det(fd))


def test_acceptance_03_jacobian():
    t0 = time.perf_counter()
    pmap = build(SequencePack.from_standard(2, harmonic_sequence(20)))
    pack = pmap.pack
    rng = np.random.default_rng(SEED + 3)

    checked = 0
    worst = 0.0
    while checked < 1000:
        x = tuple(float(rng.uniform(-1.0, 1.0)) for _ in range(2))
        loc = pmap.locate(x)
        if loc.region != "annulus" or loc.depth > 20:
            continue
        u = [x[i] - c for i, c in enumerate(loc.z)]
        mags = sorted((abs(c) for c in u), reverse=True)
        if mags[0] - mags[1] <= 1e-3 * mags[0]:
            continue  # too close to the ridge for differencing
        band_lo, band_hi = pack.r[loc.depth], pack.r[loc.depth - 1] / 2.0
        width = band_hi - band_lo
        if not (band_lo + 0.05 * width < loc.m < band_hi - 0.05 * width):
            continue
        closed = pmap.jacobian_det(x)
        fd = _fd_det(pmap, x, loc.depth, pack)
        worst = max(worst, abs(fd - closed) / closed)
        checked += 1
    assert worst <= 1e-6

    minima = {}
    for n in (2, 3):
        pm_n = build(SequencePack.from_standard(n, harmonic_sequence(12)))
        lowest = math.inf
        count = 0
        while count < 100_000:
            x = tuple(float(v) for v in rng.uniform(-1.0, 1.0, size=n))
            try:
                det = pm_n.jacobian_det(x)
            except RidgeSetError:
                continue
            lowest = min(lowest, det)
            count += 1
        assert lowest > 0.0
        minima[n] = lowest
    _report("3 jacobian", t0, 30.0,
            f"fd rel {worst:.2e}, min det n=2 {minima[2]:.3g}, n=3 {minima[3]:.3g}")


def test_acceptance_04_lebesgue_measures():
    t0 = time.perf_counter()
    strong_tau = TauSpec(family="iterated_log", iterations=1, exponent=5.0,
                         shift=math.e)
    a1 = finite_measure_sequence(strong_tau, 2, 40)
    power = GaugeSpec(n=2, raw=RawGauge(family="power", alpha=1.0))
    a2 = null_measure_sequence(power, 40)
    for a in (a1, a2):
        domain = 4.0 * a[40] ** 2
        assert domain < 1e-6
        target = 4.0 * ((1.0 + a[40]) / 2.0) ** 2
        assert abs(target - 1.0) <= 0.01
    _report("4 lebesgue measures", t0, 1.0,
            f"domain levels {4.0 * a1[40] ** 2:.2e}, {4.0 * a2[40] ** 2:.2e}")


def test_acceptance_05a_grand_norm_bound():
    t0 = time.perf_counter()
    rep = grand_norm_report(build(SequencePack.from_standard(2, harmonic_sequence(40))),
                            default_eps_grid(2, 64))
    assert len(rep.eps) == 64
    for v, b in zip(rep.values, rep.bounds):
        assert v <= b
    _report("5a grand-norm telescoping bound", t0, 60.0,
            f"sup {rep.sup:.6f}, largest bound {max(rep.bounds):.6f}")


@pytest.mark.xfail(
    strict=True,
    reason="the depth 20->40 tail of the annulus sums is of order a_20 - a_40 "
           "~ 2.3e-2 for the harmonic scale sequence (measured relative change "
           "7.8e-3 at the sup), so the 1e-6 stability target is unreachable for "
           "any sequence with slower-than-geometric decay",
)
def test_acceptance_05b_grand_norm_depth_stability():
    t0 = time.perf_counter()
    sup20 = grand_norm_report(
        build(SequencePack.from_standard(2, harmonic_sequence(20))), default_eps_grid(2, 64)).sup
    sup40 = grand_norm_report(
        build(SequencePack.from_standard(2, harmonic_sequence(40))), default_eps_grid(2, 64)).sup
    change = abs(sup40 - sup20) / sup40
    print(f"[acceptance 5b] measured sup change 20->40: {change:.3e} "
          f"(target < 1e-6): FAIL expected")
    assert change < 1e-6
    _report("5b grand-norm depth stability", t0, 60.0)


def test_acceptance_05c_classical_norm_divergence():
    t0 = time.perf_counter()
    pmap = build(SequencePack.from_standard(2, harmonic_sequence(40)))
    partials, _ = sobolev_depth_profile(pmap, 2.0)
    slope = (partials[39] - partials[19]) / (math.log(40) - math.log(20))
    assert slope >= 1.0
    assert all(b > a for a, b in zip(partials, partials[1:]))
    _report("5c p=n divergence", t0, 60.0, f"log-slope c = {slope:.3f}")


def test_acceptance_06_null_measure_sequences():
    t0 = time.perf_counter()
    gauges = {
        "power": GaugeSpec(n=2, raw=RawGauge(family="power", alpha=1.0)),
        "damped": GaugeSpec(n=2, raw=RawGauge(family="log_inverse", alpha=2.0,
                                              exponent=1.0, shift=math.e)),
        "steep": GaugeSpec(n=2, raw=RawGauge(family="exp_inverse", scale=1.0)),
    }
    cn = 2.0 * math.sqrt(2)
    for name, gauge in gauges.items():
        a = null_measure_sequence(gauge, 40, safety=0.5)
        totals = []
        for k in range(1, 41):
            assert eval_h(gauge, cn * 2.0 ** -k * a[k]) <= 0.5 * 2.0 ** (-4 * k)
            total = upper_sum_at_scale(gauge, k, a[k]).total
            assert total <= 2.0 ** (-2 * k - 1)
            totals.append(total)
        assert all(b <= t for t, b in zip(totals, totals[1:]))
        assert totals[-1] < 1e-12
    _report("6 null-measure sequences", t0, 5.0, f"gauges: {', '.join(gauges)}")


def test_acceptance_07_finite_measure_sequences():
    t0 = time.perf_counter()
    families = []
    for iterations in (1, 2):
        for s in (0.5, 1.0, 2.0):
            shift = math.e if iterations == 1 else 4.0
            families.append(TauSpec(family="iterated_log", iterations=iterations,
                                    exponent=s, shift=shift))
    constants = {}
    for tau in families:
        gauge = GaugeSpec(n=2, tau=tau)
        a = finite_measure_sequence(tau, 2, 30)
        totals = []
        for k in range(1, 31):
            assert abs(a[k] ** 2 * tau(2.0 ** -k * a[k]) - 1.0) <= 1e-10
            totals.append(upper_sum_at_scale(gauge, k, a[k]).total)
        c_family = max(max(totals), 1.0 / min(totals))
        assert c_family <= 10.0
        key = f"m={tau.iterations},s={tau.exponent}"
        constants[key] = round(c_family, 3)
    _report("7 finite-measure sequences", t0, 10.0, f"per-family C: {constants}")


def test_acceptance_08_lower_bound_probe():
    t0 = time.perf_counter()
    constants = {}
    worst_u = 0
    for s in (1.0, 2.0):
        tau = TauSpec(family="iterated_log", iterations=1, exponent=s, shift=math.e)
        gauge = GaugeSpec(n=2, tau=tau)
        pack = SequencePack.from_standard(2, finite_measure_sequence(tau, 2, 10))

        # vectorized brute-force oracle for the per-ball neighbor counts
        centers_by_depth = {
            d: np.array([center(w, pack) for w in all_words(2, d)])
            for d in range(1, 8)
        }

        def brute_intersecting(ball, depth):
            zs = centers_by_depth[depth]
            gap = np.maximum(np.abs(np.asarray(ball.center) - zs) - pack.r[depth], 0.0)
            return int(np.count_nonzero(np.sqrt((gap ** 2).sum(axis=1)) <= ball.radius))

        ratios = []
        for m in range(1, 7):
            level = min(m + 2, pack.K)
            cover = canonical_cover(pack, m)
            rep = hausdorff_lower_probe(gauge, pack, cover, level)
            ratios.append(rep.ratio)
            worst_u = max(worst_u, rep.max_intersecting)
            for ball, probe in zip(cover, rep.balls):
                assert probe.intersecting_count == brute_intersecting(
                    ball, probe.min_contained_depth)
                assert probe.intersecting_count <= 4 ** 2

        rng = np.random.default_rng(SEED + 8)
        for trial in range(100):
            cover = random_cover(pack, 3, rng)
            rep = hausdorff_lower_probe(gauge, pack, cover, 5)
            ratios.append(rep.ratio)
            worst_u = max(worst_u, rep.max_intersecting)
            assert rep.max_intersecting <= 4 ** 2
            if trial % 25 == 0:
                for ball, probe in zip(cover, rep.balls):
                    assert probe.intersecting_count == brute_intersecting(
                        ball, probe.min_contained_depth)

        c_probe = min(ratios)
        assert c_probe > 0.0
        constants[f"s={s}"] = round(c_probe, 4)
    _report("8 lower-bound probe", t0, 60.0,
            f"c_probe per family {constants}, max #U = {worst_u} <= {4 ** 2}")


def test_acceptance_09_coding_pushforward():
    t0 = time.perf_counter()
    pack = SequencePack.from_standard(2, harmonic_sequence(8))
    for j in range(0, 4):
        for k in range(j, 7):
            rep = pushforward_check(pack, k, j)
            assert rep.exact
            assert all(rho == Fraction(1, 4 ** j) for rho in rep.ratios)
    for k in range(0, 7):
        for w in all_words(2, k):
            corner, size = dyadic_cube(w)
            assert size == 2.0 ** -k
            assert dyadic_preimage(corner, k) == w
    _report("9 coding/pushforward", t0, 5.0)


def test_acceptance_10_shell_integral_oracle():
    t0 = time.perf_counter()
    pack = SequencePack.from_standard(2, harmonic_sequence(30))
    rng = np.random.default_rng(SEED + 10)
    worst_sigma = 0.0
    for _ in range(20):
        k = int(rng.integers(1, 28))
        eps = float(rng.uniform(0.01, 1.0))
        phi = GradientPower(pack.alpha[k], pack.beta[k], 2.0 - eps)
        r, R = pack.r[k], pack.r[k - 1] / 2.0
        exact = shell_integral(phi, r, R, 2)
        est, se = shell_integral_mc(phi, r, R, 2, 1_000_000, rng)
        worst_sigma = max(worst_sigma, abs(est - exact) / se)
    assert worst_sigma <= 3.0
    _report("10 shell-integral oracle", t0, 60.0, f"worst |z| = {worst_sigma:.2f} sigma")


def test_acceptance_11_determinism(tmp_path):
    t0 = time.perf_counter()
    import json

    cfg = {
        "gauge": {"n": 2, "tau": {"family": "log", "shift": math.e}},
        "theorem": 1,
        "depth": 10,
        "seed": 7,
        "resolution": 33,
        "verify": {
            "boundary_points": 200, "face_points": 10, "face_depth": 8,
            "roundtrip_points": 400, "jacobian_points": 400, "fd_points": 50,
            "injectivity_pairs": 500, "mc_samples": 100000, "depth_cap": 8,
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outputs = {}
    for run in ("a", "b"):
        vdir, rdir = tmp_path / f"v{run}", tmp_path / f"r{run}"
        assert main(["verify", "--config", str(cfg_path), "--out", str(vdir)]) == 0
        assert main(["render", "--config", str(cfg_path), "--out", str(rdir)]) == 0
        outputs[run] = {
            "verify.json": (vdir / "verify.json").read_bytes(),
            "displacement.pgm": (rdir / "displacement.pgm").read_bytes(),
            "jacobian.ppm": (rdir / "jacobian.ppm").read_bytes(),
            "grid.pgm": (rdir / "grid.pgm").read_bytes(),
            "render_grid.csv": (rdir / "render_grid.csv").read_bytes(),
        }
    for name in outputs["a"]:
        assert outputs["a"][name] == outputs["b"][name], name
    _report("11 determinism", t0, 120.0, "verify + render byte-identical")
