"""Invariant suite: every structural claim checked at a configured scale.

Each check produces (observed, bound, passed); the report is deterministic
for a fixed seed and scale.  A tampered pack (for instance a gluing
coefficient nudged by 1e-3) fails the pack checks; an identity pack passes
everything with unit Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import analysis
from .cantor import (SequencePack, all_words, center, descend_batch, dyadic_cube,
                     dyadic_preimage, in_cube)
from .errors import PonomapError
# eval_h is not called here; perfbench/tracer.py counts its calls at this name
from .gauge import (  # noqa: F401
    IDENTITY_TOL,
    GaugeSpec,
    check_gauge_monotone,
    check_tau_invariants,
    eval_h,
    scale_condition,
)
from .mapping import PonomarevMap, build

ULP1 = math.ulp(1.0)
_CODING_BLOCK = 2 ** 16  # words per coding-check block: bounds its arrays at every n


@dataclass(frozen=True)
class CheckResult:
    name: str
    observed: float
    bound: float
    passed: bool
    note: str = ""


@dataclass(frozen=True)
class VerifyReport:
    checks: tuple[CheckResult, ...]
    passed: bool
    seed: int


@dataclass(frozen=True)
class VerifyScale:
    """Sampling sizes for the randomized checks."""

    boundary_points: int = 500
    face_points: int = 50
    face_depth: int = 12
    roundtrip_points: int = 2_000
    jacobian_points: int = 2_000
    fd_points: int = 200
    injectivity_pairs: int = 5_000
    mc_samples: int = 200_000
    depth_cap: int = 8

    def __post_init__(self):
        for f in fields(self):
            # the Monte Carlo standard error uses ddof=1, so it needs two samples
            low = 2 if f.name == "mc_samples" else 1
            if getattr(self, f.name) < low:
                raise ValueError(f"{f.name} must be >= {low}")
        # the disjointness check lists the 2^depth_cap one-dimensional centres
        if self.depth_cap > 20:
            raise ValueError("depth_cap must be <= 20")


def _random_word(rng, n: int, depth: int) -> int:
    # one bit per uniform draw, the first drawn the most significant
    bits = np.packbits(rng.uniform(size=n * depth) > 0.5)
    return int.from_bytes(bits.tobytes(), "big") >> (-n * depth % 8)


def _annulus_point(pack, word, k, rng, band=(0.15, 0.85)):
    z = center(word, k, pack)
    lo, hi = pack.r[k], pack.r[k - 1] / 2.0
    radius = lo + (hi - lo) * rng.uniform(*band)
    j = int(rng.integers(pack.n))
    # the other coordinates stay within 0.8 of the active one: off the ridge set
    direction = [float(rng.uniform(-0.8, 0.8)) for _ in range(pack.n)]
    direction[j] = 1.0 if rng.uniform() > 0.5 else -1.0
    return tuple(z[i] + radius * direction[i] for i in range(pack.n))


def _gradient_bound(pack: SequencePack, k: int) -> float:
    """Largest |Df| on the depth-k annulus; conditions the float error model.

    A one-ulp input perturbation legitimately moves the image by about
    |Df| ulps, so ulp-level checks on steep packs normalize by this factor.
    """
    return pack.alpha[k] + pack.beta[k] / pack.r[k]


class _Suite:
    def __init__(self):
        self.checks: list[CheckResult] = []

    def add(self, name: str, observed: float, bound: float, passed: bool,
            note: str = ""):
        self.checks.append(CheckResult(name, float(observed), float(bound),
                                       bool(passed), note))

    def add_le(self, name: str, observed: float, bound: float, note: str = ""):
        self.add(name, observed, bound, observed <= bound, note)


def _check_pack(s: _Suite, pack: SequencePack):
    worst_inner = 0.0
    worst_outer = 0.0
    min_nesting = math.inf
    for k in range(1, pack.K + 1):
        inner = pack.alpha[k] * pack.r[k] + pack.beta[k]
        outer = pack.alpha[k] * (pack.r[k - 1] / 2.0) + pack.beta[k]
        worst_inner = max(worst_inner, abs(inner - pack.rt[k]) / math.ulp(pack.rt[k]))
        ref = pack.rt[k - 1] / 2.0
        worst_outer = max(worst_outer, abs(outer - ref) / math.ulp(ref))
        min_nesting = min(min_nesting,
                          pack.r[k - 1] / 2.0 - pack.r[k],
                          pack.rt[k - 1] / 2.0 - pack.rt[k])
    s.add_le("pack.gluing_inner_ulps", worst_inner, 4.0)
    s.add_le("pack.gluing_outer_ulps", worst_outer, 4.0)
    s.add("pack.nesting_slack", min_nesting, 0.0, min_nesting > 0.0)
    if pack.standard:
        dev = max(
            max(abs(pack.alpha[k] - 0.5) for k in range(1, pack.K + 1)),
            max(abs(pack.beta[k] - 2.0 ** (-k - 1)) for k in range(1, pack.K + 1)),
        )
        s.add_le("pack.standard_coefficients", dev, 0.0)


def _check_cantor(s: _Suite, pack: SequencePack, scale: VerifyScale):
    # the one-dimensional centres of depth k, each parent's two children in turn
    centers = np.zeros(1)
    worst = math.inf
    for k in range(1, min(scale.depth_cap, pack.K) + 1):
        half = pack.r[k - 1] / 2.0
        centers = (centers[:, None] + [-half, half]).ravel()
        gap = float(np.diff(np.sort(centers)).min())
        worst = min(worst, gap / (2.0 * pack.r[k]))
    s.add("cantor.disjointness_gap_ratio", worst, 1.0, worst >= 1.0)

    n = pack.n
    bad = 0
    count = 0
    for k in range(0, min(5, pack.K) + 1):
        words = all_words(n, k)
        for block in words.reshape(-1, min(len(words), _CODING_BLOCK)):
            corners, _ = dyadic_cube(block, n, k)
            bad += int(np.count_nonzero(dyadic_preimage(corners, k) != block))
        count += len(words)
    s.add("cantor.coding_bijection_failures", bad, 0.0, bad == 0,
          note=f"{count} words")

    mism = 0
    for m in range(0, 3):
        for l in range(m, 5):
            expect = 2 ** (n * (l - m))
            # the words under the all -1 prefix: top n*m bits clear
            got = int(np.count_nonzero(all_words(n, l) >> n * (l - m) == 0))
            if got != expect:
                mism += 1
    s.add("cantor.counting_identity_failures", mism, 0.0, mism == 0)


def _rows(points: list, n: int) -> np.ndarray:
    return np.array(points, dtype=np.float64).reshape(len(points), n)


def _sup_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The sup distance of each pair of rows."""
    return np.abs(a - b).max(axis=1)


def _fold_max(values: np.ndarray, start: float = 0.0) -> float:
    """``worst = max(worst, v)`` over the values in order, from ``start``."""
    return max([start, *values.tolist()])


def _check_map(s: _Suite, pmap: PonomarevMap, rng, scale: VerifyScale):
    # Each forward-map check draws its samples in the order of a loop of one
    # sample at a time, then maps them all in one ``eval_batch``; the
    # per-sample expressions and the reductions stay those of that loop, so
    # the checks and the rng state after them do not change.
    pack = pmap.pack
    n = pack.n

    xs = []
    for _ in range(scale.boundary_points):
        x = [float(rng.uniform(-1.0, 1.0)) for _ in range(n)]
        i = int(rng.integers(n))
        x[i] = 1.0 if rng.uniform() > 0.5 else -1.0
        xs.append(x)
    x = _rows(xs, n)
    worst = _fold_max(_sup_rows(pmap.eval_batch(x), x) / ULP1)
    s.add_le("map.boundary_identity_ulps", worst, 8.0)

    lo, hi, conds = [], [], []
    for depth in range(1, min(scale.face_depth, pack.K - 1) + 1):
        cond = max(1.0, _gradient_bound(pack, depth),
                   _gradient_bound(pack, min(depth + 1, pack.K)))
        for _ in range(scale.face_points):
            w = _random_word(rng, n, depth)
            z = center(w, depth, pack)
            j = int(rng.integers(n))
            direction = [float(rng.uniform(-0.7, 0.7)) for _ in range(n)]
            direction[j] = 1.0
            for radius in (pack.r[depth], pack.r[depth - 1] / 2.0):
                lo.append([z[i] + radius * (1.0 - 4e-16) * direction[i] for i in range(n)])
                hi.append([z[i] + radius * (1.0 + 4e-16) * direction[i] for i in range(n)])
                conds.append(cond)
    lo, hi = _rows(lo, n), _rows(hi, n)
    # a face point can round past the cube (at depth 1, 0.5 + 0.5 (1 + 4e-16)
    # is above 1); it has no image and is skipped
    ok = in_cube(lo) & in_cube(hi)
    err = _sup_rows(pmap.eval_batch(lo[ok]), pmap.eval_batch(hi[ok]))
    worst = _fold_max(err / (ULP1 * np.array(conds)[ok]))
    s.add_le("map.face_continuity_ulps", worst, 8.0)

    xs, targets, conds = [], [], []
    for depth in range(1, min(6, pack.K) + 1):
        # the noise floor is one coordinate ulp amplified by the core scale
        cond = max(1.0, pack.b[depth] / pack.a[depth])
        for _ in range(20):
            w = _random_word(rng, n, depth)
            xs.append(center(w, depth, pack, "domain"))
            targets.append(center(w, depth, pack, "target"))
            conds.append(cond)
    err = _sup_rows(pmap.eval_batch(_rows(xs, n)), _rows(targets, n))
    worst = _fold_max(err / (ULP1 * np.array(conds)))
    s.add_le("map.center_invariance_ulps", worst, 8.0)

    xs, targets, radii, conds = [], [], [], []
    for depth in range(1, min(6, pack.K) + 1):
        cond = max(1.0, _gradient_bound(pack, depth))
        for _ in range(20):
            w = _random_word(rng, n, depth)
            z = center(w, depth, pack)
            zt = center(w, depth, pack, "target")
            j = int(rng.integers(n))
            direction = [float(rng.uniform(-1.0, 1.0)) for _ in range(n)]
            direction[j] = 1.0 if rng.uniform() > 0.5 else -1.0
            xs.append([z[i] + pack.r[depth] * direction[i] for i in range(n)])
            targets.append(zt)
            radii.append(pack.rt[depth])
            conds.append(cond)
    dist = _sup_rows(pmap.eval_batch(_rows(xs, n)), _rows(targets, n))
    worst = _fold_max(np.abs(dist - np.array(radii)) / (ULP1 * np.array(conds)))
    s.add_le("map.cube_onto_cube_ulps", worst, 8.0)

    xs, targets = [], []
    for depth in (1, min(3, pack.K), min(6, pack.K)):
        for _ in range(10):
            w = _random_word(rng, n, depth)
            z = center(w, depth, pack)
            zt = center(w, depth, pack, "target")
            direction = [float(rng.uniform(-0.6, 0.6)) for _ in range(n)]
            direction[0] = 1.0
            radii = np.linspace(pack.r[depth] * 1.01,
                                pack.r[depth - 1] / 2.0 * 0.99, 12)
            for radius in radii:
                xs.append([z[i] + radius * direction[i] for i in range(n)])
                targets.append(zt)
    # one row per ray: the sup distance of each image to the target centre
    img = _sup_rows(pmap.eval_batch(_rows(xs, n)), _rows(targets, n)).reshape(-1, 12)
    bad_rays = int(np.count_nonzero((img[:, 1:] <= img[:, :-1]).any(axis=1)))
    s.add("map.monotone_radial_failures", bad_rays, 0.0, bad_rays == 0)

    # The return leg pmap.eval(pmap.eval_inverse(y)) stays scalar: it is the
    # certify workload's only scalar inverse chain, and perfbench/tracer.py
    # requires both calls.  y is classified by its domain descent (locate).
    x = rng.uniform(-1.0, 1.0, size=(scale.roundtrip_points, n))
    y = pmap.eval_batch(x)
    back = _rows([pmap.eval(pmap.eval_inverse(row)) for row in y.tolist()], n)
    err = _sup_rows(back, y)
    loc = descend_batch(y, pack)
    cond = [max(1.0, _gradient_bound(pack, k)) for k in loc.depth[~loc.core].tolist()]
    worst_ann = _fold_max(err[~loc.core] / np.array(cond))
    worst_core = _fold_max(err[loc.core])
    s.add_le("map.inverse_roundtrip_annulus_ulps", worst_ann / ULP1, 8.0)
    # twice the truncation error, but never under the 8-ulp budget of the
    # other map checks: past depth about 50 it falls below one ulp
    s.add_le("map.inverse_roundtrip_core", worst_core,
             max(2.0 * pmap.truncation_error, 8.0 * ULP1))

    # consecutive uniform draws: one array draw takes the same values
    worst_ratio = 0.0
    for kp in sorted({max(1, pack.K // 4), max(1, pack.K // 2)}):
        shallow = build(pack.truncate(kp))
        x = rng.uniform(-1.0, 1.0, size=(100, n))
        ratio = _sup_rows(pmap.eval_batch(x), shallow.eval_batch(x)) / shallow.truncation_error
        worst_ratio = _fold_max(ratio, worst_ratio)
    s.add_le("map.truncation_ratio", worst_ratio, 1.0)

    pairs = rng.uniform(-1.0, 1.0, size=(scale.injectivity_pairs, 2, n))
    y = pmap.eval_batch(pairs.reshape(-1, n)).reshape(pairs.shape)
    collisions = int(np.count_nonzero((pairs[:, 0] != pairs[:, 1]).any(axis=1)
                                      & (y[:, 0] == y[:, 1]).all(axis=1)))
    s.add("map.injectivity_collisions", collisions, 0.0, collisions == 0)


def _check_jacobian(s: _Suite, pmap: PonomarevMap, rng, scale: VerifyScale):
    pack = pmap.pack
    n = pack.n
    det = pmap.jacobian_det_batch(rng.uniform(-1.0, 1.0, size=(scale.jacobian_points, n)))
    # a point on the ridge set (NaN) has no determinant and is skipped
    min_det = min([math.inf, *det[~np.isnan(det)].tolist()])
    s.add("jacobian.min_det", min_det, 0.0, min_det > 0.0)

    # The finite-difference loop keeps its draws, the scalar locate and the
    # scalar derivative (no batch derivative exists); the 2n displaced
    # copies of its points are mapped in two eval_batch calls.
    xs, steps, mats = [], [], []
    for _ in range(scale.fd_points):
        depth = int(rng.integers(1, min(7, pack.K) + 1))
        w = _random_word(rng, n, depth)
        x = _annulus_point(pack, w, depth, rng, band=(0.3, 0.7))
        loc = pmap.locate(x)
        mats.append(pmap.derivative(x, loc))
        xs.append(x)
        # the step must stay representable against coordinates of order one
        steps.append(max(1e-7 * loc.m, 64.0 * ULP1))
    # row (p, l) of each copy is point p moved by its step along coordinate l
    diag, h = np.arange(n), np.array(steps)[:, None]
    xp = np.repeat(_rows(xs, n)[:, None, :], n, axis=1)
    xm = xp.copy()
    xp[:, diag, diag] += h
    xm[:, diag, diag] -= h
    delta = xp[:, diag, diag] - xm[:, diag, diag]
    fp, fm = (pmap.eval_batch(v.reshape(-1, n)).reshape(-1, n, n) for v in (xp, xm))
    # fp[p, l, i] is component i of the image of copy l: column l of the fd matrix
    fd = ((fp - fm) / delta[:, :, None]).transpose(0, 2, 1)
    mat = np.array(mats)
    worst = _fold_max(np.abs(fd - mat).max(axis=(1, 2)) / np.abs(mat).max(axis=(1, 2)))
    s.add_le("jacobian.fd_relative_error", worst, 1e-6)

    # The determinant-identity loop stays one point at a time: its scalar
    # locate, derivative and jacobian_det are the ones perfbench/tracer.py
    # requires of the certify workload.
    worst = 0.0
    for _ in range(scale.fd_points):
        depth = int(rng.integers(1, min(10, pack.K) + 1))
        w = _random_word(rng, n, depth)
        x = _annulus_point(pack, w, depth, rng)
        loc = pmap.locate(x)
        mat = pmap.derivative(x, loc)
        closed = pmap.jacobian_det(x, loc)
        rel = abs(float(np.linalg.det(mat)) - closed) / closed
        # cancellation in the active column scales with |Df| / alpha
        m = loc.m
        k = loc.depth
        cond = (pack.alpha[k] + pack.beta[k] / m) / pack.alpha[k]
        tol = max(1e-12, 32.0 * ULP1 * cond)
        worst = max(worst, rel / tol)
    s.add("jacobian.det_identity_rel", worst, 1.0, worst <= 1.0,
          note="relative to conditioning-aware tolerance")


def _check_measures(s: _Suite, pack: SequencePack, gauge: GaugeSpec, kind: str,
                    safety: float):
    n = pack.n
    domain = analysis.lebesgue_level(pack, pack.K, "domain")
    s.add("measure.lebesgue_domain_level", domain, domain, True, note="closed form")
    target = analysis.lebesgue_level(pack, pack.K, "target")
    expect = (1.0 + pack.a[pack.K]) ** n if pack.standard else target
    s.add("measure.lebesgue_target_level", target, expect,
          abs(target - expect) <= 1e-12 * expect)

    mism = 0
    for j in range(0, min(3, pack.K) + 1):
        k = min(pack.K, j + 2)
        rep = analysis.pushforward_check(pack, k, j)
        if not rep.exact:
            mism += 1
    s.add("measure.pushforward_failures", mism, 0.0, mism == 0)

    if kind not in ("finite_measure", "null_measure"):
        return
    totals = [analysis.upper_sum_at_scale(gauge, k, pack.a[k]).total
              for k in range(1, pack.K + 1)]
    if kind == "finite_measure":
        # With a_k^n tau(r_k) = 1, total_k = 2^(nk) (2 sqrt(n) r_k)^n tau(2 sqrt(n) r_k)
        # = (2 sqrt(n))^n tau(2 sqrt(n) r_k) / tau(r_k) <= (2 sqrt(n))^n = (4n)^(n/2),
        # as tau is non-increasing.  The band [0.1, 10] was set at n = 2, where
        # (4n)^(n/2) = 8; both ends scale with (4n)^(n/2) / 8, exactly 1 at n = 2.
        grow = (4.0 * n) ** (n / 2) / 8.0
        lo, hi = min(totals), max(totals)
        s.add("measure.upper_sum_band", hi, 10.0 * grow,
              0.1 * grow <= lo and hi <= 10.0 * grow, note=f"min {lo:.6g}")
    if kind == "null_measure":
        ok = all(total <= safety * 2.0 ** (-n * k) for k, total in enumerate(totals, 1))
        s.add("measure.upper_sum_collapse", 0.0 if ok else 1.0, 0.0, ok)


def _check_norms(s: _Suite, pmap: PonomarevMap, rng, scale: VerifyScale):
    pack = pmap.pack
    a = pack.a
    worst = 0.0
    for eps in (0.01, 0.5, 1.0):
        diffs = math.fsum(a[k - 1] ** eps - a[k] ** eps for k in range(1, pack.K + 1))
        worst = max(worst, abs(diffs - (1.0 - a[pack.K] ** eps)))
    s.add_le("norm.telescoping_identity", worst, 1e-14)

    if pack.standard:
        rep = analysis.grand_norm_report(pmap, eps_grid=analysis.default_eps_grid(pack.n, 16))
        bad = sum(1 for v, b in zip(rep.values, rep.bounds) if v > b)
        s.add("norm.bound_domination_failures", bad, 0.0, bad == 0,
              note=f"sup={rep.sup:.6g}")

    worst_sigma = 0.0
    for _ in range(4):
        k = int(rng.integers(1, pack.K + 1))
        eps = float(rng.uniform(0.01, pack.n - 1.0))
        phi = analysis.GradientPower(pack.alpha[k], pack.beta[k], pack.n - eps)
        r, R = pack.r[k], pack.r[k - 1] / 2.0
        exact = analysis.shell_integral(phi, r, R, pack.n)
        est, se = analysis.shell_integral_mc(phi, r, R, pack.n,
                                             scale.mc_samples, rng)
        worst_sigma = max(worst_sigma, abs(est - exact) / se)
    s.add_le("norm.shell_mc_sigma", worst_sigma, 3.0)


def _check_gauge(s: _Suite, gauge: GaugeSpec, pack: SequencePack, kind: str,
                 safety: float):
    ok, worst = check_gauge_monotone(gauge, points=4_000)
    s.add("gauge.monotone_worst_drop", worst, 0.0, ok)
    if gauge.tau is not None:
        obs = check_tau_invariants(gauge.tau)
        s.add("tau.min_value", obs["min_value"], 1.0, obs["min_value"] >= 1.0)
        s.add_le("tau.monotonicity_violation",
                 obs["worst_monotonicity_violation"], 0.0)
        s.add("tau.ladder_increasing", 1.0 if obs["ladder_increasing"] else 0.0,
              1.0, obs["ladder_increasing"])
    if kind == "finite_measure" and gauge.tau is not None:
        worst = max(scale_condition(gauge, 1, k, pack.a[k])[0] for k in range(1, pack.K + 1))
        s.add_le("gauge.sequence_identity", worst, IDENTITY_TOL)
    if kind == "null_measure":
        ok = all(observed <= bound for observed, bound in
                 (scale_condition(gauge, 2, k, pack.a[k], safety) for k in range(1, pack.K + 1)))
        s.add("gauge.sequence_inequality", 0.0 if ok else 1.0, 0.0, ok)


def run_suite(pack: SequencePack, gauge: GaugeSpec, kind: str, seed: int,
              scale: VerifyScale, safety: float) -> VerifyReport:
    """Run every module invariant against one construction."""
    rng = np.random.default_rng(seed)
    s = _Suite()
    try:
        pack.validate()
        s.add("pack.validate", 0.0, 0.0, True)
    except PonomapError as exc:
        s.add("pack.validate", 1.0, 0.0, False, note=str(exc))
        return VerifyReport(checks=tuple(s.checks), passed=False, seed=seed)
    _check_pack(s, pack)
    _check_cantor(s, pack, scale)
    pmap = build(pack)
    _check_map(s, pmap, rng, scale)
    _check_jacobian(s, pmap, rng, scale)
    _check_measures(s, pack, gauge, kind, safety)
    _check_norms(s, pmap, rng, scale)
    _check_gauge(s, gauge, pack, kind, safety)
    return VerifyReport(checks=tuple(s.checks),
                        passed=all(c.passed for c in s.checks), seed=seed)
