import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ponomap import (
    Cover,
    CoverageError,
    DepthError,
    GaugeSpec,
    GradientPower,
    RawGauge,
    SequencePack,
    TauSpec,
    all_words,
    build,
    canonical_cover,
    center,
    finite_measure_sequence,
    geometric_sequence,
    grand_norm_report,
    harmonic_sequence,
    eval_h,
    hausdorff_lower_probe,
    lebesgue_level,
    null_measure_sequence,
    pushforward_check,
    random_cover,
    shell_integral,
    shell_integral_mc,
    sobolev_depth_profile,
)
from ponomap import analysis
from ponomap.analysis import (
    _cube_in_ball,
    _dist_to_cube,
    _farthest_corner,
    default_eps_grid,
    upper_sum_at_scale,
)
from ponomap.cantor import descendant_count
from ponomap.errors import GaugeRangeError, ToleranceError
from reference_json import reference_json_data, reference_probe_data
from reference_packs import pack_from_scales
from reference_norms import reference_depth_profile, reference_grand_norm_values
from reference_covers import (cover_rows, join_covers, make_cover, reference_canonical_cover,
                              reference_random_cover)
import reference_words

LOG_TAU = TauSpec(family="iterated_log", iterations=1, exponent=1.0, shift=math.e)
LOG_GAUGE = GaugeSpec(n=2, tau=LOG_TAU)
POWER_GAUGE = GaugeSpec(n=2, raw=RawGauge(family="power", alpha=1.0))


def harmonic_pack(K=20, n=2):
    return SequencePack.from_standard(n, harmonic_sequence(K))


def log_pack(K=12):
    return SequencePack.from_standard(2, finite_measure_sequence(LOG_TAU, 2, K))


# ---------------------------------------------------------------------------
# Lebesgue levels


def test_lebesgue_level_k0():
    pack = harmonic_pack()
    assert lebesgue_level(pack, 0, "domain") == 4.0
    assert lebesgue_level(pack, 0, "target") == 4.0


def test_lebesgue_level_harmonic():
    pack = harmonic_pack()
    assert lebesgue_level(pack, 1, "domain") == pytest.approx(1.0, rel=1e-15)


def test_lebesgue_target_tends_to_one():
    # scale-level identity 2^n b_k^n; deep b_k collapse to exactly 1/2 in
    # binary64 once a_k < ulp(1), so the level measure reaches 1.0 exactly
    a = null_measure_sequence(POWER_GAUGE, 40)
    vals = [4.0 * ((1.0 + a[k]) / 2.0) ** 2 for k in (5, 10, 40)]
    assert vals[0] > vals[1] >= vals[2] >= 1.0
    assert abs(vals[2] - 1.0) < 0.01
    # pack-level variant at depths where the target scales stay distinct
    pack = SequencePack.from_standard(2, a[:13])
    assert lebesgue_level(pack, 12, "target") == pytest.approx(
        (1.0 + a[12]) ** 2, rel=1e-15)


# ---------------------------------------------------------------------------
# upper cover sums


def test_upper_sum_k0_single_cube():
    pack = harmonic_pack()
    rep = upper_sum_at_scale(LOG_GAUGE, 0, pack.a[0])
    assert rep.count == 1
    assert rep.total == eval_h(LOG_GAUGE, 2.0 * math.sqrt(2))


def test_upper_sum_product_structure():
    pack = log_pack()
    for k in range(0, 13, 3):
        rep = upper_sum_at_scale(LOG_GAUGE, k, pack.a[k])
        assert rep.total == float(rep.count) * rep.per_cube
        assert rep.count == 2 ** (2 * k)


def test_upper_sum_null_sequence_collapses():
    for spec in (POWER_GAUGE,
                 GaugeSpec(n=2, raw=RawGauge(family="exp_inverse", scale=1.0))):
        a = null_measure_sequence(spec, 40)
        totals = [upper_sum_at_scale(spec, k, a[k]).total for k in range(1, 41)]
        for k, total in enumerate(totals, start=1):
            assert total <= 2.0 ** (-2 * k - 1)
        # strictly decreasing until the values underflow to zero
        assert all(b < t or t == b == 0.0 for t, b in zip(totals, totals[1:]))
        assert totals[-1] < 1e-12


def test_upper_sum_finite_measure_band():
    # sums hover near c_n^n = 8 for slowly varying factors
    a = finite_measure_sequence(LOG_TAU, 2, 30)
    totals = [upper_sum_at_scale(LOG_GAUGE, k, a[k]).total for k in range(1, 31)]
    assert all(0.1 <= t <= 10.0 for t in totals)


# ---------------------------------------------------------------------------
# lower-bound probe


def _same_cover(got, want):
    assert got.depth == want.depth
    assert got.words.dtype == np.int64 and np.array_equal(got.words, want.words)
    for a, b in ((got.centers, want.centers), (got.radius, want.radius)):
        assert a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_canonical_cover_matches_per_word_reference(n):
    pack = SequencePack.from_standard(n, finite_measure_sequence(LOG_TAU, n, 12))
    for m in (1, 2, 3):
        _same_cover(canonical_cover(pack, m), reference_canonical_cover(pack, m))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_random_covers_match_per_word_reference(n):
    # three covers drawn from one generator, the last two at one depth as
    # cmd_hausdorff draws them, leave it where the per-vertex draws leave it
    pack = SequencePack.from_standard(n, finite_measure_sequence(LOG_TAU, n, 12))
    got, want = np.random.default_rng(n), np.random.default_rng(n)
    for m in (1, 3, 3):
        _same_cover(random_cover(pack, m, got), reference_random_cover(pack, m, want))
    assert got.uniform() == want.uniform()


def test_random_cover_words_past_62_bits_are_exact():
    # at n = 16 an anchor word has 64 bits, past int64
    pack = SequencePack.from_standard(16, harmonic_sequence(4))
    cover = random_cover(pack, 1, np.random.default_rng(0))
    draws = np.random.default_rng(0).integers(2 ** 16, size=(2 ** 16, 3)).tolist()
    for j in (0, 1, 2 ** 15, 2 ** 16 - 1):
        a, b, c = draws[j]
        assert cover.words[j] == ((j << 16 | a) << 16 | b) << 16 | c
    assert max(cover.words) >= 2 ** 63


def test_lower_probe_trivial_cover():
    pack = log_pack()
    word = 2 ** 16 - 1  # ++ at all 8 levels
    ball = make_cover(2, 8, [word], [center(word, 8, pack)], [2.0 * math.sqrt(2)])
    rep = hausdorff_lower_probe(LOG_GAUGE, pack, ball, 4)
    assert rep.ratio >= 1.0
    assert rep.min_contained_depth[0] == 1
    assert rep.max_intersecting <= rep.counting_bound


def test_lower_probe_canonical_cover():
    pack = log_pack()
    for m in (1, 2, 3):
        level = m + 2
        cover = canonical_cover(pack, m)
        rep = hausdorff_lower_probe(LOG_GAUGE, pack, cover, level)
        # circumscribed balls reproduce the depth-m cube sum exactly
        expected = upper_sum_at_scale(LOG_GAUGE, m, pack.a[m]).total
        assert rep.cover_sum == pytest.approx(expected, rel=1e-12)
        assert rep.ratio == pytest.approx(expected / rep.reference_upper_sum, rel=1e-12)
        assert rep.ratio > 0.5
        for d, c, u in zip(rep.min_contained_depth.tolist(), rep.contained_count.tolist(),
                           rep.intersecting_count.tolist(), strict=True):
            assert d == m
            # each ball contains at least its own subtree at the probe level
            assert c >= 4 ** (level - m)
            assert u <= rep.counting_bound


def test_lower_probe_randomized_covers():
    pack = log_pack()
    rng = np.random.default_rng(20260810)
    ratios = []
    for _ in range(25):
        cover = random_cover(pack, 3, rng)
        rep = hausdorff_lower_probe(LOG_GAUGE, pack, cover, 5)
        ratios.append(rep.ratio)
        assert rep.max_intersecting <= rep.counting_bound
    assert min(ratios) > 0.0


def test_lower_probe_counts_match_brute_force():
    # BFS pruning must agree with direct enumeration over all cubes
    pack = log_pack()
    rng = np.random.default_rng(5)
    cover = random_cover(pack, 2, rng)
    rep = hausdorff_lower_probe(LOG_GAUGE, pack, cover, 4)
    for c, rho, m, u, inner in zip(cover.centers.tolist(), cover.radius.tolist(),
                                   rep.min_contained_depth.tolist(),
                                   rep.intersecting_count.tolist(),
                                   rep.contained_count.tolist(), strict=True):
        brute_intersect = sum(
            1 for w in all_words(2, m).tolist()
            if _dist_to_cube(c, center(w, m, pack), pack.r[m]) <= rho
        )
        assert brute_intersect == u
        brute_contained = sum(
            1 for w in all_words(2, 4).tolist()
            if _cube_in_ball(c, center(w, 4, pack), pack.r[4], rho)
        )
        assert brute_contained == inner


@pytest.mark.parametrize("n, m, level", [(2, 2, 5), (2, 4, 6), (3, 2, 4)])
def test_lower_probe_pair_budget_changes_no_result(n, m, level, monkeypatch):
    # a budget of one ball's first expansion splits the cover down to
    # single balls at depth 1; a larger one splits at some depths only.
    # Balls never share pairs, so every array equals the walk of one group
    # that no budget splits
    pack = SequencePack.from_standard(n, finite_measure_sequence(LOG_TAU, n, 12))
    cover = random_cover(pack, m, np.random.default_rng(n + m))
    monkeypatch.setattr(analysis, "_PAIR_BUDGET", math.inf)
    whole = analysis._probe_walk(pack, cover, level)
    splits = []
    array_split = np.array_split
    monkeypatch.setattr(np, "array_split", lambda *a: splits.append(1) or array_split(*a))
    for budget in (2 ** n, 2 ** (n + 4)):
        monkeypatch.setattr(analysis, "_PAIR_BUDGET", budget)
        split = analysis._probe_walk(pack, cover, level)
        assert all(np.array_equal(a, b) for a, b in zip(whole, split)), budget
    assert splits


def test_lower_probe_refuses_levels_past_the_cap(monkeypatch):
    # the walk keeps one coverage flag per depth-level cube
    pack = log_pack()
    word = 2 ** 16 - 1
    ball = make_cover(2, 8, [word], [center(word, 8, pack)], [2.0 * math.sqrt(2)])
    rep = hausdorff_lower_probe(LOG_GAUGE, pack, ball, 10)  # 2^20 cubes, the cap
    assert rep.contained_count[0] == 2 ** 20
    monkeypatch.setattr(analysis, "_probe_walk", lambda *args: pytest.fail("walked"))
    with pytest.raises(DepthError, match="4194304 depth-11 cubes exceed the probe cap 1048576"):
        hausdorff_lower_probe(LOG_GAUGE, pack, ball, 11)


def test_lower_probe_coverage_error():
    pack = log_pack()
    word = 0b11  # ++
    small = make_cover(2, 1, [word], [center(word, 1, pack)], [pack.r[1]])
    with pytest.raises(CoverageError):
        hausdorff_lower_probe(LOG_GAUGE, pack, small, 3)
    with pytest.raises(CoverageError, match="misses 64 of 64 depth-3 cubes"):
        hausdorff_lower_probe(LOG_GAUGE, pack, make_cover(2, 1, [], [], []), 3)


def test_lower_probe_refuses_a_reference_sum_that_underflows(monkeypatch):
    # exp(-500/t) underflows to 0 at the diameter of the level-2 cubes of this
    # theorem-2 pack, and the ratio to the reference sum would divide by it
    steep = GaugeSpec(n=2, raw=RawGauge(family="exp_inverse", scale=500.0))
    pack = SequencePack.from_standard(2, null_measure_sequence(steep, 12))
    assert upper_sum_at_scale(steep, 2, pack.a[2]).total == 0.0
    monkeypatch.setattr(analysis, "_probe_walk", lambda *args: pytest.fail("walked"))
    with pytest.raises(GaugeRangeError, match="probe level 2 underflows"):
        hausdorff_lower_probe(steep, pack, canonical_cover(pack, 1), 2)


# scalar reference walk for the probe: every ball walked from the root by a
# recursive fsum test of each child, coverage kept as a set of cube indices


def _ref_children(pack, zc, depth):
    half = 0.5 * pack.r[depth - 1]
    for v in (w.signs[0] for w in reference_words.all_words(pack.n, 1)):
        yield tuple(zc[i] + half * v[i] for i in range(pack.n))


def _ref_frontiers(pack, c, rho, max_depth):
    """Per-depth lists of the centers of cubes intersecting the ball (c, rho)."""
    frontier = [(0.0,) * pack.n]
    for d in range(1, max_depth + 1):
        frontier = [child for zc in frontier for child in _ref_children(pack, zc, d)
                    if _dist_to_cube(c, child, pack.r[d]) <= rho]
        yield d, frontier


def _ref_contained_blocks(pack, c, rho, level):
    """Index blocks [start, stop) of depth-``level`` cubes inside the ball
    (c, rho)."""
    blocks = []

    def visit(zc, depth, index):
        if depth >= 1 and _cube_in_ball(c, zc, pack.r[depth], rho):
            span = descendant_count(depth, level, pack.n)
            blocks.append((index * span, index * span + span))
            return
        if depth == level:
            return
        for ci, child in enumerate(_ref_children(pack, zc, depth + 1)):
            if _dist_to_cube(c, child, pack.r[depth + 1]) <= rho:
                visit(child, depth + 1, index * 2 ** pack.n + ci)

    visit((0.0,) * pack.n, 0, 0)
    return blocks


def reference_lower_probe(h, pack, cover, level):
    """The probe as hausdorff.json holds it (``reference_probe_data``'s
    form), walked ball by ball."""
    per_cube = eval_h(h, 2.0 * math.sqrt(pack.n) * pack.r[level])
    covered = set()
    stats = []
    for word, c, rho in zip(cover.words.tolist(), cover.centers.tolist(),
                            cover.radius.tolist()):
        contained = 0
        for start, stop in _ref_contained_blocks(pack, c, rho, level):
            contained += stop - start
            covered.update(range(start, stop))
        min_depth, intersecting = None, 0
        for d, frontier in _ref_frontiers(pack, c, rho, level):
            if any(_cube_in_ball(c, zc, pack.r[d], rho) for zc in frontier):
                min_depth, intersecting = d, len(frontier)
                break
        stats.append({"word": reference_words.word_text(word, pack.n, cover.depth),
                      "radius": rho,
                      "min_contained_depth": min_depth,
                      "intersecting_count": intersecting,
                      "contained_count": contained,
                      "dominated_sum": contained * per_cube})
    total = 2 ** (pack.n * level)
    if len(covered) != total:
        raise CoverageError(
            f"cover misses {total - len(covered)} of {total} depth-{level} cubes")
    cover_sum = math.fsum(eval_h(h, 2.0 * rho) for rho in cover.radius.tolist())
    reference = float(2 ** (pack.n * level)) * per_cube
    return {"level": level, "cover_sum": cover_sum, "reference_upper_sum": reference,
            "ratio": cover_sum / reference, "balls": stats,
            "max_intersecting": max((b["intersecting_count"] for b in stats), default=0),
            "counting_bound": 4 ** pack.n}


def probe_data(h, pack, cover, level):
    return reference_probe_data(hausdorff_lower_probe(h, pack, cover, level))


def _probe_outcome(probe, h, pack, cover, level):
    try:
        return probe(h, pack, cover, level)
    except CoverageError as exc:
        return str(exc)


@pytest.mark.parametrize("n, cases", [
    (2, ((1, 3), (2, 5), (4, 6))),
    (3, ((1, 3), (2, 4), (3, 3))),
])
def test_lower_probe_matches_scalar_reference(n, cases):
    tau = TauSpec(family="log", shift=math.e)
    gauge = GaugeSpec(n=n, tau=tau)
    rng = np.random.default_rng(31)
    packs = [SequencePack.from_standard(n, finite_measure_sequence(tau, n, 8)),
             SequencePack.from_standard(n, harmonic_sequence(8)),
             SequencePack.from_standard(n, geometric_sequence(8, 0.4))]
    for pack in packs:
        for m, level in cases:
            canon = canonical_cover(pack, m)
            covers = [canon, random_cover(pack, m, rng),
                      cover_rows(canon, slice(1, None)),  # drops the first cube's ball
                      Cover(canon.words, m, canon.centers, np.full(len(canon.words), pack.r[m]))]
            got = [_probe_outcome(probe_data, gauge, pack, c, level) for c in covers]
            assert got == [_probe_outcome(reference_lower_probe, gauge, pack, c, level)
                           for c in covers]
            assert got[2].startswith("cover misses")


def _containment_tie(c, z, r):
    """Smallest radius at which the scalar test puts the cube Q(z, r) inside
    the ball at c."""
    rho = _farthest_corner(c, z, r) / analysis._IN_BALL_SLACK
    while not _cube_in_ball(c, z, r, rho):
        rho = math.nextafter(rho, math.inf)
    while _cube_in_ball(c, z, r, math.nextafter(rho, 0.0)):
        rho = math.nextafter(rho, 0.0)
    return rho


def _tie_balls(pack, m):
    """Balls in the first depth-m cube on both sides of exact decision ties.

    Each pair is (radius, the next float below it).  The ball at the cube's
    center is tied with the gap distance to a sibling (across one face and
    across all coordinates) and with the smallest radius that contains its
    own cube.  For n >= 3 a ball moved off center is tied with its own cube
    where the left-to-right float sum of the squares differs from fsum, so
    a decision taken from that sum alone would differ from the scalar one.
    """
    r = pack.r[m]
    c = center(0, m, pack)
    ties = [(c, _dist_to_cube(c, center(j, m, pack), r))
            for j in (1, 2 ** pack.n - 1)]
    ties.append((c, _containment_tie(c, c, r)))
    if pack.n >= 3:
        rng = np.random.default_rng(7)
        for _ in range(1000):
            off = tuple(zi + r * u for zi, u in zip(c, rng.uniform(-0.25, 0.25, pack.n)))
            acc = 0.0
            for oi, zi in zip(off, c):
                acc += (abs(oi - zi) + r) ** 2
            if math.sqrt(acc) != _farthest_corner(off, c, r):
                break
        else:
            raise AssertionError("no rounding difference found")
        ties.append((off, _containment_tie(off, c, r)))
    return [(make_cover(pack.n, m, [0], [at], [rho]),
             make_cover(pack.n, m, [0], [at], [math.nextafter(rho, 0.0)]))
            for at, rho in ties]


# at n = 4 the distance sums run over four coordinates
@pytest.mark.parametrize("n", [2, 3, 4])
def test_lower_probe_exact_ties(n, monkeypatch):
    tau = TauSpec(family="log", shift=math.e)
    gauge = GaugeSpec(n=n, tau=tau)
    pack = SequencePack.from_standard(n, harmonic_sequence(8))
    m, level = 2, 4
    canon = canonical_cover(pack, m)
    rechecked = {"dist": 0, "in_ball": 0}

    def counted(key, fn):
        def wrapper(*args):
            rechecked[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(analysis, "_dist_to_cube", counted("dist", _dist_to_cube))
    monkeypatch.setattr(analysis, "_cube_in_ball", counted("in_ball", _cube_in_ball))
    for at, below in _tie_balls(pack, m):
        reports = []
        for ball in (at, below):
            cover = join_covers(canon, ball)
            rep = probe_data(gauge, pack, cover, level)
            assert rep == reference_lower_probe(gauge, pack, cover, level)
            reports.append(rep["balls"][-1])
        # one float of radius flips a decision, so the tie is a real one
        assert reports[0] != reports[1]
    # the near-tie pairs went to the scalar tests
    assert rechecked["dist"] > 0 and rechecked["in_ball"] > 0


# ---------------------------------------------------------------------------
# shell integrals


def test_shell_integral_volume():
    for n in (2, 3):
        got = shell_integral(lambda t: 1.0, 0.25, 0.5, n)
        assert got == pytest.approx(1.0 ** n - 0.5 ** n, rel=1e-14)


def test_shell_integral_inverse_t():
    got = shell_integral(lambda t: 1.0 / t, 0.25, 0.5, 2)
    assert got == pytest.approx(2.0, rel=1e-14)


def test_shell_integral_quad_matches_closed_form():
    # quadrature against the power-law antiderivative n 2^n (R^q - r^q)/q,
    # or n 2^n log(R/r) at q = p + n = 0
    for n, p in ((2, -1.5), (2, -1.0), (2, 0.5), (2, 2.0), (2, -2.0), (3, -1.0)):
        q = p + n
        closed = n * 2.0 ** n * (math.log(0.4 / 0.1) if q == 0.0 else (0.4 ** q - 0.1 ** q) / q)
        quad = shell_integral(lambda t, p=p: t ** p, 0.1, 0.4, n)
        assert quad == pytest.approx(closed, rel=1e-9)


def test_shell_integral_validation():
    with pytest.raises(ValueError):
        shell_integral(lambda t: 1.0, 0.5, 0.25, 2)
    with pytest.raises(ValueError):
        shell_integral(lambda t: 1.0, 0.0, 0.25, 2)


def test_shell_integral_monte_carlo_agreement():
    rng = np.random.default_rng(7)
    pack = harmonic_pack(30)
    for trial in range(6):
        k = int(rng.integers(1, 25))
        eps = float(rng.uniform(0.01, 1.0))
        phi = GradientPower(pack.alpha[k], pack.beta[k], 2.0 - eps)
        r, R = pack.r[k], pack.r[k - 1] / 2.0
        exact = shell_integral(phi, r, R, 2)
        est, se = shell_integral_mc(phi, r, R, 2, 200_000, rng)
        assert abs(est - exact) <= 3.0 * se


# ---------------------------------------------------------------------------
# grand norm and Sobolev sums


def test_telescoping_identity_exact():
    a = harmonic_sequence(40)
    for eps in (0.01, 0.3, 1.0):
        diffs = math.fsum(a[k - 1] ** eps - a[k] ** eps for k in range(1, 41))
        assert diffs == pytest.approx(1.0 - a[40] ** eps, abs=1e-15)


def test_grand_norm_values_below_bounds():
    m = build(harmonic_pack(40))
    rep = grand_norm_report(m, default_eps_grid(2, 64))
    assert rep.convention == "max_partials"
    assert rep.depth == 40
    assert len(rep.eps) == 64
    for v, b in zip(rep.values, rep.bounds):
        assert 0.0 <= v <= b
    assert rep.sup == max(rep.values)
    # each value is eps times the p = n - eps profile's annuli plus its core
    for e, v in list(zip(rep.eps, rep.values))[::16]:
        partials, core = sobolev_depth_profile(m, 2.0 - e)
        assert all(y >= x for x, y in zip(partials, partials[1:]))
        assert v == pytest.approx(e * (partials[-1] + core), rel=1e-12)


def test_grand_norm_schema():
    m = build(harmonic_pack(10))
    rep = grand_norm_report(m, eps_grid=(0.5, 1.0))
    d = reference_json_data(rep)
    assert set(d) == {"eps", "values", "bounds", "sup", "convention", "depth"}
    assert d["convention"] == "max_partials"


def test_grand_norm_requires_standard_pack():
    a = geometric_sequence(8)
    m = build(pack_from_scales(2, a, a))
    with pytest.raises(ValueError):
        grand_norm_report(m, default_eps_grid(2, 64))
    with pytest.raises(ValueError):
        grand_norm_report(build(harmonic_pack(8)), eps_grid=(0.0, 1.0))


def test_grand_norm_faster_decay_dominates():
    # pointwise |Df| is larger for faster-decaying scale sequences, so the
    # grand-norm sup is monotone non-decreasing under faster decay
    grid = default_eps_grid(2, 64)
    slow = grand_norm_report(build(harmonic_pack(20)), grid)
    fast = grand_norm_report(build(SequencePack.from_standard(2, geometric_sequence(20))), grid)
    assert fast.sup >= slow.sup


def sobolev_total(m, p):
    """int |Df_K|^p over the cube: the annuli through depth K plus the cores."""
    partials, core = sobolev_depth_profile(m, p)
    return partials[-1] + core


def test_sobolev_identity_pack():
    a = geometric_sequence(10)
    m = build(pack_from_scales(2, a, a))
    for p in (0.5, 1.0, 1.7, 2.0):
        assert sobolev_total(m, p) == pytest.approx(4.0, rel=1e-12)


def test_sobolev_finite_below_n_stable_in_depth():
    m20 = build(harmonic_pack(20))
    m40 = build(harmonic_pack(40))
    for p in (1.0, 1.5, 1.9):
        v20, v40 = sobolev_total(m20, p), sobolev_total(m40, p)
        assert v40 < math.inf
        assert abs(v40 - v20) / v40 < 0.2  # increments decay with depth
    # geometric decay of increments for p < n
    partials, _ = sobolev_depth_profile(m40, 1.5)
    inc = [b - a for a, b in zip(partials, partials[1:])]
    assert inc[30] < inc[20] < inc[10]


def test_sobolev_divergence_at_p_equals_n():
    m = build(harmonic_pack(40))
    partials, _ = sobolev_depth_profile(m, 2.0)
    slope = (partials[39] - partials[19]) / (math.log(40) - math.log(20))
    assert slope >= 1.0  # ~ n log K growth
    assert partials[39] > partials[19] > partials[9]


def test_sobolev_remark_estimates():
    # harmonic scales: per-annulus |Df| grows like k, annulus measure like
    # 2^(-nk) k^-(n+1)
    pack = harmonic_pack(20)
    for k in range(1, 21):
        df_max = pack.alpha[k] + pack.beta[k] / pack.r[k]
        assert 0.25 <= df_max / (k + 2) <= 1.0
        measure = 2.0 ** (2 * k) * (
            (2.0 * pack.r[k - 1] / 2.0) ** 2 - (2.0 * pack.r[k]) ** 2
        )
        model = 4.0 * (2.0 / (k + 1) ** 3)
        assert 0.2 <= measure / model <= 5.0


def test_sobolev_validation():
    m = build(harmonic_pack(8))
    with pytest.raises(ValueError):
        sobolev_depth_profile(m, 0.0)
    with pytest.raises(ValueError):
        sobolev_depth_profile(m, 2.5)


# ---------------------------------------------------------------------------
# the block path of the norm table against the per-depth quadrature loop


def workload_packs():
    """The norms benchmark's three packs at K = 40, plus the log pack at n = 3."""
    log = TauSpec.from_dict({"family": "log", "shift": math.e})
    log_power = TauSpec.from_dict({"family": "log_power", "exponent": 2.0, "shift": math.e})
    exp_inverse = GaugeSpec.from_dict({"n": 2, "raw": {"family": "exp_inverse", "scale": 1.0}})
    return {
        "log": SequencePack.from_standard(2, finite_measure_sequence(log, 2, 40)),
        "log_power": SequencePack.from_standard(2, finite_measure_sequence(log_power, 2, 40)),
        "exp_inverse": SequencePack.from_standard(2, null_measure_sequence(exp_inverse, 40)),
        "log_n3": SequencePack.from_standard(3, finite_measure_sequence(log, 3, 40)),
    }


def test_norm_table_matches_quadrature_loop(monkeypatch):
    eps = tuple(float(e) for e in np.geomspace(1e-6, 1.0, 64))
    scalar_calls = {}
    for name, pack in workload_packs().items():
        m = build(pack)
        values = reference_grand_norm_values(pack, eps)
        profile = reference_depth_profile(pack, float(pack.n))
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "shell_integral",
                          lambda *args: calls.append(args) or shell_integral(*args))
            rep = grand_norm_report(m, eps)
            got_profile = sobolev_depth_profile(m, float(pack.n))
        assert repr(rep.values) == repr(values), name
        assert repr(rep.sup) == repr(max(values)), name
        assert repr(got_profile) == repr(profile), name
        # the Gauss-Kronrod block settles most rows; the rest go to quad
        assert len(calls) < (len(eps) + 1) * pack.K // 2, name
        scalar_calls[name] = len(calls)
    # the depth-1 annulus of the theorem-2 pack needs subdivision
    assert scalar_calls["exp_inverse"] > 0


@pytest.mark.parametrize("K", [300, 511])
def test_norm_table_matches_quadrature_loop_deep(K):
    # a block holds one power at both depths, at K = 511 by the floor of
    # one (_TABLE_ROWS // K = 0); K = 511 is the deepest n = 2 pack whose
    # annulus count 2^(2K) is a float
    pack = SequencePack.from_standard(2, finite_measure_sequence(
        TauSpec.from_dict({"family": "log", "shift": math.e}), 2, K))
    eps = (1e-3, 1.0)
    m = build(pack)
    assert repr(grand_norm_report(m, eps).values) == repr(reference_grand_norm_values(pack, eps))
    assert repr(sobolev_depth_profile(m, 2.0)) == repr(reference_depth_profile(pack, 2.0))


def test_norm_table_is_the_same_for_any_block_size(monkeypatch):
    eps = tuple(float(e) for e in np.geomspace(1e-6, 1.0, 24))
    for name, pack in workload_packs().items():
        m = build(pack)
        want = repr((grand_norm_report(m, eps), sobolev_depth_profile(m, float(pack.n))))
        # one power per block, then every power in one block
        for rows in (pack.K, len(eps) * pack.K):
            monkeypatch.setattr(analysis, "_TABLE_ROWS", rows)
            got = repr((grand_norm_report(m, eps), sobolev_depth_profile(m, float(pack.n))))
            assert got == want, (name, rows)


def scalar_table(depths, powers, n):
    """The loop the table stands for: shell_integral per (power, depth) in
    power-major order, each by repr, or the first error that loop raises."""
    out = []
    for power in powers:
        for alpha, beta, r, R in depths:
            try:
                out.append(repr(shell_integral(GradientPower(alpha, beta, power), r, R, n)))
            except Exception as exc:  # the outcome compared is the error itself
                return (type(exc), exc.args)
    return out


def shell_table(depths, powers, n):
    """``_shell_table`` of one block: depths (alpha, beta, r, R) by powers."""
    columns = [np.array(c, dtype=float) for c in zip(*depths)]
    (table,) = analysis._shell_table(*columns, n, [np.array(powers, dtype=float)])
    return table


def block_table(depths, powers, n):
    """``shell_table``'s every entry by repr, or the error it raises, and
    the (power, depth) entries it sent to shell_integral."""
    sent = []

    def counted(phi, r, R, n):
        sent.append((powers.index(phi.power), [d[2:] for d in depths].index((r, R))))
        return shell_integral(phi, r, R, n)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analysis, "shell_integral", counted)
        try:
            got = [repr(v) for v in shell_table(depths, powers, n).ravel().tolist()]
        except Exception as exc:
            got = (type(exc), exc.args)
    return got, sent


@pytest.mark.parametrize("n", [2, 3])
@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_block_kernel_matches_shell_integral_property(n, data):
    unit = st.floats(0.0, float(n), exclude_min=True)
    depth = st.tuples(unit, unit, st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                      st.floats(0.0, 1.0, exclude_min=True))
    drawn = data.draw(st.lists(depth, min_size=1, max_size=4))
    depths = [(alpha, beta, frac * R, R) for alpha, beta, frac, R in drawn]
    assume(all(0.0 < r < R for *_, r, R in depths))
    assume(len({d[2:] for d in depths}) == len(depths))
    powers = data.draw(st.lists(unit, min_size=1, max_size=4, unique=True))
    got, sent = block_table(depths, powers, n)
    assert got == scalar_table(depths, powers, n)
    # the quadrature is reached in power-major order
    assert sent == sorted(sent)


def test_block_kernel_raises_as_the_scalar_path():
    good = (0.5, 0.25, 0.3, 0.5)
    subdivisions = (0.5, 0.25, 1e-100, 0.5)
    # the power-2.0 entry of the subdivision depth leaves the block and
    # stops quad after 200 intervals; the good depth settles at both powers
    got, sent = block_table([good, subdivisions], [1.9, 2.0], 2)
    assert got == scalar_table([good, subdivisions], [1.9, 2.0], 2)
    assert (0, 0) not in sent and (1, 0) not in sent and sent[-1] == (1, 1)
    with pytest.raises(ToleranceError, match="maximum number of subdivisions"):
        shell_table([good, subdivisions], [1.9, 2.0], 2)
    # math.pow overflows inside the block, so every entry goes to quad, whose
    # integrand raises on the overflow entry with float ** 's own message
    overflow = (0.5, 1e200, 1e-100, 0.5)
    got, sent = block_table([good, overflow], [1.9, 2.0], 2)
    assert got == scalar_table([good, overflow], [1.9, 2.0], 2)
    # the good entry too, up to the first entry that raises
    assert sent == [(0, 0), (0, 1)]
    with pytest.raises(OverflowError) as exc:
        shell_table([good, overflow], [1.9, 2.0], 2)
    assert exc.value.args == (34, "Numerical result out of range")
    # two failing entries: power-major order meets the power-1.0 entry of
    # the reversed depth (0 < r < R fails) before the overflow of the
    # power-2.0 entry, which a depth-major order would meet first
    reversed_depth = (0.5, 0.25, 0.5, 0.3)
    got, _ = block_table([overflow, reversed_depth], [1.0, 2.0], 2)
    assert got == scalar_table([overflow, reversed_depth], [1.0, 2.0], 2)
    assert got == (ValueError, ("need 0 < r < R",))


# ---------------------------------------------------------------------------
# pushforward


def test_pushforward_trivial_and_children():
    pack = harmonic_pack(8)
    rep = pushforward_check(pack, 4, 0)
    assert rep.exact and rep.ratios == (Fraction(1),)
    rep = pushforward_check(pack, 3, 1)
    assert rep.exact
    assert rep.ratios == tuple(Fraction(1, 4) for _ in range(4))


def test_pushforward_exhaustive():
    pack = harmonic_pack(8)
    for j in range(0, 4):
        for k in range(j, 7):
            rep = pushforward_check(pack, k, j)
            assert rep.exact
            assert all(rho == Fraction(1, 4 ** j) for rho in rep.ratios)


def test_pushforward_formula_path():
    # past 2^20 depth-k words the check refuses rather than enumerate
    pack = SequencePack.from_standard(2, harmonic_sequence(12))
    with pytest.raises(DepthError):
        pushforward_check(pack, 12, 2)
    assert pushforward_check(pack, 4, 2).ratios == (Fraction(1, 16),) * 16
