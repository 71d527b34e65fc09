import functools
import itertools
import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ponomap import (
    ConstructionError,
    DepthError,
    DomainError,
    PrecisionError,
    SequencePack,
    all_words,
    build,
    center,
    dyadic_cube,
    dyadic_preimage,
    geometric_sequence,
    harmonic_sequence,
    word_text,
)
from ponomap.cantor import (WORD_CAP, Descent, _radii, _walk, check_point, descend,
                            descend_batch, descendant_count, half_edges, outside_message,
                            vertices)
from ponomap.render import _pixel_points
from reference_packs import pack_from_scales
from tie_points import inner_face_points, log_pack, tie_heavy_points
import reference_words


def std_pack(K=10, n=2):
    return SequencePack.from_standard(n, harmonic_sequence(K))


def test_word_format():
    w = 0b1101
    assert word_text(w, 2, 2) == "++|-+"
    assert word_text(w << 2 | 0b10, 2, 3) == "++|-+|+-"
    assert word_text(0, 2, 0) == ""
    assert word_text(0b011, 3, 1) == "-++"
    assert vertices(2).tolist() == [[-1, -1], [-1, 1], [1, -1], [1, 1]]


def test_word_enumeration_cap():
    assert all_words(2, 3).tolist() == list(range(64))
    assert len(all_words(4, 5)) == WORD_CAP
    with pytest.raises(DepthError, match="^33554432 depth-5 words exceed the "
                                         "enumeration cap 1048576$"):
        all_words(5, 5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_words_match_reference_words(n):
    # integer words against the per-word oracle: the same order and text,
    # centres to the last bit on both sides, corners, sizes and inverses.
    # Past 4,096 words (n = 4, depth 4) every 15th word is checked: an odd
    # stride still meets every vertex at every level
    pack = log_pack(n, 8)
    for k in range(0, 5):
        step = 1 if n * k <= 12 else 15
        words = all_words(n, k)[::step]
        oracle = list(reference_words.all_words(n, k))[::step]
        assert [word_text(w, n, k) for w in words.tolist()] == [str(ref) for ref in oracle]
        for side in ("domain", "target"):
            assert [repr(center(w, k, pack, side)) for w in words.tolist()] == \
                [repr(reference_words.center(ref, pack, side)) for ref in oracle]
        corners, size = dyadic_cube(words, n, k)
        ref_cubes = [reference_words.dyadic_cube(ref) for ref in oracle]
        assert corners.tolist() == [list(corner) for corner, _ in ref_cubes]
        assert {size} == {ref_size for _, ref_size in ref_cubes}
        assert np.array_equal(dyadic_preimage(corners, k), words)
        assert [reference_words.dyadic_preimage(corner, k) for corner, _ in ref_cubes] == oracle


def test_pack_standard_coefficients_exact():
    pack = std_pack(40)
    for k in range(1, 41):
        assert pack.alpha[k] == 0.5
        assert pack.beta[k] == 2.0 ** (-k - 1)
    assert pack.beta[3] == 0.0625
    assert pack.a[0] == pack.b[0] == 1.0


def test_pack_gluing_residuals():
    pack = std_pack(40)
    for k in range(1, 41):
        inner = pack.alpha[k] * pack.r[k] + pack.beta[k]
        outer = pack.alpha[k] * (pack.r[k - 1] / 2.0) + pack.beta[k]
        assert abs(inner - pack.rt[k]) <= 4 * math.ulp(pack.rt[k])
        assert abs(outer - pack.rt[k - 1] / 2.0) <= 4 * math.ulp(pack.rt[k - 1] / 2.0)


def test_pack_identity_scales():
    a = geometric_sequence(8)
    pack = pack_from_scales(2, a, a)
    for k in range(1, 9):
        assert pack.alpha[k] == 1.0
        assert pack.beta[k] == 0.0


def test_pack_derives_depth_radii_and_standard():
    pack = std_pack(6)
    assert pack.K == 6 and pack.standard and pack.truncate(3).standard
    assert pack.r == half_edges(pack.a) and pack.rt == half_edges(pack.b)
    assert not pack_from_scales(2, pack.a, pack.a).standard
    with pytest.raises(TypeError):
        SequencePack(n=2, a=pack.a, b=pack.b, alpha=pack.alpha, beta=pack.beta, K=6)


def test_pack_rejects_bad_scales():
    with pytest.raises(ConstructionError):
        SequencePack.from_standard(2, (0.5, 0.25))  # a_0 != 1
    with pytest.raises(ConstructionError):
        SequencePack.from_standard(2, (1.0, 1.0))  # empty annulus
    with pytest.raises(ConstructionError):
        SequencePack.from_standard(2, (1.0, 0.5, 0.6))  # not non-increasing


def test_pack_tamper_detected():
    pack = std_pack(6)
    beta = list(pack.beta)
    beta[3] += 1e-3
    object.__setattr__(pack, "beta", tuple(beta))
    with pytest.raises(ConstructionError):
        pack.validate()


def test_pack_truncate():
    pack = std_pack(10)
    t = pack.truncate(4)
    assert t.K == 4
    assert t.a == pack.a[:5]
    assert t.alpha == pack.alpha[:5]
    with pytest.raises(DepthError):
        pack.truncate(11)


def test_center_hand_values():
    pack = std_pack()
    w = 0b11  # ++
    assert center(w, 1, pack, "domain") == (0.5, 0.5)
    assert center(w, 1, pack, "target") == (0.5, 0.5)
    assert center(0, 0, pack) == (0.0, 0.0)
    w2 = 0b1101  # ++|-+
    r1 = pack.r[1]
    assert center(w2, 2, pack) == (0.5 - r1 / 2.0, 0.5 + r1 / 2.0)
    with pytest.raises(DepthError):
        center(0, 11, pack)


def in_cell(loc, w, k, pack):
    """The descent ended in the cube of depth-k word w: its depth and both centres."""
    return (loc.depth, loc.z, loc.zt) == (k, center(w, k, pack), center(w, k, pack, "target"))


def test_locate_boundary_is_depth_one_annulus():
    pack = std_pack()
    for x in [(1.0, 0.3), (-1.0, -0.2), (0.7, 1.0), (1.0, 1.0), (-1.0, 1.0)]:
        loc = descend(x, pack)
        assert loc.region == "annulus"
        assert loc.depth == 1


def test_locate_center_is_core():
    pack = std_pack(8)
    # ++, +-|-+ and --|-+|++
    for w, k in [(0b11, 1), (0b1001, 2), (0b000111, 3)]:
        z = center(w, k, pack)
        loc = descend(z, pack.truncate(k))
        assert loc.region == "core"
        assert in_cell(loc, w, k, pack)


def test_locate_round_trip_random_annulus_points():
    pack = std_pack(8)
    rng = np.random.default_rng(7)
    words = all_words(2, 3).tolist()
    k = 3
    for _ in range(200):
        w = words[rng.integers(len(words))]
        z = center(w, k, pack)
        lo, hi = pack.r[k], pack.r[k - 1] / 2.0
        radius = lo + (hi - lo) * rng.uniform(0.05, 0.95)
        j = rng.integers(2)
        direction = [rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)]
        direction[j] = 1.0 if rng.uniform() > 0.5 else -1.0
        x = tuple(z[i] + radius * direction[i] for i in range(2))
        loc = descend(x, pack)
        assert loc.region == "annulus"
        assert in_cell(loc, w, k, pack)


def reference_descend(x, pack, max_depth, side="domain"):
    """The descent loop as first written: each level subtracts the centre
    once for the signs and once more for m."""
    n = pack.n
    x = check_point(x, n)
    drive = pack.r if side == "domain" else pack.rt
    z = [0.0] * n
    zt = [0.0] * n
    base = z if side == "domain" else zt
    m = max(abs(c) for c in x)
    for k in range(1, max_depth + 1):
        v = tuple(1 if x[i] - base[i] > 0.0 else -1 for i in range(n))
        half = 0.5 * pack.r[k - 1]
        halft = 0.5 * pack.rt[k - 1]
        for i in range(n):
            z[i] += half * v[i]
            zt[i] += halft * v[i]
        m = max(abs(x[i] - base[i]) for i in range(n))
        if m > drive[k]:
            return Descent("annulus", k, tuple(z), tuple(zt), m, x)
    return Descent("core", max_depth, tuple(z), tuple(zt), m, x)


def scales_pack(n):
    """A pack that is not standard (alpha_k = 3 * 2^-k) with dyadic radii
    r_k = 4^-k and rt_k = 8^-k, so inner-face points lie exactly on the face
    (to depth 17 on the target side, where centre and radius share 53 bits)."""
    return pack_from_scales(n, geometric_sequence(20), geometric_sequence(20, 0.25))


def signed_points(n):
    """Every point with coordinates +-0.0 and +-5e-324: first-level ties and
    the smallest steps off them."""
    return list(itertools.product((0.0, -0.0, 5e-324, -5e-324), repeat=n))


@functools.lru_cache(maxsize=None)
def descent_case(n, kind):
    """A pack, special points of its domain (tie-heavy, signed, inner faces
    at every depth) and special points of its target (their images, signed,
    inner faces)."""
    pack = log_pack(n) if kind == "log" else scales_pack(n)
    rng = random.Random(n)
    pts = tie_heavy_points(n, 60, pack) + signed_points(n)
    pts += inner_face_points(pack, "domain", 60, rng, pack.K)
    pmap = build(pack)
    targets = [pmap.eval(x) for x in pts] + signed_points(n)
    return pack, pts, targets + inner_face_points(pack, "target", 60, rng, pack.K)


def assert_descents_match(points, pack, depth, side, walks=None):
    cut = pack.truncate(depth)
    got = [repr(descend(x, cut, side, walks)) for x in points]
    assert got == [repr(reference_descend(x, pack, depth, side)) for x in points], (side, depth)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_descend_matches_reference_on_tie_heavy_points(n):
    # with no table, and through one walk table per (pack, side)
    for kind in ("log", "scales"):
        pack, pts, targets = descent_case(n, kind)
        for side, points in (("domain", pts), ("target", targets)):
            for depth in (1, 12, pack.K):
                assert_descents_match(points, pack, depth, side)
                assert_descents_match(points, pack, depth, side, {})


def test_descend_matches_reference_on_the_pixel_grid():
    # every pixel of a 65^2 render on both sides, as eval_grid and
    # grid_distortion descend them, and every pixel's image on the target
    # side; then the pixels again through one walk table per side, shared
    # by every pixel as the render shares it
    pack = log_pack(2)
    pts = _pixel_points(65)
    pmap = build(pack)
    images = [pmap.eval(x) for x in pts]
    for side, points in (("domain", pts), ("target", pts), ("target", images)):
        assert_descents_match(points, pack, pack.K, side)
    for side in ("domain", "target"):
        walks = {}
        assert_descents_match(pts, pack, pack.K, side, walks)
        assert len(walks) == 65


@pytest.mark.parametrize("n", [1, 2])
def test_signed_zeros_share_one_walk(n):
    # at odd S the centre column of the pixel grid is 0.0 and the centre row
    # -0.0, and the two are one key of a walk table.  Both take the -1 vertex
    # at level 1 and walk alike from there, and every walk leaves at depth
    # >= 1, so no centre sum, exit or m reads the sign
    assert {repr(c) for x in _pixel_points(65) for c in x} >= {"0.0", "-0.0"}
    for kind in ("log", "scales"):
        pack = descent_case(n, kind)[0]
        for side in ("domain", "target"):
            drive, other = _radii(pack, side)
            walk = _walk(0.0, drive, other, pack.K)
            assert repr(_walk(-0.0, drive, other, pack.K)) == repr(walk)
            assert walk[0] >= 1 and walk[1][1] == -0.5


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_descend_matches_reference_property(data):
    n = data.draw(st.integers(1, 4))
    pack, specials, images = descent_case(n, "log")
    point = st.one_of(st.tuples(*[st.floats(-1.0, 1.0)] * n), st.sampled_from(specials),
                      st.sampled_from(images))
    points = data.draw(st.lists(point, min_size=1, max_size=20))
    depth = data.draw(st.integers(1, pack.K))
    assert_descents_match(points, pack, depth, data.draw(st.sampled_from(("domain", "target"))))


def draw_case(data):
    """A pack, a side, and the pool of coordinate values the walk tests
    draw from: uniform, and the coordinates of the pack's special points
    (signed zeros, 5e-324, ties and faces at every depth)."""
    n = data.draw(st.integers(1, 4))
    pack, specials, images = descent_case(n, data.draw(st.sampled_from(("log", "scales"))))
    special = sorted({c for x in specials + images for c in x})
    value = st.one_of(st.floats(-1.0, 1.0), st.sampled_from(special),
                      st.sampled_from((0.0, -0.0, 5e-324, -5e-324)))
    return pack, data.draw(st.sampled_from(("domain", "target"))), value


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_walk_to_a_limit_is_the_whole_walk_cut_property(data):
    # a table stores whole walks, while a descent with no table stops each
    # walk at the shallowest exit so far: both must read the same sums
    pack, side, value = draw_case(data)
    drive, other = _radii(pack, side)
    for c in data.draw(st.lists(value, min_size=1, max_size=5)):
        e, bs, os_ = _walk(c, drive, other, pack.K)
        for limit in range(pack.K + 1):
            cut = min(e, limit)
            want = repr((cut, bs[:cut + 1], os_[:cut + 1]))
            assert repr(_walk(c, drive, other, limit)) == want, (c, limit)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_walk_table_matches_reference_property(data):
    # points drawn from a small pool of coordinate values, so one walk
    # table's entries serve many points and several coordinate positions;
    # each point is descended through the table and with none, in turn
    pack, side, value = draw_case(data)
    pool = data.draw(st.lists(value, min_size=1, max_size=6))
    points = data.draw(st.lists(st.tuples(*[st.sampled_from(pool)] * pack.n), min_size=1,
                                max_size=30))
    depth = data.draw(st.integers(1, pack.K))
    cut, walks = pack.truncate(depth), {}
    for x in points:
        want = repr(reference_descend(x, pack, depth, side))
        assert repr(descend(x, cut, side, walks)) == want, x
        assert repr(descend(x, cut, side)) == want, x


@pytest.mark.parametrize("side", ["targt", "Domain", ""])
def test_unknown_side_raises(side):
    pack = std_pack()
    text = re.escape(f"side must be 'domain' or 'target', got {side!r}")
    with pytest.raises(ValueError, match=text):
        descend((0.3, 0.2), pack, side)
    with pytest.raises(ValueError, match=text):
        center(0b11, 1, pack, side)
    with pytest.raises(ValueError, match=text):
        descend_batch(np.array([[0.3, 0.2]]), pack, side)


def test_locate_outside_raises():
    pack = std_pack()
    with pytest.raises(DomainError):
        descend((1.0001, 0.0), pack)
    with pytest.raises(DomainError):
        descend((math.nan, 0.0), pack)


@pytest.mark.parametrize("row", [
    (math.nan,), (0.5, math.inf), (-0.0, 1.0000000000000002), (float("-1e400"), -0.0),
    (-0.0, 0.25, math.nan), (1.0000000000000002, -math.inf, -0.0),
])
def test_outside_text_is_one_text(row):
    # the scalar check and the batch descent name the point in the same words
    n = len(row)
    with pytest.raises(DomainError) as scalar:
        check_point(row, n)
    pack = std_pack(n=n)
    valid = [0.5] * n
    with pytest.raises(DomainError) as batch:
        descend_batch(np.array([valid, row, valid]), pack)
    assert str(batch.value) == str(scalar.value) == outside_message(row, n)
    assert str(scalar.value) == f"point {row!r} outside [-1,1]^{n}"


def test_dyadic_cube_hand_values():
    corner, size = dyadic_cube(0, 2, 0)
    assert corner.tolist() == [0.0, 0.0] and size == 1.0
    corner, size = dyadic_cube(0b01, 2, 1)  # -+
    assert corner.tolist() == [0.0, 0.5] and size == 0.5
    corner, size = dyadic_cube([2 ** 10 - 1], 2, 5)  # ++ at all 5 levels
    assert corner.tolist() == [[1.0 - 2.0 ** -5, 1.0 - 2.0 ** -5]]


def test_dyadic_preimage_hand_values():
    assert dyadic_preimage((0.5, 0.0), 1) == 0b10  # +-
    assert dyadic_preimage([(0.75, 0.25)], 2).tolist() == [0b1011]  # +-|++
    with pytest.raises(PrecisionError, match="0.3 is not a level-2 dyadic corner"):
        dyadic_preimage((0.3, 0.0), 2)
    with pytest.raises(PrecisionError, match="1.0 outside"):
        dyadic_preimage((1.0, 0.0), 1)
    with pytest.raises(PrecisionError, match="nan outside"):
        dyadic_preimage([(0.5, 0.0), (0.25, math.nan)], 2)
    with pytest.raises(PrecisionError):
        dyadic_preimage((0.0, 0.0), 53)


def test_coding_refuses_words_past_int64():
    # 4 * 16 = 64 bits: more than an int64 word holds
    with pytest.raises(PrecisionError, match="int64"):
        dyadic_cube([0], 4, 16)
    with pytest.raises(PrecisionError, match="int64"):
        dyadic_preimage((0.0,) * 4, 16)
    corner, _ = dyadic_cube([2 ** 62 - 1], 2, 31)
    assert dyadic_preimage(corner, 31).tolist() == [2 ** 62 - 1]


def test_coding_bijection_exhaustive():
    for k in range(0, 7):
        words = all_words(2, k)
        corners, size = dyadic_cube(words, 2, k)
        assert size == 2.0 ** -k
        assert np.array_equal(dyadic_preimage(corners, k), words)
        assert len(np.unique(corners, axis=0)) == 4 ** k


def test_disjointness_one_dimensional_reduction():
    # distinct depth-k cubes have disjoint interiors iff the 1-d center grid
    # at each depth has gaps >= 2 r_k; exhaustive pair check at small depth
    pack = std_pack(8)
    for k in range(1, 9):
        centers_1d = [0.0]
        for i in range(k):
            half = pack.r[i] / 2.0
            centers_1d = [c + s * half for c in centers_1d for s in (-1.0, 1.0)]
        centers_1d.sort()
        gaps = [b - a for a, b in zip(centers_1d, centers_1d[1:])]
        assert len(set(centers_1d)) == 2 ** k
        assert min(gaps) >= 2.0 * pack.r[k]


def test_disjointness_exhaustive_small_depth():
    pack = std_pack(4)
    words = all_words(2, 3).tolist()
    cents = [center(w, 3, pack) for w in words]
    r = pack.r[3]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            d = max(abs(a - b) for a, b in zip(cents[i], cents[j]))
            assert d >= 2.0 * r


def test_nesting_sampled_corners():
    pack = std_pack(8)
    rng = np.random.default_rng(3)
    words = all_words(2, 4).tolist()
    k = 4
    for _ in range(100):
        w = words[rng.integers(len(words))]
        z = center(w, k, pack)
        zp = center(w >> 2, k - 1, pack)
        # inner corners inside the outer cube and inside the parent's inner cube
        for sx in (-1, 1):
            for sy in (-1, 1):
                corner = (z[0] + sx * pack.r[k], z[1] + sy * pack.r[k])
                assert all(abs(corner[i] - z[i]) <= pack.r[k - 1] / 2.0
                           for i in range(2))
                assert all(abs(corner[i] - zp[i]) <= pack.r[k - 1] for i in range(2))


def test_counting_identity():
    assert descendant_count(2, 5, 2) == 2 ** 6
    for m in range(0, 3):
        for l in range(m, 5):
            expect = 2 ** (2 * (l - m))
            # the words under the all -1 prefix: top 2m bits clear
            got = int(np.count_nonzero(all_words(2, l) >> 2 * (l - m) == 0))
            assert got == expect == descendant_count(m, l, 2)
