import math

import numpy as np
import pytest

from ponomap import (
    ConstructionError,
    DepthError,
    DomainError,
    PrecisionError,
    SequencePack,
    VertexWord,
    all_words,
    build,
    center,
    dyadic_cube,
    dyadic_preimage,
    geometric_sequence,
    harmonic_sequence,
)
from ponomap.cantor import (Descent, check_point, descend, descend_batch, descendant_count,
                            outside_message)
from tie_points import log_pack, tie_heavy_points


def std_pack(K=10, n=2):
    return SequencePack.from_standard(n, harmonic_sequence(K))


def test_word_format():
    w = VertexWord(2, ((1, 1), (-1, 1)))
    assert str(w) == "++|-+"
    assert w.depth == 2
    assert w.child((1, -1)).signs == ((1, 1), (-1, 1), (1, -1))
    assert str(VertexWord(2)) == ""
    with pytest.raises(ValueError):
        VertexWord(2, ((1, 0),))
    with pytest.raises(ValueError):
        VertexWord(2, ((1, 2),))


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
    pack = SequencePack.from_scales(2, a, a)
    for k in range(1, 9):
        assert pack.alpha[k] == 1.0
        assert pack.beta[k] == 0.0


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
    w = VertexWord(2, ((1, 1),))
    assert center(w, pack, "domain") == (0.5, 0.5)
    assert center(w, pack, "target") == (0.5, 0.5)
    assert center(VertexWord(2), pack) == (0.0, 0.0)
    w2 = VertexWord(2, ((1, 1), (-1, 1)))
    r1 = pack.r[1]
    assert center(w2, pack) == (0.5 - r1 / 2.0, 0.5 + r1 / 2.0)


def in_cell(loc, w, pack):
    """The descent ended in the cube of word w: its depth and both centres."""
    return (loc.depth, loc.z, loc.zt) == (w.depth, center(w, pack), center(w, pack, "target"))


def test_locate_boundary_is_depth_one_annulus():
    pack = std_pack()
    for x in [(1.0, 0.3), (-1.0, -0.2), (0.7, 1.0), (1.0, 1.0), (-1.0, 1.0)]:
        loc = descend(x, pack)
        assert loc.region == "annulus"
        assert loc.depth == 1


def test_locate_center_is_core():
    pack = std_pack(8)
    for w in [VertexWord(2, ((1, 1),)), VertexWord(2, ((1, -1), (-1, 1))),
              VertexWord(2, ((-1, -1), (-1, 1), (1, 1)))]:
        z = center(w, pack)
        loc = descend(z, pack.truncate(w.depth))
        assert loc.region == "core"
        assert in_cell(loc, w, pack)


def test_locate_round_trip_random_annulus_points():
    pack = std_pack(8)
    rng = np.random.default_rng(7)
    words = list(all_words(2, 3))
    for _ in range(200):
        w = words[rng.integers(len(words))]
        k = w.depth
        z = center(w, pack)
        lo, hi = pack.r[k], pack.r[k - 1] / 2.0
        radius = lo + (hi - lo) * rng.uniform(0.05, 0.95)
        j = rng.integers(2)
        direction = [rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)]
        direction[j] = 1.0 if rng.uniform() > 0.5 else -1.0
        x = tuple(z[i] + radius * direction[i] for i in range(2))
        loc = descend(x, pack)
        assert loc.region == "annulus"
        assert in_cell(loc, w, pack)


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_descend_matches_reference_on_tie_heavy_points(n):
    pack = log_pack(n)
    pts = tie_heavy_points(n, 60, pack)
    targets = [build(pack).eval(x) for x in pts]
    shallow = {depth: pack.truncate(depth) for depth in (1, 12, pack.K)}
    for side, points in (("domain", pts), ("target", targets)):
        for x in points:
            for depth, cut in shallow.items():
                got = descend(x, cut, side)
                assert repr(got) == repr(reference_descend(x, pack, depth, side)), x


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
    corner, size = dyadic_cube(VertexWord(2))
    assert corner == (0.0, 0.0) and size == 1.0
    corner, size = dyadic_cube(VertexWord(2, ((-1, 1),)))
    assert corner == (0.0, 0.5) and size == 0.5
    w = VertexWord(2, tuple(((1, 1),) * 5))
    corner, size = dyadic_cube(w)
    assert corner == (1.0 - 2.0 ** -5, 1.0 - 2.0 ** -5)


def test_dyadic_preimage_hand_values():
    assert dyadic_preimage((0.5, 0.0), 1).signs == ((1, -1),)
    assert dyadic_preimage((0.75, 0.25), 2).signs == ((1, -1), (1, 1))
    with pytest.raises(PrecisionError):
        dyadic_preimage((0.3, 0.0), 2)
    with pytest.raises(PrecisionError):
        dyadic_preimage((1.0, 0.0), 1)


def test_coding_bijection_exhaustive():
    for k in range(0, 7):
        seen = set()
        for w in all_words(2, k):
            corner, size = dyadic_cube(w)
            assert size == 2.0 ** -k
            assert dyadic_preimage(corner, k) == w
            seen.add(corner)
        assert len(seen) == 4 ** k


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
    words = list(all_words(2, 3))
    cents = [center(w, pack) for w in words]
    r = pack.r[3]
    for i in range(len(words)):
        for j in range(i + 1, len(words)):
            d = max(abs(a - b) for a, b in zip(cents[i], cents[j]))
            assert d >= 2.0 * r


def test_nesting_sampled_corners():
    pack = std_pack(8)
    rng = np.random.default_rng(3)
    words = list(all_words(2, 4))
    for _ in range(100):
        w = words[rng.integers(len(words))]
        k = w.depth
        z = center(w, pack)
        zp = center(VertexWord(2, w.signs[:k - 1]), pack)
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
            got = sum(1 for w in all_words(2, l)
                      if w.signs[:m] == tuple(((-1, -1),) * m))
            assert got == expect == descendant_count(m, l, 2)
