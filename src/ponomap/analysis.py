"""Measure and norm computations for nested-cube constructions.

Everything here is a finite-depth, fully checkable stand-in for a limit
statement:

* Lebesgue level measures of the depth-k cube unions (closed form).
* Upper Hausdorff cover sums: 2^(nk) * h(diam Q) with the Euclidean
  diameter convention diam Q(z, r) = 2*sqrt(n)*r.
* A lower-bound probe that takes a concrete ball cover, certifies that the
  cover dominates the canonical cube covers, and records the counting
  constants the comparison uses as per-ball arrays in cover order, which
  the CLI streams into ``hausdorff.json``.
* Exact sup-norm shell integrals (layer-cake identity
  int_{shell} phi(||x||_inf) dx = n 2^n int phi(t) t^(n-1) dt) by adaptive
  quadrature, and a seeded Monte Carlo cross-check that does not use the
  identity.  The norm reports integrate a block of powers over every
  annulus at once with QUADPACK's first 21-point Gauss-Kronrod step in
  numpy, bit for bit what the quadrature returns; an entry that step does
  not settle goes through the adaptive quadrature itself.
* Grand Lebesgue norm reports eps * int |Df_K|^(n-eps) over an eps grid,
  with the telescoping analytic bound, and classical p-norm sums with a
  per-depth profile for the p = n divergence probe.

Reductions use math.fsum, so reports are bit-stable regardless of
evaluation order.  The derivative magnitude convention is max-of-partials:
|Df| = alpha_k + beta_k / ||x - z_v||_inf on annuli and rt_K/r_K on cores.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Iterator, Literal, Sequence

import numpy as np

# center is not called here; perfbench/tracer.py counts its calls at this name
from .cantor import (  # noqa: F401
    WORD_CAP,
    SequencePack,
    all_words,
    center,
    descendant_count,
    fold_columns,
    half_edge,
    vertices,
)
from .errors import CoverageError, DepthError, GaugeRangeError, ToleranceError
from .gauge import GaugeSpec, eval_h
from .mapping import PonomarevMap, libm_pow

# scipy.integrate.quad, bound by _load_quad on the first quadrature: importing
# scipy costs more than half a second and only shell_integral needs it, so
# a norm report loads it only for a row that needs subdivision
_quad = None


def _load_quad():
    global _quad
    from scipy.integrate import quad
    _quad = quad
    return quad


CONVENTION = "max_partials"


# ---------------------------------------------------------------------------
# cover reports


@dataclass(frozen=True)
class CoverReport:
    """Upper cover sum at one depth: total = count * per_cube exactly."""

    depth: int
    count: int
    per_cube: float
    total: float


@dataclass(frozen=True)
class Cover:
    """Closed Euclidean balls, one row each: ball j has centre ``centers[j]``
    (an (N, n) array) and radius ``radius[j]``, and is named by the
    depth-``depth`` word ``words[j]`` (int64, or Python integers where the
    words pass 62 bits)."""

    words: np.ndarray
    depth: int
    centers: np.ndarray
    radius: np.ndarray


# the fields of a LowerProbeReport that hausdorff.json writes beside its balls
PROBE_SUMMARY = ("level", "cover_sum", "reference_upper_sum", "ratio", "max_intersecting",
                 "counting_bound")


@dataclass(frozen=True, eq=False)
class LowerProbeReport:
    """The probe of one ball cover: the summary fields ``PROBE_SUMMARY``,
    then one array entry per ball in cover order.  Ball j is the
    depth-``word_depth`` word ``words[j]`` over n coordinates (as in
    ``Cover``) with radius ``radius[j]``; ``min_contained_depth[j]`` is the
    first depth with a cube inside it (0 where there is none),
    ``intersecting_count[j]`` the number of cubes it meets at that depth
    and ``contained_count[j]`` the number of depth-``level`` cubes inside
    it.  Its dominated sum is ``contained_count[j] * per_cube``, a Python
    int times a float, taken when it is written."""

    level: int
    cover_sum: float
    reference_upper_sum: float
    ratio: float
    max_intersecting: int
    counting_bound: int
    n: int
    word_depth: int
    per_cube: float
    words: np.ndarray
    radius: np.ndarray
    min_contained_depth: np.ndarray
    intersecting_count: np.ndarray
    contained_count: np.ndarray


def lebesgue_level(pack: SequencePack, k: int, side: Literal["domain", "target"] = "domain") -> float:
    """Measure of the depth-k cube union: 2^(nk) (2 r_k)^n = 2^n a_k^n."""
    if not 0 <= k <= pack.K:
        raise DepthError(f"depth {k} outside 0..{pack.K}")
    scale = pack.a[k] if side == "domain" else pack.b[k]
    return 2.0 ** pack.n * scale ** pack.n


def upper_sum_at_scale(h: GaugeSpec, k: int, a_k: float) -> CoverReport:
    """Cover sum 2^(nk) * h(2 sqrt(n) r_k) over all depth-k cubes, r_k = 2^-k a_k.

    Takes the bare scale value, so sequences whose flat head (clamped tau
    factors give a_k = 1 for small k) does not form a valid pack still get
    their sums.  Raises GaugeRangeError when the sum leaves binary64.
    """
    if k < 0:
        raise DepthError("depth must be >= 0")
    n = h.n
    per = eval_h(h, 2.0 * math.sqrt(n) * half_edge(a_k, k))
    count = 2 ** (n * k)
    try:
        total = float(count) * per
    except OverflowError:  # the count 2^(nk) alone passes the largest float
        total = math.inf
    if math.isinf(total):
        raise GaugeRangeError(f"cover sum 2^({n}*{k}) * h overflows binary64 at depth {k}")
    return CoverReport(depth=k, count=count, per_cube=per, total=total)


# ---------------------------------------------------------------------------
# ball/cube geometry for the lower-bound probe


def _dist_to_cube(c: Sequence[float], z: Sequence[float], r: float) -> float:
    return math.sqrt(math.fsum(max(abs(ci - zi) - r, 0.0) ** 2
                               for ci, zi in zip(c, z)))


def _farthest_corner(c: Sequence[float], z: Sequence[float], r: float) -> float:
    return math.sqrt(math.fsum((abs(ci - zi) + r) ** 2
                               for ci, zi in zip(c, z)))


# tiny relative slack so a circumscribing ball contains its own cube
_IN_BALL_SLACK = 1.0 + 1e-12


def _cube_in_ball(c, z, r, rho) -> bool:
    return _farthest_corner(c, z, r) <= rho * _IN_BALL_SLACK


# (ball, cube) pairs one depth's expansion of a group may make
_PAIR_BUDGET = 2 ** 13
# a numpy distance this close (relative) to its threshold is decided again
# by the fsum test, so every decision equals the scalar one
_TIE_REL = 1e-13


def _decide(value: np.ndarray, limit: np.ndarray, scalar) -> np.ndarray:
    """value <= limit per pair, flat; near-ties are decided by ``scalar(i)``."""
    out = (value <= limit).ravel()
    for i in np.flatnonzero(np.abs(value - limit) <= _TIE_REL * limit):
        out[i] = scalar(int(i))
    return out


def _vertex_sums(terms: np.ndarray) -> np.ndarray:
    """(n, 2, P) coordinate terms summed left to right into (2^n, P) sums, a
    row per vertex; a vertex takes term 1 where its sign is +1, else term 0."""
    acc = terms[0]
    for t in terms[1:]:
        acc = (acc[:, None] + t).reshape(2 * len(acc), -1)
    return acc


def _probe_walk(pack: SequencePack, cover: Cover, level: int):
    """Walk all (ball, cube) pairs down to depth ``level``, depth by depth.

    A cube is entered when it intersects the ball and its parent was
    entered and not contained.  Returns, per ball, the first depth with a
    contained cube (0 if none), the number of cubes entered at that depth
    and the number of depth-``level`` cubes contained, plus one coverage
    flag per depth-``level`` cube.

    Each coordinate of a pair's 2^n children takes one of two values, so
    ``_vertex_sums`` builds the children's distances from (n, 2, P) terms,
    coordinates along the first axis.  ``np.take`` and ``np.compress``
    gather rows of n floats about 3x faster than indexing does.

    The walk starts from one group holding the whole cover.  Each ball's
    walk reads only its own pairs, so when a depth's expansion would pass
    _PAIR_BUDGET pairs, the group's balls split into two groups that each
    walk on from that depth with all of their own pairs, and every result
    is unchanged; a single ball is never split.  A ``hausdorff`` run at
    n = 3, level 5 (512 balls) peaks at about 40 MiB with 2^13 pairs (54
    MiB with 2^18), and one at n = 6, level 3 at about 65 MiB (2.4 GB
    with no bound).

    The distances sum their squares left to right; any order moves them a
    few ulps, far inside the ``_TIE_REL`` band that ``_decide`` decides
    again by ``math.fsum``, so no decision changes.
    """
    n = pack.n
    fan = 2 ** n
    verts = vertices(n)
    # coordinate-major: row c holds coordinate c of every ball
    centers, radius = np.ascontiguousarray(cover.centers.T), cover.radius
    first, count, inner = np.zeros((3, len(radius)), dtype=np.int64)
    covered = np.zeros(2 ** (n * level), dtype=bool)
    slack = radius * _IN_BALL_SLACK
    # groups of balls still to walk: the next depth, each pair's ball
    # (sorted, since no step reorders pairs: a ball's pairs are one run),
    # the index of its cube at the depth before and that cube's centre
    groups = [(1, np.arange(len(radius)), np.zeros(len(radius), dtype=np.int64),
               np.zeros((len(radius), n)))]
    while groups:
        start, ball, index, z = groups.pop()
        for d in range(start, level + 1):
            if len(ball) * fan > _PAIR_BUDGET and ball[0] != ball[-1]:
                # the group's balls are the heads of its runs; np.unique
                # takes 60 MiB more at the 2^20-ball cap
                live = ball[np.flatnonzero(np.diff(ball, prepend=-1))]
                for part in np.array_split(live, 2):
                    sel = slice(*np.searchsorted(ball, [part[0], part[-1] + 1]))
                    groups.append((d, ball[sel], index[sel], z[sel]))
                break
            r, half, pairs = pack.r[d], 0.5 * pack.r[d - 1], len(ball)
            # child v's centre is z + half * verts[v]; only the kept are built
            diff = np.abs(np.take(centers, ball, axis=1)[:, None]
                          - (z.T[:, None] + [[-half], [half]]))
            gap, far = np.maximum(diff - r, 0.0), diff + r
            hit = _decide(np.sqrt(_vertex_sums(gap * gap)), radius[ball], lambda i: (
                _dist_to_cube(centers[:, ball[i % pairs]].tolist(),
                              (z[i % pairs] + half * verts[i // pairs]).tolist(), r)
                <= radius[ball[i % pairs]]))
            # the kept children in pair order, each pair's in vertex order
            kept = np.flatnonzero(hit.reshape(fan, pairs).T)
            parent, vert = kept >> n, kept & fan - 1
            ball, index = ball[parent], index[parent] * fan + vert
            z = np.take(z, parent, axis=0) + np.take(half * verts, vert, axis=0)
            corner = np.take(_vertex_sums(far * far), vert * pairs + parent)
            inside = _decide(np.sqrt(corner), slack[ball], lambda i: _cube_in_ball(
                centers[:, ball[i]].tolist(), z[i].tolist(), r, radius[ball[i]]))
            # the tally reads each ball's run of pairs: its head and length
            span = descendant_count(d, level, n)
            heads = np.flatnonzero(np.diff(ball, prepend=-1))
            owners, held = ball[heads], np.add.reduceat(inside, heads, dtype=np.int64)
            inner[owners] += held * span
            new = (held > 0) & (first[owners] == 0)
            first[owners[new]] = d
            count[owners[new]] = np.diff(heads, append=len(ball))[new]
            covered.reshape(-1, span)[index[inside]] = True
            out = ~inside
            ball, index, z = ball[out], index[out], np.compress(out, z, axis=0)
            if not len(ball):
                break
    return first, count, inner, covered


# levels below a random-cover ball's cube at which its centre is anchored
ANCHOR_DEPTH = 3


def canonical_cover(pack: SequencePack, m: int) -> Cover:
    """Balls circumscribing every depth-m cube, in word order.  The centres
    are built level by level, adding the levels in the order ``center``
    adds them, so each equals ``center(word, m, pack)`` bit for bit."""
    if not 1 <= m <= pack.K:
        raise DepthError(f"depth {m} outside 1..{pack.K}")
    n, words = pack.n, all_words(pack.n, m)
    z = np.zeros((1, n))
    for d in range(m):
        z = (z[:, None, :] + (0.5 * pack.r[d]) * vertices(n)).reshape(-1, n)
    return Cover(words, m, z, np.full(len(words), math.sqrt(n) * pack.r[m]))


def random_cover(pack: SequencePack, m: int, rng: np.random.Generator) -> Cover:
    """One ball per depth-m cube, anchored at the center of a random cube
    ANCHOR_DEPTH levels deeper.

    The radius is the smallest that still contains the depth-m cube, so the
    cover always covers, while staying within twice the circumscribed
    radius; that keeps the per-ball neighbor counts inside the 4^n bound.
    The ANCHOR_DEPTH vertex draws of each ball, ball after ball, are one
    ``rng.integers`` call, which draws what a call per vertex draws.
    """
    if not 1 <= m <= pack.K:
        raise DepthError(f"depth {m} outside 1..{pack.K}")
    if m + ANCHOR_DEPTH > pack.K:
        raise DepthError(f"anchors {ANCHOR_DEPTH} levels below depth {m} pass the pack "
                         f"depth {pack.K}")
    n = pack.n
    canon = canonical_cover(pack, m)
    draws = rng.integers(2 ** n, size=(len(canon.words), ANCHOR_DEPTH))
    # anchor words past 62 bits (n >= 16) are built as Python integers
    words = canon.words.astype(object) if n * (m + ANCHOR_DEPTH) > 62 else canon.words
    c, verts = canon.centers, vertices(n)
    for j, v in enumerate(draws.T):
        words, c = words << n | v, c + (0.5 * pack.r[m + j]) * verts[v]
    # each distance is math.fsum of its (a - b) ** 2 terms, squared by libm
    # pow as Python's ** squares; they become Python floats 4,096 balls at a time
    sq = libm_pow(c - canon.centers, 2.0)
    sums = (math.fsum(t) for lo in range(0, len(sq), 4096)
            for t in zip(*sq[lo:lo + 4096].T.tolist()))
    dist = np.sqrt(np.fromiter(sums, float, len(sq)))
    return Cover(words, m + ANCHOR_DEPTH, c, dist + math.sqrt(n) * pack.r[m])


def hausdorff_lower_probe(h: GaugeSpec, pack: SequencePack, cover: Cover,
                          level: int) -> LowerProbeReport:
    """Certify a ball cover against the depth-``level`` cube cover.

    Checks that every depth-``level`` cube is contained in some ball (else
    CoverageError), computes the cover sum sum_j h(diam B_j), the per-ball
    counting data (minimal contained depth m_j, number of depth-m_j cubes
    the ball intersects, number of depth-``level`` cubes it contains), and
    the ratio of the cover sum to the upper cube sum at the reference
    level.  Intersection counts are compared against the 4^n counting
    bound.  The walk keeps one coverage flag per depth-``level`` cube, so
    more than WORD_CAP of them raise DepthError before anything is walked,
    and a reference sum that underflows to 0 raises GaugeRangeError.
    """
    if h.n != pack.n:
        raise ValueError("gauge dimension does not match the pack")
    if not 1 <= level <= pack.K:
        raise DepthError(f"level {level} outside 1..{pack.K}")
    cubes = 2 ** (pack.n * level)
    if cubes > WORD_CAP:
        raise DepthError(f"{cubes} depth-{level} cubes exceed the probe cap {WORD_CAP}")
    reference = upper_sum_at_scale(h, level, pack.a[level])
    if reference.total == 0.0:
        raise GaugeRangeError(f"upper cube sum at probe level {level} underflows binary64 to 0")
    first, count, inner, covered = _probe_walk(pack, cover, level)
    total_cubes = covered.size
    missed = total_cubes - int(np.count_nonzero(covered))
    if missed:
        raise CoverageError(f"cover misses {missed} of {total_cubes} depth-{level} cubes")
    # h once per distinct radius (a canonical cover has one), in
    # first-occurrence order, so an overflow raises at the first radius in
    # cover order whose h overflows
    radius = cover.radius.tolist()
    h_of = {rho: eval_h(h, 2.0 * rho) for rho in dict.fromkeys(radius)}
    cover_sum = math.fsum(map(h_of.__getitem__, radius))
    return LowerProbeReport(
        level=level,
        cover_sum=cover_sum,
        reference_upper_sum=reference.total,
        ratio=cover_sum / reference.total,
        max_intersecting=int(count.max(initial=0)),
        counting_bound=4 ** pack.n,
        n=pack.n,
        word_depth=cover.depth,
        per_cube=reference.per_cube,
        words=cover.words,
        radius=cover.radius,
        min_contained_depth=first,
        intersecting_count=count,
        contained_count=inner,
    )


# ---------------------------------------------------------------------------
# shell integrals


@dataclass(frozen=True)
class GradientPower:
    """phi(t) = (alpha + beta/t)^power, the annulus derivative magnitude."""

    alpha: float
    beta: float
    power: float

    def __call__(self, t):
        return (self.alpha + self.beta / t) ** self.power


# quad's relative tolerance in shell_integral, which the norm table's first
# Gauss-Kronrod step must meet as well
_EPSREL = 1e-11


def shell_integral(phi: Callable[[float], float], r: float, R: float, n: int) -> float:
    """Integral of phi(||x||_inf) over the sup-norm shell Q(0,R) \\ Q(0,r).

    Equals n 2^n int_r^R phi(t) t^(n-1) dt, by adaptive quadrature asked
    for relative error 1e-11; an error estimate above 1e-10 relative raises
    ToleranceError.
    """
    if not 0.0 < r < R:
        raise ValueError("need 0 < r < R")
    if n < 1:
        raise ValueError("n must be >= 1")
    front = n * 2.0 ** n
    quad = _quad or _load_quad()
    result = quad(lambda t: phi(t) * t ** (n - 1), r, R,
                  epsabs=0.0, epsrel=_EPSREL, limit=200, full_output=True)
    value, abserr = result[0], result[1]
    if len(result) > 3:
        raise ToleranceError(f"shell quadrature failed: {result[3]}")
    if abserr > 1e-10 * max(abs(value), 1e-300):
        raise ToleranceError(
            f"shell quadrature too loose: abserr={abserr:g} for value={value:g}"
        )
    return front * value


# QUADPACK's 21-point Gauss-Kronrod rule (dqk21) in its own decimals: the
# Kronrod abscissae, whose odd-indexed entries are the 10-point Gauss nodes,
# the Kronrod weights (the last is the centre's) and the Gauss weights;
# the weights are columns over a block's (node, power, depth) axes
_XGK = np.array((
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720))
_WGK = np.array((
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980544743, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821))[:, None, None]
_WG = np.array((
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338))[:, None, None]
# the order of dqk21's resk and resabs sums: the Gauss nodes first
_KRONROD_ORDER = (1, 3, 5, 7, 9, 0, 2, 4, 6, 8)
_EPMACH = sys.float_info.epsilon
_UFLOW = sys.float_info.min


def _gk21_table(base: np.ndarray, weight: np.ndarray, hlgth: np.ndarray,
                valid: np.ndarray, powers: np.ndarray, n: int) -> np.ndarray:
    """shell_integral(GradientPower(alpha_k, beta_k, power_i), r_k, R_k, n)
    as an (m, K) table, on every entry settled by its first rule, else NaN.

    QUADPACK's dqagse starts with one 21-point Gauss-Kronrod rule (dqk21)
    over [r, R] and returns it when its error estimate meets the tolerance.
    This runs that step on the nodes t that ``_shell_table`` builds:
    ``base`` = alpha + beta/t and ``weight`` = t^(n-1) as (21, K) arrays,
    and ``hlgth`` = (R - r)/2.  Each power is taken by libm and the sums
    run node by node in dqk21's order, so a settled entry equals the
    quadrature bit for bit.  Entries of a depth outside 0 < r < R (not
    ``valid``) or with a non-finite sum stay NaN; so does every entry when
    math.pow raises, so that the scalar call raises the same error.  A
    settled entry is finite, so NaN marks only the entries left to the
    quadrature.
    """
    with np.errstate(all="ignore"):
        try:
            f = libm_pow(base[:, None], powers[:, None])  # (21, m, K)
        except (ArithmeticError, ValueError):
            return np.full((len(powers), len(hlgth)), np.nan)
        f *= weight[:, None]
        fc, fv1, fv2 = f[0], f[1:11], f[11:]
        # each node's weighted term is one array product; only the sums
        # run node by node, each into its own (m, K) accumulator
        fsum = fv1 + fv2
        gauss = fsum[1::2] * _WG
        fsum *= _WGK[:10]
        resg = np.zeros_like(fc)
        for term in gauss:
            resg += term
        resk = _WGK[10] * fc
        resabs = np.abs(resk)
        for j in _KRONROD_ORDER:
            resk += fsum[j]
        np.abs(fv1, out=fsum)
        fsum += np.abs(fv2)
        fsum *= _WGK[:10]
        for j in _KRONROD_ORDER:
            resabs += fsum[j]
        # f is spent: it becomes |f - resk/2| in place
        f -= resk * 0.5
        np.abs(f, out=f)
        resasc = _WGK[10] * fc
        np.add(fv1, fv2, out=fsum)
        fsum *= _WGK[:10]
        for j in range(10):
            resasc += fsum[j]
        result = resk * hlgth
        resabs *= np.abs(hlgth)
        resasc *= np.abs(hlgth)
        abserr = np.abs((resk - resg) * hlgth)
        # dqk21 scales abserr by min(1, (200 abserr/resasc)^1.5); the clip
        # first gives the same value and keeps pow from overflowing
        ratio = np.minimum(200.0 * abserr / resasc, 1.0)
        abserr = np.where((resasc != 0.0) & (abserr != 0.0),
                          resasc * libm_pow(ratio, 1.5), abserr)
        abserr = np.where(resabs > _UFLOW / (50.0 * _EPMACH),
                          np.maximum((_EPMACH * 50.0) * resabs, abserr), abserr)
        # dqagse's first-step exit with ier = 0; its roundoff exit (ier = 2)
        # needs abserr above the bound and never meets this test.  A settled
        # entry's abserr also passes shell_integral's 1e-10 check.
        bound = _EPSREL * np.abs(result)
        settled = ((abserr <= bound) & (abserr != resasc)) | (abserr == 0.0)
        settled &= np.isfinite(result) & valid
        # shell_integral's front * value
        return np.where(settled, n * 2.0 ** n * result, np.nan)


def _shell_table(alpha: np.ndarray, beta: np.ndarray, r: np.ndarray, R: np.ndarray,
                 n: int, blocks: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Per array of powers in ``blocks``, the (m, K) table of
    shell_integral(GradientPower(alpha_k, beta_k, power_i), r_k, R_k, n),
    bit for bit and error for error.

    The nodes are built once for all blocks.  The entries the first rule
    does not settle go to shell_integral in power-major order, so the
    error raised is the one a loop over the powers, then the depths, raises.
    """
    with np.errstate(all="ignore"):
        centr = 0.5 * (r + R)
        hlgth = 0.5 * (R - r)
        absc = _XGK[:, None] * hlgth
        t = np.concatenate((centr[None], centr - absc, centr + absc))  # (21, K)
        base = alpha + beta / t
        # pow(t, 1.0) is t exactly
        weight = t if n == 2 else libm_pow(t, float(n - 1))
    valid = (0.0 < r) & (r < R)
    for powers in blocks:
        shells = _gk21_table(base, weight, hlgth, valid, powers, n)
        for i, k in np.argwhere(np.isnan(shells)).tolist():
            shells[i, k] = shell_integral(
                GradientPower(float(alpha[k]), float(beta[k]), float(powers[i])),
                float(r[k]), float(R[k]), n)
        yield shells


def shell_integral_mc(phi, r: float, R: float, n: int, samples: int,
                      rng: np.random.Generator) -> tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of the shell integral.

    Samples uniformly in [-R, R]^n and keeps the shell hit indicator, so it
    shares no machinery with the layer-cake identity used by
    shell_integral.  Each sample's sup norm is ``fold_columns`` of
    ``np.maximum``, which rounds nothing, so it equals the row maximum.
    """
    if not 0.0 < r < R:
        raise ValueError("need 0 < r < R")
    pts = rng.uniform(-R, R, size=(samples, n))
    sup = fold_columns(np.maximum, np.abs(pts))
    vals = np.zeros(samples)
    mask = (sup > r) & (sup <= R)
    vals[mask] = phi(sup[mask])
    volume = (2.0 * R) ** n
    est = volume * float(np.mean(vals))
    stderr = volume * float(np.std(vals, ddof=1)) / math.sqrt(samples)
    return est, stderr


# ---------------------------------------------------------------------------
# norm reports


@dataclass(frozen=True)
class NormReport:
    """Grand-norm data over an eps grid.

    values[i] = eps_i * int |Df_K|^(n - eps_i) including the depth-K core
    term; bounds[i] is the analytic telescoping bound
    n 2^n (a_0^eps - a_K^eps) + core.
    """

    eps: tuple[float, ...]
    values: tuple[float, ...]
    bounds: tuple[float, ...]
    sup: float
    convention: str
    depth: int


def default_eps_grid(n: int, count: int) -> tuple[float, ...]:
    """``count`` eps values from 1e-4 to n - 1, evenly spaced in log."""
    return tuple(float(e) for e in np.geomspace(1e-4, n - 1.0, count))


# annulus entries (powers times depths) in one block of the norm table: 8
# powers at K = 40, whose (21, 8, 40) node values, sums and numpy's
# broadcast buffer for the powers peak at 186 KiB (tracemalloc), under the
# 200 KiB of the earlier per-row layout at 256 rows; 512 entries took 245 KiB
_TABLE_ROWS = 320


def _annulus_table(pack: SequencePack, powers: Sequence[float]) -> Iterator[np.ndarray]:
    """Per power, the per-depth totals 2^(nk) * shell_integral over the
    depth-k annulus of (alpha_k + beta_k/t)^power, k = 1..K, as (m, K)
    blocks of m consecutive powers, so only one block is held.

    Raises GaugeRangeError, before any shell is integrated, when some
    depth's 2^(nk) passes binary64.
    """
    n, K = pack.n, pack.K
    k = (sys.float_info.max_exp - 1) // n + 1  # first depth whose 2^(nk) is no float
    if powers and k <= K:
        raise GaugeRangeError(f"annulus count 2^({n}*{k}) overflows binary64 at depth {k}")
    alpha, beta = np.array(pack.alpha[1:]), np.array(pack.beta[1:])
    r, R = np.array(pack.r[1:]), np.array(pack.r[:-1]) / 2.0
    counts = np.ldexp(1.0, n * np.arange(1, K + 1))  # 2^(nk) annuli at depth k
    step = max(1, _TABLE_ROWS // K)
    blocks = (np.array(powers[lo:lo + step], dtype=float) for lo in range(0, len(powers), step))
    for shells in _shell_table(alpha, beta, r, R, n, blocks):
        yield shells * counts


def _core_term(pack: SequencePack, power: float) -> float:
    # 2^(nK) (2 r_K)^n (rt_K/r_K)^power, reduced so nothing overflows
    return (2.0 ** pack.n * pack.a[pack.K] ** (pack.n - power)
            * pack.b[pack.K] ** power)


def grand_norm_report(pmap: PonomarevMap, eps_grid: Sequence[float]) -> NormReport:
    """eps * int |Df_K|^(n-eps) over an eps grid, with analytic bounds.

    Requires a standard pack (alpha = 1/2, beta = 2^(-k-1)); the analytic
    per-eps bound n 2^n (a_0^eps - a_K^eps) + core uses the pointwise
    domination alpha + beta/t <= 2 beta / t on each annulus.
    """
    pack = pmap.pack
    if not pack.standard:
        raise ValueError("grand norm reports require a standard pack")
    n = pack.n
    eps_grid = tuple(float(e) for e in eps_grid)
    for e in eps_grid:
        if not 0.0 < e <= n - 1.0:
            raise ValueError(f"eps {e!r} outside (0, n-1]")
    aK, bK = pack.a[pack.K], pack.b[pack.K]
    const = n * 2.0 ** n
    values = []
    bounds = []
    rows = (row for block in _annulus_table(pack, [n - e for e in eps_grid])
            for row in block.tolist())
    for e, terms in zip(eps_grid, rows):
        values.append(e * math.fsum(terms) + e * _core_term(pack, n - e))
        bounds.append(const * (1.0 - aK ** e) + e * 2.0 ** n * aK ** e * bK ** (n - e))
    return NormReport(
        eps=eps_grid,
        values=tuple(values),
        bounds=tuple(bounds),
        sup=max(values),
        convention=CONVENTION,
        depth=pack.K,
    )


def sobolev_depth_profile(pmap: PonomarevMap, p: float) -> tuple[tuple[float, ...], float]:
    """Cumulative annulus sums of int |Df_K|^p through each depth, plus the
    depth-K core term."""
    pack = pmap.pack
    if not 0.0 < p <= pack.n:
        raise ValueError("p must lie in (0, n]")
    (block,) = _annulus_table(pack, (p,))
    # a correctly rounded sum of two finite floats is their float sum
    return tuple(accumulate(block[0].tolist())), _core_term(pack, p)


# ---------------------------------------------------------------------------
# pushforward / coding checks


@dataclass(frozen=True)
class PushforwardReport:
    """``ratios``: the share of the depth-k cover sum under each depth-j
    word, in word order; ``exact`` when each equals ``expected``."""

    expected: Fraction
    ratios: tuple[Fraction, ...]
    exact: bool


def pushforward_check(pack: SequencePack, k: int, j: int) -> PushforwardReport:
    """Share of the depth-k cover sum carried by each depth-j word.

    All depth-k cubes carry the same gauge value, so each share is the
    exact rational (descendants of the word) / 2^(nk) and must equal
    2^(-jn).  Descendants are counted by exhaustive enumeration of the
    depth-k words, of which there may be at most WORD_CAP: the depth-j
    prefix of a word is its top n*j bits.
    """
    if not 0 <= j <= k <= pack.K:
        raise DepthError("need 0 <= j <= k <= K")
    n = pack.n
    words = all_words(n, k)
    total = len(words)
    expected = Fraction(1, 2 ** (n * j))
    counts = np.bincount(words >> n * (k - j), minlength=2 ** (n * j))
    ratios = tuple(Fraction(c, total) for c in counts.tolist())
    exact = all(rho == expected for rho in ratios)
    return PushforwardReport(expected=expected, ratios=ratios, exact=exact)
