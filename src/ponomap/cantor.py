"""Nested-cube hierarchy: addresses, scale packs, point location, binary coding.

Depth-k cubes are indexed by words of k vertices of [-1,1]^n (every
coordinate is +1 or -1).  A word fixes a center

    z_v = sum_{i=1..k} (r_{i-1}/2) * v_i            (domain side)

with the target side using the radii rt instead of r.  Around each center
sit an outer cube of half-edge r_{k-1}/2 and an inner cube of half-edge
r_k; the outer cubes at depth k tile the inner cube of the parent, so every
interior point lands either in a unique annulus (outer minus inner) at some
depth, or survives to the core cubes at the truncation depth.

A depth-k word is an n*k-bit integer.  Level 1 takes the top n bits, and
within a level coordinate 0 takes the top bit; bit 1 means sign +1.  So
the child of word w at vertex index v in 0..2^n - 1 is ``w << n | v``, and
integer order is the lexicographic order of the signs, -1 before +1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Literal, NamedTuple, Sequence

import numpy as np

from .errors import ConstructionError, DepthError, DomainError, PrecisionError

Side = Literal["domain", "target"]

_ULPS = 4  # allowed gluing residual, in units of spacing at the result's scale


WORD_CAP = 2 ** 20  # largest population of words enumerated at once


def all_words(n: int, depth: int) -> np.ndarray:
    """All 2^(n*depth) words at the given depth, in lexicographic bit order."""
    total = 2 ** (n * depth)
    if total > WORD_CAP:
        raise DepthError(f"{total} depth-{depth} words exceed the enumeration cap {WORD_CAP}")
    return np.arange(total)


def vertices(n: int) -> np.ndarray:
    """The 2^n vertices of [-1,1]^n as rows; row v is the vertex of index v."""
    bits = (np.arange(2 ** n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return np.where(bits == 1, 1.0, -1.0)


def word_texts(words: np.ndarray, n: int, depth: int) -> list[str]:
    """Each word's signs, one group of n per level: ``"++|-+"``.  Each
    level's n-bit group indexes a table of the 2^n sign strings, and each
    word joins its levels with ``|``.  ``words`` is int64, or Python
    integers where the words pass 62 bits."""
    table = np.array(["".join("+" if s > 0 else "-" for s in v) for v in vertices(n).tolist()],
                     dtype=object)
    levels = [table[(words >> n * (depth - 1 - i) & 2 ** n - 1).astype(np.intp)].tolist()
              for i in range(depth)]
    return list(map("|".join, zip(*levels))) if levels else [""] * len(words)


def harmonic_sequence(K: int) -> tuple[float, ...]:
    return tuple(1.0 / (k + 1) for k in range(K + 1))


def geometric_sequence(K: int, ratio: float = 0.5) -> tuple[float, ...]:
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    return tuple(ratio ** k for k in range(K + 1))


def _ulp_close(x: float, y: float) -> bool:
    scale = max(abs(x), abs(y))
    return abs(x - y) <= _ULPS * math.ulp(scale) if scale > 0.0 else x == y


def half_edge(x_k: float, k: int) -> float:
    """Depth-k inner half-edge 2^-k x_k: r_k from a_k, rt_k from b_k."""
    return math.ldexp(x_k, -k)


def half_edges(scales: Sequence[float]) -> tuple[float, ...]:
    """``half_edge`` at every depth of a scale sequence."""
    return tuple(half_edge(x, k) for k, x in enumerate(scales))


def standard_scales(a: Sequence[float]) -> tuple[tuple[float, ...], ...]:
    """(b, r, rt, alpha, beta) of the standard construction on scales a.

    b_k = (1 + a_k)/2, r_k = 2^-k a_k, rt_k = 2^-k b_k, alpha_k = 1/2 and
    beta_k = 2^(-k-1), with alpha_0 = beta_0 = nan.  Nothing is validated,
    so scales that do not nest (a flat head a_k = 1 where tau clamps) still
    get a table.
    """
    K = len(a) - 1
    b = tuple((1.0 + x) / 2.0 for x in a)
    r, rt = half_edges(a), half_edges(b)
    alpha = (math.nan,) + (0.5,) * K
    beta = (math.nan,) + tuple(math.ldexp(1.0, -k - 1) for k in range(1, K + 1))
    return b, r, rt, alpha, beta


@dataclass(frozen=True)
class SequencePack:
    """Scales of one construction to depth K = len(a) - 1.

    r_k = 2^-k a_k and rt_k = 2^-k b_k are the domain/target inner
    half-edges at depth k, derived from the scales at construction.
    alpha_k, beta_k solve the two gluing equations

        alpha_k r_k + beta_k = rt_k
        alpha_k r_{k-1}/2 + beta_k = rt_{k-1}/2

    so the radial factor s -> alpha_k s + beta_k carries the annulus
    [r_k, r_{k-1}/2] onto [rt_k, rt_{k-1}/2].  ``standard`` packs have
    b_k = (1 + a_k)/2, which makes alpha_k = 1/2 and beta_k = 2^(-k-1)
    exactly.
    """

    n: int
    a: tuple[float, ...]
    b: tuple[float, ...]
    alpha: tuple[float, ...]  # index 0 unused (nan)
    beta: tuple[float, ...]
    K: int = field(init=False)
    r: tuple[float, ...] = field(init=False)
    rt: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "K", len(self.a) - 1)
        object.__setattr__(self, "r", half_edges(self.a))
        object.__setattr__(self, "rt", half_edges(self.b))
        self.validate()

    @property
    def standard(self) -> bool:
        """Whether b_k = (1 + a_k)/2 at every depth, as ``from_standard`` builds."""
        return all(y == (1.0 + x) / 2.0 for x, y in zip(self.a, self.b))

    @classmethod
    def from_standard(cls, n: int, a: Sequence[float]) -> "SequencePack":
        """Pack with b_k = (1 + a_k)/2 and exact gluing coefficients."""
        a = tuple(float(x) for x in a)
        b, _, _, alpha, beta = standard_scales(a)
        return cls(n=n, a=a, b=b, alpha=alpha, beta=beta)

    def validate(self) -> None:
        if self.n < 1:
            raise ConstructionError("n must be >= 1")
        if self.K < 1:
            raise ConstructionError("K must be >= 1")
        if not len(self.a) == len(self.b) == len(self.alpha) == len(self.beta):
            raise ConstructionError("scale and gluing arrays must have equal length")
        if self.a[0] != 1.0 or self.b[0] != 1.0:
            raise ConstructionError("a_0 and b_0 must equal 1")
        for k in range(self.K + 1):
            if not (self.a[k] > 0.0 and self.b[k] > 0.0):
                raise ConstructionError(f"scales must be positive (depth {k})")
        for k in range(1, self.K + 1):
            if self.a[k] > self.a[k - 1]:
                raise ConstructionError(f"a must be non-increasing (depth {k})")
            if not self.r[k] < self.r[k - 1] / 2.0:
                raise ConstructionError(f"nesting fails on domain side at depth {k}")
            if not self.rt[k] < self.rt[k - 1] / 2.0:
                raise ConstructionError(f"nesting fails on target side at depth {k}")
        for k in range(1, self.K + 1):
            inner = self.alpha[k] * self.r[k] + self.beta[k]
            outer = self.alpha[k] * (self.r[k - 1] / 2.0) + self.beta[k]
            if not _ulp_close(inner, self.rt[k]):
                raise ConstructionError(
                    f"gluing residual on inner face at depth {k}: "
                    f"{inner!r} vs {self.rt[k]!r}"
                )
            if not _ulp_close(outer, self.rt[k - 1] / 2.0):
                raise ConstructionError(
                    f"gluing residual on outer face at depth {k}: "
                    f"{outer!r} vs {self.rt[k - 1] / 2.0!r}"
                )
        if self.standard:
            for k in range(1, self.K + 1):
                if self.alpha[k] != 0.5 or self.beta[k] != math.ldexp(1.0, -k - 1):
                    raise ConstructionError(
                        f"standard pack must carry alpha=1/2, beta=2^-(k+1) (depth {k})"
                    )

    def truncate(self, K: int) -> "SequencePack":
        if not 1 <= K <= self.K:
            raise DepthError(f"cannot truncate depth-{self.K} pack to {K}")
        return SequencePack(n=self.n, a=self.a[:K + 1], b=self.b[:K + 1],
                            alpha=self.alpha[:K + 1], beta=self.beta[:K + 1])


class Descent(NamedTuple):
    """Where a point sits in the hierarchy, down to the pack depth K.

    ``region`` and ``depth`` name the annulus at the first depth with
    ||x - z_v|| > r_k, or the core at depth K; ``z`` and ``zt`` are the
    domain and target centers of that cube's word, ``m`` the sup distance
    to the center on the driving side and ``x`` the point as
    ``check_point`` returned it.
    """

    region: Literal["annulus", "core"]
    depth: int
    z: tuple[float, ...]
    zt: tuple[float, ...]
    m: float
    x: tuple[float, ...]


def outside_message(x: Sequence[float], n: int) -> str:
    """The text of the DomainError for a point x outside [-1,1]^n."""
    return f"point {tuple(map(float, x))!r} outside [-1,1]^{n}"


def check_point(x: Sequence[float], n: int) -> tuple[float, ...]:
    pt = tuple(map(float, x))
    if len(pt) != n:
        raise DomainError(f"expected {n} coordinates, got {len(pt)}")
    for c in pt:
        if not -1.0 <= c <= 1.0:  # NaN fails the comparison too
            raise DomainError(outside_message(pt, n))
    return pt


def _radii(pack: SequencePack, side: Side) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The half-edges that drive the geometry on ``side``, then the other side's."""
    if side == "domain":
        return pack.r, pack.rt
    if side == "target":
        return pack.rt, pack.r
    raise ValueError(f"side must be 'domain' or 'target', got {side!r}")


Walk = tuple[int, list[float], list[float]]


def _walk(c: float, drive: Sequence[float], other: Sequence[float], limit: int) -> Walk:
    """One coordinate's walk to its own exit depth e, or to ``limit`` when
    it goes deeper: min(e, limit), then its driving and other centre sums
    at levels 0..min(e, limit).  A shorter limit cuts the same walk."""
    b, o, u = 0.0, 0.0, c
    bs, os_ = [b], [o]
    for k in range(limit):
        if u > 0.0:
            b += 0.5 * drive[k]
            o += 0.5 * other[k]
        else:
            b -= 0.5 * drive[k]
            o -= 0.5 * other[k]
        bs.append(b)
        os_.append(o)
        u = c - b
        if abs(u) > drive[k + 1]:
            return k + 1, bs, os_
    return limit, bs, os_


def descend(x: Sequence[float], pack: SequencePack,
            side: Side = "domain", walks: dict[float, Walk] | None = None) -> Descent:
    """Walk the hierarchy containing x to the pack depth K, tracking both
    center chains.

    ``side`` selects which radii drive the geometry (and which centers the
    sign choices compare against).  Ties on shared faces go to the vertex
    with -1 in the tied coordinate, i.e. the lexicographically smallest
    child.  x is validated here only; the map reads the checked point
    back from the returned ``Descent``.  A shallower descent is that of
    ``pack.truncate(depth)``.

    Coordinate i's sign, its two centre sums and u_i = x_i - base_i at
    each level read x_i alone; the coordinates meet only in the exit test
    max_i |u_i| > drive_k, which holds exactly when some |u_i| > drive_k.
    So each coordinate walks on its own (``_walk``), no deeper than the
    shallowest exit found so far.  The point's depth is the least exit of
    its coordinates, and z, zt and m are read at that depth from the
    centre sums, which are the level-by-level additions of one walk over
    all coordinates, so every field is the same bit for bit.

    ``walks``, when given, is a walk table that the caller owns, a memo of
    ``_walk``: it maps a coordinate value to that coordinate's whole walk
    to its own exit depth, and descend adds each value it misses.  A walk
    depends on the radii, so a table serves one (pack, side) only.  0.0
    and -0.0 share a key: both take the -1 vertex at level 1 and walk
    alike from there, and x keeps its sign.  The render passes a table,
    because every coordinate of a pixel is one of the S axis values or its
    negation, and a hit walks nothing; callers with one-off points, as
    ``verify``, pass none.
    """
    n, K = pack.n, pack.K
    x = check_point(x, n)
    drive, other = _radii(pack, side)
    ws, depth = [], K
    for c in x:
        if walks is None:
            w = _walk(c, drive, other, depth)
        else:
            w = walks.get(c)
            if w is None:
                w = walks[c] = _walk(c, drive, other, K)
        ws.append(w)
        if w[0] < depth:
            depth = w[0]
    base, rest, m = [], [], 0.0
    for c, (_, bs, os_) in zip(x, ws):
        b = bs[depth]
        base.append(b)
        rest.append(os_[depth])
        m = max(m, abs(c - b))
    z, zt = (base, rest) if side == "domain" else (rest, base)
    region = "annulus" if m > drive[depth] else "core"
    return Descent(region, depth, tuple(z), tuple(zt), m, x)


@dataclass(frozen=True)
class BatchDescent:
    """``descend`` of N points to the pack depth K, as arrays.

    Row i holds what ``descend(x[i], pack, side)`` returns: ``depth``
    (N,) is the annulus depth, or K where ``core`` (N,) is set; ``z`` and
    ``zt`` (N, n) are the domain and target centres of the word, ``m`` (N,)
    the sup distance to the centre on the driving side and ``x`` (N, n) the
    checked points.
    """

    depth: np.ndarray
    core: np.ndarray
    z: np.ndarray
    zt: np.ndarray
    m: np.ndarray
    x: np.ndarray


def fold_columns(ufunc: np.ufunc, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``ufunc`` folded left to right over the columns of an (N, n) array, in
    place into ``out`` or a fresh (N,) array; ``a`` is never written.  An
    axis-1 reduction costs far more: 229 us against 5 us for the maximum of
    4,096 rows at n = 2."""
    if out is None:
        out = a[:, 0].copy() if a.shape[1] == 1 else ufunc(a[:, 0], a[:, 1])
        a = a[:, 2:]
    for col in a.T:
        ufunc(out, col, out=out)
    return out


def in_cube(x: np.ndarray) -> np.ndarray:
    """Mask of the rows of x inside [-1,1]^n: max |x_j| <= 1, where a NaN in
    any column makes the maximum NaN and fails, as in ``check_point``."""
    return fold_columns(np.maximum, np.abs(x)) <= 1.0


def descend_batch(x: np.ndarray, pack: SequencePack,
                  side: Side = "domain") -> BatchDescent:
    """``descend`` to depth K of every row of an (N, n) array at once.

    One level per step over the rows held, with the scalar arithmetic in
    the scalar order (the ``> 0.0`` tie rule, centres summed level by
    level, m = max|x - centre|), so every field equals the scalar
    descent's bit for bit.  A row outside the cube raises DomainError.

    m is ``fold_columns`` of ``np.maximum`` over the n columns of |u|: a
    maximum rounds nothing, and no NaN gets past the cube check, so it
    equals ``max`` in any order.  A row that leaves is recorded once, at its
    depth, and marked dead; the rows held are compacted only when fewer
    than half of them are alive.  Until then a dead row goes on summing
    stale centres that nothing reads, and each row's own arithmetic never
    depends on the others, so the rows recorded are those of a loop that
    compacts at every level.  The rows stay (M, n) arrays: one 1-D array
    per column would save the strided column reads, but it multiplies the
    calls per level by n, which small batches, as verify's, pay for.
    """
    n, K = pack.n, pack.K
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != n:
        raise DomainError(f"expected an (N, {n}) array of points, got shape {x.shape}")
    outside = np.flatnonzero(~in_cube(x))
    if outside.size:
        raise DomainError(outside_message(x[outside[0]], n))
    r, rt = pack.r, pack.rt
    drive = _radii(pack, side)[0]
    N = len(x)
    depth = np.empty(N, dtype=np.int64)
    z, zt, m = np.empty((N, n)), np.empty((N, n)), np.empty(N)
    # the rows held: their index, whether still descending, point, both
    # centres and u = x - base; ``live`` of them are still descending
    rows, alive, xa = np.arange(N), np.ones(N, dtype=bool), x
    za, zta, u = np.zeros((N, n)), np.zeros((N, n)), x
    live = N
    for k in range(1, K + 1):
        if not live:
            break
        v = np.where(u > 0.0, 1.0, -1.0)
        za += (0.5 * r[k - 1]) * v
        zta += (0.5 * rt[k - 1]) * v
        u = xa - (za if side == "domain" else zta)
        ma = fold_columns(np.maximum, np.abs(u))
        if k < K:
            leave = ma > drive[k]
            if live < len(rows):
                leave &= alive
        else:
            leave = alive
        leave = leave.nonzero()[0]
        if not leave.size:
            continue
        out = rows[leave]
        depth[out] = k
        z[out], zt[out], m[out] = za[leave], zta[leave], ma[leave]
        alive[leave] = False
        live -= leave.size
        if 2 * live < len(rows):
            rows, xa, za, zta, u = rows[alive], xa[alive], za[alive], zta[alive], u[alive]
            alive = np.ones(live, dtype=bool)
    # the rows still inside at depth K are the core
    core = (depth == K) & ~(m > drive[K])
    return BatchDescent(depth, core, z, zt, m, x)


def center(word: int, depth: int, pack: SequencePack,
           side: Side = "domain") -> tuple[float, ...]:
    """Center z_v = sum (r_{i-1}/2) v_i (or rt on the target side)."""
    if depth > pack.K:
        raise DepthError(f"word depth {depth} exceeds pack depth {pack.K}")
    n = pack.n
    radii = _radii(pack, side)[0]
    z = [0.0] * n
    shift = n * depth
    for i in range(depth):
        half = 0.5 * radii[i]
        for c in range(n):
            shift -= 1
            z[c] += half if word >> shift & 1 else -half
    return tuple(z)


def _check_bits(n: int, k: int) -> None:
    if k < 0 or k > 52:
        raise PrecisionError("level k must lie in 0..52")
    if n * k > 62:
        raise PrecisionError(f"depth-{k} words of {n * k} bits pass the int64 limit of 62")


def dyadic_cube(words, n: int, k: int) -> tuple[np.ndarray, float]:
    """Binary coding of depth-k words: the level-k dyadic cubes (corner, size 2^-k).

    Coordinate i of a corner reads the i-th coordinate signs of the word
    as binary digits after the point (+1 -> 1, -1 -> 0).  ``words`` of any
    shape give corners of that shape plus a last axis of n.
    """
    _check_bits(n, k)
    words = np.asarray(words, dtype=np.int64)
    corners = np.empty(words.shape + (n,))
    for i in range(n):
        bits = np.zeros_like(words)
        for j in range(k):
            bits = bits << 1 | words >> (n * (k - 1 - j) + n - 1 - i) & 1
        corners[..., i] = np.ldexp(bits, -k)
    return corners, math.ldexp(1.0, -k)


def dyadic_preimage(corners, k: int) -> np.ndarray:
    """Inverse of dyadic_cube on level-k grid corners in [0, 1)^n.

    ``corners`` has a last axis of n; the words have the shape before it.
    """
    c = np.asarray(corners, dtype=np.float64)
    n = c.shape[-1]
    _check_bits(n, k)
    inside = (c >= 0.0) & (c < 1.0)  # NaN fails the comparison too
    scaled = np.ldexp(np.where(inside, c, 0.0), k)
    bad = np.flatnonzero(~inside | (np.round(scaled) != scaled))
    if bad.size:
        first = c.flat[bad[0]].item()
        if not inside.flat[bad[0]]:
            raise PrecisionError(f"corner coordinate {first!r} outside [0, 1)")
        raise PrecisionError(f"{first!r} is not a level-{k} dyadic corner")
    cols = scaled.astype(np.int64)
    words = np.zeros(c.shape[:-1], dtype=np.int64)
    for j in range(k):
        for i in range(n):
            words = words << 1 | cols[..., i] >> (k - 1 - j) & 1
    return words


def descendant_count(from_depth: int, to_depth: int, n: int) -> int:
    """Number of depth-l words below one depth-m word: 2^(n (l - m))."""
    if to_depth < from_depth:
        raise ValueError("to_depth must be >= from_depth")
    return 2 ** (n * (to_depth - from_depth))
