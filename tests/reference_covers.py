"""The per-word forms of ``ponomap.analysis``'s cover builders, kept as the
oracle of the array covers: each ball's centre comes from ``center`` and
each random anchor from one ``rng.integers`` call per vertex, ball after
ball.  The helpers build, slice and join covers for the probe tests."""

from __future__ import annotations

import math

import numpy as np

from ponomap.analysis import ANCHOR_DEPTH, Cover
from ponomap.cantor import SequencePack, all_words, center


def make_cover(n: int, depth: int, words, centers, radius) -> Cover:
    """A Cover from per-ball lists; ``centers`` may be empty."""
    return Cover(np.array(words, dtype=np.int64), depth,
                 np.array(centers, dtype=float).reshape(-1, n), np.array(radius, dtype=float))


def cover_rows(cover: Cover, rows) -> Cover:
    """The balls ``rows`` (an index, slice or mask) of ``cover``."""
    return Cover(cover.words[rows], cover.depth, cover.centers[rows], cover.radius[rows])


def join_covers(*covers: Cover) -> Cover:
    """The balls of ``covers`` in turn; all name their words at one depth."""
    (depth,) = {c.depth for c in covers}
    return Cover(np.concatenate([c.words for c in covers]), depth,
                 np.concatenate([c.centers for c in covers]),
                 np.concatenate([c.radius for c in covers]))


def reference_canonical_cover(pack: SequencePack, m: int) -> Cover:
    """Balls circumscribing every depth-m cube, one ``center`` call each."""
    rho = math.sqrt(pack.n) * pack.r[m]
    words = all_words(pack.n, m).tolist()
    return make_cover(pack.n, m, words, [center(w, m, pack) for w in words],
                      [rho] * len(words))


def reference_random_cover(pack: SequencePack, m: int, rng: np.random.Generator) -> Cover:
    """One ball per depth-m cube, anchored ANCHOR_DEPTH levels deeper by one
    ``rng.integers(2**n)`` draw per level, ball after ball."""
    n = pack.n
    sqrt_n = math.sqrt(n)
    words, centers, radius = [], [], []
    for word in all_words(n, m).tolist():
        anchor = word
        for _ in range(ANCHOR_DEPTH):
            anchor = anchor << n | int(rng.integers(2 ** n))
        c = center(anchor, m + ANCHOR_DEPTH, pack)
        zu = center(word, m, pack)
        dist = math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(c, zu)))
        words.append(anchor)
        centers.append(c)
        radius.append(dist + sqrt_n * pack.r[m])
    return make_cover(n, m + ANCHOR_DEPTH, words, centers, radius)
