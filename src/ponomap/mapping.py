"""Finite-depth evaluation of the cube homeomorphism and its derivatives.

The depth-K map f_K fixes the boundary of [-1,1]^n, sends each depth-k
annulus radially (in the sup norm) onto its target annulus and each depth-K
core cube linearly onto its target core.  Evaluation is an iterative descent
with accumulated centers rather than a literal composition of the K stages:
on the annulus of word v at depth k,

    f_K(x) = zt_v + (alpha_k * m + beta_k) * (x - z_v) / m,   m = ||x - z_v||_inf,

and on a core cube f_K(x) = zt_v + (rt_K / r_K) (x - z_v).  Center-to-center
invariance (each z_v maps to zt_v) makes the descent exact, and the whole
family is Cauchy: later stages move points by at most the target core
diameter, so f_K approximates the limit map within 2*sqrt(n)*rt_K.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cantor import BatchDescent, Descent, SequencePack, Walk, descend, descend_batch
from .errors import RidgeSetError

_RIDGE_RTOL = 1e-12


def libm_pow(x: np.ndarray, y, scalar=math.pow) -> np.ndarray:
    """x ** y elementwise by libm pow, bit for bit.

    numpy's float64 ``float_power`` loop calls the C library's pow, which
    math.pow and Python's float ** call as well; ``np.power`` runs SIMD
    kernels that differ from it in the last bit for some elements.  The
    entries whose result is not finite are taken again by ``scalar``
    (math.pow, or operator.pow for float **), in flat order, so the first
    error a loop of ``scalar`` raises is raised and every NaN or inf it
    returns is kept.  ``y`` broadcasts against ``x``.
    """
    with np.errstate(all="ignore"):
        out = np.float_power(x, y)
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        xs, ys = (np.broadcast_to(a, out.shape).flat[bad].tolist() for a in (x, y))
        out.flat[bad] = list(map(scalar, xs, ys))
    return out


@dataclass(frozen=True)
class PonomarevMap:
    """Immutable depth-K truncation of the nested-cube homeomorphism."""

    pack: SequencePack

    @property
    def truncation_error(self) -> float:
        """Certified distance to the limit map: the target core diameter
        2*sqrt(n)*rt_K."""
        return 2.0 * math.sqrt(self.pack.n) * self.pack.rt[self.pack.K]

    @property
    def n(self) -> int:
        return self.pack.n

    def eval(self, x: Sequence[float],
             located: Descent | None = None) -> tuple[float, ...]:
        """f_K(x) for x in the closed cube; identity on the boundary.

        ``located``, when given, must be ``self.locate(x)`` for this same x;
        it replaces the domain descent, so one descent can serve ``eval``,
        ``jacobian_det`` and ``derivative`` of one point.
        """
        pack = self.pack
        d = descend(x, pack, "domain") if located is None else located
        if d.region == "annulus":
            k = d.depth
            scale = (pack.alpha[k] * d.m + pack.beta[k]) / d.m
        else:
            scale = pack.rt[pack.K] / pack.r[pack.K]
        return tuple([zt + scale * (c - z) for zt, c, z in zip(d.zt, d.x, d.z)])

    def eval_batch(self, x: np.ndarray,
                   located: BatchDescent | None = None) -> np.ndarray:
        """``eval`` of every row of an (N, n) array: the same formulas in the
        same order, so row i equals ``eval(x[i])`` bit for bit.  ``located``,
        when given, must be ``descend_batch(x, self.pack)``."""
        pack = self.pack
        d = descend_batch(x, pack, "domain") if located is None else located
        scale = np.full(len(d.m), pack.rt[pack.K] / pack.r[pack.K])
        ann = ~d.core
        k, m = d.depth[ann], d.m[ann]
        scale[ann] = (np.take(pack.alpha, k) * m + np.take(pack.beta, k)) / m
        return d.zt + scale[:, None] * (d.x - d.z)

    def eval_inverse(self, y: Sequence[float],
                     walks: dict[float, Walk] | None = None) -> tuple[float, ...]:
        """Structural inverse: the same descent run on the target hierarchy.
        ``walks`` is a target-side walk table of this pack, as in ``descend``."""
        pack = self.pack
        d = descend(y, pack, "target", walks)
        if d.region == "annulus":
            k = d.depth
            s = (d.m - pack.beta[k]) / pack.alpha[k]
            scale = s / d.m
        else:
            scale = pack.r[pack.K] / pack.rt[pack.K]
        return tuple([z + scale * (c - zt) for z, c, zt in zip(d.z, d.x, d.zt)])

    def eval_inverse_batch(self, y: np.ndarray) -> np.ndarray:
        """``eval_inverse`` of every row of an (N, n) array, bit for bit."""
        pack = self.pack
        d = descend_batch(y, pack, "target")
        scale = np.full(len(d.m), pack.r[pack.K] / pack.rt[pack.K])
        ann = ~d.core
        k, m = d.depth[ann], d.m[ann]
        s = (m - np.take(pack.beta, k)) / np.take(pack.alpha, k)
        scale[ann] = s / m
        return d.z + scale[:, None] * (d.x - d.zt)

    def locate(self, x: Sequence[float],
               walks: dict[float, Walk] | None = None) -> Descent:
        """Domain descent of x to depth K.  Inner cubes are closed, so face
        points keep descending.  ``walks`` is a domain-side walk table of
        this pack, as in ``descend``."""
        return descend(x, self.pack, "domain", walks)

    def _annulus_state(self, x: Sequence[float], located: Descent | None):
        """The descent of x and, on an annulus, u = x - z_v (None on a
        core); RidgeSetError where the two largest |u_i| tie within rtol."""
        d = descend(x, self.pack, "domain") if located is None else located
        if d.region == "core":
            return d, None
        u = [c - z for c, z in zip(d.x, d.z)]
        mags = sorted(map(abs, u))
        if len(mags) > 1 and mags[-1] - mags[-2] <= _RIDGE_RTOL * mags[-1]:
            raise RidgeSetError(
                f"sup norm attained by two coordinates within rtol {_RIDGE_RTOL:g}"
            )
        return d, u

    def derivative(self, x: Sequence[float],
                   located: Descent | None = None) -> np.ndarray:
        """Exact pointwise Jacobian matrix.

        On the annulus of depth k with m attained at coordinate j:

            D[i][l] = alpha_k d_il + beta_k (d_il / m - u_i sgn(u_j) d_jl / m^2)

        with u = x - z_v.  On a depth-K core the matrix is (rt_K/r_K) * I.
        Raises RidgeSetError when the sup norm is attained by two coordinates
        within relative tolerance 1e-12.  ``located`` is as in ``eval``.
        """
        pack = self.pack
        d, u = self._annulus_state(x, located)
        n = pack.n
        if u is None:
            return pack.rt[pack.K] / pack.r[pack.K] * np.eye(n)
        j = max(range(n), key=lambda i: abs(u[i]))
        k = d.depth
        alpha, beta, m = pack.alpha[k], pack.beta[k], d.m
        sigma = 1.0 if u[j] > 0.0 else -1.0
        mat = (alpha + beta / m) * np.eye(n)
        for i in range(n):
            mat[i, j] -= beta * u[i] * sigma / (m * m)
        return mat

    def jacobian_det(self, x: Sequence[float],
                     located: Descent | None = None) -> float:
        """Closed-form determinant: alpha (alpha + beta/m)^(n-1) on annuli,
        (rt_K/r_K)^n on cores; strictly positive throughout.  ``located`` is
        as in ``eval``."""
        pack = self.pack
        d, u = self._annulus_state(x, located)
        if u is None:
            return (pack.rt[pack.K] / pack.r[pack.K]) ** pack.n
        k = d.depth
        alpha, beta = pack.alpha[k], pack.beta[k]
        return alpha * (alpha + beta / d.m) ** (pack.n - 1)

    def jacobian_det_batch(self, x: np.ndarray) -> np.ndarray:
        """``jacobian_det`` of every row of an (N, n) array, bit for bit, and
        NaN on the rows where it raises RidgeSetError."""
        pack = self.pack
        d = descend_batch(x, pack, "domain")
        det = np.full(len(d.m), (pack.rt[pack.K] / pack.r[pack.K]) ** pack.n)
        ann = np.flatnonzero(~d.core)
        k = d.depth[ann]
        alpha, beta = np.take(pack.alpha, k), np.take(pack.beta, k)
        det[ann] = alpha * libm_pow(alpha + beta / d.m[ann], pack.n - 1, operator.pow)
        if pack.n > 1:
            # the ridge rule of _annulus_state on the two largest |u_i|
            mags = np.sort(np.abs(d.x[ann] - d.z[ann]), axis=1)
            det[ann[mags[:, -1] - mags[:, -2] <= _RIDGE_RTOL * mags[:, -1]]] = np.nan
        return det


def build(pack: SequencePack) -> PonomarevMap:
    """Assemble the map for a validated pack.

    Re-checks the gluing residuals (a pack mutated after construction fails
    here).
    """
    pack.validate()
    return PonomarevMap(pack=pack)
