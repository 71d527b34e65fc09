"""The per-depth quadrature loop of the norm reports, one ``shell_integral``
call per annulus, kept as the oracle of the block path
(``analysis._annulus_table``): ``grand_norm_report`` and
``sobolev_depth_profile`` must give the same floats."""

import math

from ponomap.analysis import GradientPower, _core_term, shell_integral


def reference_annulus_terms(pack, power):
    """Per-depth totals 2^(nk) * shell_integral((alpha+beta/t)^power)."""
    out = []
    for k in range(1, pack.K + 1):
        phi = GradientPower(pack.alpha[k], pack.beta[k], power)
        term = shell_integral(phi, pack.r[k], pack.r[k - 1] / 2.0, pack.n)
        out.append(2.0 ** (pack.n * k) * term)
    return out


def reference_grand_norm_values(pack, eps_grid):
    n = pack.n
    return tuple(e * math.fsum(reference_annulus_terms(pack, n - e))
                 + e * _core_term(pack, n - e) for e in eps_grid)


def reference_depth_profile(pack, p):
    running = []
    acc = 0.0
    for t in reference_annulus_terms(pack, p):
        acc = math.fsum((acc, t))
        running.append(acc)
    return tuple(running), _core_term(pack, p)
