"""Command-line front end.

Subcommands: sequence | eval | verify | norms | hausdorff | render, read
by one parser built once.  The config is read by one ``from_json`` call
into a ``RunConfig``; a bad key is a ConfigError that names it.
Every output artifact embeds the resolved-config digest and the seed, no
timestamps, so identical config + seed reproduces byte-identical files.
Each JSON artifact is one dict of plain values and report fields, written
by ``write_json``.  ``hausdorff.json`` always holds the upper cover sums
and a ``lower_probe`` entry: the probe's reports, or why it was skipped.
A probe report keeps its balls as arrays, and ``write_json`` streams them
into the file in the text ``json.dumps`` would give them.

Exit codes: 0 success, 2 verification failure, 3 config or usage error, 4
numeric error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import analysis, render
from .cantor import (SequencePack, descend_batch, geometric_sequence, harmonic_sequence,
                     in_cube, outside_message, standard_scales, word_texts)
from .errors import ConstructionError, GaugeRangeError, PonomapError
# eval_h is not called here; perfbench/tracer.py counts its calls at this name
from .gauge import (GaugeSpec, eval_h, finite_measure_sequence, from_json,  # noqa: F401
                    null_measure_sequence, scale_condition)
from .mapping import PonomarevMap, build
from .verify import VerifyScale, run_suite

EXIT_OK = 0
EXIT_VERIFY_FAILED = 2
EXIT_CONFIG = 3
EXIT_NUMERIC = 4

DEFAULT_CONFIG = {
    "gauge": {"n": 2, "tau": {"family": "log", "shift": math.e}},
    "theorem": 1,
    "sequence": {"kind": "harmonic"},
    "depth": 16,
    "seed": 0,
    "eps_grid": "1e-4:1:64",
    "resolution": 65,
    "safety": 0.5,
    "hausdorff": {"depths": [0, 1, 2, 4, 8], "probe_depth": 3, "probe_level": 5,
                  "random_covers": 5},
    "verify": {},
}


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class SequenceSection:
    """The ``sequence`` section; ``make_scales`` reads it under
    ``"theorem": "custom"`` only, where ``values`` overrides ``kind``."""

    kind: str
    ratio: float = 0.5
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("harmonic", "geometric"):
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if not 0.0 < self.ratio < 1.0:
            raise ValueError("ratio must lie in (0, 1)")


@dataclass(frozen=True)
class HausdorffSection:
    """The ``hausdorff`` section: depths of the upper cover sums and the
    geometry of the lower-bound probe."""

    depths: tuple[int, ...]
    probe_depth: int
    probe_level: int
    random_covers: int

    def __post_init__(self):
        if any(d < 0 for d in self.depths):
            raise ValueError(f"depths must be >= 0, got {list(self.depths)}")
        if self.probe_depth < 1 or self.probe_level < 1:
            raise ValueError("probe_depth and probe_level must be >= 1")
        if self.random_covers < 0:
            raise ValueError("random_covers must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    """A whole config, read by ``from_json`` on these type hints; the
    top-level ranges, and the rules that tie the theorem to the gauge and
    the sequence, are checked here.  ``eps`` holds the points of the
    ``eps_grid`` text, and ``resolve_config`` gives the ``digest``."""

    gauge: GaugeSpec
    theorem: int | str
    sequence: SequenceSection
    depth: int
    seed: int
    eps_grid: str
    resolution: int
    safety: float
    hausdorff: HausdorffSection
    verify: VerifyScale
    digest: str
    eps: tuple[float, ...] = field(init=False)

    def __post_init__(self):
        if self.theorem not in (1, 2, "custom"):
            raise ValueError(f"theorem must be 1, 2 or 'custom', got {self.theorem!r}")
        for key, low in (("depth", 1), ("seed", 0), ("resolution", 2)):
            if getattr(self, key) < low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)!r}")
        if not 0.0 < self.safety < 1.0:
            raise ValueError(f"safety must lie in (0, 1), got {self.safety!r}")
        if self.theorem == 1 and self.gauge.tau is None:
            raise ValueError("theorem 1 requires a tau-form gauge")
        values = self.sequence.values
        if self.theorem == "custom" and values is not None and len(values) != self.depth + 1:
            raise ValueError("sequence values must have length depth+1")
        object.__setattr__(self, "eps", parse_eps_grid(self.eps_grid, self.gauge.n))


def parse_eps_grid(text: str, n: int) -> tuple[float, ...]:
    try:
        lo_s, hi_s, count_s = text.split(":")
        lo, hi, count = float(lo_s), float(hi_s), int(count_s)
    except ValueError as exc:
        raise ValueError(f"bad eps grid {text!r}; expected 'lo:hi:count'") from exc
    if count < 1:
        raise ValueError(f"eps grid {text!r} has count {count}; need at least 1")
    if lo > hi:
        raise ValueError(f"eps grid {text!r} has lo {lo!r} above hi {hi!r}")
    if not 0.0 < lo <= hi <= n - 1.0:
        raise ValueError(f"eps grid {text!r} outside (0, {n - 1}] at n = {n}")
    if count == 1:
        return (hi,)
    return tuple(float(e) for e in np.geomspace(lo, hi, count))


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """The defaults, the ``--config`` file and the flags, merged, read as
    one ``RunConfig`` with the sha256 of the merged dict as its digest;
    sections but the gauge keep the defaults of the keys they leave out."""
    data = dict(DEFAULT_CONFIG)
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config must be a JSON object")
        data.update(loaded)
    for key in ("depth", "seed", "eps_grid", "resolution", "theorem"):
        if getattr(args, key, None) is not None:
            data[key] = getattr(args, key)
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
    sections = {key: {**default, **data[key]} for key, default in DEFAULT_CONFIG.items()
                if key != "gauge" and isinstance(default, dict) and isinstance(data[key], dict)}
    try:
        return from_json(RunConfig, {**data, **sections},
                         digest=hashlib.sha256(canonical.encode()).hexdigest())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def make_scales(cfg: RunConfig) -> tuple[float, ...]:
    if cfg.theorem == 1:
        return finite_measure_sequence(cfg.gauge.tau, cfg.gauge.n, cfg.depth)
    if cfg.theorem == 2:
        return null_measure_sequence(cfg.gauge, cfg.depth, safety=cfg.safety)
    seq = cfg.sequence
    if seq.values is not None:
        return seq.values
    if seq.kind == "harmonic":
        return harmonic_sequence(cfg.depth)
    return geometric_sequence(cfg.depth, seq.ratio)


def make_pack(cfg: RunConfig) -> SequencePack:
    return SequencePack.from_standard(cfg.gauge.n, make_scales(cfg))


def provenance(cfg: RunConfig) -> list[str]:
    return [f"config_digest={cfg.digest}", f"seed={cfg.seed}"]


def fields(report) -> dict:
    """A report dataclass as the dict of its fields, one level deep.  Each
    command passes its reports through it, and ``write_json``'s ``default``
    of ``json.dumps`` uses it for the reports nested in those (verify's
    checks); anything else is a TypeError."""
    names = getattr(type(report), "__dataclass_fields__", None)
    if names is None:
        raise TypeError(f"{type(report).__name__} is not JSON serializable")
    return {name: getattr(report, name) for name in names}


# stands in json.dumps's text for a probe report's balls until they are streamed
_BALLS = "\0balls"
# balls formatted per write
_BALL_CHUNK = 4096


def write_json(path: Path, payload: dict, cfg: RunConfig) -> None:
    """The one JSON format of the artifacts: ``payload`` with
    ``config_digest`` and ``seed`` added, keys sorted, indented by 2.

    A ``LowerProbeReport`` is written as its ``PROBE_SUMMARY`` fields and a
    ``balls`` list of one dict per ball.  ``json.dumps`` writes ``_BALLS``
    in the list's place, and the balls are streamed there by ``_write_balls``
    at the indent of the line that holds it."""
    data = {**payload, "config_digest": cfg.digest, "seed": cfg.seed}
    probes = []

    def default(value):
        if isinstance(value, analysis.LowerProbeReport):
            probes.append(value)
            return {**{k: getattr(value, k) for k in analysis.PROBE_SUMMARY}, "balls": _BALLS}
        return fields(value)

    *heads, tail = json.dumps(data, sort_keys=True, indent=2,
                              default=default).split(json.dumps(_BALLS))
    with open(path, "w") as f:
        for head, probe in zip(heads, probes, strict=True):
            f.write(head)
            line = head[head.rfind("\n") + 1:]  # the indent, then '"balls": '
            _write_balls(f, probe, line[:line.index('"')])
        f.write(tail + "\n")


def _write_balls(f, rep: analysis.LowerProbeReport, pad: str) -> None:
    """``rep``'s balls as ``json.dumps(..., sort_keys=True, indent=2)``
    writes their list of dicts when the list closes at indent ``pad``:
    ints and words as they are, each float by ``_float_texts`` and a
    ``min_contained_depth`` of 0 as null, ``_BALL_CHUNK`` balls a write."""
    if not len(rep.radius):
        f.write("[]")
        return
    at = pad + "    "
    ball = (f'{pad}  {{\n{at}"contained_count": %s,\n{at}"dominated_sum": %s,\n'
            f'{at}"intersecting_count": %s,\n{at}"min_contained_depth": %s,\n'
            f'{at}"radius": %s,\n{at}"word": "%s"\n{pad}  }}')
    f.write("[\n")
    for lo in range(0, len(rep.radius), _BALL_CHUNK):
        part = slice(lo, lo + _BALL_CHUNK)
        inner = rep.contained_count[part].tolist()
        rows = zip(inner, _float_texts([c * rep.per_cube for c in inner]),
                   rep.intersecting_count[part].tolist(),
                   [d or "null" for d in rep.min_contained_depth[part].tolist()],
                   _float_texts(rep.radius[part].tolist()),
                   word_texts(rep.words[part], rep.n, rep.word_depth))
        f.write((",\n" if lo else "") + ",\n".join(map(ball.__mod__, rows)))
    f.write(f"\n{pad}]")


def _float_texts(values: list[float]) -> list[str]:
    """json's text of each float: its repr, or Infinity, -Infinity, NaN."""
    return [repr(v) if math.isfinite(v) else json.dumps(v) for v in values]


def cmd_sequence(cfg: RunConfig, out: Path) -> int:
    a = make_scales(cfg)
    b, r, rt, alpha, beta = standard_scales(a)
    check = [True]
    for k in range(1, cfg.depth + 1):
        if cfg.theorem == "custom":
            check.append(a[k] < a[k - 1])
        else:
            observed, bound = scale_condition(cfg.gauge, cfg.theorem, k, a[k], cfg.safety)
            check.append(observed <= bound)
    # the columns of both files; alpha_0 and beta_0 have no value
    table = {"k": list(range(cfg.depth + 1)), "a": list(a), "b": list(b), "r": list(r),
             "rt": list(rt), "alpha": [None if math.isnan(v) else v for v in alpha],
             "beta": [None if math.isnan(v) else v for v in beta], "check": check}
    with open(out / "sequence.csv", "w", newline="") as f:
        for line in provenance(cfg):
            f.write(f"# {line}\n")
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(table)
        # a number by its repr, a check as true/false, and null as a blank
        writer.writerows(["" if v is None else str(v).lower() if isinstance(v, bool)
                          else repr(v) for v in row] for row in zip(*table.values()))
    write_json(out / "sequence.json",
               {**table, "theorem": cfg.theorem, "gauge": cfg.gauge.to_dict()}, cfg)
    return EXIT_OK


def read_points(lines: Iterable[str], n: int) -> Iterator[tuple[float, ...] | str]:
    """The rows of a points file, parsed as they are taken from its lines:
    the coordinates of each point line, or the error text of a line that
    is none.  Blank lines and ``#`` comments are skipped."""
    for chunk in lines:
        # str.splitlines also ends a line at \v, \f and a few more
        for line in chunk.splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                yield _parse_point(line, n)


def _parse_point(line: str, n: int) -> tuple[float, ...] | str:
    try:
        vals = tuple(map(float, line.replace(",", " ").split()))
    except ValueError:
        return f"unparsable row: {line!r}"
    if len(vals) != n:
        return f"expected {n} coordinates: {line!r}"
    return vals


# rows per vectorised pass of ``cmd_eval``; it bounds the pass's memory
_EVAL_BLOCK = 4096


def cmd_eval(cfg: RunConfig, out: Path, points_path: Path) -> int:
    pmap = build(make_pack(cfg))
    n = pmap.n
    target = out / "eval.csv"
    # the points file is opened first, so a missing one leaves no eval.csv
    try:
        src = open(points_path, encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read points {points_path}: {exc}") from exc
    try:
        with src, open(target, "w", newline="") as f:
            rows = read_points(src, n)
            for line in provenance(cfg):
                f.write(f"# {line}\n")
            f.write(",".join([f"{c}{i + 1}" for c in ("x", "y", "back") for i in range(n)]
                             + ["depth", "region"]) + "\n")
            while block := list(itertools.islice(rows, _EVAL_BLOCK)):
                _write_eval_block(f, pmap, block)
    except UnicodeDecodeError as exc:
        # the file is decoded as it is read: drop the rows written before
        target.unlink()
        raise ConfigError(f"cannot read points {points_path}: {exc}") from exc
    return EXIT_OK


def _write_eval_block(f, pmap: PonomarevMap,
                      block: list[tuple[float, ...] | str]) -> None:
    """One domain descent, ``eval_batch``, one target descent and
    ``eval_inverse_batch`` for the block's points, then the block's rows in
    one write; a point outside the cube, or whose image is, gets an error
    row that names that point."""
    n = pmap.n
    at = np.array([i for i, row in enumerate(block) if not isinstance(row, str)], dtype=int)
    x = np.array([block[i] for i in at.tolist()], dtype=np.float64).reshape(len(at), n)
    inside = in_cube(x)
    loc = descend_batch(x[inside], pmap.pack)
    y = pmap.eval_batch(loc.x, loc)
    y_in = in_cube(y)
    back = pmap.eval_inverse_batch(y[y_in])
    lines = [_error_line([""] * n, row, n) if isinstance(row, str) else "" for row in block]
    for i in at[~inside].tolist():
        lines[i] = _error_line(list(map(repr, block[i])), outside_message(block[i], n), n)
    # the block index of each point in the cube, in the order of loc and y
    index = at[inside]
    for i, fy in zip(index[~y_in].tolist(), y[~y_in].tolist()):
        lines[i] = _error_line(list(map(repr, block[i])), outside_message(fy, n), n)
    for i, texts, depth, core in zip(index[y_in].tolist(),
                                     _row_texts(x[inside][y_in], y[y_in], back),
                                     loc.depth[y_in].tolist(), loc.core[y_in].tolist()):
        lines[i] = f"{','.join(texts)},{depth},{'core' if core else 'annulus'}\n"
    f.write("".join(lines))


def _row_texts(x: np.ndarray, *images: np.ndarray) -> Iterator[tuple[str, ...]]:
    """The coordinate texts of each row: x's, then each image's.  Each x
    is formatted once, and an image coordinate with x's bits takes x's
    text, compared as int64 since == equates -0.0 and 0.0.  The images'
    other texts are formatted as the rows are taken and held in no list:
    lists of them raised the peak of an eval of the pointmap benchmark's
    2*10^4 points by 0.3 MiB."""
    texts = [list(map(repr, col)) for col in x.T.tolist()]
    cols = list(texts)
    for v in images:
        same = (v.view(np.int64) == x.view(np.int64)).T.tolist()
        cols += [(t if s else repr(c) for t, c, s in zip(xt, col, eq))
                 for xt, col, eq in zip(texts, v.T.tolist(), same)]
    return zip(*cols)


def _error_line(coords: list[str], message: str, n: int) -> str:
    """The eval.csv row of an error: ``coords``, blank image, inverse and
    depth, then ``error: message``.  The message of a row that is no point
    quotes its input line, which can hold ``,``, ``"`` and ``'``, so the
    row takes csv.writer's quoting."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(
        coords + [""] * (2 * n + 1) + [f"error: {message}"])
    return buf.getvalue()


def cmd_verify(cfg: RunConfig, out: Path) -> int:
    report = run_suite(make_pack(cfg), gauge=cfg.gauge, theorem=cfg.theorem, seed=cfg.seed,
                       scale=cfg.verify, safety=cfg.safety)
    write_json(out / "verify.json", fields(report), cfg)
    for c in report.checks:
        status = "pass" if c.passed else "FAIL"
        print(f"{status} {c.name}: observed={c.observed:.6g} bound={c.bound:.6g}")
    print(f"verify: {'pass' if report.passed else 'FAIL'} "
          f"({sum(c.passed for c in report.checks)}/{len(report.checks)} checks)")
    return EXIT_OK if report.passed else EXIT_VERIFY_FAILED


def cmd_norms(cfg: RunConfig, out: Path) -> int:
    pmap = build(make_pack(cfg))
    rep = analysis.grand_norm_report(pmap, eps_grid=cfg.eps)
    write_json(out / "norms.json", fields(rep), cfg)
    partials, core = analysis.sobolev_depth_profile(pmap, float(pmap.n))
    write_json(out / "norms_divergence.json", {
        "p": float(pmap.n),
        "partial_sums": list(partials),
        "core_term": core,
        "total": partials[-1] + core,
    }, cfg)
    print(f"grand norm sup over {len(rep.eps)} eps points: {rep.sup:.9g}")
    return EXIT_OK


def cmd_hausdorff(cfg: RunConfig, out: Path) -> int:
    a = make_scales(cfg)
    uppers = [analysis.upper_sum_at_scale(cfg.gauge, k, a[k])
              for k in cfg.hausdorff.depths if k <= cfg.depth]
    try:
        lower = lower_probe(cfg, a)
    except (ConstructionError, GaugeRangeError) as exc:
        # a pack that does not build, or a reference sum that underflows
        lower = {"skipped": str(exc)}
    write_json(out / "hausdorff.json", {
        # "ratio_to_one" is the total again, kept so hausdorff.json keeps its keys
        "upper_sums": [{**fields(u), "ratio_to_one": u.total} for u in uppers],
        "lower_probe": lower,
        "theorem": cfg.theorem,
    }, cfg)
    if uppers:
        print(f"upper sum at depth {uppers[-1].depth}: {uppers[-1].total:.6g}")
    return EXIT_OK


def lower_probe(cfg: RunConfig, a: Sequence[float]) -> dict:
    """The ``lower_probe`` entry of hausdorff.json: the probes of the
    canonical cover and of the seeded random covers and their least ratio,
    or ``{"skipped": reason}`` where ``probe_level`` passes the depth."""
    h = cfg.hausdorff
    pack = SequencePack.from_standard(cfg.gauge.n, a)
    if h.probe_level > pack.K:
        return {"skipped": f"probe_level {h.probe_level} exceeds depth {pack.K}"}
    if h.probe_depth > h.probe_level:
        raise ConfigError(f"hausdorff probe_depth {h.probe_depth} exceeds probe_level "
                          f"{h.probe_level}: no depth-{h.probe_level} cube fits its balls")
    if h.random_covers and h.probe_depth + analysis.ANCHOR_DEPTH > pack.K:
        raise ConfigError(
            f"hausdorff probe_depth {h.probe_depth} leaves no room for random_covers: "
            f"their anchors lie {analysis.ANCHOR_DEPTH} levels deeper, past depth {pack.K}")
    rng = np.random.default_rng(cfg.seed)
    canonical = analysis.hausdorff_lower_probe(
        cfg.gauge, pack, analysis.canonical_cover(pack, h.probe_depth), h.probe_level)
    randomized = [analysis.hausdorff_lower_probe(
        cfg.gauge, pack, analysis.random_cover(pack, h.probe_depth, rng), h.probe_level)
        for _ in range(h.random_covers)]
    return {
        "canonical": canonical,
        "randomized": randomized,
        "c_probe": min([canonical.ratio] + [r.ratio for r in randomized]),
    }


def cmd_render(cfg: RunConfig, out: Path) -> int:
    if cfg.gauge.n != 2:
        raise ConfigError("render supports n = 2 only")
    pmap = build(make_pack(cfg))
    res = cfg.resolution
    comments = provenance(cfg)
    grid = render.eval_grid(pmap, res)
    render.write_grid_csv(out / "render_grid.csv", grid, comments)
    disp = render.displacement_field(grid)
    render.write_pgm(out / "displacement.pgm", render.grayscale(disp), comments)
    jac = render.jacobian_field(grid)
    render.write_ppm(out / "jacobian.ppm", render.diverging_colors(jac), comments)
    lines = render.grid_distortion(pmap, res)
    render.write_pgm(out / "grid.pgm", lines, comments)
    print(f"rendered {res}x{res} grids to {out}")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors exit 3, as a bad config does;
    ``add_subparsers`` makes its subparsers of this class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


# each subcommand's help text and function; eval also takes the points file
COMMANDS = {
    "sequence": ("emit the scale/coefficient table (CSV + JSON)", cmd_sequence),
    "eval": ("evaluate the map and its inverse on a points file", cmd_eval),
    "verify": ("run the full invariant suite; nonzero exit on failure", cmd_verify),
    "norms": ("grand-norm report and p = n divergence profile", cmd_norms),
    "hausdorff": ("upper cover sums and the lower-bound ball probe", cmd_hausdorff),
    "render": ("PGM/PPM renders and CSV grid (n = 2)", cmd_render),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser, built once: a build costs about 30 parses."""
    parser = _Parser(
        prog="ponomap",
        description="Nested-cube homeomorphisms from gauge functions: "
                    "sequences, evaluation, verification, norms, covers, renders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, _) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=Path, default=None, help="JSON config path")
        p.add_argument("--out", type=Path, default=Path("."), help="output directory")
        p.add_argument("--depth", type=int, default=None, help="truncation depth K")
        p.add_argument("--seed", type=int, default=None, help="RNG seed")
        p.add_argument("--eps-grid", dest="eps_grid", default=None,
                       help="grand-norm grid as lo:hi:count")
        p.add_argument("--resolution", type=int, default=None,
                       help="render resolution (pixels per side)")
        p.add_argument("--theorem", type=int, choices=(1, 2), default=None,
                       help="sequence regime selector")
        if name == "eval":
            p.add_argument("--points", type=Path, required=True,
                           help="CSV/whitespace file of points, one per row")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        out = args.out
        cfg = resolve_config(args)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create {out}: {exc}") from exc
        run = COMMANDS[args.command][1]
        try:
            return run(cfg, out, args.points) if args.command == "eval" else run(cfg, out)
        except OSError as exc:
            # a points file that cannot be opened is a ConfigError already;
            # what is left is an artifact that cannot be written
            raise ConfigError(f"cannot write to {out}: {exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (PonomapError, MemoryError) as exc:
        # a size past the address space (an eps grid, Monte Carlo samples)
        # fails its allocation at once; a MemoryError of Python's own, as a
        # list grows, carries no text
        print(f"numeric error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
