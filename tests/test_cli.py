import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ponomap
from ponomap import SequencePack, canonical_cover, cli, hausdorff_lower_probe, random_cover
from ponomap.analysis import LowerProbeReport, upper_sum_at_scale
from ponomap.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from reference_json import reference_json_data
from tie_points import LOG_TAU, log_pack, tie_heavy_points


@pytest.fixture
def config_path(tmp_path):
    cfg = {
        "gauge": {"n": 2, "tau": {"family": "log", "shift": math.e}},
        "theorem": 1,
        "depth": 10,
        "seed": 7,
        "resolution": 21,
        "eps_grid": "1e-3:1:8",
        "verify": {
            "boundary_points": 100, "face_points": 10, "face_depth": 6,
            "roundtrip_points": 200, "jacobian_points": 200, "fd_points": 30,
            "injectivity_pairs": 300, "mc_samples": 50000, "depth_cap": 6,
        },
        "hausdorff": {"depths": [0, 1, 2, 4], "probe_depth": 2,
                      "probe_level": 4, "random_covers": 2},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def read_rows(path):
    with open(path) as f:
        rows = [r for r in f if not r.startswith("#")]
    return list(csv.DictReader(rows))


def test_sequence_table(config_path, tmp_path):
    out = tmp_path / "seq"
    assert main(["sequence", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    rows = read_rows(out / "sequence.csv")
    assert rows[0]["k"] == "0"
    assert float(rows[0]["a"]) == 1.0 and float(rows[0]["b"]) == 1.0
    assert all(r["check"] == "true" for r in rows)
    assert all(r["alpha"] == "0.5" for r in rows[1:])
    data = json.loads((out / "sequence.json").read_text())
    assert data["seed"] == 7 and len(data["config_digest"]) == 64
    assert data["a"][0] == 1.0

    text = (out / "sequence.csv").read_text()
    assert text.startswith("# config_digest=")


def test_eval_round_trip_columns(config_path, tmp_path):
    import ponomap as pm

    tau = pm.TauSpec(family="log", shift=math.e)
    pack = pm.SequencePack.from_standard(2, pm.finite_measure_sequence(tau, 2, 10))
    word = 0b1001  # +-|-+
    zc = pm.center(word, 2, pack, "domain")
    zt = pm.center(word, 2, pack, "target")

    pts = tmp_path / "pts.csv"
    pts.write_text(
        f"1.0,0.25\n0.0,0.0\n-0.6,0.33\n{zc[0]!r},{zc[1]!r}\n2.0,0.0\n")
    out = tmp_path / "ev"
    assert main(["eval", "--config", str(config_path), "--out", str(out),
                 "--points", str(pts)]) == EXIT_OK
    rows = read_rows(out / "eval.csv")
    assert len(rows) == 5
    # boundary row: f(x) = x
    assert float(rows[0]["y1"]) == 1.0
    assert abs(float(rows[0]["y2"]) - 0.25) <= 1e-14
    # origin fixed
    assert float(rows[1]["y1"]) == 0.0 and float(rows[1]["y2"]) == 0.0
    # round-trip column close to the input
    assert abs(float(rows[2]["back1"]) + 0.6) <= 1e-12
    # center row maps to the target center
    assert abs(float(rows[3]["y1"]) - zt[0]) <= 1e-14
    assert abs(float(rows[3]["y2"]) - zt[1]) <= 1e-14
    # out-of-domain row reported, run continued
    assert rows[4]["region"].startswith("error:")


def test_verify_pass_and_exit_code(config_path, tmp_path, capsys):
    out = tmp_path / "v"
    assert main(["verify", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "verify.json").read_text())
    assert report["passed"] is True
    assert report["seed"] == 7
    printed = capsys.readouterr().out
    assert "verify: pass" in printed


def test_norms_schema(config_path, tmp_path):
    out = tmp_path / "n"
    assert main(["norms", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    data = json.loads((out / "norms.json").read_text())
    assert set(data) == {"eps", "values", "bounds", "sup", "convention", "depth",
                         "config_digest", "seed"}
    assert data["convention"] == "max_partials"
    assert len(data["eps"]) == 8
    assert all(v <= b for v, b in zip(data["values"], data["bounds"]))
    div = json.loads((out / "norms_divergence.json").read_text())
    assert div["p"] == 2.0
    assert div["partial_sums"] == sorted(div["partial_sums"])


def test_hausdorff_report(config_path, tmp_path):
    out = tmp_path / "h"
    assert main(["hausdorff", "--config", str(config_path), "--out", str(out)]) == EXIT_OK
    data = json.loads((out / "hausdorff.json").read_text())
    assert {r["depth"] for r in data["upper_sums"]} == {0, 1, 2, 4}
    assert all(r["ratio_to_one"] == r["total"] for r in data["upper_sums"])
    probe = data["lower_probe"]
    assert probe["c_probe"] > 0.0
    assert probe["canonical"]["max_intersecting"] <= 16


def test_render_deterministic(config_path, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["render", "--config", str(config_path),
                     "--out", str(out)]) == EXIT_OK
    for name in ("displacement.pgm", "jacobian.ppm", "grid.pgm", "render_grid.csv"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, name
    header = (out1 / "displacement.pgm").read_bytes()[:200]
    assert b"config_digest=" in header and b"seed=" in header


# SHA-256 of the artifacts for the ``config_path`` fixture; any change to
# output bytes must show up here and be re-recorded on purpose
GOLDEN_SHA256 = {
    "sequence.csv": "6619312c50a4ab11b702934da3cbbd559d9232f3311d583c14acf5571adf77ba",
    "sequence.json": "4dec2c8188f3dd0b8abb868a8bcf43bb5d83bdbeb75f0dd2b57190c2cc1e5d2d",
    "eval.csv": "74e14be89901e1901856533c168aaa06dc0c37ef506344fd64d7728d6d0b6ff5",
    "render_grid.csv": "fc03a0368c3476c98a26a36bee4f32c2dff348cac2469c46528a709423098bab",
    "displacement.pgm": "b6fa46cfcc2b5c75127b866937c6b5363acaf6bed411f922986cd2303be0a077",
    "jacobian.ppm": "70302e29e54e7ed3b711dd5220fd25b0ac7a77ec3c1a951abc3b749bf3b8073d",
    "grid.pgm": "5865f815554789fdff8a8fe03f0e13b502f7337e0ca2824b89988fb343efdb9b",
    "verify.json": "90eb55d949b41dc968c45562a7b2695a9004b022df2894ba490a9580a97cff3a",
    "norms.json": "e344efb3cc7e9574902e6e92210296814abde6818e9300ef8ea0eb224b41446b",
    "norms_divergence.json": "613be4f88e99b873cccf3f8ee168df44549d842f33330e1519ab6f89c93b4662",
    "hausdorff.json": "4b6e113429044fd6322463c653f6f5673550db170a85cdf344bdbcde15b0be39",
}


def test_golden_bytes(config_path, tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("1.0,0.25\n0.0,0.0\n-0.6,0.33\n0.5,0.0\n-0.5,-0.5\n"
                   "0.123,-0.987\n2.0,0.0\nfoo\n")
    out = tmp_path / "golden"
    for command in ("sequence", "eval", "verify", "norms", "hausdorff", "render"):
        argv = [command, "--config", str(config_path), "--out", str(out)]
        if command == "eval":
            argv += ["--points", str(pts)]
        assert main(argv) == EXIT_OK
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in GOLDEN_SHA256}
    assert got == GOLDEN_SHA256


# SHA-256 of eval and render artifacts at the K = 40 log gauge on points
# tied on shared faces at depths 1-12, cell centres and core points, where
# the descent's ``> 0.0`` tie rule and the ridge set decide the output
TIE_GOLDEN_SHA256 = {
    "eval.csv": "df0fa82e65dbe3a76ee9407edeea4b24170bb31eac4241dd69374fe132deae48",
    "render_grid.csv": "b734f1d8260152e6058b6c0ef808fee9006ec0d3a43b1371542a8e0adcb2e85b",
    "jacobian.ppm": "8e133143fea6436cdb251741198263b2553a034c40006aebb21b19a1fd61e338",
    "displacement.pgm": "03d0dd9d5c9d3328344650deab829b5d5db2b6b495ac5c57f64fc2ed76b93624",
    "grid.pgm": "de3a7c22bff16c8599bc39f2a7bec82368e1db538c2ca2659e0482bdfc4205f3",
}


def test_golden_bytes_tie_heavy(tmp_path):
    cfg = tmp_path / "deep.json"
    cfg.write_text(json.dumps({"gauge": {"n": 2, "tau": LOG_TAU}, "theorem": 1,
                               "depth": 40, "seed": 3, "resolution": 33}))
    pts = tmp_path / "pts.csv"
    pts.write_text("".join(",".join(repr(c) for c in p) + "\n"
                           for p in tie_heavy_points(3, 40, log_pack(2, 40))))
    out = tmp_path / "golden"
    for command in ("eval", "render"):
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "eval":
            argv += ["--points", str(pts)]
        assert main(argv) == EXIT_OK
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in TIE_GOLDEN_SHA256}
    assert got == TIE_GOLDEN_SHA256


# SHA-256 of the norm reports, recorded from the per-depth quadrature loop
# that the Gauss-Kronrod block path replaced: the theorem-2 exp_inverse
# pack, whose depth-1 annulus needs subdivision, and the log pack at n = 3
NORMS_GOLDEN_CONFIGS = {
    "exp_inverse": {"gauge": {"n": 2, "raw": {"family": "exp_inverse", "scale": 1.0}},
                    "theorem": 2, "depth": 40, "seed": 3, "eps_grid": "1e-6:1:32"},
    "log_n3": {"gauge": {"n": 3, "tau": LOG_TAU}, "theorem": 1, "depth": 40, "seed": 3,
               "eps_grid": "1e-6:2:32"},
}
NORMS_GOLDEN_SHA256 = {
    "exp_inverse/norms.json":
        "9b05518f1ff8b28ebd08027a2663c18259a3bd4e8bad65a5f214dfb0080b2f0f",
    "exp_inverse/norms_divergence.json":
        "4b4dab71c71b69783a5e9903829ee6e1c3f404e75972248c404893d702a6be62",
    "log_n3/norms.json":
        "055b613475aa401a8f6af75363240f274c81fc2ced86bdf299854d59f8138829",
    "log_n3/norms_divergence.json":
        "bca7163c49883825e00c06c2125d8f670ecc375353010875bb75174b33d01a61",
}


def test_golden_bytes_norms(tmp_path):
    for name, cfg in NORMS_GOLDEN_CONFIGS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert main(["norms", "--config", str(path), "--out", str(tmp_path / name)]) == EXIT_OK
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in NORMS_GOLDEN_SHA256}
    assert got == NORMS_GOLDEN_SHA256


# SHA-256 of verify.json at n = 3 and n = 4 and of hausdorff.json at n = 3,
# recorded from the per-word tuple enumeration that integer words replaced:
# they pin the word order of n >= 3 into bytes
WORDS_GOLDEN_CONFIGS = {"n3": (3, 10), "n4": (4, 8)}
WORDS_GOLDEN_SHA256 = {
    "n3/verify.json": "3fab4c416c6564acd34611acc9b102ef384c9a871b3307fc38259c517bdc3c83",
    "n3/hausdorff.json": "f16cf99f8358766477da46d3cd17e11703ccf57fa8d362ef9cfd42873322df10",
    "n4/verify.json": "a309ff6b39441f674861bc43f57d6d0f7d79f4fbb9523430f6ce5b4d5b0db870",
}


def test_golden_bytes_words(config_path, tmp_path):
    base = json.loads(config_path.read_text())
    for name in WORDS_GOLDEN_SHA256:
        dims, artifact = name.split("/")
        n, depth = WORDS_GOLDEN_CONFIGS[dims]
        path = tmp_path / f"{dims}.json"
        path.write_text(json.dumps({**base, "gauge": {**base["gauge"], "n": n}, "depth": depth}))
        command = artifact.removesuffix(".json")
        assert main([command, "--config", str(path), "--out", str(tmp_path / dims)]) == EXIT_OK
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in WORDS_GOLDEN_SHA256}
    assert got == WORDS_GOLDEN_SHA256


# rows that each fail differently: non-finite and overflowing coordinates,
# wrong counts, text, points just outside the cube, a comment and a blank
# line, between valid rows with signed zeros, corners and subnormals
ERROR_HEAVY_2D = ("nan,0.5\n0.5,nan\ninf,0\n-inf,0.25\n1e400,0.1\n0.5\n0.1,0.2,0.3\n"
                  "foo,bar\n1.0000000000000002,0\n2.0,-2.0\n# a comment\n\n"
                  "-0.0,-0.0\n-0.0,0.5\n0.25 -0.75\n-1,-1\n1,1\n1e-320,-1e-320\n")
ONLY_ERROR_ROWS_2D = "nan,nan\nfoo\n1,2,3\n2.0,0\n# nothing valid\n"

# SHA-256 of eval.csv, recorded from the per-row scalar loop (locate, eval,
# eval_inverse of each row) that the block path replaced; the gauge section
# takes n >= 2 only, so n = 1 is covered by the batch tests of the library
EVAL_GOLDEN_SHA256 = {
    "n2": "7bd1420831e5c5ae4a04107dfbd6bf82e4a6b5be55d728e96960ca873397fca6",
    "n3": "d34041c1ed6cbcc9e9ce92c74fd230804d7a486a2063e00670ec56856390337b",
    "error_heavy_n2": "a12452a772307d0778d25048d559e800970cc4efa46615cb1a77bbf8eb9a06da",
    "only_errors_n2": "65ea9fe46e0372a15b7ea28f555ad792e8bb9c18cdba794ae790c019220860d0",
}


def eval_csv_bytes(tmp_path, n: int, text: str) -> bytes:
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / f"eval{n}.json"
    cfg.write_text(json.dumps({"gauge": {"n": n, "tau": LOG_TAU}, "theorem": 1,
                               "depth": 40, "seed": 3}))
    pts = tmp_path / "pts.csv"
    pts.write_text(text)
    out = tmp_path / "ev"
    assert main(["eval", "--config", str(cfg), "--out", str(out),
                 "--points", str(pts)]) == EXIT_OK
    return (out / "eval.csv").read_bytes()


def points_text(pts) -> str:
    return "".join(",".join(repr(c) for c in p) + "\n" for p in pts)


def eval_golden_inputs() -> dict[str, tuple[int, str]]:
    def mixed(n):
        lines = points_text(tie_heavy_points(5, 20, log_pack(n, 40))).splitlines(True)
        # an out-of-cube row, a wrong count and text amid the valid rows
        bad = [",".join(["1.5"] * n) + "\n", "0.1," * n + "0.1\n", "x\n"]
        for i, row in enumerate(bad):
            lines.insert(7 * (i + 1), row)
        return "".join(lines)

    valid_2d = points_text(tie_heavy_points(5, 6, log_pack(2, 40)))
    return {
        "n2": (2, mixed(2)),
        "n3": (3, mixed(3)),
        "error_heavy_n2": (2, ERROR_HEAVY_2D + valid_2d + ERROR_HEAVY_2D),
        "only_errors_n2": (2, ONLY_ERROR_ROWS_2D),
    }


def test_eval_golden_bytes(tmp_path):
    got = {}
    for name, (n, text) in eval_golden_inputs().items():
        got[name] = hashlib.sha256(eval_csv_bytes(tmp_path / name, n, text)).hexdigest()
    assert got == EVAL_GOLDEN_SHA256


def per_row_eval_rows(path, n: int) -> str:
    """eval.csv below its header as the per-row loop writes it: locate, eval
    and eval_inverse of each row, the error text of whichever raises."""
    pmap = ponomap.build(log_pack(n, 40))
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    with open(path) as f:
        rows = list(cli.read_points(f, n))
    for row in rows:
        if isinstance(row, str):
            writer.writerow([""] * (3 * n) + ["", f"error: {row}"])
            continue
        try:
            loc = pmap.locate(row)
            y = pmap.eval(row, loc)
            back = pmap.eval_inverse(y)
        except ponomap.PonomapError as exc:
            writer.writerow([repr(v) for v in row] + [""] * (2 * n) + ["", f"error: {exc}"])
            continue
        writer.writerow([repr(v) for v in row] + [repr(v) for v in y]
                        + [repr(v) for v in back] + [loc.depth, loc.region])
    return buf.getvalue()


def eval_rows_of(data: bytes) -> str:
    text = data.decode()
    return text[text.index("\nx1,") + 1:].split("\n", 1)[1]


@pytest.mark.parametrize("block", [None, 4])
def test_eval_blocks_match_per_row_loop(tmp_path, monkeypatch, block):
    # error rows on both sides of every block edge, and (block 4) a block
    # of rows that are no points and a block of points outside the cube,
    # so that a block has nothing to descend
    if block is not None:
        monkeypatch.setattr(cli, "_EVAL_BLOCK", block)
    size = cli._EVAL_BLOCK
    rng = random.Random(11)
    lines = [f"{rng.uniform(-1.0, 1.0)!r},{rng.uniform(-1.0, 1.0)!r}\n"
             for _ in range(size + 40)]
    bad = ["nan,0.5\n", "foo\n", "1.5,0\n", "0.5\n", "-1e400,0\n"]
    for i in range(size - 2, size + 2):
        lines[i] = bad[i % len(bad)]
    lines[-1] = bad[-1]
    if block is not None:
        lines[8:12] = ["foo\n", "0.5\n", "1,2,3\n", "x,y\n"]
        lines[12:16] = ["nan,0.5\n", "1.5,0\n", "-1e400,0\n", "0,2\n"]
        lines[20:24] = ["# comment\n", "\n"] + bad[1:3]
    # rows that are no points and whose quoted text holds the delimiter and
    # both quote characters, so the error field needs CSV quoting
    lines[30:33] = ['"0.1","0.2"\n', "it's,0\n", "a\"b'c,1\n"]
    text = "".join(lines)
    got = eval_csv_bytes(tmp_path, 2, text)
    assert eval_rows_of(got) == per_row_eval_rows(tmp_path / "pts.csv", 2)


def signed_boundary_coord(rng: random.Random) -> float:
    """A face value +-1.0 with probability 0.25, a signed zero with
    probability 0.10, else uniform in (-1, 1)."""
    k = rng.random()
    if k < 0.25:
        return rng.choice((-1.0, 1.0))
    if k < 0.35:
        return rng.choice((-0.0, 0.0))
    return rng.uniform(-1.0, 1.0)


@pytest.mark.parametrize("n", [2, 3])
def test_eval_reuses_x_text_only_for_equal_bits(tmp_path, monkeypatch, n):
    # boundary rows, where y and back equal x bit for bit and reuse its
    # text, and signed zeros, where a y or back of 0.0 equals an x of -0.0
    # by == but not by bits and needs its own text; blocks of 64 rows
    monkeypatch.setattr(cli, "_EVAL_BLOCK", 64)
    rng = random.Random(5)
    text = "".join(",".join(repr(signed_boundary_coord(rng)) for _ in range(n)) + "\n"
                   for _ in range(300))
    got = eval_rows_of(eval_csv_bytes(tmp_path, n, text))
    assert got == per_row_eval_rows(tmp_path / "pts.csv", n)
    rows = list(csv.reader(io.StringIO(got)))
    # both cases occur for y and for back
    for side in (1, 2):
        pairs = [(row[j], row[side * n + j]) for row in rows for j in range(n)]
        assert ("-0.0", "0.0") in pairs
        assert sum(a == b and abs(float(a)) == 1.0 for a, b in pairs) > 50


def test_read_points_splits_lines_as_splitlines(tmp_path):
    # the file is read one line at a time, and each line is split again
    # where str.splitlines of the whole text splits it
    path = tmp_path / "pts.csv"
    path.write_bytes("0.1,0.2\r\n0.3,0.4\r0.5\x0c0.6,0.7\x0b-0.1,0.2\x1c0.2,0.3\x85 0.3,0.3"
                     "\u20280.4,0.4\n\n  # c\n1,2,3\r\r\nfoo\n\t0.25 0.5 \n0.1,0.1".encode())
    lines = [line.strip() for line in path.read_text().splitlines()]
    expect = [cli._parse_point(line, 2) for line in lines
              if line and not line.startswith("#")]
    with open(path) as f:
        assert list(cli.read_points(f, 2)) == expect
    assert len(expect) == 12


def reference_parse_point(line: str, n: int) -> tuple[float, ...] | str:
    """``cli._parse_point`` as the per-element form first wrote it."""
    parts = [p for p in line.replace(",", " ").split() if p]
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError:
        return f"unparsable row: {line!r}"
    if len(vals) != n:
        return f"expected {n} coordinates: {line!r}"
    return vals


# pieces of a points line: numbers in the forms float() takes or refuses,
# with digit separators, non-finite words, signs and a non-ASCII digit,
# amid commas, runs of ASCII and non-ASCII whitespace and stray text
PARSE_PIECES = st.sampled_from([
    "0.5", "-0.0", "1e400", "1e-320", "+.25", "1_000", "1__0", "_1", "1_", "0x1",
    "inf", "-Infinity", "nan", "-NaN", "nan(1)", ",", ",,", " ", "  ", "\t",
    "\u00a0", "\u2003", "\u3000", "\x1c", "\u0660", "e", "'", '"'])


@settings(deadline=None, max_examples=150)
@given(pieces=st.lists(PARSE_PIECES | st.text(max_size=2), max_size=8),
       n=st.integers(1, 3))
def test_parse_point_matches_reference(pieces, n):
    line = "".join(pieces)
    assert repr(cli._parse_point(line, n)) == repr(reference_parse_point(line, n))


def test_eval_image_outside_cube_writes_error_row(tmp_path, monkeypatch):
    # a point whose batch image leaves the cube gets an error row that
    # names the image; every other row is the per-row loop's
    batch = ponomap.PonomarevMap.eval_batch

    def pushed_out(self, x, located=None):
        y = batch(self, x, located)
        y[::3] = (1.5, -0.0)
        return y

    monkeypatch.setattr(ponomap.PonomarevMap, "eval_batch", pushed_out)
    pts = tie_heavy_points(7, 4, log_pack(2, 40))
    got = eval_csv_bytes(tmp_path, 2, points_text(pts) + "nan,0\n")
    rows = list(csv.reader(io.StringIO(eval_rows_of(got))))
    expect = list(csv.reader(io.StringIO(per_row_eval_rows(tmp_path / "pts.csv", 2))))
    assert len(rows) == len(expect) == len(pts) + 1
    for i, x in enumerate(pts[::3]):
        assert rows[3 * i] == [repr(x[0]), repr(x[1]), "", "", "", "", "",
                               "error: point (1.5, -0.0) outside [-1,1]^2"]
        expect[3 * i] = rows[3 * i]
    assert rows == expect
    assert rows[-1][-1] == "error: point (nan, 0.0) outside [-1,1]^2"



def test_eval_accepts_a_byte_order_mark(tmp_path):
    # a file saved with a UTF-8 byte-order mark: the mark is not part of
    # the first row
    text = "0.5,0.25\n-0.125,1.0\n"
    plain = eval_csv_bytes(tmp_path / "plain", 2, text)
    assert eval_csv_bytes(tmp_path / "bom", 2, "\ufeff" + text) == plain
    assert b"error" not in plain


@pytest.mark.parametrize("kind", ["missing", "not_utf8", "bom_not_utf8"])
def test_eval_unreadable_points_file_exits_3(config_path, tmp_path, capsys, kind):
    # the undecodable byte sits past the first block of rows, which the
    # streaming reader has already written when it meets the byte
    points = tmp_path / "pts.csv"
    if kind != "missing":
        bom = b"\xef\xbb\xbf" if kind == "bom_not_utf8" else b""
        points.write_bytes(bom + b"0.25,-0.5\n" * (cli._EVAL_BLOCK + 10) + b"0.1,\xff0.2\n")
    out = tmp_path / "out"
    assert main(["eval", "--config", str(config_path), "--out", str(out),
                 "--points", str(points)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read points {points}: ")
    assert "Traceback" not in err
    assert not (out / "eval.csv").exists()

def test_verify_deterministic_bytes(config_path, tmp_path):
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    for out in (out1, out2):
        assert main(["verify", "--config", str(config_path),
                     "--out", str(out)]) == EXIT_OK
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()


def test_verify_passes_past_one_ulp_truncation(config_path, tmp_path):
    # at depth 60 twice the truncation error is about 2.8e-18, far below the
    # one-ulp round-trip error of a core point; the bound stays at 8 ulps
    out = tmp_path / "v60"
    assert main(["verify", "--config", str(config_path), "--depth", "60",
                 "--out", str(out)]) == EXIT_OK
    core = next(c for c in json.loads((out / "verify.json").read_text())["checks"]
                if c["name"] == "map.inverse_roundtrip_core")
    assert core["passed"] and core["bound"] == 8.0 * math.ulp(1.0)
    assert core["observed"] > 0.0


@pytest.mark.parametrize("grid, message", [
    ("1e-6:1:0", "eps grid '1e-6:1:0' has count 0; need at least 1"),
    ("1:1e-6:5", "eps grid '1:1e-6:5' has lo 1.0 above hi 1e-06"),
    ("1e-6:2:5", "eps grid '1e-6:2:5' outside (0, 1] at n = 2"),
    ("0:1:5", "eps grid '0:1:5' outside (0, 1] at n = 2"),
])
def test_eps_grid_errors_say_what_is_wrong(tmp_path, capsys, grid, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"eps_grid": grid}))
    assert main(["norms", "--config", str(path), "--out", str(tmp_path)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


# a config that breaks a rule of its scales, and the rule's text
SCALE_RULES = [
    ({"gauge": {"n": 2, "raw": {"family": "power", "alpha": 2.0}}, "theorem": 1},
     "theorem 1 requires a tau-form gauge"),
    ({"theorem": "custom", "depth": 3, "sequence": {"kind": "harmonic", "values": [1.0, 0.5]}},
     "sequence values must have length depth+1"),
]


@pytest.mark.parametrize("cfg, rule", SCALE_RULES)
def test_scale_rules_are_checked_when_the_config_is_read(cfg, rule, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    args = cli.build_parser().parse_args(["sequence", "--config", str(path)])
    with pytest.raises(cli.ConfigError, match=re.escape(rule)):
        cli.resolve_config(args)


def test_config_errors(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["sequence", "--config", str(missing),
                 "--out", str(tmp_path)]) == EXIT_CONFIG
    cases = [
        ("sequence", {"theorem": 3}),
        ("sequence", {"bogus": 1}),
        ("norms", {"eps_grid": "0:2:4"}),
        ("verify", {"verify": {"nope": 1}}),
        ("sequence", {"safety": "abc"}),
        ("sequence", {"theorem": "custom",
                      "sequence": {"kind": "geometric", "ratio": 2}}),
        ("hausdorff", {"hausdorff": {"probe_level": "x"}}),
        ("sequence", {"eps_grid": 5}),
        ("hausdorff", {"hausdorff": {"probe_lvl": 2}}),
        ("hausdorff", {"hausdorff": {"random_covers": -1}}),
        ("hausdorff", {"hausdorff": {"depths": [-1, 2]}}),
        ("hausdorff", {"hausdorff": {"probe_level": 0}}),
        ("hausdorff", {"hausdorff": {"probe_depth": 0}}),
        ("verify", {"verify": {"mc_samples": -5}}),
        ("verify", {"verify": {"face_depth": 0}}),
    ]
    for i, (command, cfg) in enumerate(cases):
        path = tmp_path / f"bad{i}.json"
        path.write_text(json.dumps(cfg))
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path)]) == EXIT_CONFIG, cfg
    # the error names the offending key
    named = [
        ("sequence", {"theorem": "custom",
                      "sequence": {"kind": "harmonic", "bogus": 1}}, "bogus"),
        # theorems 1 and 2 use no key of the block but still check them
        ("sequence", {"theorem": 1, "sequence": {"bogus": 1}}, "bogus"),
        ("sequence", {"theorem": 2, "sequence": {"kind": "harmonic", "bogus": 1}},
         "bogus"),
        # random covers anchor 3 levels below probe_depth: 3 + 3 > 5
        ("hausdorff", {"depth": 5}, "probe_depth"),
        # a depth-4 ball cannot hold a depth-3 cube
        ("hausdorff", {"hausdorff": {"probe_depth": 4, "probe_level": 3}}, "probe_depth"),
        # a missing or wrong-typed gauge value is a config error, not a traceback
        ("sequence", {"gauge": {"n": 2, "tau": {"family": "composed"}}}, "factors"),
        ("sequence", {"gauge": {"n": 2, "tau": {"family": "composed", "factors": 5}}},
         "factors"),
        ("sequence", {"gauge": {"n": 2, "tau": {"family": "log", "shift": None}}}, "shift"),
        ("sequence", {"gauge": {"n": 2, "raw": {"family": "power", "alpha": [1]}},
                      "theorem": 2}, "alpha"),
        # integer keys take JSON integers only, and true/false is not one
        ("sequence", {"depth": True}, "depth"),
        ("sequence", {"seed": True}, "seed"),
        ("verify", {"verify": {"mc_samples": 2.7}}, "mc_samples"),
        # the disjointness check lists 2^depth_cap centres
        ("verify", {"verify": {"depth_cap": 21}}, "depth_cap"),
        ("hausdorff", {"hausdorff": {"probe_level": 4.9}}, "probe_level"),
        ("sequence", {"gauge": {"n": 2, "tau": {"family": "iterated_log",
                                                "iterations": 2.5}}}, "iterations"),
        # Python's json reads NaN, and a NaN shift would give a_k = 1 at every k
        ("sequence", {"gauge": {"n": 2, "tau": {"family": "log", "shift": math.nan}}},
         "shift"),
        # every section is checked under every command
        ("sequence", {"verify": {"nope": 1}}, "nope"),
        ("sequence", {"theorem": 1, "sequence": {"kind": "bogus"}}, "kind"),
        # the top-level keys are read by the same rule as the sections
        ("sequence", {"theorem": 3}, "theorem"),
        ("sequence", {"theorem": "Custom"}, "theorem"),
        ("sequence", {"theorem": 1.0}, "theorem"),
        ("sequence", {"depth": 0}, "depth"),
        ("sequence", {"resolution": 1}, "resolution"),
        ("sequence", {"safety": 1}, "safety"),
        ("sequence", {"eps_grid": 5}, "eps_grid"),
        ("sequence", {"hausdorff": []}, "hausdorff"),
        ("sequence", {"bogus_key": 1}, "bogus_key"),
        # the rules of the scales are read with the config, under every command
        *[(command, cfg, rule) for command in cli.COMMANDS for cfg, rule in SCALE_RULES],
    ]
    capsys.readouterr()
    for i, (command, cfg, key) in enumerate(named):
        path = tmp_path / f"named{i}.json"
        path.write_text(json.dumps(cfg))
        points = ["--points", str(missing)] if command == "eval" else []
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path), *points]) == EXIT_CONFIG, cfg
        assert key in capsys.readouterr().err, cfg
    # a theorem-1 config whose sequence block has only known keys still runs
    path = tmp_path / "ok_sequence.json"
    path.write_text(json.dumps({"theorem": 1, "sequence": {"kind": "geometric",
                                                           "ratio": 0.5}}))
    assert main(["sequence", "--config", str(path),
                 "--out", str(tmp_path / "ok_sequence")]) == EXIT_OK
    # the same geometry is fine where the probe does not run or has no
    # random covers
    for i, cfg in enumerate([{"depth": 5, "hausdorff": {"random_covers": 0}},
                             {"depth": 4},
                             {"hausdorff": {"probe_depth": 6, "probe_level": 5},
                              "depth": 4}]):
        out = tmp_path / f"ok{i}"
        path = tmp_path / f"ok{i}.json"
        path.write_text(json.dumps(cfg))
        assert main(["hausdorff", "--config", str(path), "--out", str(out)]) == EXIT_OK, cfg


def run_python(*args):
    """A fresh interpreter that imports this checkout's ponomap."""
    src = str(Path(ponomap.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def hausdorff_peak_kib(tmp_path, config: dict) -> int:
    """The peak resident set, in KiB, of a fresh ``hausdorff`` run of
    ``config``.  The child reads its own peak, VmHWM: its ru_maxrss would
    start at this test process's peak, which a vfork-and-exec child
    inherits (over 300 MiB once Hypothesis has built its Unicode tables)."""
    cfg = tmp_path / "probe.json"
    cfg.write_text(json.dumps(config))
    proc = run_python("-c", "import sys; from ponomap.cli import main; "
                      "code = main(sys.argv[1:]); "
                      "print(*[line.split()[1] for line in open('/proc/self/status') "
                      "if line.startswith('VmHWM:')]); sys.exit(code)",
                      "hausdorff", "--config", str(cfg), "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.split()[-1])


def test_hausdorff_probe_memory_is_bounded(tmp_path):
    # each depth of this n = 6 probe expands a group's pairs 2^6-fold; with
    # no bound its 64 balls held about 2.4 GB at level 3, and in groups
    # under the pair budget the run holds about 110 MiB
    assert hausdorff_peak_kib(tmp_path, {
        "gauge": {"n": 6, "tau": LOG_TAU}, "theorem": 1,
        "depth": 11, "hausdorff": {"depths": [0, 1], "probe_depth": 1, "probe_level": 3,
                                   "random_covers": 1}}) < 200 * 1024


def test_hausdorff_report_memory_is_bounded(tmp_path):
    # 2^17 balls (2^16 canonical, 2^16 random) and a 36 MB hausdorff.json:
    # the streamed report peaks at about 50 MiB, where per-ball dicts and
    # json.dumps's text of the whole file peaked at 295-313 MiB
    assert hausdorff_peak_kib(tmp_path, {
        "gauge": {"n": 2, "tau": LOG_TAU}, "theorem": 1,
        "depth": 20, "hausdorff": {"depths": [0, 1, 2, 4, 8], "probe_depth": 8,
                                   "probe_level": 10, "random_covers": 1}}) < 120 * 1024


def readme_example() -> dict:
    """The JSON block under "Example config:" in README.md."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(re.search(r"Example config:\n\n```json\n(.*?)```", text, re.S).group(1))


def test_readme_example_config_runs_every_command(tmp_path, capsys):
    # the README's example config (iterated_log gauge, depth 16) builds its
    # map and passes every command; at --depth 40 its seed-7 Monte Carlo
    # shell check reads |z| = 3.41 and verify exits 2, a false alarm
    cfg = tmp_path / "example.json"
    cfg.write_text(json.dumps(readme_example()))
    pts = tmp_path / "pts.csv"
    pts.write_text("0.5,0.25\n-0.75,0\n")
    for command in cli.COMMANDS:
        extra = ["--points", str(pts)] if command == "eval" else []
        out = tmp_path / command
        assert main([command, *extra, "--config", str(cfg), "--out", str(out)]) == EXIT_OK, command
        if command == "verify":
            assert "verify: pass (32/32 checks)" in capsys.readouterr().out
    rows = read_rows(tmp_path / "eval" / "eval.csv")
    assert len(rows) == 2 and not any(row["region"].startswith("error:") for row in rows)


def test_import_leaves_scipy_unloaded():
    # scipy is imported by the shell quadrature alone, on its first use
    proc = run_python("-c", "import sys, ponomap.cli; sys.exit('scipy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr


# a_1 = 5e-324 is positive, but the half-edge r_1 = 2^-1 a_1 rounds to 0
UNDERFLOW = {"theorem": "custom", "depth": 1,
             "sequence": {"kind": "harmonic", "values": [1.0, 5e-324]}}


def test_numeric_error_exit(tmp_path):
    points = tmp_path / "pts.csv"
    points.write_text("0.1,0.2\n")
    cases = [
        # a steep raw gauge cannot form a map pack at depth 40: the target
        # scales collapse to exactly 1/2 in binary64
        ("norms", {"gauge": {"n": 2, "raw": {"family": "power", "alpha": 1.0}},
                   "theorem": 2, "depth": 40}),
        # 2^(2*515) depth-515 cubes: the cover sum's count passes the largest float
        ("hausdorff", {"theorem": 1, "depth": 520,
                       "hausdorff": {"depths": [0, 515], "random_covers": 0}}),
        # every command that builds the pack refuses its zero half-edge
        *[(command, UNDERFLOW) for command in ("eval", "verify", "norms", "render")],
    ]
    for i, (command, cfg) in enumerate(cases):
        path = tmp_path / f"deep{i}.json"
        path.write_text(json.dumps(cfg))
        extra = ["--points", str(points)] if command == "eval" else []
        assert main([command, "--config", str(path),
                     "--out", str(tmp_path), *extra]) == EXIT_NUMERIC, cfg
    # the sequence table is written for scales that form no pack
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(UNDERFLOW))
    assert main(["sequence", "--config", str(path), "--out", str(tmp_path)]) == EXIT_OK


@pytest.mark.parametrize("stage", ["config", "command"])
def test_allocation_past_the_address_space_exits_4(config_path, tmp_path, capsys, stage):
    # both arrays pass the 128 TiB user address space, so numpy's allocation
    # fails at once and touches no memory: 10^17 eps values while the config
    # is resolved, and 10^15 Monte Carlo points in verify's shell check
    if stage == "config":
        argv = ["norms", "--eps-grid", "1e-4:1:100000000000000000"]
    else:
        base = json.loads(config_path.read_text())
        path = tmp_path / "mc.json"
        path.write_text(json.dumps({**base, "verify": {**base["verify"],
                                                       "mc_samples": 10 ** 15}}))
        argv = ["verify", "--config", str(path)]
    assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: Unable to allocate ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_norms_past_binary64_annulus_count_exits_4(tmp_path):
    # the depth-512 annuli number 2^(2*512), past the largest float; the
    # count is refused before any shell is integrated
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"gauge": {"n": 2, "tau": LOG_TAU}, "theorem": 1,
                                "depth": 520, "eps_grid": "1e-3:1:2"}))
    proc = run_python("-m", "ponomap.cli", "norms", "--config", str(path),
                      "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_NUMERIC
    assert "Traceback" not in proc.stderr
    assert "annulus count 2^(2*512) overflows binary64 at depth 512" in proc.stderr


def test_verify_n5_exits_4_at_the_word_cap(config_path, tmp_path):
    # the coding check would enumerate 2^25 depth-5 words
    base = json.loads(config_path.read_text())
    path = tmp_path / "n5.json"
    path.write_text(json.dumps({**base, "gauge": {**base["gauge"], "n": 5}, "depth": 6}))
    proc = run_python("-m", "ponomap.cli", "verify", "--config", str(path),
                      "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_NUMERIC
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ("numeric error: 33554432 depth-5 words exceed the "
                           "enumeration cap 1048576\n")


def test_hausdorff_probe_past_the_cap_exits_4(tmp_path):
    # the probe would keep one flag for each of the 2^80 depth-40 cubes
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({"gauge": {"n": 2, "tau": LOG_TAU}, "theorem": 1, "depth": 40,
                                "hausdorff": {"probe_level": 40, "random_covers": 0}}))
    proc = run_python("-m", "ponomap.cli", "hausdorff", "--config", str(path),
                      "--out", str(tmp_path / "out"))
    assert proc.returncode == EXIT_NUMERIC
    assert "Traceback" not in proc.stderr
    assert proc.stderr == ("numeric error: 1208925819614629174706176 depth-40 cubes exceed "
                           "the probe cap 1048576\n")


@pytest.mark.parametrize("command, artifact", [
    ("sequence", "sequence.csv"), ("eval", "eval.csv"), ("verify", "verify.json"),
    ("norms", "norms.json"), ("hausdorff", "hausdorff.json"), ("render", "render_grid.csv"),
])
def test_artifact_that_cannot_be_written_exits_3(command, artifact, config_path, tmp_path,
                                                 capsys):
    # a directory where the command writes its first file
    out = tmp_path / "out"
    (out / artifact).mkdir(parents=True)
    points = tmp_path / "pts.csv"
    points.write_text("0.1,0.2\n")
    extra = ["--points", str(points)] if command == "eval" else []
    assert main([command, "--config", str(config_path), "--out", str(out),
                 *extra]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write to {out}: ")
    assert "Is a directory" in err and err.count("\n") == 1 and "Traceback" not in err


# exp(-500/t) at the diameter of the level-2 cubes of its theorem-2 pack
# underflows to 0, so the probe's ratio to that reference sum has no value
STEEP_HAUSDORFF = {"gauge": {"n": 2, "raw": {"family": "exp_inverse", "scale": 500.0}},
                   "theorem": 2, "depth": 12,
                   "hausdorff": {"depths": [0, 1, 2], "probe_depth": 1, "probe_level": 2,
                                 "random_covers": 1}}


@pytest.mark.parametrize("cfg, depths, reason", [
    (STEEP_HAUSDORFF, [0, 1, 2], "upper cube sum at probe level 2 underflows binary64 to 0"),
    # the default section (level 5) under the scale-1 gauge, whose upper
    # sums stay positive down to depth 4
    ({"gauge": {"n": 2, "raw": {"family": "exp_inverse", "scale": 1.0}},
      "theorem": 2, "depth": 20},
     [0, 1, 2, 4, 8], "upper cube sum at probe level 5 underflows binary64 to 0"),
    ({"theorem": "custom", "depth": 2,
      "sequence": {"kind": "harmonic", "values": [1.0, 1.0, 0.5]},
      "hausdorff": {"depths": [0, 1, 2], "probe_depth": 1, "probe_level": 2,
                    "random_covers": 0}},
     [0, 1, 2], "nesting fails on domain side at depth 1"),
    (UNDERFLOW, [0, 1], "half-edges must be positive (depth 1)"),
    ({"depth": 4, "hausdorff": {"depths": [0, 1, 2]}}, [0, 1, 2],
     "probe_level 5 exceeds depth 4"),
], ids=["reference-sum-underflow", "default-level-underflow", "unbuildable-pack",
        "half-edge-underflow", "level-past-depth"])
def test_hausdorff_writes_why_the_probe_was_skipped(cfg, depths, reason, tmp_path, capsys):
    # the run keeps the upper sums it computed and exits 0
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["hausdorff", "--config", str(path), "--out", str(tmp_path)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    data = json.loads((tmp_path / "hausdorff.json").read_text())
    assert [u["depth"] for u in data["upper_sums"]] == depths
    assert data["upper_sums"][0]["total"] > 0.0
    assert data["lower_probe"] == {"skipped": reason}


def reference_hausdorff_payload(cfg):
    """hausdorff.json's payload with its reports as objects, probed here
    in the command's order: the canonical cover, then each random cover."""
    h = cfg.hausdorff
    a = cli.make_scales(cfg)
    pack = SequencePack.from_standard(cfg.gauge.n, a)
    rng = np.random.default_rng(cfg.seed)
    canonical = hausdorff_lower_probe(cfg.gauge, pack, canonical_cover(pack, h.probe_depth),
                                      h.probe_level)
    randomized = [hausdorff_lower_probe(cfg.gauge, pack,
                                        random_cover(pack, h.probe_depth, rng), h.probe_level)
                  for _ in range(h.random_covers)]
    uppers = [upper_sum_at_scale(cfg.gauge, k, a[k]) for k in h.depths if k <= cfg.depth]
    return {"upper_sums": [{**reference_json_data(u), "ratio_to_one": u.total}
                           for u in uppers],
            "lower_probe": {"canonical": canonical, "randomized": randomized,
                            "c_probe": min(r.ratio for r in [canonical] + randomized)},
            "theorem": cfg.theorem}


def test_write_json_matches_the_recursive_reference(config_path, tmp_path, monkeypatch):
    # every JSON artifact is json.dumps of the recursive converter's copy of
    # its payload: the payload each command passes, and for hausdorff at
    # n = 2 and n = 3 (two random covers each) also the payload built from
    # the probe's report objects
    written = []
    write = cli.write_json
    monkeypatch.setattr(cli, "write_json", lambda path, payload, cfg: (
        written.append((path, payload, cfg)), write(path, payload, cfg)))
    base = json.loads(config_path.read_text())
    n3 = tmp_path / "n3.json"
    n3.write_text(json.dumps({**base, "gauge": {**base["gauge"], "n": 3}, "depth": 8}))
    for command in ("sequence", "verify", "norms", "hausdorff"):
        assert main([command, "--config", str(config_path),
                     "--out", str(tmp_path / "n2")]) == EXIT_OK
    assert main(["hausdorff", "--config", str(n3), "--out", str(tmp_path / "n3")]) == EXIT_OK
    names = [f"{path.parent.name}/{path.name}" for path, _, _ in written]
    assert names == ["n2/sequence.json", "n2/verify.json", "n2/norms.json",
                     "n2/norms_divergence.json", "n2/hausdorff.json", "n3/hausdorff.json"]
    for path, payload, cfg in written:
        stamp = {"config_digest": cfg.digest, "seed": cfg.seed}
        texts = [reference_json_data({**payload, **stamp})]
        if path.name == "hausdorff.json":
            texts.append(reference_json_data({**reference_hausdorff_payload(cfg), **stamp}))
        for data in texts:
            assert path.read_text() == json.dumps(data, sort_keys=True, indent=2) + "\n", path
    # the writer's hook turns report dataclasses into their fields, nothing else
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        write(tmp_path / "bad.json", {"x": {1}}, written[0][2])


def synthetic_probe(balls, per_cube=0.25, word_depth=2):
    """A probe report of n = 2 whose balls are ``balls``' rows of (word,
    radius, min_contained_depth, intersecting_count, contained_count)."""
    words, radius, first, count, inner = list(zip(*balls)) or [()] * 5
    return LowerProbeReport(
        level=3, cover_sum=math.inf, reference_upper_sum=1.5, ratio=math.nan,
        max_intersecting=max(count, default=0), counting_bound=16, n=2,
        word_depth=word_depth, per_cube=per_cube, words=np.array(words, dtype=np.int64),
        radius=np.array(radius, dtype=float), min_contained_depth=np.array(first, dtype=np.int64),
        intersecting_count=np.array(count, dtype=np.int64),
        contained_count=np.array(inner, dtype=np.int64))


def test_write_json_streams_probe_balls_as_json_dumps(tmp_path, monkeypatch):
    # synthetic reports at three nesting depths: a one-ball cover whose
    # radius is inf and whose dominated sum is 0 * nan, a ball with no
    # contained cube (null), -inf and nan radii, an empty cover, and a
    # cover past one chunk of the writer
    monkeypatch.setattr(cli, "_BALL_CHUNK", 2)
    cfg = cli.resolve_config(cli.build_parser().parse_args(["hausdorff"]))
    one = synthetic_probe([(0b1101, math.inf, 1, 4, 0)], per_cube=math.nan)
    mixed = synthetic_probe([(0, 0.5, 0, 0, 0), (5, -math.inf, 2, 9, 3), (15, math.nan, 1, 1, 7),
                             (6, 1e-300, 2, 16, 2 ** 20), (9, 2.0, 1, 3, 1)], per_cube=1e308)
    payload = {"lower_probe": {"canonical": one, "randomized": [mixed, synthetic_probe([])],
                               "c_probe": 0.5},
               "top": synthetic_probe([(3, 0.75, 1, 2, 3)], word_depth=1), "theorem": 1}
    cli.write_json(tmp_path / "probe.json", payload, cfg)
    data = reference_json_data({**payload, "config_digest": cfg.digest, "seed": cfg.seed})
    text = (tmp_path / "probe.json").read_text()
    assert text == json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert [b["word"] for b in data["lower_probe"]["randomized"][0]["balls"]] == \
        ["--|--", "-+|-+", "++|++", "-+|+-", "+-|-+"]
    for literal in ('"radius": Infinity', '"radius": -Infinity', '"radius": NaN',
                    '"dominated_sum": NaN', '"dominated_sum": Infinity',
                    '"min_contained_depth": null', '"balls": []'):
        assert literal in text


@pytest.mark.parametrize("argv", [["verify", "--depth", "x"], ["nope"], [],
                                  ["norms", "--bogus"], ["eval"]],
                         ids=["bad-int", "unknown-command", "no-command", "unknown-flag",
                              "missing-points"])
def test_usage_error_exits_3(argv, capsys):
    # argparse fails before any output directory is made
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ponomap") and err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--depth" in capsys.readouterr().out


def test_parser_is_built_once():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    first = parser.parse_args(["eval", "--points", "p.csv", "--depth", "3", "--theorem", "2"])
    second = parser.parse_args(["verify"])
    assert (first.points, first.depth, first.theorem) == (Path("p.csv"), 3, 2)
    # the second parse keeps nothing of the first
    assert vars(second) == {"command": "verify", "config": None, "out": Path("."),
                            "depth": None, "seed": None, "eps_grid": None,
                            "resolution": None, "theorem": None}


@pytest.mark.parametrize("config, flags, digest", [
    (None, [], "acdd6956a261fc7de862593e456eca5f0acade1e52e0dda0647e270aa1aef360"),
    ("readme", [], "9b1ea8a6cc75e948f4268684065445d7cf1789dffea999a1d49715f55cdc474f"),
    ({"hausdorff": {"probe_level": 4}, "verify": {"mc_samples": 1000}}, [],
     "f2f09472d641b5aabdaf8d1460846d8fff87a315776d7d4db2db858b2603bc59"),
    ("readme", ["--depth", "12", "--theorem", "2", "--eps-grid", "1e-3:0.5:8"],
     "bd21fd4a27c681426da990449c34f6cc3914bc4e4a715db1cb0407b103742377"),
    ({"theorem": "custom", "sequence": {"kind": "geometric", "ratio": 0.25}, "safety": 0.25},
     ["--seed", "5", "--resolution", "17"],
     "c1b11526f48b0f343db369514645ebb34f5d46ee133e16deb65b7752b5d683f5"),
], ids=["defaults", "readme", "sections", "readme-flags", "custom-flags"])
def test_config_digest_is_pinned(tmp_path, config, flags, digest):
    # the digest is the sha256 of the merged config as the file and flags
    # give it, sections not filled with their defaults; every artifact
    # embeds it, so its value is pinned
    argv = ["sequence", *flags]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(readme_example() if config == "readme" else config))
        argv += ["--config", str(path)]
    assert cli.resolve_config(cli.build_parser().parse_args(argv)).digest == digest


def test_render_rejects_other_dimensions(tmp_path):
    cfg = tmp_path / "n3.json"
    cfg.write_text(json.dumps({
        "gauge": {"n": 3, "tau": {"family": "log", "shift": math.e}},
        "theorem": 1,
        "depth": 6,
    }))
    assert main(["render", "--config", str(cfg),
                 "--out", str(tmp_path)]) == EXIT_CONFIG


def test_flag_overrides_change_digest(config_path, tmp_path):
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert main(["sequence", "--config", str(config_path), "--out", str(out1)]) == EXIT_OK
    assert main(["sequence", "--config", str(config_path), "--out", str(out2),
                 "--depth", "11"]) == EXIT_OK
    d1 = json.loads((out1 / "sequence.json").read_text())
    d2 = json.loads((out2 / "sequence.json").read_text())
    assert d1["config_digest"] != d2["config_digest"]
    assert len(d2["a"]) == 12


# ---------------------------------------------------------------------------
# no traceback for any input

# stand-ins for a config value: wrong types, out of range, NaN, or no key
ODD_VALUES = [None, True, -1, 0, 2.5, math.nan, "x", [], {}, "<delete>"]
FLAG_VALUES = {
    "--depth": ["-1", "0", "1", "7", "12", "x"],
    "--seed": ["0", "-1", "3", "x"],
    "--eps-grid": ["1e-3:1:2", "0:1:2", "1e-3:1:0", "x"],
    "--resolution": ["1", "2", "17", "x"],
    "--theorem": ["1", "2", "3"],
}
COORDS = ["0", "0.5", "-1", "1", "1.5", "-0.0", "nan", "inf", "5e-324", "x", ""]


def key_paths(node, path=()):
    """The key path of every value in a nested dict, inner dicts included."""
    for key, value in node.items():
        yield path + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, path + (key,))


@st.composite
def cli_inputs(draw):
    """A subcommand, a small config with up to two values spoiled, flag
    overrides and the bytes of a points file.  The gauge is the log tau or
    a raw gauge, steep ones included, whose sums can underflow to 0."""
    command = draw(st.sampled_from(["sequence", "eval", "verify", "norms", "hausdorff",
                                    "render"]))
    # n in 4..6 on about one draw in 10, since their probes are slow: at
    # n = 6, level 3 takes 1.5 s with probe_depth 1 and 6 s with 2
    n = draw(st.integers(4, 6)) if draw(st.integers(0, 9)) == 9 else draw(st.integers(2, 3))
    depth = draw(st.integers(1, 12))
    small = st.integers(1, 4)
    gauge = draw(st.sampled_from([
        {"tau": {"family": "log", "shift": math.e}},
        {"raw": {"family": "power", "alpha": 2.0}},
        {"raw": {"family": "log_inverse", "alpha": 2.0, "exponent": 1.0, "shift": math.e}},
        {"raw": {"family": "exp_inverse", "scale": draw(st.sampled_from([1.0, 50.0, 500.0]))}},
    ]))
    # theorem 1 needs a tau gauge: a raw one under it exits 3 at once, and
    # is left to the --theorem flag and the spoils
    theorems = [1, 2, "custom"] if "tau" in gauge else [2, "custom"]
    cfg = {
        "gauge": {"n": n, **gauge},
        "theorem": draw(st.sampled_from(theorems)),
        "sequence": {"kind": draw(st.sampled_from(["harmonic", "geometric"]))},
        "depth": depth,
        "seed": draw(st.integers(0, 3)),
        "resolution": draw(st.integers(2, 17)),
        "eps_grid": f"1e-3:{n - 1}:2",
        "verify": {"boundary_points": draw(small), "face_points": draw(small),
                   "face_depth": draw(st.integers(1, 12)), "roundtrip_points": draw(small),
                   "jacobian_points": draw(small), "fd_points": draw(small),
                   "injectivity_pairs": draw(small), "mc_samples": draw(st.integers(2, 50)),
                   "depth_cap": draw(small)},
        "hausdorff": {"depths": [0, 1], "probe_depth": draw(st.integers(1, 2)),
                      "probe_level": draw(st.integers(1, depth)),
                      "random_covers": draw(st.integers(0, 1))},
    }
    # half the draws keep every value, so that most commands run to the end
    spoil = st.lists(st.sampled_from(list(key_paths(cfg))), min_size=1, max_size=2)
    for path in draw(st.just([]) | spoil):
        node = cfg
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if isinstance(node, dict):
            # a fresh copy, so that no two spoils share one [] or {}: one
            # spoil could store the shared {} under itself, and json.dumps
            # of the config would then meet a circular reference
            value = copy.deepcopy(draw(st.sampled_from(ODD_VALUES)))
            if value == "<delete>":
                node.pop(path[-1], None)
            else:
                node[path[-1]] = value
    flags = []
    override = st.lists(st.sampled_from(sorted(FLAG_VALUES)), min_size=1, max_size=2, unique=True)
    for flag in draw(st.just([]) | override):
        flags += [flag, draw(st.sampled_from(FLAG_VALUES[flag]))]
    lines = st.lists(st.lists(st.sampled_from(COORDS), max_size=4).map(",".join), max_size=5)
    points = draw(st.one_of(st.binary(max_size=30),
                            lines.map(lambda rows: "\n".join(rows).encode())))
    return command, cfg, flags, points


# 2^66 depth-11 cubes at n = 6: past the probe cap, and past numpy's array
# size limit, which the probe's coverage flags once met with a ValueError
@example(("hausdorff", {"gauge": {"n": 6, "tau": LOG_TAU}, "depth": 11, "eps_grid": "1e-3:1:2",
                        "hausdorff": {"probe_depth": 1, "probe_level": 11,
                                      "random_covers": 0}}, [], b""))
@example(("hausdorff", STEEP_HAUSDORFF, [], b""))
@example(("eval", UNDERFLOW, [], b"0.1,0.2"))
@settings(deadline=None, max_examples=100)
@given(cli_inputs())
def test_cli_exits_with_a_code_never_a_traceback(inputs):
    command, cfg, flags, points = inputs
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "cfg.json").write_text(json.dumps(cfg))
        (tmp / "pts.csv").write_bytes(points)
        argv = [command, "--config", str(tmp / "cfg.json"), "--out", str(tmp / "out"), *flags]
        if command == "eval":
            argv += ["--points", str(tmp / "pts.csv")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        if command == "hausdorff" and code == EXIT_OK:
            # the probe's results, or why it was skipped, sit beside the sums
            data = json.loads((tmp / "out" / "hausdorff.json").read_text())
            assert "upper_sums" in data and "lower_probe" in data
    assert code in (EXIT_OK, cli.EXIT_VERIFY_FAILED, EXIT_CONFIG, EXIT_NUMERIC), err.getvalue()
    assert "Traceback" not in err.getvalue()
