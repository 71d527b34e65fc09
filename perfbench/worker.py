"""One fresh benchmark process.

    python3 perfbench/worker.py setup CONFIG...
        Time ``import ponomap.cli`` plus, for each config, resolving it,
        solving the scale sequence and ``SequencePack`` + ``build``; print
        the seconds, and the host calibration measured just before and just
        after, as JSON.

    python3 perfbench/worker.py run PLAN RESULT
        Run the plan's fixed reference pass, then whole passes of its CLI
        invocations until its time budget is spent; check every output and
        write per-invocation timings, the host calibration measured just
        before and just after each invocation, digests and failures to
        RESULT.  With ``"trace": true`` in the plan the layers are wrapped
        in spans first.

``ponomap`` must be importable (the orchestrator sets PYTHONPATH).
"""

import sys
import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import check, digests  # noqa: E402


def setup(configs: list[str]) -> None:
    cal_before = calibrate()
    start = time.perf_counter()
    from ponomap import cli

    for path in configs:
        cfg = cli.resolve_config(cli.build_parser().parse_args(["sequence", "--config", path]))
        cli.build(cli.make_pack(cfg))
    setup_s = time.perf_counter() - start
    print(json.dumps({"setup_s": setup_s, "cal_s": [cal_before, calibrate()]}))


def calibrate(loops: int = 3, n: int = 40_000) -> float:
    """Best of a few runs of a fixed pure-Python loop: the speed the host
    gives this process right now, independent of the program under test."""
    best = float("inf")
    for _ in range(loops):
        start = time.perf_counter()
        s = 0
        for i in range(n):
            s += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best


def _invoke(main, cmd: dict, expect: dict | None, first: dict | None) -> dict:
    """One CLI invocation; it fails on an exit code other than 0, a failed
    output check, or digests differing from the recorded or first pass."""
    buf = io.StringIO()
    cal_before = calibrate()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(cmd["argv"])
        crash = None
    except Exception:  # a traceback is an operation failure, not a harness crash
        rc, crash = None, traceback.format_exc()
    wall = time.perf_counter() - start
    rec = {"label": cmd["label"], "rc": rc, "wall_s": wall,
           "cal_s": [cal_before, calibrate()], "problems": []}
    if crash is not None:
        rec["problems"].append(crash)
    elif rc != 0:
        rec["problems"].append(f"exit code {rc}")
    out = Path(cmd["out"])
    rec["digests"] = digests(out) if out.is_dir() else {}
    # bytes identical to a first pass that passed its checks need no re-check
    rec["checked"] = first is None or rec["digests"] != first["digests"] or bool(first["problems"])
    if rec["checked"]:
        rec["problems"] += check(cmd)
    if first is not None and rec["digests"] != first["digests"]:
        rec["problems"].append("artifact digests differ from the first pass")
    if expect is not None and rec["digests"] != expect:
        rec["problems"].append("artifact digests differ from the recorded ones")
    return rec


def run(plan_path: str, result_path: str) -> None:
    from ponomap import cli

    import_s = time.perf_counter() - T0
    plan = json.loads(Path(plan_path).read_text())
    tracer = None
    main = cli.main
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

        def main(argv):
            return tracer.span(f"cli.{argv[0]}", cli.main)(argv)

    reference = [_invoke(main, cmd, plan["expect_reference"].get(cmd["label"]), None)
                 for cmd in plan["reference"]["commands"]]
    expect = plan["expect"]
    passes: list[list[dict]] = []
    deadline = time.perf_counter() + plan["seconds"]
    while not passes or time.perf_counter() < deadline:
        if tracer is not None:
            tracer.mark_pass()
        first = {r["label"]: r for r in passes[0]} if passes else {}
        passes.append([_invoke(main, cmd,
                               expect.get(cmd["label"]) if expect else None,
                               first.get(cmd["label"]))
                       for cmd in plan["commands"]])
    result = {
        "import_s": import_s,
        "reference": reference,
        "passes": passes,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.pass_stats()
        tracer.save(plan["trace_file"])
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2:])
    else:
        run(sys.argv[2], sys.argv[3])
