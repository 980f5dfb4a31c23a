"""One measured process: set-up, a closed loop of `repoints verify` calls, the
correctness gate and the untimed negative controls.

Started by run.py in a fresh interpreter, so the per-series builders are cold.
Reads its job as JSON on stdin and prints one JSON result line on stdout.
Unless tracing, the reference kernel (refspeed.py) runs on a timer signal
from the start, so set-up and each input can be scaled by the kernel times
taken while they ran.

    python3 perfbench/worker.py <spawn monotonic time>
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

import refspeed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def setup(series):
    """The cold per-series builders that `repoints sweep` pays once per series."""
    from repoints import classical, natrep, rmatrix, rootdata

    for group, n in series:
        ls = rootdata.series_for_group(group, n)
        rmatrix.build_rmatrix_data(ls)
        natrep.build_natural_rep(ls)
        classical.build_classical_algebra(ls)
        rootdata.build_root_system(ls)


def run_cli(cli, argv):
    """(exit code, parsed JSON payload or None, error type or None)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code, None, "SystemExit"
    except Exception as exc:  # a raised input is recorded, never fatal
        return None, None, type(exc).__name__
    try:
        return code, json.loads(out.getvalue()), None
    except ValueError:
        return code, None, "BadJSON"


def judge(code, payload, error, golden):
    """Problem string for a timed input, or None when its verdict is PASS."""
    if error:
        return f"raised {error}"
    if code != 0:
        return f"exit {code}"
    failing = [c["name"] for c in payload["checks"] if not c["pass"]]
    if failing:
        return f"failing records {failing}"
    if golden is not None and payload["case"] == golden["case"] and payload["params"] == golden["params"]:
        got = [(c["name"], c["pass"]) for c in payload["checks"]]
        want = [(c["name"], c["pass"]) for c in golden["checks"]]
        if got != want:
            return "records differ from the golden file"
    return None


def judge_control(code, payload, error):
    if error:
        return f"raised {error}"
    if code != 1:
        return f"exit {code}, expected 1"
    if not any(c["name"] == "params" and not c["pass"] for c in payload["checks"]):
        return "no failing params record"
    return None


def main():
    spawn = float(sys.argv[1])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    job = json.load(sys.stdin)
    sampler = refspeed.Sampler()
    if job["scaled"]:
        sampler.start()
    tracer = None
    if job["trace"]:
        from tracing import Tracer, layer_metrics, request_self_times, self_times

        tracer = Tracer()
        tracer.install()
    from repoints import cli

    setup(job["series"])
    setup_s = time.monotonic() - spawn - sampler.spent_s
    setup_kernel = [dt for _, dt in sampler.ticks]
    if job["scaled"] and not setup_kernel:  # set-up ended before the first tick
        t = time.perf_counter()
        refspeed.kernel()
        setup_kernel.append(time.perf_counter() - t)
    if job["setup_only"]:
        sampler.stop()
        sys.stdout.write(json.dumps({"setup_s": setup_s, "setup_kernel_s": setup_kernel}) + "\n")
        return
    golden = job.get("golden")

    rows, passes = [], 0
    start = time.perf_counter()
    while True:
        for idx, argv in enumerate(job["inputs"]):
            if tracer is not None:
                tracer.req = idx
            spent = sampler.spent_s
            t = time.perf_counter()
            code, payload, error = run_cli(cli, argv)
            end = time.perf_counter()
            rows.append({"round": passes, "input": idx, "argv": argv,
                         "case": payload["case"] if payload else None,
                         "exit": code, "error": error,
                         "verdict_s": end - t - (sampler.spent_s - spent), "span": (t, end),
                         "problem": judge(code, payload, error, golden),
                         "timings": payload.get("timings") if payload else None})
        passes += 1
        if passes >= job["max_passes"] or time.perf_counter() - start >= job["seconds"]:
            break
    sampler.stop()
    if tracer is not None:
        tracer.req = -2
    for r in rows:
        r["kernel_s"] = sampler.kernel_s(*r.pop("span")) if job["scaled"] else None

    controls = []
    for argv in job["controls"]:
        code, payload, error = run_cli(cli, argv)
        controls.append({"argv": argv, "exit": code, "error": error,
                         "problem": judge_control(code, payload, error)})

    result = {
        "setup_s": setup_s,
        "setup_kernel_s": setup_kernel,
        "kernel_share": sampler.spent_s / (time.perf_counter() - start),
        "rows": [[r["round"], r["input"], r["verdict_s"], r["kernel_s"]] for r in rows],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(rows) + len(controls),
        "failed": sum(r["problem"] is not None for r in rows + controls),
        "problems": [(r["argv"], r["problem"]) for r in rows + controls if r["problem"]],
        "golden_checked": sum(r["case"] == golden["case"] for r in rows) if golden else 0,
    }
    if tracer is not None:
        tracer.write(job["spans_path"])
        selfs = self_times(tracer.spans)
        per_req = request_self_times(tracer.spans, selfs)
        for r in rows:
            r["spans_self_s"] = per_req.get(r["input"], {})
        result["layers"] = layer_metrics(tracer, selfs)
    with open(job["rows_path"], "w") as fh:
        for r in rows + controls:
            fh.write(json.dumps(r) + "\n")
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
