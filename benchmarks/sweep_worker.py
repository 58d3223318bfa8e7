"""Run one pass of sweep ops in a fresh process.

    python3 benchmarks/sweep_worker.py JOB_JSON RESULT_JSON

JOB_JSON is ``{"trace": bool, "ops": [{"op": id, "params": [alpha, g, l],
"traced": bool, "out": csv path}, ...]}``.  Each op is one in-process
``run_scan`` + ``write_csv``, timed around the two calls, in the order
given, with a host-speed calibration (``run.calibrate``) before the first
op and after every op.  One untimed small scan first pays the lazy
first-call costs, so no op in the pass carries them.  With ``trace`` the
layer functions are wrapped (see ``spans.py``) and spans are recorded for
the ops marked ``traced`` only.

RESULT_JSON gets ``{"seconds": [...], "cals": [...], "errors": [...],
"spans": [...]}``: per op its wall time, the mean of the calibrations on
either side of it, and its error (or null).  No two ops of a pass share
parameters, and every pass runs in a new process, so a cache keyed on the
parameters can never hit.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

import run

WARM_UP = (1.0, 1.0, 1)


def main() -> int:
    job_path, result_path = sys.argv[1], sys.argv[2]
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    sys.path.insert(0, str(run.SRC))
    import tjcm.scan

    recorder = None
    if job["trace"]:
        import spans
        recorder = spans.Recorder()
        recorder.enabled = False
        spans.install(recorder)
    warm = run.sweep_config(*WARM_UP)
    tjcm.scan.run_scan(warm)

    seconds, cals, errors = [], [run.calibrate()], []
    for op in job["ops"]:
        if recorder is not None:
            recorder.enabled, recorder.op = op["traced"], op["op"]
        cfg = run.sweep_config(*op["params"])
        error = None
        t0 = time.perf_counter()
        try:
            tjcm.scan.write_csv(tjcm.scan.run_scan(cfg), op["out"])
        except Exception:  # an op that raises is a failed op, not a crash
            error = traceback.format_exc(limit=3)
        seconds.append(time.perf_counter() - t0)
        errors.append(error)
        cals.append(run.calibrate())

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": seconds, "cals": [(a + b) / 2 for a, b in zip(cals, cals[1:])],
                   "errors": errors,
                   "spans": recorder.spans if recorder is not None else []}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
