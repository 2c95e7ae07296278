"""Run one ``dmnll`` command in this fresh interpreter and report on it.

Usage: ``python3 child.py SPEC`` where SPEC is a JSON object with ``argv``
(the command line after ``dmnll``), ``trace`` (record spans or not) and
``run`` (the run id spans carry).  ``dmnll`` must be importable, so the
caller puts the package's source directory on ``PYTHONPATH``.

First pins itself to the CPU that runs a fixed calibration loop fastest.
Prints one JSON line: the import time of ``dmnll.cli``, the wall time of the
command after import, the time of the calibration loop before the import,
between import and command, and after the command, the exit code, the peak
RSS of this process, and the spans when tracing.  Exits with the command's
exit code.
"""

import json
import math
import os
import resource
import sys
import time

#: Steps of the calibration loop: about 10 ms on a 2 GHz Xeon core.
CALIBRATION_STEPS = 40_000


def calibrate() -> float:
    """Time a fixed pure-Python loop of float adds and logs, like the exact kernel's."""
    log = math.log
    start = time.perf_counter()
    acc = 0.0
    for j in range(CALIBRATION_STEPS):
        acc += log(1.0 + j)
    return time.perf_counter() - start


def pin_to_fastest_cpu() -> float:
    """Pin this process to the CPU that runs the calibration loop fastest; return that time."""
    timings = {}
    for cpu in sorted(os.sched_getaffinity(0)):
        os.sched_setaffinity(0, {cpu})
        timings[cpu] = calibrate()
    best = min(timings, key=timings.get)
    os.sched_setaffinity(0, {best})
    return timings[best]


spec = json.loads(sys.argv[1])

calibration = [pin_to_fastest_cpu()]
t0 = time.perf_counter()
import dmnll.cli  # noqa: E402  (timed: this is the set-up every CLI call pays)

setup_s = time.perf_counter() - t0
calibration.append(calibrate())

main = dmnll.cli.main
recorder = None
if spec["trace"]:
    import spans

    recorder = spans.Recorder(spec["run"])
    for name in spans.instrument(recorder):
        print(f"not traced, no such name: {name}", file=sys.stderr)
    main = recorder.wrap("cli.main", main)

t1 = time.perf_counter()
code = main(spec["argv"])
wall_s = time.perf_counter() - t1
calibration.append(calibrate())

report = {
    "setup_s": setup_s,
    "wall_s": wall_s,
    "calibration_s": calibration,
    "exit": code,
    "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    "spans": recorder.spans if recorder else None,
}
print(json.dumps(report))
sys.exit(code)
