#!/usr/bin/env python3
"""commdetect benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root.  The package is imported from ./src, in
this one process and on one thread.  The seed builds the workload's
inputs; the program sees only those inputs.

--trace 0 times every call untraced and reports the end-to-end metrics.
--trace 1 alternates an untraced and a traced copy of each cycle and
reports the per-layer metrics, plus the tracing overhead (traced minus
untraced cycle time).  Spans of the traced cycles are written to
.perfbench-out/ at the end.

Every call's output is checked (see checks.py); a call that raises, breaks
an invariant, disagrees with an earlier call of the same configuration or
with the recorded reference digest counts as failed.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

--smoke shrinks every workload so that all code paths run in seconds; its
numbers are not measurements.  --record-reference stores this run's output
digests in reference.json as the reference for its workload and seed.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "commdetect", "__init__.py")):
        print(f"perfbench: no commdetect sources under {SRC}", file=sys.stderr)
        return 2
    # Bench sweeps must not fan out to threads; everything runs on this one.
    os.environ.pop("COMMDETECT_THREADS", None)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import harness

    return harness.main(argv)


if __name__ == "__main__":
    sys.exit(main())
