"""One workload pass in its own process.

Usage (normally started by run.py, one child at a time):

    python3 perfbench/child.py ROOT WORKLOAD SEED MODE OUT_DIR

MODE is ``setup`` (import only), ``plain`` (an untraced pass) or ``traced``
(the same pass with layer spans).  The child times ``import sameorder``
(numpy included) before anything else, runs the pass, checks its outputs,
and prints one JSON line.  A fresh process per pass means no memo inside
the engine carries work from one pass to the next.

Both the import and the pass are timed with a ``HostClock`` (hostclock.py),
which reports the raw wall time and the same interval scaled to the
reference host speed.
"""

import os
import sys
import time

from hostclock import HostClock

# Probe periods: the import lasts about 0.1 s, a pass 1 to 10 s.
SETUP_PERIOD_S = 0.005
PASS_PERIOD_S = 0.02


def main() -> int:
    root, workload, seed, mode, out_dir = sys.argv[1:6]
    clock = HostClock(SETUP_PERIOD_S)
    clock.start()
    import sameorder
    clock.stop()
    setup = clock.summary()

    import gc
    import json
    import platform
    import resource
    import shutil

    import numpy

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(sameorder.__file__).startswith(src + os.sep):
        print(f"sameorder imported from {sameorder.__file__}, not {src}", file=sys.stderr)
        return 2

    result = {"setup_s": setup["ref_s"], "setup_wall_s": setup["wall_s"],
              "numpy": numpy.__version__, "python": platform.python_version()}
    if mode != "setup":
        import workloads

        run_id = f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}"
        work_dir = os.path.join(out_dir, run_id)
        os.makedirs(work_dir)
        tracer = None
        on_probe = None
        if mode == "traced":
            from tracer import Tracer

            tracer = Tracer(run_id)
            tracer.install()
            on_probe = tracer.record_probe
        p = workloads.Pass()
        clock = HostClock(PASS_PERIOD_S, on_probe)
        gc.collect()
        c1 = time.process_time()
        clock.start()
        if tracer:
            root_span = tracer.open("pass")
        check = workloads.RUNNERS[workload](p, int(seed), work_dir)
        if tracer:
            tracer.close(root_span)
        clock.stop()
        cpu_s = time.process_time() - c1
        if tracer:
            tracer.uninstall()
        check()
        shutil.rmtree(work_dir)
        timing = clock.summary()
        result.update(
            wall_s=timing["wall_s"], ref_s=timing["ref_s"], factor=timing["factor"],
            probes=timing["probes"], probe_s=timing["probe_s"], cpu_s=cpu_s,
            rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            ops=p.ops, attempted=p.attempted, failures=p.failures,
            gate=p.gate, counts=dict(p.counts), run_id=run_id,
        )
        if tracer:
            layers = tracer.self_times()
            # the root span's self time is the workload's own orchestration
            result.update(orchestration_s=layers.pop("pass"), layers=layers,
                          layer_counts=dict(tracer.counts))
            tracer.write(os.path.join(out_dir, f"spans-{run_id}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
