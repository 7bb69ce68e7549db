"""One fresh workload process, started by run.py.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS RESULT_JSON

MODE is ``setup`` (import polybubble and build the inputs, then stop),
``run`` (set up, one cold pass over every case, then timed passes for
SECONDS), ``trace`` (as ``run``, but the second half of the timed passes runs
under the tracer) or ``selfcheck`` (one traced pass of the workload's smoke
cases).  The result is written as JSON to RESULT_JSON.  Every time is
reported raw and normalised by the speed probe (see probe.py).
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))


def run_pass(cases, record, probe):
    """Run every case once, appending (name, passed, err) to ``record``.
    Returns (normalised wall s, normalised cpu s, raw wall s, raw cpu s)."""
    a, c = time.perf_counter(), time.process_time()
    for case in cases:
        try:
            ok, err = case.run()
        except Exception:  # a raising case counts as failed, the run goes on
            traceback.print_exc()
            ok, err = False, None
        record.append((case.name, bool(ok), err))
    b, cpu = time.perf_counter(), time.process_time() - c
    f = probe.scale(a, b)
    return (b - a) * f, cpu * f, b - a, cpu


def timed_passes(cases, seconds, record, probe, tracer=None):
    """Passes until the next one would end after ``seconds`` (at least one).
    Returns the per-pass times as four lists and the tracer snapshots."""
    times, layers = [], []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.reset()
        times.append(run_pass(cases, record, probe))
        if tracer is not None:
            f = times[-1][0] / times[-1][2]  # the pass's probe scale
            layers.append({k: v * f if k.endswith((".s", ".self_s")) else v
                           for k, v in tracer.snapshot().items()})
        if time.perf_counter() - start + times[-1][2] > seconds:
            return [list(col) for col in zip(*times)], layers


def main(argv):
    mode, workload, seed, seconds, out = argv
    seed, seconds = int(seed), float(seconds)
    from probe import Probe

    probe = Probe()
    probe.start()
    try:
        return measure(mode, workload, seed, seconds, out, probe)
    finally:
        probe.stop()


def measure(mode, workload, seed, seconds, out, probe):
    import spans
    import workloads

    scratch = os.path.dirname(os.path.abspath(out))
    golden = {}
    cases = workloads.build(workload, seed, ROOT, scratch, golden)
    t_set = time.perf_counter()
    res = {"setup_s": probe.normalise(T0, t_set), "setup_raw_s": t_set - T0}
    if mode == "setup":
        return res

    tracer = spans.Tracer()
    record = []
    if mode == "selfcheck":
        res["missing"] = tracer.install()
        run_pass([c for c in cases if c.smoke], record, probe)
        res["layers"] = tracer.snapshot()
    else:
        cold = run_pass(cases, record, probe)
        res.update(cold_run_s=cold[0], cold_run_raw_s=cold[2], golden=golden)
        budget = seconds / 2 if mode == "trace" else seconds
        (walls, cpus, raw, raw_cpu), _ = timed_passes(cases, budget, record, probe)
        res.update(run_s=walls, run_cpu_s=cpus, run_raw_s=raw,
                   run_cpu_raw_s=raw_cpu)
    if mode == "trace":
        res["missing"] = tracer.install()
        (twalls, _, traw, _), layers = timed_passes(cases, budget, record, probe,
                                                    tracer)
        tracer.uninstall()
        res.update(traced_run_s=twalls, traced_run_raw_s=traw, layers=layers,
                   trace_overhead=statistics.median(twalls) / statistics.median(walls),
                   spans=len(tracer.start))
        tracer.save(os.path.join(scratch, "spans.npz"))
    res.update(attempted=len(record), failed=sum(not ok for _, ok, _ in record),
               cases=record,
               accuracy_digits=workloads.accuracy_digits(e for _, _, e in record),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               probe_samples=len(probe.t))
    return res


if __name__ == "__main__":
    result = main(sys.argv[1:])
    with open(sys.argv[5], "w") as fh:
        json.dump(result, fh)
