"""polybubble benchmark: time to a verified result, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the repository root.  Each workload is a closed loop: one process
runs its verification cases one after another, each case starting when the
previous one has finished.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` a separate traced run reports the
per-layer metrics.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the host and the inputs.  A fuller record of the run (every
case, every pass, the golden-hash comparison, the span file) goes to
``.perfbench_out/``.

``--self-check`` runs one traced pass of each workload's smoke cases and
fails unless every case passes and every layer listed for the workload in
``workloads.EXPECTED_LAYERS`` shows calls, which catches a wrapper left on a
stale reference.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

# Fresh processes that only set up, besides the measured one; setup_s is the
# median over all of them.
SETUP_SAMPLES = 2
DEADLINE_S = 170.0
# One process, no pool, no added threads.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}

# (name, unit, better, bound) of the untraced run.  pass_frac is
# 1 - failed/attempted: a metric that is 0 at the seed has no relative bound.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("cold_run_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.2),
    ("run_cpu_s", "s", "lower", 0.2),
    ("pass_frac", "ratio", "higher", 0.01),
    ("accuracy_digits", "digits", "higher", 0.1),
    ("peak_rss_mb", "MB", "lower", 0.1),
]


def _layer(prefix, *suffixes):
    units = {"calls": "count", "s": "s", "self_s": "s", "failed": "count",
             "nodes": "count", "terms_out": "count",
             "points_per_call": "points"}
    return [(f"{prefix}.{s}", units[s],
             "higher" if s == "points_per_call" else "lower") for s in suffixes]


# (name, unit, better) of the traced run, per pass.
PER_LAYER = [
    *_layer("solver.shoot", "calls", "s"),
    *_layer("solver.newton_solve", "calls", "s", "failed"),
    *_layer("solver.collocation_check", "s"),
    ("solver.rk45_nfev", "count", "lower"),
    ("solver.shoots_per_newton", "ratio", "lower"),
    *_layer("fields.RadialTermField.partial", "calls", "s", "self_s",
            "points_per_call"),
    *_layer("fields.RadialTermField.jet", "calls", "s"),
    *_layer("jets.Jet.lap_iter", "calls"),
    *_layer("jets.Jet.grad_lap", "calls"),
    *_layer("jets.Jet.hess_lap", "calls"),
    *_layer("radial.RadialFunction.call", "calls", "s", "points_per_call"),
    *_layer("radial.check_bubble_identity", "s"),
    *_layer("radial.laplacian", "calls"),
    *_layer("pohozaev.pohozaev_lhs", "s", "self_s"),
    *_layer("pohozaev.pohozaev_rhs", "s", "self_s"),
    *_layer("pohozaev.MultiPoly.mul", "calls", "s", "terms_out"),
    *_layer("pohozaev.MultiPoly.pow", "calls", "s"),
    *_layer("quadrature.integrate_axisymmetric", "calls", "s", "self_s", "nodes"),
    *_layer("quadrature.integrate_surface", "calls", "s", "self_s", "nodes"),
    *_layer("quadrature.integrate_volume", "calls", "s", "nodes"),
    *_layer("quadrature.integrate_radial", "calls", "s"),
    *_layer("quadrature.sphere_moment_ratio", "calls", "s"),
    *_layer("conformal.check_norm_invariance", "calls", "s"),
    *_layer("conformal.check_distance_identity", "calls"),
    *_layer("green.check_conformal_relation", "calls", "s"),
    *_layer("tree.classify", "s"),
    *_layer("tree.check_dominance", "s"),
    *_layer("tree.interaction_sup", "s"),
    *_layer("weights.convolution_bound_verify", "calls", "s"),
    *_layer("weights.eta_sequences", "s"),
    *_layer("weights.giraud_verify", "s"),
    *_layer("bubbles.positive_bubble", "calls", "s"),
    *_layer("bubbles.check_decay", "s"),
    *_layer("cli.cayley-green", "s"),
    *_layer("cli.tree", "s"),
    *_layer("cli.bubble-check", "s"),
    ("trace.overhead", "ratio", "lower"),
    ("fail_frac", "ratio", "lower"),
]


class BenchError(RuntimeError):
    pass


def _worker(mode, workload, seed, seconds, tmp, deadline):
    """Run one fresh worker process and return its result."""
    out = os.path.join(tmp, f"{mode}.json")
    env = dict(os.environ, **THREAD_ENV)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a worker could start")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), mode, workload,
             str(seed), str(seconds), out],
            cwd=ROOT, env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{mode} worker for {workload} timed out") from e
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}")
    with open(out) as fh:
        return json.load(fh)


def _source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "polybubble", "**", "*"),
                                 recursive=True)):
        if os.path.isfile(path) and "__pycache__" not in path:
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def host_record(args) -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(),
            "python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "threads": THREAD_ENV,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "commit": _commit(), "source_sha256": _source_hash()}


def _golden_diff(seed, hashes):
    """Informational: which CLI report files differ from the stored hashes."""
    path = os.path.join(HERE, "golden_hashes.json")
    stored = None
    if os.path.exists(path):
        with open(path) as fh:
            stored = json.load(fh).get(str(seed))
    if stored is None:
        return {"status": f"no stored hashes for seed {seed}"}
    differ = [f"{case}/{name}"
              for case in sorted(set(stored) | set(hashes))
              for name in sorted(set(stored.get(case, {})) | set(hashes.get(case, {})))
              if stored.get(case, {}).get(name) != hashes.get(case, {}).get(name)]
    return {"status": "differ" if differ else "match", "differ": differ}


def per_layer(res) -> dict:
    """Per-pass layer metrics: the median over the traced passes."""
    def derive(snap):
        vals = {}
        for name, _, _ in PER_LAYER:
            prefix, _, tail = name.rpartition(".")
            if tail == "points_per_call":
                calls = snap.get(prefix + ".calls", 0)
                vals[name] = snap.get(prefix + ".points", 0) / calls if calls else 0.0
            elif name == "solver.shoots_per_newton":
                calls = snap.get("solver.newton_solve.calls", 0)
                vals[name] = (snap.get("solver.shoot.in_newton", 0) / calls
                              if calls else 0.0)
            else:
                vals[name] = snap.get(name, 0)
        return vals

    snaps = [derive(s) for s in res["layers"]]
    out = {name: statistics.median(s[name] for s in snaps)
           for name, _, _ in PER_LAYER if name not in ("trace.overhead", "fail_frac")}
    out["trace.overhead"] = res["trace_overhead"]
    out["fail_frac"] = res["failed"] / res["attempted"]
    return out


def end_to_end(res, setup_samples) -> dict:
    return {
        "setup_s": statistics.median(s["setup_s"] for s in setup_samples),
        "cold_run_s": res["cold_run_s"],
        "run_s": statistics.median(res["run_s"]),
        "run_cpu_s": statistics.median(res["run_cpu_s"]),
        "pass_frac": 1.0 - res["failed"] / res["attempted"],
        "accuracy_digits": res["accuracy_digits"],
        "peak_rss_mb": res["peak_rss_mb"],
    }


def bench(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        setup = [_worker("setup", args.workload, args.seed, args.seconds, tmp,
                         deadline) for _ in range(SETUP_SAMPLES)]
        mode = "trace" if args.trace else "run"
        res = _worker(mode, args.workload, args.seed, args.seconds, tmp, deadline)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            os.replace(os.path.join(tmp, "spans.npz"),
                       os.path.join(OUT, f"spans-{stem}.npz"))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setup.append({k: res[k] for k in ("setup_s", "setup_raw_s")})
    if args.trace:
        metrics, units = per_layer(res), {n: u for n, u, _ in PER_LAYER}
    else:
        metrics, units = end_to_end(res, setup), {n: u for n, u, _, _ in END_TO_END}
    if args.trace:
        res["no_calls"] = [n for n in workloads.EXPECTED_LAYERS[args.workload]
                           if not any(s.get(n + ".calls") for s in res["layers"])]
        if res["missing"] or res["no_calls"]:
            print(f"perfbench: layer functions not found: {res['missing']}; "
                  f"listed layers without calls: {res['no_calls']}",
                  file=sys.stderr)
    golden = (_golden_diff(args.seed, res["golden"])
              if args.workload == "certify" else None)
    if golden is not None:
        print(f"perfbench: golden report hashes: {golden['status']} "
              f"{golden.get('differ', '')}", file=sys.stderr)
    record = {"host": host_record(args), "setup_samples": setup,
              "golden": golden, "metrics": metrics,
              **{k: v for k, v in res.items() if k not in ("layers", "golden")}}
    with open(os.path.join(OUT, f"{stem}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"host": record["host"]}))
    return {"correct": res["failed"] == 0 and res["attempted"] > 0,
            "attempted": res["attempted"], "failed": res["failed"],
            "metrics": {n: {"value": v, "unit": units[n]}
                        for n, v in metrics.items()}}


def self_check() -> bool:
    """Traced smoke pass per workload, plus BENCHMARK.json against the
    metric catalogs above."""
    ok = True
    deadline = time.monotonic() + DEADLINE_S
    tmp = os.path.join(OUT, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        for wl in workloads.WORKLOADS:
            res = _worker("selfcheck", wl, 0, 1, tmp, deadline)
            zero = [name for name in workloads.EXPECTED_LAYERS[wl]
                    if not res["layers"].get(name + ".calls")]
            good = res["failed"] == 0 and not zero and not res["missing"]
            ok &= good
            print(f"{wl}: {'ok' if good else 'FAIL'} attempted={res['attempted']} "
                  f"failed={res['failed']} no-calls={zero} missing={res['missing']}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {"workloads": [w["name"] for w in spec["workloads"]],
            "end_to_end": [(m["name"], m["unit"], m["better"], m["bound"])
                           for m in spec["end_to_end"]],
            "per_layer": [(m["name"], m["unit"], m["better"])
                          for m in spec["per_layer"]]}
    have = {"workloads": list(workloads.WORKLOADS), "end_to_end": END_TO_END,
            "per_layer": PER_LAYER}
    for key in want:
        if want[key] != list(have[key]):
            ok = False
            print(f"BENCHMARK.json {key} does not match perfbench/run.py")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "polybubble", "__init__.py")):
        print("perfbench: no polybubble source under src/; run from the "
              "repository root", file=sys.stderr)
        return 2
    if args.self_check:
        return 0 if self_check() else 1
    if args.workload is None or args.seconds <= 0:
        ap.error("--workload and a positive --seconds are required")
    try:
        result = bench(args)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
