"""Run one benchmark workload of specgap and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full record (environment, every operation's time, rounds, set-up parts)
goes to ``bench/results/<workload>-seed<seed>-trace<t>.json``.  README.md
describes the workloads, the metrics and how a run reduces its times.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# Pinned before NumPy loads: with two BLAS threads a 64x64 complex matmul on
# a 2-core host is ~30x slower than with one, and the figures stop comparing.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_REPEATS = 3
MIN_SAMPLES = 100           # ten beyond the 90th percentile


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_package():
    """Import specgap from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import specgap
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import specgap from {SRC}: {exc}")
    where = Path(specgap.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise SystemExit(f"bench: specgap was imported from {where}, not {SRC}")


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment():
    import numpy as np
    import scipy
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_commit": git_commit(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def percentile(values, q):
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def layer_metrics(tracer, outputs, n_rounds, generate_s, timed_s, speed):
    """Per-operation self times (ms, scaled by the run's host-speed factor
    ``speed``) and call counts from one traced run; ``outputs`` is the last
    round's, and every round is the same."""
    from specgap import cfun, perturb, spectral
    n_ops = tracer.ops
    ms = {k: v * speed / 1e6 / n_ops for k, v in tracer.self_ns.items()}
    calls = tracer.calls

    certs, samples, points = [], 0, 0
    for out in filter(None, outputs):
        first = out[0] if isinstance(out, tuple) else out
        if isinstance(first, perturb.PerturbationCertificate):
            certs.append(first)
        elif isinstance(out, cfun.RangeReport):
            samples += out.n_samples
        elif isinstance(out, spectral.PseudospectrumGrid):
            points += len(out.res) * len(out.ims)
    n_certs = calls["perturb.disconnect"]
    op_ms = sum(ms.values())

    m = {
        "perturb.self_ms": (ms.get("perturb.disconnect", 0.0)
                            + ms.get("perturb.build", 0.0), "ms"),
        "perturb.builds": (calls["perturb.build"] / n_certs if n_certs else 0.0, "count"),
        "perturb.delta_certified_share": (
            sum(c.delta > c.eps0 * 1e-3 * (1.0 + 1e-9) for c in certs) / len(certs)
            if certs else 0.0, "ratio"),
        "spectral.eigenvalues_ms": (ms.get("spectral.eigenvalues", 0.0), "ms"),
        "spectral.eigenvalues_calls": (calls["spectral.eigenvalues"] / n_ops, "count"),
        "spectral.components_ms": (ms.get("spectral.components", 0.0), "ms"),
        "spectral.pseudospectrum_ms": (ms.get("spectral.pseudospectrum", 0.0), "ms"),
        "spectral.us_per_grid_point": (
            tracer.incl_ns["spectral.pseudospectrum"] * speed / 1e3 / (points * n_rounds)
            if points else 0.0, "us"),
        "spectral.other_ms": (ms.get("spectral.other", 0.0), "ms"),
        "norms.phi_eval_ms": (ms.get("norms.phi_eval", 0.0), "ms"),
        "norms.phi_eval_calls": (calls["norms.phi_eval"] / n_ops, "count"),
        "algebra.ms": (ms.get("algebra", 0.0), "ms"),
        "algebra.calls": (calls["algebra"] / n_ops, "count"),
        "riesz.idempotent_ms": (ms.get("riesz.idempotent", 0.0), "ms"),
        "riesz.verify_ms": (ms.get("riesz.verify", 0.0), "ms"),
        "cfun.disconnect_self_ms": (ms.get("cfun.disconnect", 0.0), "ms"),
        "cfun.offrange_lambda_ms": (ms.get("cfun.offrange_lambda", 0.0), "ms"),
        "cfun.clopen_pieces_ms": (ms.get("cfun.clopen_pieces", 0.0), "ms"),
        "cfun.range_components_ms": (ms.get("cfun.range_components", 0.0), "ms"),
        "cfun.range_samples": (samples / len(outputs), "count"),
        "sampling.generate_s": (generate_s, "s"),
        "linalg.eig_calls": (calls["linalg.eig"] / n_ops, "count"),
        "linalg.eigh_calls": (calls["linalg.eigh"] / n_ops, "count"),
        "linalg.schur_calls": (calls["linalg.schur"] / n_ops, "count"),
        "linalg.svd_calls": (calls["linalg.svd"] / n_ops, "count"),
        "linalg.solve_calls": (calls["linalg.solve"] / n_ops, "count"),
        "linalg.qr_calls": (calls["linalg.qr"] / n_ops, "count"),
        "linalg.ms": (sum(v for k, v in ms.items() if k.startswith("linalg.")), "ms"),
        "bench.glue_ms": (ms.get("bench.glue", 0.0), "ms"),
        "trace.op_ms": (op_ms, "ms"),
        "trace.ops_per_s": (n_ops / timed_s, "1/s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def main(argv=None):
    args = parse_args(argv)
    import_package()
    import hostspeed
    import workloads
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    import_s = time.perf_counter() - T_START

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"bench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    warm = workloads.warmup(args.workload)
    host = hostspeed.HostSpeed()
    gen_s, prep_s = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl = build(args.seed)
        t1 = time.perf_counter()
        for op in warm.ops:
            op.run()
        gen_s.append(t1 - t0)
        prep_s.append(time.perf_counter() - t0)
        for _ in range(SETUP_REPEATS):
            host.sample()
    setup_factor = hostspeed.NOMINAL_NS / statistics.median(host.durations)
    setup_s = (import_s + statistics.median(prep_s)) * setup_factor

    run_op = tracer.run_op if tracer else (lambda fn: fn())
    clock = time.perf_counter_ns
    spans, kinds, margins, errors, check_failures, rounds = [], [], [], [], [], []
    attempted = failed = 0
    last_outputs = []
    t_begin = time.perf_counter()
    while True:
        r0 = time.perf_counter()
        outputs = []
        for op in wl.ops:
            host.maybe_sample()
            attempted += 1
            t0 = clock()
            try:
                out = run_op(op.run)
            except Exception as exc:       # a failed operation is counted, not fatal
                failed += 1
                outputs.append(None)
                errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                continue
            spans.append((t0, clock()))
            kinds.append(op.kind)
            outputs.append(out)
        host.sample()
        r1 = time.perf_counter()
        for i, (op, out) in enumerate(zip(wl.ops, outputs)):
            if out is None:
                continue
            try:
                margin = op.check(out)
            except workloads.CheckFailed as exc:
                check_failures.append(f"op {i} ({op.kind}): {exc}")
                continue
            if margin is not None:
                margins.append(margin)
        try:
            wl.round_check(outputs)
        except workloads.CheckFailed as exc:
            check_failures.append(f"round: {exc}")
        rounds.append({"ops": len(wl.ops), "timed_s": r1 - r0,
                       "checked_s": time.perf_counter() - r1})
        last_outputs = outputs
        now = time.perf_counter()
        # whole rounds only: start another one if it fits in --seconds, or
        # while the run holds too few times for a 90th percentile
        if (now - t_begin) + (now - r0) > args.seconds and len(spans) >= MIN_SAMPLES:
            break

    if not spans:
        raise SystemExit(f"bench: every operation failed: {errors[:3]}")
    raw_ms = [(t1 - t0) / 1e6 for t0, t1 in spans]
    ms = [r * host.factor(t0, t1) for r, (t0, t1) in zip(raw_ms, spans)]
    timed_s = sum(ms) / 1e3
    if tracer:
        metrics = layer_metrics(tracer, last_outputs, len(rounds),
                                statistics.median(gen_s) * setup_factor, timed_s,
                                sum(ms) / sum(raw_ms))
    else:
        metrics = {
            "ops_per_s": {"value": len(ms) / timed_s, "unit": "1/s"},
            "latency_p50_ms": {"value": percentile(ms, 50), "unit": "ms"},
            "latency_p90_ms": {"value": percentile(ms, 90), "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
            "margin_geomean": {"value": geomean(margins), "unit": "ratio"},
        }

    result = {"correct": not check_failures, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    env = environment()
    record = {
        "args": vars(args), "environment": env, "result": result,
        "setup": {"import_s": import_s, "generate_s": gen_s, "prepare_s": prep_s,
                  "host_factor": setup_factor},
        "rounds": rounds, "op_kinds": kinds, "op_ms": ms, "op_raw_ms": raw_ms,
        "op_start_ns": [t0 for t0, _ in spans], "margins": margins,
        "host_kernel": {"start_ns": host.starts, "ns": host.durations},
        "errors": errors, "check_failures": check_failures,
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"environment": env}))
    for line in errors[:5] + check_failures[:5]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
