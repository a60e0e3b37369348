"""croprot benchmark: one workload per run, closed loop, one caller.

    python3 perfbench/run.py --workload train-dec --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from --seed, sets up, warms up once, then
repeats the workload's unit of work until --seconds have passed and checks
every output.  Set-up is repeated on fresh workload instances spread over
the window.

The shared host runs at changing speeds: spells from under a second to
over a minute run up to 1.7x slower, so the mean time of a 30 s run swings
by a fifth from run to run.  Before each unit the benchmark therefore times
a fixed probe that does not touch croprot (a Python loop and small and
larger numpy products, like the workloads' own mix).  The timed figures, items_per_s
and setup_s, are scaled by PROBE_S / mean probe time: they read as on this
host at PROBE_S per probe, whatever share of the run was slow.  The raw
wall-clock figures and the host-speed factor are printed beside them.
With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced units and prints the per-layer
metrics of the traced ones.  The last line of stdout is the JSON result.
Run from the repository root; the library is imported from ./src.
"""

import os

# Pin native thread pools before numpy loads: one caller, no worker threads.
THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 8


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def _mean(values):
    return sum(values) / len(values)


# Probe time on a 2 vCPU "Intel(R) Xeon(R) Processor" KVM guest at its fast
# speed; only the ratio of probe times matters between runs.
PROBE_S = 0.016
_rng = np.random.default_rng(0)
_PROBE_SMALL = (_rng.standard_normal((64, 32)), _rng.standard_normal((32, 64)))
_PROBE_LARGE = (_rng.standard_normal((640, 64)), _rng.standard_normal((64, 128)))


def _probe():
    """Time a fixed piece of work independent of croprot: a Python loop,
    then small and larger numpy products."""
    t0 = time.perf_counter()
    acc, table = 0, {}
    for i in range(20000):
        acc += (i * 7) % 13
        table[i & 255] = acc
    for (x, w), repeats in ((_PROBE_SMALL, 500), (_PROBE_LARGE, 12)):
        for _ in range(repeats):
            np.maximum(x @ w, 0.0).mean(axis=0)
    return time.perf_counter() - t0


def _layer_metrics(tracer, setup_agg, op_agg, n_ops):
    """Per traced unit of work; a function only set-up calls is reported
    per set-up."""
    out = {}
    for name in tracer.names:
        (totals, _), n = (op_agg, n_ops) if op_agg[0]["calls"].get(name) else (setup_agg, 1)
        out[name + ".calls"] = (totals["calls"].get(name, 0) / n, "count")
        out[name + ".s"] = (totals["s"].get(name, 0.0) / n, "s")
        out[name + ".self_s"] = (totals["self_s"].get(name, 0.0) / n, "s")
    totals, derived = op_agg
    backward_calls = totals["calls"].get("autodiff.backward", 0)
    train_s = totals["s"].get("training.train_single_split", 0.0)
    records = derived["predict_records"]
    out["encoders.encode_batch.rows"] = (derived["encode_rows"] / n_ops, "rows")
    out["encoders.rows_per_record"] = (
        derived["predict_encode_rows"] / records if records else 0.0, "rows/record")
    out["autodiff.tape_ops_per_step"] = (
        derived["autodiff.backward.value"] / backward_calls if backward_calls else 0.0,
        "ops/step")
    out["training.val_predict_share"] = (
        derived["val_predict_s"] / train_s if train_s else 0.0, "ratio")
    out["cli.self_s"] = (
        sum(v for k, v in totals["self_s"].items() if k.startswith("cli.")) / n_ops, "s")
    return out


def _timed_setup(workload, seed, workdir, tracer=None):
    wd = tempfile.mkdtemp(dir=workdir)
    if tracer is not None:
        tracer.install()
    t0 = time.perf_counter()
    try:
        workload.setup(seed, wd)
    finally:
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    return dt


def bench(workload, seed, seconds, trace, workdir):
    from workloads import Workload

    tracer = tracing.Tracer() if trace else None
    attempted = failed = 0

    setup_times = [_timed_setup(workload, seed, workdir, tracer)]
    setup_agg = tracer.collect() if tracer else None

    attempted += workload.ops_per_run
    try:
        workload.warmup()
    except Exception:
        traceback.print_exc()
        failed += workload.ops_per_run

    times, traced_times, probe_times = [], [], []
    start = time.perf_counter()
    while True:
        probe_times.append(_probe())
        traced = tracer is not None and len(times) > len(traced_times)
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out = workload.run()
        except Exception:
            traceback.print_exc()
            out = None
        dt = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        attempted += workload.ops_per_run
        if out is None:
            failed += workload.ops_per_run
        else:
            try:
                failed += workload.check(out)
            except Exception:
                traceback.print_exc()
                failed += workload.ops_per_run
        (traced_times if traced else times).append(dt)
        # Set-up repeats on fresh instances are spread over the window, so
        # setup_s samples the host's speed as widely as items_per_s does.
        elapsed = time.perf_counter() - start
        if (tracer is None and len(setup_times) < SETUP_REPEATS
                and elapsed >= len(setup_times) * seconds / SETUP_REPEATS):
            setup_times.append(_timed_setup(type(workload)(), seed, workdir))
        if elapsed >= seconds and (tracer is None or traced_times):
            break
    while tracer is None and len(setup_times) < SETUP_REPEATS:
        setup_times.append(_timed_setup(type(workload)(), seed, workdir))

    a, f = workload.extra_checks()
    attempted, failed = attempted + a, failed + f

    print(f"units: {len(times)} untraced, {len(traced_times)} traced; "
          f"unit s: {' '.join(f'{t:.3f}' for t in times)}")
    print(f"setups s: {' '.join(f'{t:.3f}' for t in setup_times)}")
    speed = PROBE_S / _mean(probe_times)
    if tracer is None:
        unit_s = _mean(times) * speed
        report = {
            "setup_s": (_mean(setup_times) * speed, "s"),
            "items_per_s": (workload.items / unit_s, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "success_rate": (1.0 - failed / attempted, "ratio"),
        }
        extra = {
            "error_rate": (failed / attempted, "ratio"),
            "host_speed": (speed, "ratio"),
            "items_per_s_wall": (workload.items / _mean(times), "1/s"),
            "setup_s_wall": (_mean(setup_times), "s"),
            **workload.report(report["items_per_s"][0], unit_s),
        }
    else:
        report = _layer_metrics(tracer, setup_agg, tracer.collect(), len(traced_times))
        try:
            layer_extras = workload.layer_extras()
        except Exception:
            traceback.print_exc()
            failed += 1
            layer_extras = Workload.layer_extras(workload)
        report["training.val_miou"] = (layer_extras["training.val_miou"], "ratio")
        report["heads.obs_subset_drift"] = (layer_extras["heads.obs_subset_drift"], "logit")
        report["trace.overhead_share"] = (
            _mean(traced_times) / _mean(times) - 1.0, "ratio")
        report["trace.missing"] = (len(tracer.missing), "count")
        extra = {}
        print(f"missing: {tracer.missing}")
    for name, (value, unit) in {**report, **extra}.items():
        print(f"{name} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in report.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not os.path.isfile(os.path.join(SRC, "croprot", "__init__.py")):
        print(f"perfbench: no croprot sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import croprot
    from workloads import WORKLOADS

    if not os.path.abspath(croprot.__file__).startswith(SRC + os.sep):
        print(f"perfbench: croprot imported from {croprot.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")

    print(f"env: nproc {os.cpu_count()}; cpu {_cpu_model()}; "
          f"python {platform.python_version()}; numpy {np.__version__}; "
          f"threads {THREADS}; workload {args.workload}; seed {args.seed}; "
          f"seconds {args.seconds:g}; trace {args.trace}")
    scratch = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        result = bench(WORKLOADS[args.workload](), args.seed, args.seconds,
                       args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
