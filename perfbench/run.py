"""Run one benchmark workload in this process and print one JSON result line.

    python3 perfbench/run.py --workload wave-density --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
./src.  The run builds its inputs from --seed (set-up), then repeats
rounds of the same program calls until --seconds have passed, checks the
first round's outputs and that every later round reproduced them, and
prints {"correct", "attempted", "failed", "metrics"} as its last line.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 spans
are recorded around every public call of the program and the metrics are
per layer and per round (a trace file is left under perfbench/out/).
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

# The process's parallelism is the Monte Carlo pool (workers = 2); OpenBLAS
# threads on top of it made field evaluation slower and less steady.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _since_process_start():
    """Seconds from process start to now, from /proc (10 ms resolution); 0 if unreadable."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime", encoding="ascii") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return 0.0
    elapsed = uptime - start_ticks / os.sysconf("SC_CLK_TCK")
    return elapsed if 0.0 <= elapsed < 60.0 else 0.0


_PRE_SCRIPT_S = _since_process_start() - (time.perf_counter() - _T0)


def _parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_program():
    if not os.path.isfile(os.path.join(SRC, "nodalab", "__init__.py")):
        raise SystemExit(f"error: no program source at {SRC}/nodalab; run from a checkout root")
    sys.path.insert(0, SRC)
    import nodalab
    import nodalab.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(nodalab.__file__))) != SRC:
        raise SystemExit(f"error: imported nodalab from {nodalab.__file__}, not {SRC}")
    return nodalab


def main(argv):
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    args = _parse_args(argv, WORKLOADS)
    nodalab = _import_program()
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(nodalab)

    run_id = f"{args.workload}-s{args.seed}-p{os.getpid()}"
    out_root = os.path.join(HERE, "out")
    out_dir = os.path.join(out_root, run_id)
    os.makedirs(out_dir, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](nodalab, args.seed, out_dir)
        setup_s = max(_PRE_SCRIPT_S, 0.0) + (time.perf_counter() - _T0)

        round_times, captures, first, failed = [], [], None, 0
        start = time.perf_counter()
        while True:
            t = time.perf_counter()
            outputs = workload.run_round()
            round_times.append(time.perf_counter() - t)
            captures.append(workload.capture(outputs))
            failed += sum(isinstance(out, Exception) for out in outputs.values())
            first = first or outputs
            if time.perf_counter() - start >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()

        result = _evaluate(workload, first, captures, failed)
        print("round seconds: " + " ".join(f"{t:.3f}" for t in round_times), file=sys.stderr)
        wall_s = statistics.median(round_times)
        if tracer is None:
            result["metrics"] = {
                "wall_s": {"value": wall_s, "unit": "s"},
                "setup_s": {"value": setup_s, "unit": "s"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "mc_samples_per_s": {"value": workload.samples_per_round / wall_s, "unit": "1/s"},
                "mc_rel_se": {"value": statistics.median(workload.rel_ses(first)), "unit": "1"},
            }
        else:
            from spans import PER_LAYER_UNITS, layer_metrics

            layers = layer_metrics(tracer.spans, len(round_times), start)
            layers["cli.report_bytes"] = workload.report_bytes()
            layers["trace.wall_s"] = wall_s
            tracer.write(os.path.join(out_root, f"trace-{run_id}.json"))
            result["metrics"] = {k: {"value": v, "unit": PER_LAYER_UNITS[k]}
                                 for k, v in layers.items()}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _evaluate(workload, first, captures, failed):
    """Count attempted and failed operations and run the checks.

    An operation fails when it raises; `correct` covers the others: the
    first round passes every check and each later round reproduces it.
    """
    ops = list(workload.ops)
    correct = True
    bad = []
    try:
        checks = workload.verify(first)
    except Exception as exc:  # a check that cannot run is a failed check
        checks = {}
        correct = False
        bad.append(f"verification raised {exc!r}")
    for name in ops:
        if isinstance(first[name], Exception):
            print(f"FAILED {name}: {first[name]!r}", file=sys.stderr)
            continue
        for chk in checks.get(name, []):
            print(f"{'ok  ' if chk.passed else 'BAD '} {chk.name}: {chk.detail}", file=sys.stderr)
            if not chk.passed:
                correct = False
                bad.append(chk.name)
        if any(c[name] != captures[0][name] for c in captures[1:]):
            correct = False
            bad.append(f"{name}: a later round differs from the first")
    for msg in bad:
        print(f"check failed: {msg}", file=sys.stderr)
    return {"correct": correct, "attempted": len(ops) * len(captures), "failed": failed}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
