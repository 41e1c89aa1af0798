"""fleetplan benchmark: one workload, end to end or layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload solve-k10 --seed 0 --seconds 20 --trace 0

--trace 0 repeats whole rounds of the workload's operations until the
next round would end past --seconds (at least one round) and reports the
end-to-end metrics.  --trace 1 runs one untraced reference round, then
the same round with every layer wrapped, and reports the per-layer
metrics and the tracing overhead.  Human-readable audit lines go first;
the last line of standard output is one JSON object.  The program is
imported from ./src of the checkout, never from an installed copy.
"""

from __future__ import annotations

import os

# one thread per workload: keep BLAS pools out before NumPy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from calib import REFERENCE_CALIBRATION_S, Sampler, calibrate, rescale  # noqa: E402

# calibration passes run from here on, through the rest of the set-up
SAMPLER = Sampler()
if __name__ == "__main__":
    SAMPLER.start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"


def _fail(message: str) -> None:
    SAMPLER.stop()
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


if not (SRC / "fleetplan" / "__init__.py").is_file():
    _fail(f"no fleetplan sources at {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import fleetplan  # noqa: E402
from fleetplan.model import InfeasibleError, UnrepairableError  # noqa: E402

if Path(fleetplan.__file__).resolve().parent != (SRC / "fleetplan").resolve():
    _fail(f"imported fleetplan from {fleetplan.__file__}, not from {SRC}")

import layers  # noqa: E402
from tracing import INFEASIBLE, UNREPAIRABLE, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "evals_per_s": "1/s",
                    "objective": "units", "peak_rss_mb": "MB"}
ERROR_CODES = {InfeasibleError: INFEASIBLE, UnrepairableError: UNREPAIRABLE}


def _wall_since_process_start() -> float | None:
    """Wall seconds since the process started, from /proc (10 ms ticks)."""
    try:
        stat = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
        uptime = float(Path("/proc/uptime").read_text().split()[0])
    except (OSError, IndexError, ValueError):
        return None
    return uptime - int(stat[19]) / os.sysconf("SC_CLK_TCK")


def _threads() -> str:
    """OS threads of this process, to show the load is one thread."""
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        return "n/a"
    return next((line.split()[1] for line in status.splitlines()
                 if line.startswith("Threads:")), "n/a")


def _run_round(workload, tracer, before: float):
    """One round after a calibration; returns the ops, the calibration
    after the round, the round's mean calibration, CPU and wall seconds."""
    t_cpu, t_wall = time.thread_time(), time.perf_counter()
    ops = workload.round(tracer, SAMPLER)
    cpu, wall = time.thread_time() - t_cpu, time.perf_counter() - t_wall
    after = calibrate()
    return ops, after, (before + after) / 2, cpu, wall


def _op_seconds(op, round_calibration_s: float) -> float:
    return rescale(op.cpu_s, op.calibration_s or round_calibration_s)


def _audit_ops(ops, round_calibration_s: float) -> None:
    for op in ops:
        shown = " ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                         for k, v in op.values.items())
        status = "ok" if not op.failures else ("FAILED (known fault)" if op.known_fault
                                               else "FAILED")
        cal = op.calibration_s or round_calibration_s
        print(f"  {op.label}: cpu {op.cpu_s:.4f} s, wall {op.wall_s:.4f} s, calibration "
              f"{cal * 1e3:.4f} ms ({op.samples} passes), calibrated "
              f"{_op_seconds(op, round_calibration_s):.4f} s; {shown}; {status}")
        for failure in op.failures:
            print(f"    check failed: {failure}")


def _end_to_end(workload, rounds, setup: tuple[float, float | None, float]) -> dict:
    setup_cpu, setup_wall, setup_cal = setup
    # an operation that stopped before producing figures counts only in `failed`
    primary = [(op, cal) for ops, cal in rounds for op in ops
               if op.kind == workload.primary and op.values]
    work = sum(workload.work(op) for op, _ in primary)
    work_s = sum(rescale(workload.work_cpu_s(op), op.calibration_s or cal)
                 for op, cal in primary)
    metrics = {
        "setup_s": rescale(setup_cpu, setup_cal),
        "op_s": statistics.median(_op_seconds(op, cal) for op, cal in primary),
        "evals_per_s": work / work_s,
        "objective": workload.objective([op for op, _ in primary]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_cpu = statistics.median(op.cpu_s for op, _ in primary)
    raw_wall = statistics.median(op.wall_s for op, _ in primary)
    cal = statistics.median(op.calibration_s or c for op, c in primary)
    wall = "n/a" if setup_wall is None else f"{setup_wall:.2f}"
    print(f"metric setup_s {metrics['setup_s']:.4f} s (raw cpu {setup_cpu:.4f} s, raw wall "
          f"{wall} s, calibration {setup_cal * 1e3:.4f} ms)")
    print(f"metric op_s {metrics['op_s']:.4f} s (median over {len(primary)} {workload.primary} "
          f"ops; raw cpu {raw_cpu:.4f} s, raw wall {raw_wall:.4f} s, calibration "
          f"{cal * 1e3:.4f} ms)")
    print(f"metric evals_per_s {metrics['evals_per_s']:.2f} 1/s ({work} {workload.work_name} in "
          f"{work_s:.4f} calibrated s)")
    print(f"metric objective {metrics['objective']:.6g} units ({workload.objective_name})")
    print(f"metric peak_rss_mb {metrics['peak_rss_mb']:.2f} MB")
    return metrics


def _per_layer(workload, tracer, out_dir: Path, calibration: float) -> tuple:
    ops_ref, calibration, cal_ref, cpu_ref, wall_ref = _run_round(workload, tracer, calibration)
    print(f"reference round (untraced): cpu {cpu_ref:.4f} s, wall {wall_ref:.4f} s, "
          f"calibration before and after {cal_ref * 1e3:.4f} ms")
    _audit_ops(ops_ref, cal_ref)
    counters = {"greedy.reductions": 0}
    layers.install(tracer, counters)
    first_pass = len(SAMPLER.passes)
    tracer.enabled = True
    try:
        ops, _, cal, cpu, wall = _run_round(workload, tracer, calibration)
    finally:
        tracer.enabled = False
        tracer.restore()
    round_passes = SAMPLER.passes[first_pass:]
    span_cal = statistics.median(round_passes) / 1e9 if round_passes else cal
    print(f"traced round: cpu {cpu:.4f} s, wall {wall:.4f} s, calibration before and after "
          f"{cal * 1e3:.4f} ms, median pass during the round {span_cal * 1e3:.4f} ms")
    _audit_ops(ops, cal)
    spans = tracer.arrays(SAMPLER.starts, SAMPLER.passes)
    spans.save(out_dir / "spans.npz")
    metrics = layers.from_spans(spans, span_cal, counters, workload.horizon,
                                workload.samples_per_fit)
    metrics.update(layers.search_figures(ops_ref, cal_ref))
    metrics["trace.overhead"] = (sum(_op_seconds(op, cal) for op in ops)
                                 / sum(_op_seconds(op, cal_ref) for op in ops_ref) - 1)
    print(f"spans saved to {out_dir / 'spans.npz'}")
    print("self time by span (calibrated s): name, calls, total, self")
    for name, calls, total, own in layers.self_time_table(spans, span_cal):
        print(f"  {name}: {calls} calls, {total:.4f} s total, {own:.4f} s self")
    for name, unit in layers.UNITS.items():
        print(f"metric {name} {metrics[name]:.6g} {unit}")
    return metrics, ops_ref + ops


def _timed_rounds(workload, tracer, seconds: float, calibration: float, setup) -> tuple:
    rounds = []
    started = time.perf_counter()
    while True:
        round_started = time.perf_counter()
        ops, calibration, cal, cpu, wall = _run_round(workload, tracer, calibration)
        rounds.append((ops, cal))
        print(f"round {len(rounds)}: cpu {cpu:.4f} s, wall {wall:.4f} s, calibration "
              f"before and after {cal * 1e3:.4f} ms")
        _audit_ops(ops, cal)
        now = time.perf_counter()
        if now - started + (now - round_started) > seconds:
            break
    SAMPLER.stop()
    metrics = _end_to_end(workload, rounds, setup)
    return metrics, [op for ops, _ in rounds for op in ops]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](out_dir, args.seed)
    # cold set-up: interpreter start, imports, inputs generated, files written
    # and parsed; the main thread's CPU clock started with the process, and
    # the calibration passes that ran meanwhile are taken out
    setup_passes = list(SAMPLER.passes)
    setup_cpu = time.thread_time() - sum(setup_passes) / 1e9
    setup_wall = _wall_since_process_start()
    tracer = Tracer(ERROR_CODES)
    calibration = calibrate()
    setup_cal = statistics.fmean(setup_passes) / 1e9 if setup_passes else calibration

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace "
          f"{args.trace} (calibration reference {REFERENCE_CALIBRATION_S * 1e3:.4f} ms a pass)")
    try:
        if args.trace:
            metrics, all_ops = _per_layer(workload, tracer, out_dir, calibration)
            units = layers.UNITS
        else:
            metrics, all_ops = _timed_rounds(workload, tracer, args.seconds, calibration,
                                             (setup_cpu, setup_wall, setup_cal))
            units = END_TO_END_UNITS
    finally:
        SAMPLER.stop()

    print(f"threads {_threads()}")
    failed = [op for op in all_ops if op.failures]
    correct = all(op.known_fault for op in failed)
    print(json.dumps({
        "correct": correct,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
