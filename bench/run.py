#!/usr/bin/env python3
"""poroplate benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload {kl_sweep,micro_two_path,macro_oracle_m12}
                         [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 the process runs as many whole passes of the workload as fit
in S seconds, checks every pass, and reports the end-to-end metrics as
medians over the passes.  With --trace 1 it starts one fresh interpreter per
traced pass (each of the three workloads once, with spans), plus one untraced
pass of the named workload for the tracing overhead, and reports the
per-layer metrics.  The last stdout line is the JSON result; the full record
(machine, versions, per-pass figures, check verdicts, spans) goes to bench/out/.
Exit codes: 0 correct, 1 a check failed, 2 the program could not be loaded.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("kl_sweep", "micro_two_path", "macro_oracle_m12")
TRACED_RUN_LIMIT_S = 170   # a run must end within 180 s
END_TO_END = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MiB"}
# per-layer metric -> (unit, workload whose traced pass measures it)
PER_LAYER = {
    "geometry.mesh_s": ("s", "kl_sweep"),
    "cell.correctors_s": ("s", "macro_oracle_m12"),
    "cell.correctors_cg_iters": ("count", "macro_oracle_m12"),
    "cell.pressure_op_s": ("s", "macro_oracle_m12"),
    "cell.homogenize_s": ("s", "macro_oracle_m12"),
    "micro.assemble_s": ("s", "kl_sweep"),
    "micro.step_s": ("s", "kl_sweep"),
    "micro.step_self_s": ("s", "kl_sweep"),
    "micro.iters_per_step.eps2": ("count", "kl_sweep"),
    "micro.iters_per_step.eps4": ("count", "kl_sweep"),
    "micro.iters_per_step.eps8": ("count", "kl_sweep"),
    "micro.schur_step_s": ("s", "micro_two_path"),
    "micro.schur_outer_iters": ("count", "micro_two_path"),
    "micro.schur_inner_iters": ("count", "micro_two_path"),
    "fem.pcg_calls": ("count", "kl_sweep"),
    "fem.pcg_iters": ("count", "kl_sweep"),
    "fem.pcg_s": ("s", "kl_sweep"),
    "fem.op_apply_s": ("s", "kl_sweep"),
    "fem.precond_apply_s": ("s", "kl_sweep"),
    "fem.op_bytes": ("B", "kl_sweep"),
    "twoscale.macro_build_s": ("s", "macro_oracle_m12"),
    "twoscale.oracle_build_s": ("s", "macro_oracle_m12"),
    "twoscale.macro_first_step_s": ("s", "macro_oracle_m12"),
    "twoscale.oracle_first_step_s": ("s", "macro_oracle_m12"),
    "twoscale.macro_step_s": ("s", "macro_oracle_m12"),
    "twoscale.oracle_step_s": ("s", "macro_oracle_m12"),
    "twoscale.norms_s": ("s", "macro_oracle_m12"),
    "twoscale.macro_peak_rise_mb": ("MiB", "macro_oracle_m12"),
    "twoscale.oracle_peak_rise_mb": ("MiB", "macro_oracle_m12"),
    "twoscale.residual_context_s": ("s", "kl_sweep"),
    "twoscale.residual_s": ("s", "kl_sweep"),
    "trace.overhead_s": ("s", None),
}


def load_program():
    """Import poroplate from this checkout's src/, never from an installed copy."""
    if not (SRC / "poroplate" / "__init__.py").is_file():
        print(f"bench: no poroplate sources under {SRC.name}/ next to {BENCH.name}/",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(BENCH)]
    import poroplate

    if Path(poroplate.__file__).resolve().parent != (SRC / "poroplate").resolve():
        print(f"bench: poroplate was imported from {poroplate.__file__}, not from {SRC.name}/",
              file=sys.stderr)
        sys.exit(2)


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(mod):
        try:
            dep = mod.__config__.CONFIG["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (AttributeError, KeyError, TypeError):
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np),
        "scipy_blas": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_sha": git_sha(),
    }


def git_sha():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------- one pass


def run_pass(workload, cfg, traced: bool):
    """Run one pass under a tracer; returns (record, output, spans, captured)."""
    from poroplate.errors import PoroplateError
    from tracing import STEPS, Tracer, phase_times

    captured = {"micro.step_monolithic": []}

    def keep_step(span, args, kwargs, result):
        span.attrs["eps"] = args[0].eps
        if span.name == "micro.step_monolithic":
            captured[span.name].append((args[0], args[1], args[2], result))

    tracer = Tracer(traced, on_call={"micro.step_monolithic": keep_step,
                                     "micro.step_schur": keep_step}).install()
    out, error = None, None
    t0 = time.perf_counter()
    try:
        out = workload.run(cfg, captured)
    except PoroplateError as exc:
        error = f"{type(exc).__name__}: {exc}"
    finally:
        wall = time.perf_counter() - t0
        tracer.restore()
    spans = tracer.spans
    setup, solve = phase_times(spans)
    steps_done = sum(1 for s in spans if s.name in STEPS and s.attrs.get("ok"))
    checks = workload.check(cfg, out) if out is not None else []
    passed = min(workload.checks, sum(1 for _, ok, _ in checks if ok))
    record = {
        "wall_s": wall, "setup_s": setup, "solve_s": solve, "error": error,
        "attempted": workload.steps + workload.checks,
        "failed": max(0, workload.steps - steps_done) + workload.checks - passed,
        "failed_checks": [[name, value] for name, ok, value in checks if not ok],
        "checks_run": len(checks),
    }
    return record, out, spans, captured


# ------------------------------------------------------------- per-layer


def layer_metrics(name, spans, captured) -> dict:
    """Per-layer figures this workload's traced pass is the source of."""
    from tracing import PCG, outermost, within

    def named(n):
        return [s for s in spans if s.name == n]

    def total(*names):
        return sum(s.dur for s in outermost(spans, set(names)))

    def iters(pcg_spans):
        return sum(s.attrs["iters"] for s in pcg_spans)

    m = {}
    if name == "kl_sweep":
        mono = named("micro.step_monolithic")
        m["geometry.mesh_s"] = total("geometry.build_cell_mesh", "geometry.build_micro_mesh",
                                     "geometry.build_plate_mesh")
        m["micro.assemble_s"] = total("micro.assemble_micro")
        for eps, key in ((0.5, "eps2"), (0.25, "eps4"), (0.125, "eps8")):
            steps = [s for s in mono if s.attrs["eps"] == eps]
            m[f"micro.iters_per_step.{key}"] = iters(
                [p for s in steps for p in within(spans, s, PCG)]) / len(steps)
        fine = [s for s in mono if s.attrs["eps"] == 0.125]
        m["micro.step_s"] = statistics.median(s.dur for s in fine)
        m["micro.step_self_s"] = statistics.median(
            s.dur - sum(p.dur for p in within(spans, s, PCG)) for s in fine)
        pcgs = [s for s in spans if s.name in PCG]
        m["fem.pcg_calls"] = len(pcgs)
        m["fem.pcg_iters"] = iters(pcgs)
        m["fem.pcg_s"] = total(*PCG)
        fine_pcg = [p for s in fine for p in within(spans, s, PCG)]
        m["fem.op_apply_s"] = sum(p.attrs["op_s"] for p in fine_pcg) / sum(
            p.attrs["op_n"] for p in fine_pcg)
        m["fem.precond_apply_s"] = sum(p.attrs["prec_s"] for p in fine_pcg) / sum(
            p.attrs["prec_n"] for p in fine_pcg)
        m["fem.op_bytes"] = schur_op_bytes(captured["micro.step_monolithic"][-1][0])
        m["twoscale.residual_context_s"] = total("twoscale.ResidualContext")
        m["twoscale.residual_s"] = total("twoscale.kirchhoff_love_residual")
    elif name == "micro_two_path":
        schur = named("micro.step_schur")
        m["micro.schur_step_s"] = statistics.median(s.dur for s in schur)
        m["micro.schur_outer_iters"] = iters(named("micro.pcg"))
        m["micro.schur_inner_iters"] = iters(
            [p for s in schur for p in within(spans, s, {"fem.pcg"})])
    else:
        m["cell.correctors_s"] = total("cell.solve_correctors")
        m["cell.correctors_cg_iters"] = iters(
            [p for s in named("cell.solve_correctors") for p in within(spans, s, PCG)])
        m["cell.pressure_op_s"] = total("cell.PressureCellOperator")
        m["cell.homogenize_s"] = total("cell.compute_homogenized")
        m["twoscale.macro_build_s"] = total("twoscale.assemble_macro")
        m["twoscale.oracle_build_s"] = total("twoscale.MupSystem")
        for kind, span_name in (("macro", "twoscale.MacroSystem.step"),
                                ("oracle", "twoscale.MupSystem.step")):
            steps = named(span_name)
            m[f"twoscale.{kind}_first_step_s"] = steps[0].dur
            m[f"twoscale.{kind}_step_s"] = statistics.median(s.dur for s in steps[1:])
        m["twoscale.norms_s"] = total("twoscale.norms")
        build, run = named("twoscale.assemble_macro")[0], named("twoscale.run_macro")[0]
        m["twoscale.macro_peak_rise_mb"] = run.attrs["rss_end_mb"] - build.attrs["rss_start_mb"]
        oracle = named("twoscale.solve_mup_direct")[0]
        m["twoscale.oracle_peak_rise_mb"] = (oracle.attrs["rss_end_mb"]
                                             - oracle.attrs["rss_start_mb"])
    return m


def schur_op_bytes(sysm) -> int:
    """Computed (not measured) bytes one monolithic Schur application
    B u + C^T (cM + dt D)^-1 C u moves: each CSR product reads its arrays and
    the input vector and writes the output; the congruent pressure blocks share
    one dense inverse; the final sum reads two vectors and writes one."""

    def csr(A):
        A = A.tocsr()
        return A.data.nbytes + A.indices.nbytes + A.indptr.nbytes + 8 * (A.shape[0] + A.shape[1])

    ng = sysm.mesh.n_gel_local
    block = 8 * (2 * sysm.n_p + ng * ng)
    return int(csr(sysm.B) + csr(sysm.C) + csr(sysm.C.T) + block + 3 * 8 * sysm.B.shape[0])


# ------------------------------------------------------------------ modes


def one_pass(args) -> dict:
    """Single pass in this process (used as the child of a --trace 1 run)."""
    from tracing import summary
    from workloads import WORKLOADS, make_config

    workload = WORKLOADS[args.workload]
    cfg, _ = make_config(args.seed)
    traced = args.one_pass == "traced"
    record, out, spans, captured = run_pass(workload, cfg, traced)
    if traced and out is not None:
        record["layers"] = layer_metrics(workload.name, spans, captured)
        OUT.mkdir(exist_ok=True)
        path = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": workload.name, "seed": args.seed,
                                    "summary": summary(spans),
                                    "spans": [s.as_dict(i) for i, s in enumerate(spans)]}))
    return record


def timed_runs(args, workload, cfg):
    """--trace 0: as many whole passes as fit in the time; medians of the pass
    figures.  Peak RSS is taken after the first pass, as a fresh process of a
    single run would see it; later passes only add heap fragmentation."""
    import tracing

    passes, self_test = [], None
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        record, out, _, _ = run_pass(workload, cfg, traced=False)
        if self_test is None and out is not None:
            self_test = workload.self_test(cfg, out)
        del out
        gc.collect()
        record["maxrss_mb"] = tracing.maxrss_mb()
        record["pass_s"] = time.perf_counter() - t
        passes.append(record)
        typical = statistics.median(p["pass_s"] for p in passes)
        if time.perf_counter() - start + typical > args.seconds:
            break
    metrics = {k: statistics.median(p[k] for p in passes) for k in ("wall_s", "setup_s", "solve_s")}
    metrics["peak_rss_mb"] = passes[0]["maxrss_mb"]
    return passes, self_test, metrics


def traced_runs(args, workload):
    """--trace 1: one fresh interpreter per pass; per-layer metrics from the
    traced passes, tracing overhead = traced minus untraced wall_s of the named
    workload."""
    plan = [(workload.name, "plain"), (workload.name, "traced")]
    plan += [(n, "traced") for n in WORKLOAD_NAMES if n != workload.name]
    children = {}
    deadline = time.monotonic() + TRACED_RUN_LIMIT_S
    for name, mode in plan:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--one-pass", mode]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            sys.exit(f"bench: {mode} pass of {name} ran past the {TRACED_RUN_LIMIT_S} s limit")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"bench: {mode} pass of {name} exited with {proc.returncode}")
        child = children[(name, mode)] = json.loads(proc.stdout.strip().splitlines()[-1])
        if mode == "traced" and "layers" not in child:
            sys.exit(f"bench: traced pass of {name} stopped early: {child['error']}")
    metrics = {}
    for metric, (_, source) in PER_LAYER.items():
        if source is not None:
            metrics[metric] = children[(source, "traced")]["layers"][metric]
    metrics["trace.overhead_s"] = (children[(workload.name, "traced")]["wall_s"]
                                   - children[(workload.name, "plain")]["wall_s"])
    passes = [dict(c, workload=n, mode=m) for (n, m), c in children.items()]
    return passes, None, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0, help="draws the load amplitudes (default 0)")
    p.add_argument("--seconds", type=float, default=40.0, help="measuring time of a --trace 0 run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--one-pass", choices=("plain", "traced"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    load_program()
    if args.one_pass:
        print(json.dumps(one_pass(args)))
        return 0

    from workloads import WORKLOADS, make_config

    workload = WORKLOADS[args.workload]
    cfg, factors = make_config(args.seed)
    env = environment()
    if args.trace:
        passes, self_test, metrics = traced_runs(args, workload)
        units = {k: u for k, (u, _) in PER_LAYER.items()}
    else:
        passes, self_test, metrics = timed_runs(args, workload, cfg)
        units = END_TO_END
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(r["failed"] for r in passes)
    # a pass stopped by a solver error runs no checks; its operations count
    # as failed, and `correct` speaks of the checks that did run
    correct = (all(not r["failed_checks"] for r in passes)
               and all(rejected for _, rejected, _ in self_test or []))
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}

    OUT.mkdir(exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "load_factors": [float(f) for f in factors],
              "environment": env, "passes": passes,
              "self_test": self_test, "result": result}
    (OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=float))

    print(f"workload {workload.name}  seed {args.seed}  passes {len(passes)}  "
          f"load factors {', '.join(f'{f:.4f}' for f in factors)}")
    print("environment " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for label, rejected, failing in self_test or []:
        print(f"self-test {'ok' if rejected else 'NOT REJECTED'}: {label} "
              f"({len(failing)} checks fail)")
    for r in passes:
        for check, value in r["failed_checks"]:
            print(f"FAILED check: {check} ({value})")
        if r["error"]:
            print(f"FAILED pass: {r['error']}")
    for k, v in result["metrics"].items():
        print(f"{k:32s} {v['value']:.6g} {v['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
