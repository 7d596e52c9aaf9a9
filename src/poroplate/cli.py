"""Command-line pipeline: cell -> homogenize -> micro -> macro -> mup -> converge -> verify-all.

Exit codes: 0 success, 1 config error, 2 solver failure, 3 acceptance failure.
Artifacts are deterministic (fixed dof orderings and iteration schedules), so
identical configs reproduce bit-identical CSV output.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import io as pio
from . import micro as micro_mod
from . import twoscale
from .cell import HomogenizedTensor, solve_cell
from .config import DEFAULT_CONFIG_TEXT, RunConfig, default_config, load_config
from .errors import ConfigError, PoroplateError, SolverError
from .geometry import build_cell_mesh, build_micro_mesh, build_plate_mesh
from .verify import AcceptanceSuite

EXIT_OK, EXIT_CONFIG, EXIT_SOLVER, EXIT_ACCEPT = 0, 1, 2, 3


@dataclass
class StageReport:
    name: str
    status: str
    wall_time: float
    details: dict = field(default_factory=dict)


@dataclass
class RunReport:
    stages: list = field(default_factory=list)
    verdicts: dict = field(default_factory=dict)

    def add(self, name, status, wall, **details):
        self.stages.append(StageReport(name, status, wall, details))

    def write(self, path):
        with open(path, "w") as f:
            f.write("poroplate run report\n")
            for s in self.stages:
                f.write(f"stage {s.name}: {s.status} ({s.wall_time:.2f}s)\n")
                for k, v in s.details.items():
                    f.write(f"    {k} = {v}\n")
            for cid, verdict in self.verdicts.items():
                f.write(f"check {cid}: {verdict}\n")


def _hom_from_file(path) -> HomogenizedTensor:
    try:
        kv = pio.read_keyvalues(path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"coefficients_file {path}: {exc}") from None
    mats = {name: np.zeros((3, 3)) for name in "abc"}
    for key, name, i, j in pio.HOM_KEYS:
        if np.ndim(kv.get(key, ())) != 0:
            raise ConfigError(f"coefficients_file {path}: key {key!r} is missing or not one number")
        mats[name][i, j] = kv[key]
    return HomogenizedTensor(a_eng=mats["a"], b_eng=mats["b"], c_eng=mats["c"])


def _cell_stage(cfg: RunConfig, out: str, report: RunReport, want_vtk=True):
    t0 = time.perf_counter()
    mesh = build_cell_mesh(cfg.geom, cfg.cell_n)
    cq = solve_cell(mesh, cfg.hooke, cfg.biot, cfg.tol_cell)
    fields = cq.correctors.fields
    if want_vtk and "vtk" in cfg.formats:
        pdata = {f"chi_{kind}_{a + 1}{b + 1}": fld for (kind, a, b), fld in fields.items()}
        pio.write_vtk(os.path.join(out, "correctors.vtk"), mesh.nodes, mesh.elems,
                      pio.VTK_HEX, point_data=pdata,
                      cell_data={"phase": mesh.phase.astype(float)})
    pairs = [(f"moment_{kind}_{a + 1}{b + 1}", cq.moments.scalar(kind, a, b))
             for (kind, a, b) in fields.keys()]
    pio.write_keyvalues(os.path.join(out, "cell_moments.txt"), pairs,
                        header="divergence moments int_gel div chi dy")
    report.add("cell", "ok", time.perf_counter() - t0, correctors=len(fields))
    return cq


def cmd_cell(cfg, out, report):
    _cell_stage(cfg, out, report)
    return EXIT_OK


def cmd_homogenize(cfg, out, report):
    cq = _cell_stage(cfg, out, report, want_vtk=False)
    t0 = time.perf_counter()
    hom = cq.hom
    with open(os.path.join(out, "homogenized.txt"), "w") as f:
        f.write(pio.hom_table_text(hom))
    pio.write_keyvalues(os.path.join(out, "homogenized.kv"), pio.hom_keyvalues(hom),
                        header="plate coefficients, engineering basis (e11, e22, 2e12)")
    if cfg.cell_n <= 6:  # dense-eigen feasible
        c_min, c_max = twoscale.norm_equivalence_spectrum(cq.op.mesh)
        pio.write_keyvalues(os.path.join(out, "spectrum.kv"),
                            [("c_min", c_min), ("C_max", c_max)],
                            header="norm-equivalence spectrum of the unfolded space")
    report.add("homogenize", "ok", time.perf_counter() - t0, lambda_min=hom.min_eigenvalue())
    return EXIT_OK


def cmd_micro(cfg, out, report):
    t0 = time.perf_counter()
    eps = cfg.eps_list[0]
    mesh = build_micro_mesh(cfg.geom, eps, cfg.omega, cfg.cell_n)
    sysm = micro_mod.assemble_micro(mesh, cfg.hooke, cfg.biot, eps, cfg.loads)
    cfg.loads.check_size(cfg.omega, cfg.T, cfg.hooke.coercivity())
    traj = micro_mod.run_transient(sysm, cfg.T, cfg.nsteps, tol=cfg.tol_step)
    pio.write_csv(os.path.join(out, "micro_norms.csv"), traj.table)
    if "vtk" in cfg.formats and cfg.snapshot_every > 0:
        for i, st in enumerate(traj.states):
            if i % cfg.snapshot_every == 0:
                pdata = {"displacement": st.U}
                pfull = np.zeros(mesh.n_nodes)
                pfull[mesh.gel_nodes] = st.p
                pdata["pressure"] = pfull
                pio.write_vtk(os.path.join(out, f"micro_{i:04d}.vtk"), mesh.nodes,
                              mesh.elems, pio.VTK_HEX, point_data=pdata)
    report.add("micro", "ok", time.perf_counter() - t0, eps=eps, steps=cfg.nsteps,
               decoupled=sysm.decoupled, korn=traj.korn_constant(eps))
    return EXIT_OK


def _macro_stage(cfg, out, report):
    cq = _cell_stage(cfg, out, report, want_vtk=False)
    t0 = time.perf_counter()
    plate = build_plate_mesh(cfg.omega, cfg.plate_m)
    msys = twoscale.assemble_macro(cq.hom, cq.op, cq.moments, plate, cfg.biot, cfg.loads)
    states, table = twoscale.run_macro(msys, cfg.T, cfg.nsteps)
    pio.write_csv(os.path.join(out, "macro_norms.csv"), table)
    if "vtk" in cfg.formats:
        final = states[-1]
        pio.write_vtk(os.path.join(out, "macro_final.vtk"), plate.nodes, plate.quads,
                      pio.VTK_QUAD, point_data={"W3": final.W3, "p_mean": msys.p_mean(final),
                                                "W_membrane": final.Wm})
    report.add("macro", "ok", time.perf_counter() - t0, steps=cfg.nsteps)
    return msys, states, table, cq.op.mesh


def cmd_macro(cfg, out, report):
    _macro_stage(cfg, out, report)
    return EXIT_OK


def cmd_mup(cfg, out, report):
    msys, states, table, mesh = _macro_stage(cfg, out, report)
    t0 = time.perf_counter()
    osys, ostates, otable = twoscale.solve_mup_direct(
        mesh, msys.space, cfg.hooke, cfg.biot, cfg.loads, cfg.T, cfg.nsteps,
        budget_dofs=cfg.budget_dofs)
    pio.write_csv(os.path.join(out, "mup_norms.csv"), otable)
    worst = twoscale.oracle_mismatch(msys, states, table, osys, ostates, otable)
    verdict = "pass" if worst <= twoscale.ORACLE_TOL else "fail"
    pio.write_keyvalues(os.path.join(out, "mup_equivalence.txt"),
                        [("max_rel_diff", worst), ("tolerance", twoscale.ORACLE_TOL),
                         ("verdict", verdict)])
    report.add("mup", "ok", time.perf_counter() - t0, max_rel_diff=worst)
    report.verdicts["mup_equivalence"] = verdict
    return EXIT_OK if verdict == "pass" else EXIT_ACCEPT


def cmd_converge(cfg, out, report):
    t0 = time.perf_counter()
    rows, monotone, _ = AcceptanceSuite(cfg).study()   # the sweep AC4 and AC6 read
    cols = ["eps", "e_inplane", "e_deflection", "e_strain", "e_pressure",
            "e_U_max", "p_max"]
    pio.write_csv(os.path.join(out, "convergence.csv"), rows, fieldnames=cols)
    verdict = "pass" if all(monotone.values()) else "fail"
    pio.write_keyvalues(os.path.join(out, "convergence_verdict.txt"),
                        [(k, str(v)) for k, v in monotone.items()] + [("verdict", verdict)])
    report.add("converge", "ok", time.perf_counter() - t0, **monotone)
    report.verdicts["residual_monotonicity"] = verdict
    return EXIT_OK if verdict == "pass" else EXIT_ACCEPT


def cmd_verify_all(cfg, out, report):
    suite = AcceptanceSuite(cfg)
    hom_override = None
    if cfg.coefficients_file:
        hom_override = _hom_from_file(cfg.coefficients_file)
    results = suite.run_all(hom_override=hom_override)
    rows = []
    ok = True
    for r in results:
        print(r.line())
        report.verdicts[r.check_id] = r.verdict
        report.add(r.check_id, r.verdict, r.runtime, **{
            k: v for k, v in r.details.items() if np.isscalar(v)})
        rows.append({"check": r.check_id, "verdict": r.verdict,
                     "runtime_s": r.runtime, "name": r.name})
        ok = ok and r.passed
    pio.write_csv(os.path.join(out, "verify_all.csv"), rows)
    return EXIT_OK if ok else EXIT_ACCEPT


COMMANDS = {
    "cell": cmd_cell,
    "homogenize": cmd_homogenize,
    "micro": cmd_micro,
    "macro": cmd_macro,
    "mup": cmd_mup,
    "converge": cmd_converge,
    "verify-all": cmd_verify_all,
}


def build_parser():
    p = argparse.ArgumentParser(
        prog="poroplate",
        description="Homogenization and dimension reduction of thin poroelastic plates.")
    p.add_argument("command", choices=sorted(COMMANDS), help="pipeline stage to run")
    p.add_argument("--config", metavar="PATH", default=None,
                   help="run configuration file (defaults to the built-in demo config)")
    p.add_argument("--out", metavar="DIR", default="out", help="artifact directory")
    p.add_argument("--write-default-config", metavar="PATH", default=None,
                   help="write the built-in demo config to PATH and exit")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.write_default_config:
        with open(args.write_default_config, "w") as f:
            f.write(DEFAULT_CONFIG_TEXT)
        return EXIT_OK
    try:
        cfg = load_config(args.config) if args.config else default_config()
    except PoroplateError as exc:
        # geometry/material validation of config data is a config error too
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    os.makedirs(args.out, exist_ok=True)
    report = RunReport()
    try:
        code = COMMANDS[args.command](cfg, args.out, report)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if exc.residuals:
            print(f"residual history tail: {exc.residuals[-5:]}", file=sys.stderr)
        return EXIT_SOLVER
    except PoroplateError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report.write(os.path.join(args.out, "report.txt"))
    return code


if __name__ == "__main__":
    sys.exit(main())
