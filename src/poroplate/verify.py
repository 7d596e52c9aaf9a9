"""The acceptance suite: one check per criterion, shared by CLI and tests.

Each check returns a CheckResult; `verify-all` runs every check and the
pytest acceptance module asserts them individually.  Heavy intermediate
results (the eps sweep) are computed once and shared.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import micro as micro_mod
from . import twoscale
from .cell import (HomogenizedTensor, compute_homogenized, eng_to_kelvin, solve_cell,
                   solve_correctors)
from .config import RunConfig, default_config
from .geometry import CellGeometry, build_cell_mesh, build_micro_mesh, build_plate_mesh
from .material import HookeTensor, LoadSpec, Poly2T, isotropic


@dataclass
class CheckResult:
    check_id: str
    name: str
    passed: bool
    runtime: float
    limit: float
    details: dict = field(default_factory=dict)

    @property
    def verdict(self) -> str:
        return "pass" if self.passed else "fail"

    def line(self) -> str:
        return f"[{self.check_id}] {self.verdict.upper():4s} ({self.runtime:7.2f}s / {self.limit:.0f}s) {self.name}"


def _timed(limit):
    def wrap(fn):
        def run(self, *a, **k):
            t0 = time.perf_counter()
            passed, details = fn(self, *a, **k)
            dt = time.perf_counter() - t0
            ok = bool(passed) and dt <= limit
            if dt > limit:
                details["runtime_exceeded"] = dt
            return CheckResult(fn.__name__.replace("check_", "").upper(), fn.__doc__.splitlines()[0],
                               ok, dt, limit, details)
        run.__name__ = fn.__name__
        return run
    return wrap


class AcceptanceSuite:
    """Runs the acceptance criteria on one configuration."""

    def __init__(self, cfg: RunConfig | None = None):
        self.cfg = cfg if cfg is not None else default_config()
        self._study = None
        self._cell = None

    # ------------------------------------------------------------- caches

    def cell_pipeline(self):
        """The config's `CellQuantities`, solved on first use."""
        if self._cell is None:
            cfg = self.cfg
            self._cell = solve_cell(build_cell_mesh(cfg.geom, cfg.cell_n), cfg.hooke, cfg.biot,
                                    cfg.tol_cell)
        return self._cell

    def study(self):
        if self._study is None:
            cfg = self.cfg
            self._study = twoscale.convergence_study(
                cfg.geom, cfg.hooke, cfg.biot, cfg.loads, cfg.omega,
                cfg.eps_list, cfg.cell_n, cfg.plate_m, cfg.T, cfg.nsteps,
                tol=cfg.tol_step, tol_cell=cfg.tol_cell)
        return self._study

    # ------------------------------------------------------------- checks

    @_timed(30.0)
    def check_ac1(self):
        """Corrector correctness on a homogeneous isotropic cell."""
        E, nu = 1.0, 0.3
        hooke = HookeTensor(fiber=isotropic(E, nu), gel=isotropic(E, nu))
        Q = E / (1 - nu**2) * np.array([[1, nu, 0], [nu, 1, 0], [0, 0, (1 - nu) / 2]])
        errs = {}
        for n in (4, 8):
            mesh = build_cell_mesh(self.cfg.geom, n)
            cs = solve_correctors(mesh, hooke, tol=self.cfg.tol_cell)
            hom = compute_homogenized(mesh, hooke, cs)
            errs[n] = {
                "b_max": float(np.abs(hom.b_eng).max()),
                "a_rel": float(np.abs(hom.a_eng - Q).max() / np.abs(Q).max()),
                "c_vs_a3": float(np.abs(hom.c_eng - hom.a_eng / 3.0).max() / np.abs(Q / 3).max()),
                "c_abs": float(np.abs(hom.c_eng - Q / 3.0).max()),
            }
        ok = (
            errs[8]["b_max"] <= 1e-10
            and errs[8]["a_rel"] <= 0.01
            and errs[8]["c_vs_a3"] <= 0.01
            and errs[8]["c_abs"] < errs[4]["c_abs"]
        )
        return ok, {"n4": errs[4], "n8": errs[8]}

    @_timed(60.0)
    def check_ac2(self):
        """Homogenized tensor admissibility and Reuss/Voigt bounds."""
        cq = self.cell_pipeline()
        mesh, hom = cq.op.mesh, cq.hom
        blk = hom.kelvin_block(1.0)
        sym = float(np.abs(blk - blk.T).max())
        lam_min = float(np.linalg.eigvalsh(blk).min())
        # Voigt upper bound: in-plane block of the volume-averaged stiffness
        frac_g = mesh.geom.gel_volume / mesh.volume
        D_avg = (1 - frac_g) * self.cfg.hooke.fiber + frac_g * self.cfg.hooke.gel
        ix = np.ix_([0, 1, 5], [0, 1, 5])
        a_V = D_avg[ix]
        # Reuss lower bound: harmonic mean of plane-stress compliances
        S_avg = ((1 - frac_g) * np.linalg.inv(self.cfg.hooke.fiber)
                 + frac_g * np.linalg.inv(self.cfg.hooke.gel))
        a_R = np.linalg.inv(S_avg[ix])
        lam_upper = float(np.linalg.eigvalsh(eng_to_kelvin(a_V - hom.a_eng)).min())
        lam_lower = float(np.linalg.eigvalsh(eng_to_kelvin(hom.a_eng - a_R)).min())
        ok = sym <= 1e-12 and lam_min > 1e-10 and lam_upper >= -1e-10 and lam_lower >= -1e-10
        return ok, {"block_asymmetry": sym, "lambda_min": lam_min,
                    "voigt_gap": lam_upper, "reuss_gap": lam_lower}

    @_timed(120.0)
    def check_ac3(self):
        """Two-path micro equivalence (monolithic vs Schur-ODE)."""
        cfg = self.cfg
        eps = 0.25
        mesh = build_micro_mesh(cfg.geom, eps, cfg.omega, cfg.cell_n)
        sysm = micro_mod.assemble_micro(mesh, cfg.hooke, cfg.biot, eps, cfg.loads)
        tr1 = micro_mod.run_transient(sysm, cfg.T, 16, stepper="monolithic", tol=cfg.tol_step)
        tr2 = micro_mod.run_transient(sysm, cfg.T, 16, stepper="schur", tol=cfg.tol_step)
        worst = 0.0
        for a, b in zip(tr1.table[1:], tr2.table[1:]):
            for key in ("p", "e_U"):
                scale = max(abs(b[key]), 1e-30)
                worst = max(worst, abs(a[key] - b[key]) / scale)
        return worst <= 1e-7, {"max_rel_diff": worst}

    @_timed(900.0)
    def check_ac4(self):
        """A-priori scaling: log-log slopes of the eps sweep near 3/2."""
        rows, _, _ = self.study()
        eps = np.array([r["eps"] for r in rows])
        out = {}
        ok = True
        for key in ("e_U_max", "p_max"):
            y = np.array([r[key] for r in rows])
            slope = float(np.polyfit(np.log(eps), np.log(y), 1)[0])
            out[key + "_slope"] = slope
            ok = ok and 1.3 <= slope <= 1.7
        return ok, out

    @_timed(300.0)
    def check_ac5(self, hom_override: HomogenizedTensor | None = None):
        """Corrector-elimination oracle: direct two-scale vs homogenized path."""
        cfg = self.cfg
        cq = self.cell_pipeline()
        hom = cq.hom if hom_override is None else hom_override
        plate = build_plate_mesh(cfg.omega, 4)
        msys = twoscale.assemble_macro(hom, cq.op, cq.moments, plate, cfg.biot, cfg.loads)
        mstates, mtable = twoscale.run_macro(msys, cfg.T, 8)
        osys, ostates, otable = twoscale.solve_mup_direct(
            cq.op.mesh, plate, cfg.hooke, cfg.biot, cfg.loads, cfg.T, 8,
            budget_dofs=cfg.budget_dofs)
        worst = twoscale.oracle_mismatch(msys, mstates, mtable, osys, ostates, otable)
        return worst <= twoscale.ORACLE_TOL, {"max_rel_diff": worst}

    @_timed(1200.0)
    def check_ac6(self):
        """Kirchhoff-Love convergence: unfolded residuals decrease with eps."""
        rows, monotone, _ = self.study()
        ok = all(monotone.values()) and len(rows) >= 3
        table = {f"eps={r['eps']}": {k: r[k] for k in
                                     ("e_inplane", "e_deflection", "e_strain", "e_pressure")}
                 for r in rows}
        return ok, {"monotone": monotone, "residuals": table}

    @_timed(10.0)
    def check_ac7(self):
        """Unfolding identities: gradient identity and measure-factor isometry."""
        cfg = self.cfg
        eps = 0.25
        mesh = build_micro_mesh(cfg.geom, eps, cfg.omega, cfg.cell_n)
        cell = build_cell_mesh(cfg.geom, cfg.cell_n)
        rng = np.random.default_rng(cfg.seed)
        worst_grad = worst_iso = 0.0
        for _ in range(10):
            psi = rng.standard_normal(mesh.n_nodes)
            worst_grad = max(worst_grad,
                             twoscale.gradient_identity_error(psi, mesh, cell)
                             / max(np.abs(psi).max(), 1.0))
            worst_iso = max(worst_iso, twoscale.isometry_error(psi, mesh, cell))
        ok = worst_grad <= 1e-12 and worst_iso <= 1e-12
        return ok, {"gradient_identity": worst_grad, "isometry": worst_iso}

    @_timed(120.0)
    def check_ac8(self):
        """Zero-data uniqueness and energy decay after switching loads off."""
        cfg = self.cfg
        eps = 0.25
        mesh = build_micro_mesh(cfg.geom, eps, cfg.omega, cfg.cell_n)
        cq = self.cell_pipeline()
        plate = build_plate_mesh(cfg.omega, cfg.plate_m)

        def tables(loads, nsteps):
            """The micro and the macro norm tables of one load history."""
            sysm = micro_mod.assemble_micro(mesh, cfg.hooke, cfg.biot, eps, loads)
            msys = twoscale.assemble_macro(cq.hom, cq.op, cq.moments, plate, cfg.biot, loads)
            return (micro_mod.run_transient(sysm, cfg.T, nsteps, tol=cfg.tol_step).table,
                    twoscale.run_macro(msys, cfg.T, nsteps)[1])

        micro0, macro0 = tables(LoadSpec(), 8)
        micro_zero = max(r[k] for r in micro0 for k in ("e_U", "p"))
        macro_zero = max(r[k] for r in macro0 for k in ("Wm", "W3", "p0"))

        t_off = 0.25 * cfg.T

        def cut(p: Poly2T) -> Poly2T:
            return Poly2T(p.terms, t_off=t_off)

        loads_off = LoadSpec(f1=cut(cfg.loads.f1), f2=cut(cfg.loads.f2),
                             f3=cut(cfg.loads.f3), h=cut(cfg.loads.h))
        nst = 16
        k0 = int(np.ceil(t_off / (cfg.T / nst))) + 1

        def decays(table):
            """The energy does not grow from step k0 on."""
            return all(b["energy"] <= a["energy"] * (1 + 1e-12) + 1e-300
                       for a, b in zip(table[k0:], table[k0 + 1:]))

        micro_decay, macro_decay = (decays(table) for table in tables(loads_off, nst))

        ok = micro_zero <= 1e-12 and macro_zero <= 1e-12 and micro_decay and macro_decay
        return ok, {"micro_zero": micro_zero, "macro_zero": macro_zero,
                    "micro_decay": micro_decay, "macro_decay": macro_decay}

    @_timed(120.0)
    def check_ac9(self):
        """Unfolded-space norm equivalence: positive stable lower spectrum."""
        geoms = {
            2: CellGeometry(gel_box=None),
            3: CellGeometry(gel_box=((1 / 3, 2 / 3), (1 / 3, 2 / 3))),
            4: self.cfg.geom,
        }
        c_mins = {}
        for n, g in geoms.items():
            mesh = build_cell_mesh(g, n)
            c_min, c_max = twoscale.norm_equivalence_spectrum(mesh)
            c_mins[n] = c_min
        vals = list(c_mins.values())
        ok = all(v > 0 for v in vals) and max(vals) <= 2.0 * min(vals)
        return ok, {"c_min": c_mins, "spread": max(vals) / min(vals)}

    @_timed(30.0)
    def check_ac10(self):
        """Decomposition diagnostics on manufactured plate displacements."""
        cfg = self.cfg
        eps = 0.25
        mesh = build_micro_mesh(cfg.geom, eps, cfg.omega, cfg.cell_n)
        X = mesh.nodes
        ncol = (mesh.nelems[0] + 1) * (mesh.nelems[1] + 1)
        worst = 0.0
        # rigid in-plane translation
        U = np.zeros((mesh.n_nodes, 3))
        U[:, 0], U[:, 1] = 1.0, -2.0
        rep = micro_mod.griso_decompose(U, mesh)
        worst = max(worst, float(np.abs(rep.W - [1.0, -2.0, 0.0]).max()),
                    float(np.abs(rep.R).max()), float(np.abs(rep.wbar).max()))
        # pure fiber rotation U = (x3 g, 0, 0)
        g = X[:, 0] + 2.0 * X[:, 1]
        U = np.zeros((mesh.n_nodes, 3))
        U[:, 0] = X[:, 2] * g
        rep = micro_mod.griso_decompose(U, mesh)
        worst = max(worst, float(np.abs(rep.R[:, 0] - g[:ncol]).max()),
                    float(np.abs(rep.W).max()))
        # Kirchhoff-Love field
        phi = X[:, 0] ** 2 - 0.5 * X[:, 1] ** 2 + X[:, 0] * X[:, 1]
        d1 = 2 * X[:, 0] + X[:, 1]
        d2 = -X[:, 1] + X[:, 0]
        U = np.stack([-X[:, 2] * d1, -X[:, 2] * d2, phi], axis=-1)
        rep = micro_mod.griso_decompose(U, mesh)
        worst = max(worst, float(np.abs(rep.wbar).max()),
                    float(np.abs(rep.R[:, 0] + d1[:ncol]).max()),
                    float(np.abs(rep.R[:, 1] + d2[:ncol]).max()),
                    float(np.abs(rep.W[:, 2] - phi[:ncol]).max()))
        wbar_avg = rep.max_wbar_average
        # affine extension reproduction
        S = np.array([[0.4, 0.1, 0.0], [0.1, -0.2, 0.3], [0.0, 0.3, 0.1]])
        U = X @ S.T + np.array([0.5, -0.1, 0.2])
        W = micro_mod.extend_fiber(U, mesh, cfg.hooke)
        worst = max(worst, float(np.abs(W - U).max()))
        ok = worst <= 1e-10 and wbar_avg <= 1e-10
        return ok, {"max_defect": worst, "wbar_thickness_average": wbar_avg}

    # ------------------------------------------------------------- driver

    def run_all(self, hom_override: HomogenizedTensor | None = None):
        results = [
            self.check_ac1(),
            self.check_ac2(),
            self.check_ac3(),
            self.check_ac4(),
            self.check_ac5(hom_override=hom_override),
            self.check_ac6(),
            self.check_ac7(),
            self.check_ac8(),
            self.check_ac9(),
            self.check_ac10(),
        ]
        return results
