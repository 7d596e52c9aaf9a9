"""Run configuration: flat sectioned key-value text with schema validation.

Grammar (one statement per line):

    [section]            # geometry, material, loads, time, solver, output, verify
    key = value ...      # whitespace-separated scalars
    # comment            # full-line or trailing comments

Load expressions are monomial lists ``coeff p1 p2 pt`` (meaning
``coeff * x1^p1 * x2^p2 * t^pt``) with terms separated by ``;``.  A load can
be switched off mid-run via ``t_off``.  ``[output] formats`` lists the
artifact formats, ``csv`` and ``vtk``; CSVs are written whatever it says, so
in effect it switches VTK output on or off.  Unknown sections, keys or format
tokens are schema errors carrying the offending line number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .geometry import CellGeometry
from .material import BiotParams, HookeTensor, LoadSpec, Poly2T, isotropic

_SCHEMA = {
    "geometry": {"gel_box", "gel_span", "omega", "eps_list", "cell_n", "plate_m"},
    "material": {"fiber", "gel", "biot_c", "biot_alpha", "permeability"},
    "loads": {"f1", "f2", "f3", "h", "t_off"},
    "time": {"T", "nsteps"},
    "solver": {"tol_cell", "tol_step", "budget_dofs"},
    "output": {"formats", "snapshot_every"},
    "verify": {"coefficients_file", "seed"},
}
_FORMATS = ("csv", "vtk")

DEFAULT_CONFIG_TEXT = """\
[geometry]
gel_box = 0.25 0.75 0.25 0.75
omega = 0.0 1.0 0.0 1.0
eps_list = 0.25 0.125 0.0625
cell_n = 4
plate_m = 8

[material]
fiber = 10.0 0.3
gel = 1.0 0.35
biot_c = 1.0
biot_alpha = 1.0
permeability = 1 0 0 0 1 0 0 0 1

[loads]
f1 = 0.5 0 0 1
f3 = 1.0 0 0 1
h = 1.0 0 0 1

[time]
T = 0.5
nsteps = 8

[solver]
tol_cell = 1e-10
tol_step = 1e-9
budget_dofs = 300000

[output]
formats = csv vtk
"""


@dataclass
class RunConfig:
    geom: CellGeometry
    omega: tuple
    eps_list: list
    cell_n: int
    plate_m: int
    hooke: HookeTensor
    biot: BiotParams
    loads: LoadSpec
    T: float
    nsteps: int
    tol_cell: float
    tol_step: float
    budget_dofs: int
    formats: tuple
    snapshot_every: int
    coefficients_file: str | None
    seed: int


def _parse_sections(text: str) -> dict:
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{current}]")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _SCHEMA[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in section [{current}]")
        sections[current][key] = (value.strip(), lineno)
    return sections


def _floats(value: str, lineno: int, key: str, count: int | None = None):
    try:
        vals = [float(v) for v in value.split()]
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {key}: {exc}") from None
    if count is not None and len(vals) != count:
        raise ConfigError(f"line {lineno}: {key} expects {count} numbers, got {len(vals)}")
    return vals


def _int(value: str, lineno: int, key: str) -> int:
    x = _floats(value, lineno, key, 1)[0]
    if not x.is_integer():
        raise ConfigError(f"line {lineno}: {key} must be an integer, got {value!r}")
    return int(x)


def _poly(value: str, lineno: int, key: str, t_off) -> Poly2T:
    terms = []
    if value:
        for chunk in value.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split()
            if len(parts) != 4:
                raise ConfigError(
                    f"line {lineno}: {key}: each monomial is 'coeff p1 p2 pt', got {chunk!r}")
            try:
                coeff = float(parts[0])
                exps = [int(p) for p in parts[1:]]
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key}: {exc}") from None
            if any(e < 0 for e in exps):
                raise ConfigError(f"line {lineno}: {key}: exponents must be nonnegative")
            terms.append((coeff, *exps))
    return Poly2T(terms, t_off=t_off)


def parse_config(text: str) -> RunConfig:
    sec = _parse_sections(text)

    def get(section, key, default=None):
        return sec.get(section, {}).get(key, (default, 0))

    value, ln = get("geometry", "gel_box", "0.25 0.75 0.25 0.75")
    box = _floats(value, ln, "gel_box", 4)
    gv, ln2 = get("geometry", "gel_span", "-1.0 1.0")
    span = _floats(gv, ln2, "gel_span", 2)
    geom = CellGeometry(gel_box=((box[0], box[1]), (box[2], box[3])),
                        z_span=(span[0], span[1]))
    value, ln = get("geometry", "omega", "0.0 1.0 0.0 1.0")
    om = _floats(value, ln, "omega", 4)
    omega = ((om[0], om[1]), (om[2], om[3]))
    value, ln = get("geometry", "eps_list", "0.25")
    eps_list = _floats(value, ln, "eps_list")
    if any(e <= 0 for e in eps_list):
        raise ConfigError(f"line {ln}: eps_list entries must be positive")
    for e in eps_list:
        for a, b in omega:
            ratio = (b - a) / e
            if abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError(f"line {ln}: eps={e} does not tile the omega edge ({a}, {b})")
    value, ln = get("geometry", "cell_n", "4")
    cell_n = _int(value, ln, "cell_n")
    value, ln = get("geometry", "plate_m", "8")
    plate_m = _int(value, ln, "plate_m")

    value, ln = get("material", "fiber", "10.0 0.3")
    Ef, nuf = _floats(value, ln, "fiber", 2)
    value, ln = get("material", "gel", "1.0 0.35")
    Eg, nug = _floats(value, ln, "gel", 2)
    hooke = HookeTensor(fiber=isotropic(Ef, nuf), gel=isotropic(Eg, nug))
    value, ln = get("material", "biot_c", "1.0")
    c = _floats(value, ln, "biot_c", 1)[0]
    value, ln = get("material", "biot_alpha", "1.0")
    alpha = _floats(value, ln, "biot_alpha", 1)[0]
    value, ln = get("material", "permeability", "1 0 0 0 1 0 0 0 1")
    K = np.array(_floats(value, ln, "permeability", 9)).reshape(3, 3)
    biot = BiotParams(c=c, alpha=alpha, K=K)

    t_off_raw, ln = get("loads", "t_off", "")
    t_off = None if not t_off_raw else _floats(t_off_raw, ln, "t_off", 1)[0]

    def load_poly(key):
        value, lineno = get("loads", key, "")
        return _poly(value or "", lineno, key, t_off)

    loads = LoadSpec(f1=load_poly("f1"), f2=load_poly("f2"),
                     f3=load_poly("f3"), h=load_poly("h"))

    value, ln = get("time", "T", "0.5")
    T = _floats(value, ln, "T", 1)[0]
    if T <= 0:
        raise ConfigError(f"line {ln}: T must be positive")
    value, ln = get("time", "nsteps", "8")
    nsteps = _int(value, ln, "nsteps")
    if nsteps < 1:
        raise ConfigError(f"line {ln}: nsteps must be >= 1")

    value, ln = get("solver", "tol_cell", "1e-10")
    tol_cell = _floats(value, ln, "tol_cell", 1)[0]
    value, ln = get("solver", "tol_step", "1e-9")
    tol_step = _floats(value, ln, "tol_step", 1)[0]
    if tol_cell <= 0 or tol_step <= 0:
        raise ConfigError("solver tolerances must be positive")
    value, ln = get("solver", "budget_dofs", "300000")
    budget = _int(value, ln, "budget_dofs")

    value, ln = get("output", "formats", "csv vtk")
    formats = tuple(value.split())
    for token in formats:
        if token not in _FORMATS:
            raise ConfigError(f"line {ln}: unknown output format {token!r} "
                              f"(known: {', '.join(_FORMATS)})")
    value, ln = get("output", "snapshot_every", "0")
    snapshot_every = _int(value, ln, "snapshot_every")

    coeff_file, _ = get("verify", "coefficients_file", None)
    value, ln = get("verify", "seed", "0")
    seed = _int(value, ln, "seed")

    return RunConfig(
        geom=geom, omega=omega, eps_list=list(eps_list), cell_n=cell_n, plate_m=plate_m,
        hooke=hooke, biot=biot, loads=loads, T=T, nsteps=nsteps,
        tol_cell=tol_cell, tol_step=tol_step, budget_dofs=budget,
        formats=formats, snapshot_every=snapshot_every,
        coefficients_file=coeff_file, seed=seed,
    )


def load_config(path) -> RunConfig:
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config(text)


def default_config() -> RunConfig:
    return parse_config(DEFAULT_CONFIG_TEXT)
