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
    if not np.all(np.isfinite(vals)):
        raise ConfigError(f"line {lineno}: {key}: {value!r} has a number that is not finite")
    if count is not None and len(vals) != count:
        raise ConfigError(f"line {lineno}: {key} expects {count} numbers, got {len(vals)}")
    return vals


def _positive(value: str, lineno: int, key: str) -> float:
    x = _floats(value, lineno, key, 1)[0]
    if x <= 0:
        raise ConfigError(f"line {lineno}: {key} must be positive")
    return x


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
                exps = [int(p) for p in parts[1:]]
            except ValueError as exc:
                raise ConfigError(f"line {lineno}: {key}: {exc}") from None
            if any(e < 0 for e in exps):
                raise ConfigError(f"line {lineno}: {key}: exponents must be nonnegative")
            terms.append((_floats(parts[0], lineno, key, 1)[0], *exps))
    return Poly2T(terms, t_off=t_off)


def parse_config(text: str) -> RunConfig:
    sec = _parse_sections(text)

    def get(section, key, default=None):
        return sec.get(section, {}).get(key, (default, 0))

    def read(section, key, default, parse=_floats, *args):
        value, ln = get(section, key, default)
        return parse(value, ln, key, *args)

    box = read("geometry", "gel_box", "0.25 0.75 0.25 0.75", _floats, 4)
    span = read("geometry", "gel_span", "-1.0 1.0", _floats, 2)
    geom = CellGeometry(gel_box=((box[0], box[1]), (box[2], box[3])),
                        z_span=(span[0], span[1]))
    om = read("geometry", "omega", "0.0 1.0 0.0 1.0", _floats, 4)
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
    cell_n = read("geometry", "cell_n", "4", _int)
    plate_m = read("geometry", "plate_m", "8", _int)

    Ef, nuf = read("material", "fiber", "10.0 0.3", _floats, 2)
    Eg, nug = read("material", "gel", "1.0 0.35", _floats, 2)
    hooke = HookeTensor(fiber=isotropic(Ef, nuf), gel=isotropic(Eg, nug))
    biot = BiotParams(c=read("material", "biot_c", "1.0", _floats, 1)[0],
                      alpha=read("material", "biot_alpha", "1.0", _floats, 1)[0],
                      K=np.array(read("material", "permeability", "1 0 0 0 1 0 0 0 1",
                                      _floats, 9)).reshape(3, 3))

    t_off_raw, ln = get("loads", "t_off", "")
    t_off = None if not t_off_raw else _floats(t_off_raw, ln, "t_off", 1)[0]

    def load_poly(key):
        value, lineno = get("loads", key, "")
        return _poly(value or "", lineno, key, t_off)

    loads = LoadSpec(f1=load_poly("f1"), f2=load_poly("f2"),
                     f3=load_poly("f3"), h=load_poly("h"))

    T = read("time", "T", "0.5", _positive)
    value, ln = get("time", "nsteps", "8")
    nsteps = _int(value, ln, "nsteps")
    if nsteps < 1:
        raise ConfigError(f"line {ln}: nsteps must be >= 1")

    tol_cell = read("solver", "tol_cell", "1e-10", _positive)
    tol_step = read("solver", "tol_step", "1e-9", _positive)
    budget = read("solver", "budget_dofs", "300000", _int)

    value, ln = get("output", "formats", "csv vtk")
    formats = tuple(value.split())
    for token in formats:
        if token not in _FORMATS:
            raise ConfigError(f"line {ln}: unknown output format {token!r} "
                              f"(known: {', '.join(_FORMATS)})")
    snapshot_every = read("output", "snapshot_every", "0", _int)

    coeff_file, _ = get("verify", "coefficients_file", None)
    seed = read("verify", "seed", "0", _int)

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
