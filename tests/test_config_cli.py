import filecmp
import os

import numpy as np
import pytest

from poroplate import cli
from poroplate import io as pio
from poroplate.config import DEFAULT_CONFIG_TEXT, default_config, parse_config
from poroplate.errors import ConfigError

TINY = """\
[geometry]
gel_box = 0.25 0.75 0.25 0.75
omega = 0.0 1.0 0.0 1.0
eps_list = 0.25
cell_n = 4
plate_m = 4

[material]
fiber = 10.0 0.3
gel = 1.0 0.35

[loads]
f3 = 1.0 0 0 1
h = 1.0 0 0 1

[time]
T = 0.25
nsteps = 2
"""


def test_default_config_parses():
    cfg = default_config()
    assert cfg.cell_n == 4
    assert cfg.eps_list == [0.25, 0.125, 0.0625]
    assert cfg.biot.alpha == 1.0
    assert cfg.loads.f3.terms


def test_unknown_section_reports_line():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("[nosuch]\nkey = 1\n")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[time]\nbogus = 1\n")


def test_bad_monomial_rejected():
    with pytest.raises(ConfigError, match="monomial"):
        parse_config("[loads]\nf3 = 1.0 0 0\n")


def test_eps_must_tile_omega():
    text = TINY.replace("eps_list = 0.25", "eps_list = 0.3")
    with pytest.raises(ConfigError, match="tile"):
        parse_config(text)


def test_tolerances_positive():
    text = TINY + "\n[solver]\ntol_cell = -1\n"
    lineno = text.splitlines().index("tol_cell = -1") + 1
    with pytest.raises(ConfigError, match=f"line {lineno}: tol_cell must be positive"):
        parse_config(text)


@pytest.mark.parametrize("old, new, key", [
    ("gel_box = 0.25 0.75 0.25 0.75", "gel_box = 0.25 nan 0.25 0.75", "gel_box"),
    ("cell_n = 4", "cell_n = inf", "cell_n"),
    ("fiber = 10.0 0.3", "fiber = -inf 0.3", "fiber"),
    ("f3 = 1.0 0 0 1", "f3 = nan 0 0 1", "f3"),
    ("h = 1.0 0 0 1", "h = 1.0 0 0 1\nt_off = inf", "t_off"),
    ("T = 0.25", "T = inf", "T"),
    ("nsteps = 2", "nsteps = 2\n[solver]\ntol_cell = nan", "tol_cell"),
])
def test_non_finite_numbers_rejected(old, new, key):
    # nan fails every comparison and inf passes every positivity check, so
    # neither may reach a solver
    text = TINY.replace(old, new)
    lineno = next(i for i, line in enumerate(text.splitlines(), 1) if line.startswith(f"{key} ="))
    with pytest.raises(ConfigError, match=f"line {lineno}: {key}: .* not finite"):
        parse_config(text)


@pytest.mark.parametrize("command, extra", [
    ("cell", "[solver]\ntol_cell = nan"),
    ("homogenize", "[solver]\ntol_cell = nan"),
    ("macro", "[time]\nT = inf"),
])
def test_cli_non_finite_config_exit_code(tmp_path, capsys, command, extra):
    # on the demo config each exited 0 before: six zero moments, the Voigt a11, a NaN row
    text = TINY + "\n" + extra + "\n"
    lineno = len(text.splitlines())
    cfgp = tmp_path / "nonfinite.cfg"
    cfgp.write_text(text)
    code = cli.main([command, "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert f"line {lineno}: " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("section, key", [
    ("geometry", "cell_n"), ("geometry", "plate_m"), ("time", "nsteps"),
    ("solver", "budget_dofs"), ("output", "snapshot_every"), ("verify", "seed"),
])
def test_integer_keys_reject_fractions(section, key):
    # 4.7 must not run as 4
    text = TINY + f"\n[{section}]\n{key} = 4.7\n"
    lineno = text.splitlines().index(f"{key} = 4.7") + 1
    with pytest.raises(ConfigError, match=f"line {lineno}: {key} must be an integer, got '4.7'"):
        parse_config(text)
    assert getattr(parse_config(TINY + f"\n[{section}]\n{key} = 4.0\n"), key) == 4


def test_write_default_config(tmp_path):
    path = tmp_path / "demo.cfg"
    assert cli.main(["cell", "--write-default-config", str(path)]) == 0
    assert parse_config(path.read_text()).cell_n == default_config().cell_n


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[geometry]\ngel_box = 0 1 0 1\n")
    code = cli.main(["cell", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG


def test_solver_maxiter_is_an_unknown_key(tmp_path, capsys):
    # no solver reads an iteration cap from the config, so the key is rejected
    text = TINY + "\n[solver]\ntol_step = 1e-9\nmaxiter = 500\n"
    lineno = text.splitlines().index("maxiter = 500") + 1
    with pytest.raises(ConfigError, match=f"line {lineno}: unknown key 'maxiter'"):
        parse_config(text)
    cfgp = tmp_path / "maxiter.cfg"
    cfgp.write_text(text)
    assert cli.main(["micro", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 1
    assert f"line {lineno}: unknown key 'maxiter'" in capsys.readouterr().err


def test_unknown_output_format_rejected(tmp_path, capsys):
    # a typo must not silently switch VTK output off
    text = TINY + "\n[output]\nformats = csv vkt\n"
    lineno = text.splitlines().index("formats = csv vkt") + 1
    with pytest.raises(ConfigError, match=f"line {lineno}: unknown output format 'vkt'"):
        parse_config(text)
    cfgp = tmp_path / "formats.cfg"
    cfgp.write_text(text)
    assert cli.main(["micro", "--config", str(cfgp), "--out", str(tmp_path / "o")]) == 1
    assert f"line {lineno}: unknown output format 'vkt'" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, message", [
    ("gel = 1.0 0.35\n", "gel = 1.0 0.35\nbiot_c = 0.0\n", "Biot modulus must be positive"),
    ("eps_list = 0.25", "eps_list = 0.25 0.3", "eps=0.3 does not tile"),
], ids=["biot_c_zero", "eps_not_tiling"])
def test_cli_invalid_data_exit_code(tmp_path, capsys, old, new, message):
    cfgp = tmp_path / "bad.cfg"
    cfgp.write_text(TINY.replace(old, new))
    code = cli.main(["micro", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["cell", "macro", "converge"])
def test_cli_cg_failure_exit_code(tmp_path, capsys, command):
    # one eps-cell; no CG residual can reach tol_cell = 1e-300, so the corrector
    # CG breaks down once r.z or p.Ap underflows (the stiff phases scale both by
    # ~1e-9 against ||r||^2 and ||p||^2, so they underflow well before ||r||
    # does); every command that solves the correctors honours tol_cell
    text = TINY.replace("omega = 0.0 1.0 0.0 1.0", "omega = 0.0 0.25 0.0 0.25")
    text = text.replace("fiber = 10.0 0.3\ngel = 1.0 0.35", "fiber = 1e10 0.3\ngel = 1e9 0.35")
    cfgp = tmp_path / "cg.cfg"
    cfgp.write_text(text + "\n[solver]\ntol_cell = 1e-300\n")
    code = cli.main([command, "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_SOLVER
    err = capsys.readouterr().err
    assert "solver failure: CG broke down before reaching tol=1.0e-300" in err
    tail = err.split("residual history tail: ")[1]
    assert len(tail.strip("[]\n").split(",")) == 5


def test_cli_micro_cg_underflow_exit_code(tmp_path, capsys):
    # no step residual can reach tol_step = 1e-300: once the sum of squares in
    # ||r|| underflows, the norm is recomputed scaled by max|r|, so CG goes on
    # until r.z underflows and reports the breakdown instead of converging
    text = TINY.replace("omega = 0.0 1.0 0.0 1.0", "omega = 0.0 0.25 0.0 0.25")
    cfgp = tmp_path / "underflow.cfg"
    cfgp.write_text(text + "\n[solver]\ntol_step = 1e-300\n")
    code = cli.main(["micro", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_SOLVER
    assert ("solver failure: step 1 of 2, to t = 0.125: CG broke down before reaching "
            "tol=1.0e-300") in capsys.readouterr().err


def test_cli_missing_config_exit_code(tmp_path):
    code = cli.main(["cell", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG


def test_cli_has_no_threads_flag():
    # the BLAS pool is sized when numpy loads, so a flag could not change it
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["cell", "--threads", "2"])


@pytest.mark.parametrize("command, table, header", [
    ("micro", "micro_norms.csv", "t,"),
    ("macro", "macro_norms.csv", "t,"),
    ("mup", "mup_norms.csv", "t,"),
    ("converge", "convergence.csv", "eps,"),
], ids=["micro", "macro", "mup", "converge"])
def test_cli_deterministic_rerun(tmp_path, command, table, header):
    cfgp = tmp_path / "tiny.cfg"
    cfgp.write_text(TINY)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    codes = [cli.main([command, "--config", str(cfgp), "--out", str(out)]) for out in (out1, out2)]
    assert codes[0] == codes[1] == cli.EXIT_OK
    assert filecmp.cmp(out1 / table, out2 / table, shallow=False)
    first = (out1 / table).read_text().splitlines()
    assert first[0].startswith(header)
    assert len(first) > 1


def test_cli_homogenize_artifacts(tmp_path):
    cfgp = tmp_path / "tiny.cfg"
    cfgp.write_text(TINY)
    out = tmp_path / "h"
    assert cli.main(["homogenize", "--config", str(cfgp), "--out", str(out)]) == 0
    kv = pio.read_keyvalues(out / "homogenized.kv")
    assert kv["a_1111"] > 0
    assert (out / "report.txt").exists()


def test_hom_keyvalue_round_trip(tmp_path):
    from poroplate.cell import HomogenizedTensor

    rng = np.random.default_rng(0)
    A, B, C = rng.standard_normal((3, 3, 3))
    hom = HomogenizedTensor(a_eng=A @ A.T + 3 * np.eye(3), b_eng=0.1 * B,
                            c_eng=C @ C.T + 3 * np.eye(3))
    path = tmp_path / "h.kv"
    pio.write_keyvalues(path, pio.hom_keyvalues(hom))
    back = cli._hom_from_file(path)
    # the writer prints 17 significant digits, so every entry reads back exactly
    for name in ("a_eng", "b_eng", "c_eng"):
        assert np.array_equal(getattr(back, name), getattr(hom, name))


@pytest.mark.parametrize("content, message", [
    (None, "No such file"),
    ("a_1111 = 1.0\n", "key 'a_1122' is missing"),
    ("a_1111 = 1.0 2.0\n", "key 'a_1111' is missing or not one number"),
], ids=["missing_file", "missing_key", "two_values"])
def test_cli_bad_coefficients_file_exit_code(tmp_path, capsys, content, message):
    coeffs = tmp_path / "coeffs.kv"
    if content is not None:
        coeffs.write_text(content)
    cfgp = tmp_path / "v.cfg"
    cfgp.write_text(TINY + f"\n[verify]\ncoefficients_file = {coeffs}\n")
    code = cli.main(["verify-all", "--config", str(cfgp), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: coefficients_file {coeffs}" in err
    assert message in err


def test_tampered_coefficients_fail_oracle_check():
    from poroplate.verify import AcceptanceSuite

    suite = AcceptanceSuite()
    hom = suite.cell_pipeline().hom
    from poroplate.cell import HomogenizedTensor

    bad = HomogenizedTensor(a_eng=hom.a_eng, b_eng=hom.b_eng + 0.05 * np.eye(3),
                            c_eng=hom.c_eng)
    res = suite.check_ac5(hom_override=bad)
    assert not res.passed
    good = suite.check_ac5()
    assert good.passed


def test_vtk_writer_smoke(tmp_path, cell_mesh4):
    path = tmp_path / "cell.vtk"
    pio.write_vtk(path, cell_mesh4.nodes, cell_mesh4.elems, pio.VTK_HEX,
                  point_data={"z": cell_mesh4.nodes[:, 2]},
                  cell_data={"phase": cell_mesh4.phase.astype(float)})
    text = path.read_text().splitlines()
    assert text[0].startswith("# vtk DataFile")
    assert any(line.startswith("CELL_TYPES") for line in text)
    assert sum(1 for line in text if line == "12") == cell_mesh4.n_elems


CONVERGE_CFG = """\
[geometry]
gel_box = 0.25 0.75 0.25 0.75
omega = 0.0 1.0 0.0 1.0
eps_list = 0.25 0.125
cell_n = 4
plate_m = 4

[loads]
f3 = 1.0 0 0 1
h = 1.0 0 0 1

[time]
T = 0.25
nsteps = 2

[output]
formats = csv
"""


def test_cli_converge_csv_shape_and_verdict(tmp_path):
    import csv

    cfgp = tmp_path / "c.cfg"
    cfgp.write_text(CONVERGE_CFG)
    out = tmp_path / "conv"
    code = cli.main(["converge", "--config", str(cfgp), "--out", str(out)])
    assert code == 0
    with open(out / "convergence.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2  # one row per eps
    for col in ("e_inplane", "e_deflection", "e_strain", "e_pressure"):
        assert col in rows[0]
        assert float(rows[1][col]) < float(rows[0][col])
    kv = (out / "convergence_verdict.txt").read_text()
    assert "verdict = pass" in kv


def test_cli_micro_snapshots(tmp_path):
    cfgp = tmp_path / "t.cfg"
    cfgp.write_text(TINY + "\n[output]\nformats = csv vtk\nsnapshot_every = 1\n")
    out = tmp_path / "snap"
    assert cli.main(["micro", "--config", str(cfgp), "--out", str(out)]) == 0
    snaps = sorted(p.name for p in out.glob("micro_*.vtk"))
    assert snaps == ["micro_0000.vtk", "micro_0001.vtk", "micro_0002.vtk"]
