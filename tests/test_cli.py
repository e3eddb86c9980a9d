import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ldgq import cli
from ldgq.bounds import BoundAudit
from ldgq.cli import (
    EXIT_AUDIT,
    EXIT_DIVERGENCE,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_PARSE,
    parse_config,
    serialize_config,
)
from ldgq.bulk import Material, characteristic_temperatures
from ldgq.errors import ConfigError, RegimeError
from ldgq.solver import Grid3, QField, read_field, write_field
from ldgq import stationary_scalars, uniaxial_coeffs

MATERIAL_KJ = """
[material]
alpha = 0.42
b = 6.4
c = 3.5
t_star = 45.0
elastic_l = 1.0
"""

MATERIAL_J = MATERIAL_KJ.replace("0.42", "420.0").replace("6.4", "6400.0").replace("3.5", "3500.0")


def minimize_config(t=44.5, s0=0.8, nx=9, tol=1e-7, extra=""):
    return (
        MATERIAL_KJ
        + f"""
[temperature]
value = {t}

[functional]
variant = quartic

[grid]
nx = {nx}
ny = {nx}
nz = {nx}
hx = 1.0
hy = 1.0
hz = 1.0

[boundary]
kind = uniaxial
s0 = {s0}
director = 0 0 1

[solver]
tol = {tol}
max_iters = 100000
{extra}
"""
    )


def test_parse_errors_have_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[material]\nbogus_key = 1\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("alpha = 1\n")
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[material]\nalpha = 1.0\nb == 2\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[materialz]\n")
    # non-finite numbers are bad input, not a solver divergence
    with pytest.raises(ConfigError, match="line 2: non-finite value 'nan'"):
        parse_config("[temperature]\nvalue = nan\n")
    with pytest.raises(ConfigError, match="line 3: non-finite value 'inf'"):
        parse_config("[grid]\nnx = 5\nhx = inf\n")
    with pytest.raises(ConfigError, match="line 2: non-finite value '-inf'"):
        parse_config("[material]\nalpha = -inf\n")
    with pytest.raises(ConfigError, match="line 3: non-finite value 'NaN'"):
        parse_config("[boundary]\nkind = uniaxial\ndirector = 0 NaN 1\n")


MATERIAL_LINES = "[material]\nalpha = 1\nb = 1\nc = 1\nt_star = 1\nelastic_l = 1\n"
GRID_LINES = "[grid]\nnx = 3\nny = 3\nnz = 3\nhx = 1\nhy = 1\nhz = 1\n"


@pytest.mark.parametrize("text, message", [
    ("[materialz]\n", "line 1: unknown section [materialz]"),
    ("[material]\nalpha 1\n", "line 2: expected 'key = value'"),
    ("alpha = 1\n", "line 1: key outside any [section]"),
    ("[boundary]\nkind = uniaxial\ndirector = 0 1\n", "line 3: expected 3 numbers, got 2"),
    ("[material]\nalpha = x\n", "line 2: non-numeric value 'x'"),
    ("[grid]\nnx = 5.0\n", "line 2: non-numeric value '5.0'"),
    ("[temperature]\nvalue = -inf\n", "line 2: non-finite value '-inf'"),
    ("[material]\nbogus = 1\n", "line 2: unknown material key 'bogus'"),
    ("[temperature]\nbogus = 1\n", "line 2: unknown temperature key 'bogus'"),
    ("[functional]\nbogus = 1\n", "line 2: unknown functional key 'bogus'"),
    ("[grid]\nbogus = 1\n", "line 2: unknown grid key 'bogus'"),
    ("[boundary]\nbogus = 1\n", "line 2: unknown boundary key 'bogus'"),
    ("[solver]\nbogus = 1\n", "line 2: unknown solver key 'bogus'"),
    ("[material]\nalpha = 1\n", "[material] missing keys: ['b', 'c', 'elastic_l', 't_star']"),
    ("[grid]\nnx = 3\nhz = 1\n", "[grid] missing keys: ['hx', 'hy', 'ny', 'nz']"),
    (MATERIAL_LINES.replace("b = 1", "b = 0"), "[material]: Material.b must be positive"),
    (GRID_LINES.replace("ny = 3", "ny = 2"),
     "[grid]: Grid3.ny must be >= 3 (one interior node per axis)"),
    ("[temperature]\nvalue = 1\nstep = 1\n", "[temperature] takes either value or start/stop/step"),
    ("[temperature]\nstart = 1\nstop = 2\n", "[temperature] sweep needs start, stop and step"),
    ("[temperature]\nstart = 1\nstop = 2\nstep = 0\n", "[temperature] sweep step must be positive"),
    ("[functional]\nvariant = cubic\n", "line 2: unknown variant 'cubic'"),
    ("[functional]\nvariant = gl\neps = 0\n", "line 3: eps must be positive"),
    ("[functional]\nvariant = gl\neps = -1\n", "line 3: eps must be positive"),
    ("[functional]\nterm = 0 1.5 1\n", "line 2: term exponents must be integers"),
    ("[boundary]\nkind = radial\n", "line 2: unknown boundary kind 'radial'"),
    ("[boundary]\ns0 = 1\n", "[boundary] missing 'kind'"),
    ("[boundary]\nkind = uniaxial\ns0 = 1\n", "[boundary] uniaxial needs ['director', 's0']"),
    ("[boundary]\nkind = biaxial\ns = 1\nr = 1\ne1 = 1 0 0\n",
     "[boundary] biaxial needs ['e1', 'e2', 'r', 's']"),
    ("[boundary]\nkind = per-face\nxlo = 1\ndirector = 0 0 1\n",
     "[boundary] per-face needs ['director', 'xhi', 'xlo', 'yhi', 'ylo', 'zhi', 'zlo']"),
    ("[boundary]\nkind = uniaxial\ns0 = 1\ndirector = 0 0 1\nxlo = 9\ne1 = 1 0 0\n",
     "[boundary] uniaxial does not use ['e1', 'xlo']"),
    ("[boundary]\nkind = biaxial\ns = 1\nr = 1\ne1 = 1 0 0\ne2 = 0 1 0\ns0 = 1\n",
     "[boundary] biaxial does not use ['s0']"),
    ("[functional]\nvariant = quartic\na2 = -0.2\nterm = 0 1 -1\n",
     "[functional] quartic does not use ['a2', 'term']"),
    ("[functional]\neps = 0.1\n", "[functional] quartic does not use ['eps']"),
    ("[functional]\nvariant = gl\neps = 0.1\na2 = -0.2\n", "[functional] gl does not use ['a2']"),
    ("[functional]\nvariant = polynomial\na2 = -0.2\neps = 0.1\n",
     "[functional] polynomial does not use ['eps']"),
    (MATERIAL_LINES.replace("b = 1", "b = 1e200").replace("c = 1", "c = 1e200"),
     "[material]: Material constants overflow: b^2, alpha c, b^4/c^3, t_star and elastic_l "
     "must be finite"),
    ("[solver]\ntol = 0\n", "line 2: tol must be positive"),
    ("[solver]\nmax_iters = -1\n", "line 2: max_iters must be nonnegative"),
    ("[solver]\nslack = -0.5\n", "line 2: slack must be nonnegative"),
])
def test_each_config_fault_has_its_message(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == message


def test_config_roundtrip_idempotent():
    text = minimize_config(extra="restarts = 2\nseed = 7\n")
    cfg = parse_config(text)
    assert parse_config(serialize_config(cfg)) == cfg
    # sweeps and other variants round-trip too
    sweep = MATERIAL_KJ + "\n[temperature]\nstart = 44.0\nstop = 47.0\nstep = 0.5\n"
    cfg = parse_config(sweep)
    assert parse_config(serialize_config(cfg)) == cfg
    poly = MATERIAL_KJ + (
        "\n[functional]\nvariant = polynomial\na2 = -0.2\n"
        "term = 0 1 -1.0\nterm = 2 0 0.5\n"
    )
    cfg = parse_config(poly)
    assert parse_config(serialize_config(cfg)) == cfg
    assert cfg.poly_terms == ((0, 1, -1.0), (2, 0, 0.5))


def test_phase_sweep_csv(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MATERIAL_J + "\n[temperature]\nstart = 44.0\nstop = 47.0\nstep = 0.01\n")
    assert cli.main(["--out", str(tmp_path), "phase", "--config", str(cfg)]) == EXIT_OK
    rows = (tmp_path / "phase.csv").read_text().splitlines()
    assert rows[0] == "T,a,s_plus,s_minus,f_plus,f_minus,regime"
    parsed = [r.split(",") for r in rows[1:]]
    # f_plus changes sign near the transition temperature
    crossing = [
        float(a[0])
        for a, b in zip(parsed, parsed[1:])
        if a[4] and b[4] and float(a[4]) < 0.0 <= float(b[4])
    ]
    assert len(crossing) == 1
    assert abs(crossing[0] - 46.03) < 0.02
    # above the superheat temperature the nematic columns are empty
    hot = [r for r in parsed if float(r[0]) > 46.2]
    assert hot and all(r[2] == "" and r[6] == "isotropic-only" for r in hot)
    # s_plus at 45 C
    at45 = next(r for r in parsed if abs(float(r[0]) - 45.0) < 1e-9)
    assert float(at45[2]) == pytest.approx(0.9142857142857143, rel=1e-12)
    assert at45[6] == "below-NI"


def test_phase_output_byte_stable(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MATERIAL_J + "\n[temperature]\nstart = 44.0\nstop = 46.5\nstep = 0.1\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["--out", str(out1), "phase", "--config", str(cfg)]) == EXIT_OK
    assert cli.main(["--out", str(out2), "phase", "--config", str(cfg)]) == EXIT_OK
    assert (out1 / "phase.csv").read_bytes() == (out2 / "phase.csv").read_bytes()


def test_triangles_containment_flags(tmp_path):
    for t, expected in [
        (44.0, {"elastic_contains_t_psi": True, "t_psi_contains_elastic": False}),
        (46.0, {"elastic_contains_t_psi": False, "t_psi_contains_elastic": False}),
        (48.0, {"elastic_contains_t_psi": False, "t_psi_contains_elastic": True}),
    ]:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(MATERIAL_J + f"\n[temperature]\nvalue = {t}\n")
        assert cli.main(["--out", str(tmp_path), "triangles", "--config", str(cfg)]) == EXIT_OK
        (report,) = json.loads((tmp_path / "triangles.json").read_text())
        for key, val in expected.items():
            assert report[key] is val, (t, key)
        assert report["crossing_temps"][0] == pytest.approx(44.5238095238)
    assert report["gamma"] is None  # last case is above the superheat temperature


def test_minimize_constant_boundary_converges(tmp_path):
    m_sp = stationary_scalars(parse_config(MATERIAL_KJ).material, 44.5).s_plus
    cfg = tmp_path / "run.cfg"
    cfg.write_text(minimize_config(t=44.5, s0=m_sp, extra="max_iters = 200\n"))
    rc = cli.main(["--out", str(tmp_path), "minimize", "--config", str(cfg)])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "solve_report.json").read_text())
    audit = json.loads((tmp_path / "audit.json").read_text())
    assert report["converged"] and report["iterations"] == 0
    assert (report["stop_reason"], report["fallbacks"], report["rejected_steps"]) == (
        "converged", 0, 0)
    assert audit["satisfied"] and audit["regime"] == "LowTemp"
    field = read_field(tmp_path / "field.ldgq")
    # constant up to the harmonic-fill stopping tolerance
    assert np.abs(field.values - uniaxial_coeffs(m_sp, [0, 0, 1])).max() < 1e-9


def test_minimize_with_restarts_records_seed(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(minimize_config(t=44.5, s0=0.7, nx=7, extra="restarts = 2\nseed = 11\n"))
    rc = cli.main(["--out", str(tmp_path), "minimize", "--config", str(cfg)])
    assert rc == EXIT_OK
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert report["seed"] in (None, 11, 12)
    assert report["converged"]


def test_verify_roundtrip_matches_minimize_audit(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(minimize_config(t=44.5, s0=0.7, nx=7))
    assert cli.main(["--out", str(tmp_path), "minimize", "--config", str(cfg)]) == EXIT_OK
    rc = cli.main(
        ["--out", str(tmp_path), "verify", str(tmp_path / "field.ldgq"), "--config", str(cfg)]
    )
    assert rc == EXIT_OK
    direct = json.loads((tmp_path / "audit.json").read_text())
    verified = json.loads((tmp_path / "verify_audit.json").read_text())
    assert direct == verified


def test_verify_detects_tampered_node(tmp_path):
    # s0 = 0.45 keeps the boundary datum inside the low-temperature
    # hypothesis, so the tampered field reports a genuine audit failure
    cfg = tmp_path / "run.cfg"
    cfg.write_text(minimize_config(t=44.5, s0=0.45, nx=7))
    assert cli.main(["--out", str(tmp_path), "minimize", "--config", str(cfg)]) == EXIT_OK
    field = read_field(tmp_path / "field.ldgq")
    vals = field.values.copy()
    vals[3, 2, 4] *= 3.0
    write_field(tmp_path / "field.ldgq", field.with_values(vals))
    rc = cli.main(
        ["--out", str(tmp_path), "verify", str(tmp_path / "field.ldgq"), "--config", str(cfg)]
    )
    assert rc == EXIT_AUDIT
    audit = json.loads((tmp_path / "verify_audit.json").read_text())
    assert not audit["satisfied"]
    assert tuple(audit["worst_site"]) == (3, 2, 4)


def test_exit_code_contract(tmp_path):
    # parse error
    bad = tmp_path / "bad.cfg"
    bad.write_text("[material]\nnope = 1\n")
    assert cli.main(["--out", str(tmp_path), "phase", "--config", str(bad)]) == EXIT_PARSE

    # solver failure: an iteration budget too small to reach the tolerance,
    # so the run ends unconverged
    cfg = tmp_path / "burn.cfg"
    cfg.write_text(minimize_config(t=44.5, s0=0.7, nx=5, extra="max_iters = 1\n"))
    rc = cli.main(["--out", str(tmp_path), "minimize", "--config", str(cfg)])
    assert rc == EXIT_DIVERGENCE
    assert json.loads((tmp_path / "solve_report.json").read_text())["stop_reason"] == "max_iters"

    # audit failure with the hypothesis met: tampered high-temperature field
    cfg_ht = tmp_path / "ht.cfg"
    cfg_ht.write_text(minimize_config(t=50.0, s0=0.3, nx=5))
    assert cli.main(["--out", str(tmp_path), "minimize", "--config", str(cfg_ht)]) == EXIT_OK
    field = read_field(tmp_path / "field.ldgq")
    vals = field.values.copy()
    vals[2, 2, 2] = 100.0 * uniaxial_coeffs(1.0, [0, 0, 1])
    write_field(tmp_path / "field.ldgq", field.with_values(vals))
    rc = cli.main(
        ["--out", str(tmp_path), "verify", str(tmp_path / "field.ldgq"), "--config", str(cfg_ht)]
    )
    assert rc == EXIT_AUDIT

    # hypothesis-not-met: boundary at 2 * gamma and an oversized interior
    grid = Grid3(5, 5, 5, 1.0, 1.0, 1.0)
    big = QField.constant(grid, uniaxial_coeffs(3.0, [0, 0, 1]))
    write_field(tmp_path / "big.ldgq", big)
    cfg_lt = tmp_path / "lt.cfg"
    cfg_lt.write_text(minimize_config(t=44.5, s0=0.7, nx=5))
    rc = cli.main(
        ["--out", str(tmp_path), "verify", str(tmp_path / "big.ldgq"), "--config", str(cfg_lt)]
    )
    assert rc == EXIT_HYPOTHESIS

    # malformed field file
    (tmp_path / "junk.ldgq").write_text("LDGQ1 oops\n")
    rc = cli.main(
        ["--out", str(tmp_path), "verify", str(tmp_path / "junk.ldgq"), "--config", str(cfg_lt)]
    )
    assert rc == EXIT_PARSE

    # empty-interior grid rejected
    (tmp_path / "thin.ldgq").write_text(
        "LDGQ1 2 3 3 1.0 1.0 1.0\n"
        + "\n".join(
            f"{i} {j} {k} 0.0 0.0 0.0 0.0 0.0" for i in range(2) for j in range(3) for k in range(3)
        )
        + "\n"
    )
    rc = cli.main(
        ["--out", str(tmp_path), "verify", str(tmp_path / "thin.ldgq"), "--config", str(cfg_lt)]
    )
    assert rc == EXIT_PARSE


@pytest.mark.parametrize("edit", [("value = 44.5", "value = nan"), ("hy = 1.0", "hy = inf"),
                                  ("hy = 1.0", "hy = 1e308"), ("hy = 1.0", "hy = 1e-200"),
                                  ("variant = quartic", "variant = gl\neps = 0"),
                                  ("variant = quartic", "variant = gl\neps = -1")])
def test_minimize_rejects_out_of_range_numbers(tmp_path, capsys, edit):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(minimize_config(nx=5).replace(*edit))
    rc = cli.main(["--out", str(tmp_path), "minimize", "--config", str(cfg)])
    assert rc == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["phase", "triangles"])
def test_sweep_without_a_finite_count_is_a_config_error(tmp_path, capsys, command):
    # (stop - start) / step overflows to inf: exit 2, not an OverflowError
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MATERIAL_KJ + "\n[temperature]\nstart = 1.0\nstop = 3.0\nstep = 1e-320\n")
    assert cli.main(["--out", str(tmp_path), command, "--config", str(cfg)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == "error: [temperature] sweep has no finite number of temperatures\n"


@pytest.mark.parametrize("command", ["phase", "triangles"])
def test_overflowing_material_constants_are_a_config_error(tmp_path, capsys, command):
    # b^2 overflows: the sweeps used to write inf rows and vertices and exit 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MATERIAL_LINES.replace("b = 1", "b = 1e200").replace("c = 1", "c = 1e200")
                   + "[temperature]\nstart = 1.0\nstop = 3.0\nstep = 1.0\n")
    assert cli.main(["--out", str(tmp_path), command, "--config", str(cfg)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("error: [material]: Material constants overflow")
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("value", ["-1.0", "-1e300"])
def test_sweeps_reject_a_cold_temperature_alike(tmp_path, capsys, value):
    # T < 0 lies below the linear law's floor a = -alpha T*; phase used to
    # write a below-NI row (and overflow at -1e300) where triangles exits 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MATERIAL_KJ + f"[temperature]\nvalue = {value}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for command in ("phase", "triangles"):
            assert cli.main(["--out", str(tmp_path), command, "--config", str(cfg)]) == EXIT_PARSE
            assert capsys.readouterr().err == (
                f"error: temperature {float(value)} lies below the absolute-zero equivalent "
                "of the linear law\n")
    assert not list(tmp_path.glob("*.csv")) and not list(tmp_path.glob("*.json"))


@pytest.mark.parametrize("edit", [("s0 = 0.8", "s0 = 0.8\nxlo = 9\ne1 = 1 0 0"),
                                  ("variant = quartic", "variant = quartic\neps = 0.1")])
def test_minimize_rejects_keys_the_choice_does_not_use(tmp_path, capsys, edit):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(minimize_config(nx=5).replace(*edit))
    rc = cli.main(["--out", str(tmp_path), "minimize", "--config", str(cfg)])
    assert rc == EXIT_PARSE
    assert "does not use" in capsys.readouterr().err
    assert not (tmp_path / "solve_report.json").exists()


def test_readme_config_example_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Configuration format"):]
    example = section[section.index("```ini\n") + len("```ini\n"):]
    cfg = parse_config(example[:example.index("```")])
    assert cfg.material and cfg.temperature and cfg.grid and cfg.boundary
    assert parse_config(serialize_config(cfg)) == cfg


@pytest.mark.parametrize("line, message", [
    ("tol = 0", "tol must be positive"),
    ("max_iters = -1", "max_iters must be nonnegative"),
    ("restarts = -1", "restarts must be nonnegative"),
    ("seed = -1", "seed must be nonnegative"),
    ("slack = -1", "slack must be nonnegative"),
], ids=["tol", "max_iters", "restarts", "seed", "slack"])
def test_minimize_rejects_out_of_range_solver_values(tmp_path, capsys, line, message):
    # rejected while parsing, before any solve, with the line of the key
    text = minimize_config(nx=5, extra="restarts = 1\n").replace("max_iters = 100000", "")
    text += line + "\n"
    lineno = text.splitlines().index(line) + 1
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    rc = cli.main(["--out", str(tmp_path), "minimize", "--config", str(cfg)])
    assert rc == EXIT_PARSE
    assert capsys.readouterr().err == f"error: line {lineno}: {message}\n"
    assert not (tmp_path / "solve_report.json").exists()


@pytest.mark.parametrize("flag", ["--seed", "--slack"])
def test_removed_global_overrides_are_usage_errors(tmp_path, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(minimize_config(nx=5))
    with pytest.raises(SystemExit) as exc:
        cli.main([flag, "1", "--out", str(tmp_path), "minimize", "--config", str(cfg)])
    assert exc.value.code == EXIT_PARSE


def test_moments_command(tmp_path, capsys):
    # antipodal bump pair: high-concentration watson samples
    rng = np.random.default_rng(5)
    rows = ["theta,phi,value"]
    for _ in range(4000):
        theta = np.arccos(rng.uniform(-1, 1))
        phi = rng.uniform(0, 2 * np.pi)
        rows.append(f"{theta},{phi},{np.exp(60.0 * (np.cos(theta) ** 2 - 1.0))}")
    csv = tmp_path / "bumps.csv"
    csv.write_text("\n".join(rows) + "\n")
    rc = cli.main(["--out", str(tmp_path), "moments", str(csv), "--level", "40"])
    assert rc == EXIT_OK
    payload = json.loads((tmp_path / "moments.json").read_text())
    assert payload["in_physical_triangle"] is True
    assert payload["s"] > 0.9
    assert payload["r"] < 0.06
    assert capsys.readouterr().out.strip().startswith("{")

    # uniform density gives the isotropic tensor
    uni = tmp_path / "uniform.csv"
    rows = ["theta,phi,value"]
    for _ in range(2000):
        theta = np.arccos(rng.uniform(-1, 1))
        phi = rng.uniform(0, 2 * np.pi)
        rows.append(f"{theta},{phi},1.0")
    uni.write_text("\n".join(rows) + "\n")
    assert cli.main(["--out", str(tmp_path), "moments", str(uni), "--level", "24"]) == EXIT_OK
    payload = json.loads((tmp_path / "moments.json").read_text())
    assert max(abs(v) for v in payload["eigenvalues"]) < 0.05

    # negative densities rejected
    neg = tmp_path / "neg.csv"
    neg.write_text("theta,phi,value\n0.3,0.1,-1.0\n")
    assert cli.main(["--out", str(tmp_path), "moments", str(neg)]) == EXIT_PARSE


def test_out_dir_env_override(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(MATERIAL_J + "\n[temperature]\nvalue = 45.0\n")
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("LDGQ_OUT", str(env_dir))
    assert cli.main(["phase", "--config", str(cfg)]) == EXIT_OK
    assert (env_dir / "phase.csv").exists()
    # the explicit flag wins over the environment
    flag_dir = tmp_path / "flagout"
    assert cli.main(["--out", str(flag_dir), "phase", "--config", str(cfg)]) == EXIT_OK
    assert (flag_dir / "phase.csv").exists()


def test_dump_json_exact_text(tmp_path):
    audit = BoundAudit(
        regime="LowTemp",
        bound_value=np.float64(0.1) * 3,
        max_interior_norm=np.float32(0.25),
        max_boundary_norm=0.125,
        satisfied=np.bool_(True),
        worst_site=(np.int64(1), 2, 3),
        slack=1e-3,
        hypothesis_met=np.bool_(False),
    )
    payload = {
        "audit": audit,
        "coeffs": np.array([[0.1, -2.0], [np.nan, 3e-300]]),
        "gamma": None,
        "vertices": ((1.5, 0.0), (0.0, np.float64(1.5))),
        "count": np.int64(7),
    }
    expected = (
        '{\n  "audit": {\n    "bound_value": 0.30000000000000004,\n'
        '    "hypothesis_met": false,\n    "max_boundary_norm": 0.125,\n'
        '    "max_interior_norm": 0.25,\n    "regime": "LowTemp",\n'
        '    "satisfied": true,\n    "slack": 0.001,\n'
        '    "worst_site": [\n      1,\n      2,\n      3\n    ]\n  },\n'
        '  "coeffs": [\n    [\n      0.1,\n      -2.0\n    ],\n'
        '    [\n      NaN,\n      3e-300\n    ]\n  ],\n'
        '  "count": 7,\n  "gamma": null,\n'
        '  "vertices": [\n    [\n      1.5,\n      0.0\n    ],\n'
        '    [\n      0.0,\n      1.5\n    ]\n  ]\n}\n'
    )
    path = tmp_path / "out.json"
    assert cli._dump_json(path, payload) == expected
    assert path.read_text() == expected
    with pytest.raises(TypeError):
        cli._dump_json(tmp_path / "bad.json", {"x": object()})


# The sweep writers before they worked on columns: one scalar evaluation and
# one formatted row or report per temperature. The only change from that code
# is the nematic test, b^2 - 24ac < 0 everywhere.
def _oracle_temperatures(start, stop, step):
    n = int(np.floor((stop - start) / step * (1.0 + 1e-12) + 1e-9)) + 1
    return [start + i * step for i in range(max(n, 0))]


def _oracle_stationary(m, t):
    a = m.alpha * (t - m.t_star)
    disc = m.b * m.b - 24.0 * a * m.c
    if disc < 0.0:
        return a, None
    root = np.sqrt(disc)
    s_plus = (m.b + root) / (4.0 * m.c)
    s_minus = (m.b - root) / (4.0 * m.c)
    f_plus = s_plus * s_plus * (9.0 * a - m.b * s_plus) / 54.0
    f_minus = s_minus * s_minus * (9.0 * a - m.b * s_minus) / 54.0
    return a, (float(s_plus), float(s_minus), float(f_plus), float(f_minus))


def _oracle_phase_csv(m, temps):
    def fmt(x):
        return "" if x is None else repr(float(x))

    rows = ["T,a,s_plus,s_minus,f_plus,f_minus,regime"]
    for t in temps:
        a, rep = _oracle_stationary(m, t)
        if rep is None:
            regime, rep = "isotropic-only", (None,) * 4
        elif rep[2] < 0.0:
            regime = "below-NI"
        else:
            regime = "metastable"
        rows.append(",".join([fmt(t), fmt(a), *map(fmt, rep), regime]))
    return "\n".join(rows) + "\n"


def _oracle_triangle_report(m, t):
    sqrt6 = np.sqrt(6.0)
    a, rep = _oracle_stationary(m, t)
    lower = m.t_star + (m.b - 2.0 * m.c) / (3.0 * m.alpha)
    upper = m.t_star + (m.b - m.c) / (6.0 * m.alpha)
    if rep is None:
        gamma, elastic_vertices, contains, contained_in = None, None, True, False
    else:
        gamma = (m.b + np.sqrt(m.b * m.b - 24.0 * a * m.c)) / (2.0 * sqrt6 * m.c)
        eta = sqrt6 * gamma
        elastic_vertices = ((eta, 0.0), (0.0, eta), (-eta, -eta))
        contains = sqrt6 * gamma <= 1.0
        contained_in = np.sqrt(1.5) * gamma >= 1.0
    if a < -m.alpha * m.t_star:
        raise RegimeError(
            f"temperature {t} lies below the absolute-zero equivalent of the linear law"
        )
    if rep is None:
        bulk_vertices = [(0.0, 0.0)]
    else:
        scale = rep[0] if a >= -m.b * m.b / (3.0 * m.c) else 2.0 * abs(rep[1])
        bulk_vertices = [(scale, 0.0), (0.0, scale), (-scale, -scale)]
    return {
        "temperature": t,
        "bulk_vertices": tuple(bulk_vertices),
        "elastic_vertices": elastic_vertices,
        "gamma": gamma,
        "t_psi_contains_elastic": bool(contains),
        "elastic_contains_t_psi": bool(contained_in),
        "crossing_temps": (lower, upper),
    }


def _oracle_triangles_json(m, temps):
    reports = [_oracle_triangle_report(m, t) for t in temps]
    return json.dumps(reports, sort_keys=True, indent=2) + "\n"


@st.composite
def _materials_and_sweeps(draw):
    """A material and a sweep: random, or a few ulps around a regime edge."""
    alpha = draw(st.one_of(st.floats(1e-3, 10.0), st.sampled_from([1e-300, 5e-324])))
    m = Material(alpha=alpha, b=draw(st.floats(0.1, 20.0)), c=draw(st.floats(0.1, 20.0)),
                 t_star=draw(st.floats(-50.0, 200.0)), elastic_l=1.0)
    ct = characteristic_temperatures(m)
    edges = {
        "superheat": ct.t_superheat,
        "t_ni": ct.t_ni,
        "deep-ordered switch": m.t_star - m.b * m.b / (3.0 * m.c) / m.alpha,
    }
    edge = draw(st.sampled_from(["random", *edges]))
    if edge == "random" or not np.isfinite(edges[edge]):
        start = draw(st.floats(m.t_star - 80.0, m.t_star + 80.0))
        step = draw(st.floats(1e-3, 5.0))
        return m, (start, start + draw(st.integers(-1, 40)) * step, step)
    ulp = abs(float(np.spacing(edges[edge])))
    k = draw(st.integers(1, 6))
    return m, (edges[edge] - k * ulp, edges[edge] + k * ulp, ulp)


@settings(max_examples=150, deadline=None)
@given(_materials_and_sweeps())
# MBBA through the transition, and a subnormal alpha whose crossing
# temperatures overflow to +-inf
@example((Material(0.42, 6.4, 3.5, 45.0, 1.0), (30.0, 47.0, 0.25)))
@example((Material(5e-324, 6.4, 3.5, 45.0, 1.0), (40.0, 50.0, 0.5)))
@example((Material(5e-324, 7.0, 3.5, 45.0, 1.0), (40.0, 50.0, 0.5)))
def test_sweep_writers_match_the_per_temperature_oracle(tmp_path_factory, material_and_sweep):
    m, sweep = material_and_sweep
    out = tmp_path_factory.mktemp("sweep")
    cfg = cli.RunConfig(material=m, sweep=sweep)
    temps = _oracle_temperatures(*sweep)
    try:
        expected = _oracle_triangles_json(m, temps)
    except RegimeError as exc:  # a cold sweep: both commands reject it alike
        for command in (cli.cmd_phase, cli.cmd_triangles):
            with pytest.raises(RegimeError, match=f"^{re.escape(str(exc))}$"):
                command(cfg, out)
    else:
        assert cli.cmd_phase(cfg, out) == EXIT_OK
        assert (out / "phase.csv").read_text() == _oracle_phase_csv(m, temps)
        assert cli.cmd_triangles(cfg, out) == EXIT_OK
        assert (out / "triangles.json").read_text() == expected


def test_sweeps_and_verify_agree_at_the_superheating_edge(tmp_path):
    # b^2 - 24ac < 0 here while a <= b^2/24c: every command must take the
    # isotropic side (triangles and verify used to exit 2 on this material)
    material = (
        "[material]\nalpha = 0.10177217965864147\nb = 7.214315690817775\n"
        "c = 6.554628592248281\nt_star = 123.26021659785275\nelastic_l = 1.0\n"
        "[temperature]\nvalue = 126.5111036412607\n"
    )
    cfg = tmp_path / "edge.cfg"
    cfg.write_text(material)
    out = ["--out", str(tmp_path)]
    assert cli.main(out + ["phase", "--config", str(cfg)]) == EXIT_OK
    assert (tmp_path / "phase.csv").read_text().splitlines()[1].endswith(",,,,,isotropic-only")
    assert cli.main(out + ["triangles", "--config", str(cfg)]) == EXIT_OK
    (report,) = json.loads((tmp_path / "triangles.json").read_text())
    assert report["gamma"] is None and report["bulk_vertices"] == [[0.0, 0.0]]
    write_field(tmp_path / "zero.ldgq", QField.constant(Grid3(3, 3, 3, 1.0, 1.0, 1.0), np.zeros(5)))
    assert cli.main(out + ["verify", str(tmp_path / "zero.ldgq"), "--config", str(cfg)]) == EXIT_OK
    assert json.loads((tmp_path / "verify_audit.json").read_text())["regime"] == "HighTemp"
