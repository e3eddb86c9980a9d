import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ldgq import cli, solver
from ldgq.bounds import BoundAudit, norm_bound
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
    ("[functional]\nvariant = polynomial\na2 = -0.2\nterm = 0 1 -1\neps = 0.1\n",
     "[functional] polynomial does not use ['eps']"),
    # the needed keys are checked before the unused ones, as for [boundary]
    ("[functional]\nvariant = gl\n", "[functional] gl needs ['eps']"),
    ("[functional]\nvariant = polynomial\na2 = -0.2\neps = 0.1\n",
     "[functional] polynomial needs ['a2', 'term']"),
    ("[functional]\nvariant = polynomial\nterm = 0 1 -1\n",
     "[functional] polynomial needs ['a2', 'term']"),
    # the polynomial's own term rules and the boundary frame are parse-time rules too
    ("[functional]\nvariant = polynomial\na2 = -0.2\nterm = 0 1 -1\n",
     "[functional]: total degree must be even and >= 4, got 3"),
    ("[boundary]\nkind = uniaxial\ns0 = 0.5\ndirector = 0 0 2\n",
     "[boundary]: director must be a unit vector"),
    ("[boundary]\nkind = per-face\nxlo = 1\nxhi = 1\nylo = 1\nyhi = 1\nzlo = 1\nzhi = 1\n"
     "director = 0 0 0\n", "[boundary]: director must be a unit vector"),
    ("[boundary]\nkind = biaxial\ns = 0.5\nr = 0.2\ne1 = 1 0 0\ne2 = 0 2 0\n",
     "[boundary]: e1 and e2 must be unit vectors"),
    ("[boundary]\nkind = biaxial\ns = 0.5\nr = 0.2\ne1 = 1 0 0\ne2 = 1 0 0\n",
     "[boundary]: e1 and e2 must be orthogonal"),
    ("[boundary]\nkind = biaxial\ns = 1.7e308\nr = -1.7e308\ne1 = 1 0 0\ne2 = 0 1 0\n",
     "[boundary]: QTensor coefficients must be finite"),
    (MATERIAL_LINES.replace("b = 1", "b = 1e200").replace("c = 1", "c = 1e200"),
     "[material]: Material constants overflow: b^2, alpha c, b^4/c^3, t_star and elastic_l "
     "must be finite"),
    ("[solver]\ntol = 0\n", "line 2: tol must be positive"),
    ("[solver]\nmax_iters = -1\n", "line 2: max_iters must be nonnegative"),
    ("[solver]\nslack = -0.5\n", "line 2: unknown solver key 'slack'"),
])
def test_each_config_fault_has_its_message(text, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(text)
    assert str(exc.value) == message


BOUNDARIES = {
    "uniaxial": "kind = uniaxial\ns0 = 0.8\ndirector = 0 0 1",
    "biaxial": "kind = biaxial\ns = 0.5\nr = 0.2\ne1 = 1 0 0\ne2 = 0 1 0",
    "per-face": "kind = per-face\nxlo = 0.2\nxhi = 0.3\nylo = 0.4\nyhi = 0.5\nzlo = 0.6\n"
                "zhi = 0.7\ndirector = 0 0 1",
}
VARIANTS = {
    "quartic": "variant = quartic",
    "gl": "variant = gl\neps = 0.1",
    "polynomial": "variant = polynomial\na2 = -0.2\nterm = 0 1 -1.0\nterm = 2 0 0.5",
}


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("kind", BOUNDARIES)
def test_config_roundtrip_every_kind_and_variant(kind, variant):
    text = (minimize_config(extra="restarts = 2\nseed = 7\n")
            .replace(BOUNDARIES["uniaxial"], BOUNDARIES[kind])
            .replace(VARIANTS["quartic"], VARIANTS[variant]))
    cfg = parse_config(text)
    assert cfg.boundary["kind"] == kind and cfg.functional["variant"] == variant
    assert parse_config(serialize_config(cfg)) == cfg


def test_config_roundtrip_idempotent():
    # sweeps, the defaults and repeated terms; minimize configs are checked above
    sweep = MATERIAL_KJ + "\n[temperature]\nstart = 44.0\nstop = 47.0\nstep = 0.5\n"
    cfg = parse_config(sweep)
    assert parse_config(serialize_config(cfg)) == cfg
    assert cfg.functional == {"variant": "quartic"}
    assert cfg.solver == {"tol": 1e-8, "max_iters": 200_000, "restarts": 0, "seed": 0}
    poly = MATERIAL_KJ + "\n[functional]\n" + VARIANTS["polynomial"] + "\n"
    cfg = parse_config(poly)
    assert parse_config(serialize_config(cfg)) == cfg
    assert cfg.functional["term"] == ((0, 1, -1.0), (2, 0, 0.5))


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
    assert report["dt_initial"] == report["dt_final"] > 0.0  # no step, no halving
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


# The functional of the relax-fine benchmark run: the T = 44 quartic as a polynomial
# plus a sextic term.
RELAX_FINE_FUNCTIONAL = ("variant = polynomial\na2 = -0.21\nterm = 0 1 -2.1333333333333333\n"
                         "term = 2 0 0.875\nterm = 3 0 0.5")


@pytest.mark.parametrize("t, s0, nx, h, functional, amp", [
    (44.0, 0.8, 5, 1.0, "variant = quartic", 0.0882490032625812),  # Gamma / 10
    (50.0, 0.5, 5, 1.0, "variant = quartic", 0.05 * np.sqrt(2.0 / 3.0)),  # boundary norm / 10
    # poly_bound_C / 10; a tenth of the [material] quartic's Gamma would be 0.0882
    (44.0, 0.45, 17, 0.25, RELAX_FINE_FUNCTIONAL, 0.06690988342928152),
    (44.0, 0.4, 5, 1.0, "variant = gl\neps = 0.1", 0.041100273340842963),  # gl_bound / 10
], ids=["quartic-low", "quartic-high", "polynomial-relax-fine", "gl"])
def test_restarts_perturb_by_a_tenth_of_the_norm_bound(tmp_path, monkeypatch, t, s0, nx, h,
                                                       functional, amp):
    text = minimize_config(t=t, s0=s0, nx=nx, extra="restarts = 2\nseed = 3\n")
    text = text.replace("variant = quartic", functional).replace("max_iters = 100000",
                                                                 "max_iters = 0")
    for axis in "xyz":
        text = text.replace(f"h{axis} = 1.0", f"h{axis} = {h!r}")
    path = tmp_path / "run.cfg"
    path.write_text(text)
    starts, minimize = [], solver.minimize

    def capture(start, scfg):
        starts.append(start.values)
        return minimize(start, scfg)

    monkeypatch.setattr(solver, "minimize", capture)
    cli.main(["--out", str(tmp_path), "minimize", "--config", str(path)])
    cfg = parse_config(text)
    base = starts[0]  # the unperturbed start comes first
    mask = QField(cfg.grid, base).boundary_mask
    boundary_norm = float(np.sqrt((base[mask] ** 2).sum(-1)).max())
    code_amp = 0.1 * norm_bound(cli.build_functional(cfg, t), boundary_norm)[1]
    assert code_amp == pytest.approx(amp, rel=1e-12)
    assert len(starts) == 3
    for seed, start in zip((3, 4), starts[1:]):
        expected = base.copy()
        draw = np.random.default_rng(seed).standard_normal(expected[~mask].shape)
        expected[~mask] += code_amp * draw
        assert np.array_equal(start, expected)


def test_polynomial_minimize_and_verify_need_no_temperature(tmp_path):
    # the polynomial density reads no temperature, so the block changes nothing
    text = minimize_config(t=44.0, s0=0.45, nx=5).replace("variant = quartic",
                                                         RELAX_FINE_FUNCTIONAL)
    without = text.replace("[temperature]\nvalue = 44.0\n", "")
    assert without != text
    outs = {}
    for name, config in (("with", text), ("without", without)):
        cfg, out = tmp_path / f"{name}.cfg", tmp_path / name
        cfg.write_text(config)
        assert cli.main(["--out", str(out), "minimize", "--config", str(cfg)]) == EXIT_OK
        rc = cli.main(["--out", str(out), "verify", str(out / "field.ldgq"), "--config", str(cfg)])
        assert rc == EXIT_OK
        outs[name] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(outs["with"]) == ["audit.json", "field.ldgq", "solve_report.json",
                                    "verify_audit.json"]
    assert outs["with"] == outs["without"]


def test_minimize_outputs_are_byte_identical_and_report_a_trace(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(minimize_config(t=44.0, s0=0.7, nx=7, extra="restarts = 1\n"))
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert cli.main(["--out", str(out), "minimize", "--config", str(cfg)]) == EXIT_OK
    for name in ("field.ldgq", "solve_report.json", "audit.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    report = json.loads((outs[0] / "solve_report.json").read_text())
    trace = report["trace"]
    assert 2 <= len(trace) <= 32 and all(len(row) == 4 for row in trace)
    assert trace[0][0] == 0 and trace[0][3] is None  # the start has no accepted trial
    assert trace[-1][:3] == [report["iterations"], report["final_energy"],
                             report["final_residual_maxnorm"]]
    assert all(row[3] > 0.0 for row in trace[1:])
    # dt only ever halves, so it ran from dt_initial down to dt_final
    assert report["dt_final"] == report["dt_initial"] / 2 ** report["rejected_steps"]


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


@pytest.mark.parametrize("value", ["-1.0", "-1e300"])
@pytest.mark.parametrize("variant", ["quartic", pytest.param("gl\neps = 0.1", id="gl")])
@pytest.mark.parametrize("command", ["minimize", "verify"])
def test_solves_and_audits_reject_a_cold_temperature(tmp_path, capsys, value, variant, command):
    # T < 0 lies below the linear law's floor, as for the sweeps: a LowTemp
    # audit against its Gamma (2.75 at T = -1) would check nothing physical
    cfg = tmp_path / "run.cfg"
    cfg.write_text(minimize_config(t=value, s0=0.5, nx=5)
                   .replace("variant = quartic", f"variant = {variant}"))
    field = tmp_path / "in.ldgq"
    grid = Grid3(5, 5, 5, 1.0, 1.0, 1.0)
    write_field(field, QField.constant(grid, uniaxial_coeffs(0.5, [0, 0, 1])))
    args = ["minimize"] if command == "minimize" else ["verify", str(field)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["--out", str(tmp_path), *args, "--config", str(cfg)]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: temperature {float(value)} lies below the absolute-zero equivalent "
        "of the linear law\n")
    assert not list(tmp_path.glob("*.json")) and not (tmp_path / "field.ldgq").exists()


@pytest.mark.parametrize("edit", [("s0 = 0.8", "s0 = 0.8\nxlo = 9\ne1 = 1 0 0"),
                                  ("variant = quartic", "variant = quartic\neps = 0.1")])
def test_minimize_rejects_keys_the_choice_does_not_use(tmp_path, capsys, edit):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(minimize_config(nx=5).replace(*edit))
    rc = cli.main(["--out", str(tmp_path), "minimize", "--config", str(cfg)])
    assert rc == EXIT_PARSE
    assert "does not use" in capsys.readouterr().err
    assert not (tmp_path / "solve_report.json").exists()


def run_command(tmp_path, command, text) -> int:
    """Run ``command`` on the config ``text``; verify reads a 5^3 uniaxial field."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    field = tmp_path / "in.ldgq"
    write_field(field, QField.constant(Grid3(5, 5, 5, 1.0, 1.0, 1.0),
                                       uniaxial_coeffs(0.5, [0, 0, 1])))
    args = ["verify", str(field)] if command == "verify" else [command]
    return cli.main(["--out", str(tmp_path / "out"), *args, "--config", str(cfg)])


@pytest.mark.parametrize("command", ["phase", "triangles", "minimize", "verify"])
def test_gl_without_eps_is_a_config_error_on_every_command(tmp_path, capsys, command):
    # checked at parse time, so the sweeps, which read no functional, reject it too
    text = minimize_config(nx=5).replace("variant = quartic", "variant = gl")
    assert run_command(tmp_path, command, text) == EXIT_PARSE
    assert capsys.readouterr().err == "error: [functional] gl needs ['eps']\n"
    assert not list((tmp_path / "out").iterdir())


@pytest.mark.parametrize("command", ["phase", "triangles", "minimize", "verify"])
@pytest.mark.parametrize("old, new, message", [
    ("variant = quartic", "variant = polynomial\na2 = -0.2\nterm = 0 1 -1",
     "[functional]: total degree must be even and >= 4, got 3"),
    ("director = 0 0 1", "director = 0 0 2", "[boundary]: director must be a unit vector"),
], ids=["polynomial-degree", "director"])
def test_term_and_frame_rules_are_config_errors_on_every_command(tmp_path, capsys, command,
                                                                 old, new, message):
    # phase and triangles build neither the polynomial nor the boundary, yet reject both
    assert run_command(tmp_path, command, minimize_config(nx=5).replace(old, new)) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list((tmp_path / "out").iterdir())


def test_verify_counts_the_rows_before_sizing_the_header_grid(tmp_path, capsys):
    # 1e15 nodes would need petabytes; the one body line is counted first
    cfg = tmp_path / "run.cfg"
    cfg.write_text(minimize_config(nx=5))
    field = tmp_path / "huge.ldgq"
    field.write_text("LDGQ1 100000 100000 100000 1.0 1.0 1.0\n0 0 0 0.0 0.0 0.0 0.0 0.0\n")
    rc = cli.main(["--out", str(tmp_path / "out"), "verify", str(field), "--config", str(cfg)])
    assert rc == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: {field}: expected 1000000000000000 node lines, found 1\n")
    assert not list((tmp_path / "out").iterdir())


def test_readme_config_example_round_trips():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("### Configuration format"):]
    example = section[section.index("```ini\n") + len("```ini\n"):]
    cfg = parse_config(example[:example.index("```")])
    assert cfg.material and cfg.temperature and cfg.grid and cfg.boundary
    assert parse_config(serialize_config(cfg)) == cfg


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme[readme.index("## Library example"):]
    code = section[section.index("```python\n") + len("```python\n"):]
    namespace = {}
    exec(code[:code.index("```")], namespace)
    converged, norm, sign, gamma = capsys.readouterr().out.split()
    assert (converged, sign) == ("True", "<=")
    assert float(norm) <= float(gamma)
    assert namespace["audit"].satisfied


@pytest.mark.parametrize("line, message", [
    ("tol = 0", "tol must be positive"),
    ("max_iters = -1", "max_iters must be nonnegative"),
    ("restarts = -1", "restarts must be nonnegative"),
    ("seed = -1", "seed must be nonnegative"),
    ("slack = -1", "unknown solver key 'slack'"),
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


def test_gl_minimize_and_verify_where_the_closed_form_radicand_is_negative(tmp_path):
    # GL eps = 1 at T = 50: the penalized minorant has no root above 1/sqrt(6),
    # so the bound is 1/sqrt(6); both commands used to exit 2 here
    cfg = tmp_path / "run.cfg"
    cfg.write_text(minimize_config(t=50.0, s0=0.3, nx=5)
                   .replace("variant = quartic", "variant = gl\neps = 1.0"))
    assert cli.main(["--out", str(tmp_path), "minimize", "--config", str(cfg)]) == EXIT_OK
    rc = cli.main(
        ["--out", str(tmp_path), "verify", str(tmp_path / "field.ldgq"), "--config", str(cfg)]
    )
    assert rc == EXIT_OK
    for name in ("audit.json", "verify_audit.json"):
        audit = json.loads((tmp_path / name).read_text())
        assert audit["regime"] == "GL" and audit["bound_value"] == 1.0 / np.sqrt(6.0)


RUN = minimize_config(nx=5)
SWEEP_TO = MATERIAL_KJ + "[temperature]\nstart = 0\nstop = {}\nstep = 1\n"


@pytest.mark.parametrize("args, text, message, code", [
    (["minimize"], RUN[:RUN.index("[grid]")] + RUN[RUN.index("[boundary]"):],
     "this command needs the [grid] block", EXIT_PARSE),
    (["minimize"], RUN.replace("[temperature]\nvalue = 44.5\n", ""),
     "this command needs a [temperature] block", EXIT_PARSE),
    (["minimize"], RUN.replace("value = 44.5", "start = 44.0\nstop = 45.0\nstep = 0.5"),
     "minimize needs a single temperature, not a sweep", EXIT_PARSE),
    (["moments", "density.csv", "--level", "0"], None, "--level must be >= 1", EXIT_PARSE),
    (["minimize"], None,
     "cannot read config {cfg}: [Errno 2] No such file or directory: '{cfg}'", EXIT_PARSE),
    (["minimize"], RUN.replace("s0 = 0.8", "s0 = 1e100"),
     "initial field has non-finite energy", EXIT_DIVERGENCE),
    # inputs too large to hold, each failing before any memory is touched: a count
    # numpy cannot size (above intp) or an allocation of PiB, beyond any address space
    (["minimize"], minimize_config(nx=1000000),
     "[grid] 1000000 x 1000000 x 1000000 is too large to hold", EXIT_PARSE),
    (["minimize"], minimize_config(nx=100000), "Unable to allocate 35.5 PiB for an array "
     "with shape (100000, 100000, 100000, 5) and data type float64", EXIT_PARSE),
    (["phase"], SWEEP_TO.format("1e15"), "Unable to allocate 7.11 PiB for an array with "
     "shape (1000000000001001,) and data type int64", EXIT_PARSE),
    (["phase"], SWEEP_TO.format("1e30"),
     "[temperature] sweep has too many temperatures to hold", EXIT_PARSE),
    (["triangles"], SWEEP_TO.format("1e30"),
     "[temperature] sweep has too many temperatures to hold", EXIT_PARSE),
    (["moments", "density.csv", "--level", str(10**15)], None,
     f"--level {10**15} is too large to hold", EXIT_PARSE),
    (["moments", "density.csv", "--level", str(2**64)], None,
     f"--level {2**64} is too large to hold", EXIT_PARSE),
], ids=["missing-block", "no-temperature", "sweep", "level", "unreadable-config", "divergence",
        "grid-1e6", "grid-1e5", "sweep-1e15", "sweep-1e30", "triangles-1e30", "level-1e15",
        "level-2^64"])
def test_command_errors_have_their_exit_code_and_message(tmp_path, capsys, args, text, message,
                                                         code):
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_text(text)
    if args[0] != "moments":
        args = [*args, "--config", str(cfg)]
    # the 1e100 start overflows the energy to inf; pytest turns a RuntimeWarning into an error
    rc = cli.main(["--out", str(tmp_path / "out"), *args])
    assert rc == code
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
    assert not list((tmp_path / "out").iterdir())


@pytest.mark.parametrize("command, text", [("phase", SWEEP_TO.format(50)),
                                           ("triangles", SWEEP_TO.format(50)),
                                           ("minimize", RUN)],
                         ids=["phase", "triangles", "minimize"])
def test_a_config_with_a_byte_order_mark_gives_the_same_outputs(tmp_path, command, text):
    outs = []
    for name, data in (("plain", text.encode()), ("bom", "﻿".encode() + text.encode())):
        cfg, out = tmp_path / f"{name}.cfg", tmp_path / name
        cfg.write_bytes(data)
        assert cli.main(["--out", str(out), command, "--config", str(cfg)]) == EXIT_OK
        outs.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert outs[0] and outs[0] == outs[1]


@pytest.mark.parametrize("boundary", [BOUNDARIES["biaxial"], BOUNDARIES["per-face"]],
                         ids=["biaxial", "per-face"])
def test_minimize_keeps_the_boundary_datum_on_the_faces(tmp_path, boundary):
    text = RUN.replace(BOUNDARIES["uniaxial"], boundary)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    assert cli.main(["--out", str(tmp_path), "minimize", "--config", str(cfg)]) == EXIT_OK
    field = read_field(tmp_path / "field.ldgq")
    expected = cli.boundary_values(field.grid, parse_config(text).boundary)
    mask = field.boundary_mask
    assert np.array_equal(field.values[mask], expected[mask])


@pytest.mark.parametrize("kind", sorted(BOUNDARIES))
@pytest.mark.parametrize("min_interior", [0, 27, 28])
def test_only_one_directors_data_relax_on_its_line(tmp_path, monkeypatch, kind, min_interior):
    # biaxial data leave every director's line, so they never enter the line path,
    # and neither do grids with fewer interior nodes than the threshold (27 at 5^3)
    monkeypatch.setattr(cli, "_LINE_MIN_INTERIOR", min_interior)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(RUN.replace(BOUNDARIES["uniaxial"], BOUNDARIES[kind]))
    calls, relax = [], solver.minimize_on_director_line

    def record(start, director, scfg):
        calls.append(director)
        return relax(start, director, scfg)

    monkeypatch.setattr(solver, "minimize_on_director_line", record)
    assert cli.main(["--out", str(tmp_path), "minimize", "--config", str(cfg)]) == EXIT_OK
    on_line = kind != "biaxial" and min_interior <= 27
    assert calls == ([(0.0, 0.0, 1.0)] if on_line else [])


def test_the_line_and_its_five_component_check_share_one_iteration_budget(tmp_path,
                                                                          monkeypatch):
    monkeypatch.setattr(cli, "_LINE_MIN_INTERIOR", 0)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(minimize_config(t=44.5, s0=0.7, nx=7, extra="max_iters = 3\n"))
    assert cli.main(["--out", str(tmp_path), "minimize", "--config", str(cfg)]) == EXIT_DIVERGENCE
    report = json.loads((tmp_path / "solve_report.json").read_text())
    assert (report["iterations"], report["stop_reason"]) == (3, "max_iters")
    assert report["trace"][-1][:3] == [3, report["final_energy"],
                                       report["final_residual_maxnorm"]]


def test_per_face_edges_take_the_x_face_then_the_y_face():
    # boundary_values assigns the z faces first and the x faces last
    faces = dict(zip(("xlo", "xhi", "ylo", "yhi", "zlo", "zhi"), (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)))
    boundary = {"kind": "per-face", "director": (0.0, 0.0, 1.0), **faces}
    values = cli.boundary_values(Grid3(4, 4, 4, 1.0, 1.0, 1.0), boundary)
    base = uniaxial_coeffs(1.0, [0, 0, 1])
    for node, face in [((0, 1, 0), "xlo"), ((3, 2, 3), "xhi"),  # x-z edges
                       ((1, 0, 0), "ylo"), ((2, 3, 3), "yhi"),  # y-z edges
                       ((0, 0, 1), "xlo"), ((3, 3, 2), "xhi"),  # x-y edges
                       ((0, 0, 0), "xlo"), ((3, 0, 3), "xhi"),  # corners
                       ((1, 2, 0), "zlo"), ((2, 1, 3), "zhi")]:  # inside the z faces
        assert np.array_equal(values[node], faces[face] * base), (node, face)


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


def test_negated_json_matches_json_dumps_of_the_negation():
    rng = np.random.default_rng(16)
    special = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, np.inf, -np.inf, np.nan]
    randoms = rng.integers(0, 2**64, 10_000, dtype=np.uint64).view(np.float64).tolist()
    for x in special + randoms:
        assert cli._negated_json(json.dumps(x)) == json.dumps([-x])[1:-1], x


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
