"""CLI surface tests: subcommands, config handling, exit codes,
determinism of reports."""

import json
import warnings

import pytest

from g2glue import cli
from g2glue import kummer
from g2glue import torus


def run_cli(argv):
    return cli.main(argv)


def load(path):
    with open(path) as fh:
        return json.load(fh)


def test_fixed_points_report(tmp_path):
    out = tmp_path / "fp.json"
    code = run_cli(["kummer", "fixed-points", "--out", str(out)])
    assert code == 0
    rep = load(out)
    assert rep["suite"] == "kummer-fixed-points"
    assert rep["n_fail"] == 0
    names = {c["name"] for c in rep["checks"]}
    assert "twelve-components" in names
    assert all(c["anchor"] for c in rep["checks"])


def test_cone_rates_report(tmp_path):
    out = tmp_path / "rates.json"
    code = run_cli(["cone", "rates", "--degree", "2", "--from=-39/10",
                    "--to", "0", "--out", str(out)])
    assert code == 0
    rates = load(out)["checks"][0]["measured"]
    assert rates == [{"rate": "-2", "dim": 6, "case": "iii"}]


def test_cone_index(tmp_path):
    out = tmp_path / "idx.json"
    assert run_cli(["cone", "index", "--degree", "2", "--from", "-3",
                    "--to", "-1", "--out", str(out)]) == 0
    assert load(out)["checks"][0]["measured"] == 6


def test_rates_jk(tmp_path):
    out = tmp_path / "jk.json"
    assert run_cli(["rates", "jk", "--table", "naive", "--beta=-1/20",
                    "--B=-1/5", "--out", str(out)]) == 0
    rep = load(out)
    assert rep["checks"][0]["measured"] == "41/25"


def test_eh_decay_csv(tmp_path):
    out = tmp_path / "d.json"
    csv = tmp_path / "d.csv"
    assert run_cli(["eh", "decay", "--k", "1,1e-2", "--out", str(out),
                    "--csv", str(csv)]) == 0
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "r,k,value,bound,ratio"
    assert len(lines) > 10
    assert all(float(line.split(",")[4]) <= 4.0 for line in lines[1:])


def test_torus_solve_trivial(tmp_path):
    out = tmp_path / "t.json"
    dump = tmp_path / "eta.bin"
    code = run_cli(["torus", "solve", "--n", "4", "--eps", "0", "--seed",
                    "1", "--out", str(out), "--dump", str(dump)])
    assert code == 0
    rep = load(out)
    by_name = {c["name"]: c for c in rep["checks"]}
    assert by_name["iterations"]["measured"] == 0
    assert by_name["torsion-residual"]["measured"] == 0.0
    assert dump.exists() and dump.stat().st_size == 8 + 21 * 4 ** 7 * 8


def test_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli(["eh", "verify", "--seed", "5", "--samples", "200",
             "--out", str(a)])
    run_cli(["eh", "verify", "--seed", "5", "--samples", "200",
             "--out", str(b)])
    ra, rb = load(a), load(b)
    ra.pop("timing_seconds")
    rb.pop("timing_seconds")
    assert ra == rb


def test_config_file_defaults_and_overrides(tmp_path):
    cfg = tmp_path / "g2.cfg"
    cfg.write_text("[kummer]\nbeta = -0.1\n")
    out = tmp_path / "o.json"
    code = run_cli(["kummer", "torsion", "--config", str(cfg),
                    "--t", "0.008,0.004,0.002,0.001",
                    "--samples", "200", "--out", str(out)])
    assert code == 0


def test_empty_config_is_defaults():
    assert cli.config_load(None) == {s: dict(v)
                                     for s, v in cli.DEFAULTS.items()}


def test_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[torus]\nbogus = 1\n")
    assert run_cli(["kummer", "fixed-points", "--config", str(cfg)]) == 2
    # the torus solve has one scheme and no mode key
    for mode in ("flat", "cg"):
        cfg.write_text(f"[torus]\nmode = {mode}\n")
        assert run_cli(["torus", "solve", "--n", "4",
                        "--config", str(cfg)]) == 2
        assert "unknown key 'mode'" in capsys.readouterr().err


def test_unknown_section_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[nope]\nx = 1\n")
    assert run_cli(["kummer", "fixed-points", "--config", str(cfg)]) == 2


def test_beta_domain_rejected():
    code = run_cli(["kummer", "torsion", "--t", "0.01,0.005,0.0025,0.00125",
                    "--samples", "100", "--beta=-5"])
    assert code == 2


def test_t_domain_rejected(capsys):
    # too few values of t, then a t outside (0, 0.3]: both are
    # configuration errors, refused before the fit
    for t in ("0.2,0.1", "0.5,0.1,0.05,0.025"):
        assert run_cli(["kummer", "torsion", "--t", t,
                        "--samples", "100"]) == 2
        assert "configuration error" in capsys.readouterr().err


def test_io_error_exit_code(tmp_path):
    code = run_cli(["kummer", "fixed-points", "--out",
                    str(tmp_path / "missing" / "deep" / "x.json")])
    assert code == 3


def test_torus_grid_size_rejected(capsys):
    assert run_cli(["torus", "solve", "--n", "5"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_torus_eps_outside_cone_rejected(capsys):
    # the first step's Theta gates phi, with no overflow warning on the way
    # (1e300 overflows phi's B to inf and NaN); a non-finite eps is refused
    # before any grid is built
    for eps, reason in (("2", "G2 cone"), ("1e300", "G2 cone"),
                        ("nan", "finite"), ("inf", "finite")):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["torus", "solve", "--n", "4", "--eps", eps])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and reason in err
        assert "Traceback" not in err and "RuntimeWarning" not in err
        assert not [w for w in caught if w.category is RuntimeWarning]


def test_eh_decay_k_domain_rejected(capsys):
    assert run_cli(["eh", "decay", "--k", "5"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_torus_non_convergence_reports_failure(tmp_path):
    out = tmp_path / "t.json"
    code = run_cli(["torus", "solve", "--n", "4", "--max-iter", "1",
                    "--out", str(out)])
    assert code == 1
    rep = load(out)
    assert rep["n_fail"] == 1
    (check,) = rep["checks"]
    assert check["name"] == "converged" and check["status"] == "fail"
    assert "max_iter = 1" in check["measured"]


def test_torus_grid_too_large_for_memory_rejected(monkeypatch, capsys):
    monkeypatch.setattr(torus, "_mem_available", lambda: 2 ** 20)
    assert run_cli(["torus", "solve", "--n", "4"]) == 2
    assert "GiB available" in capsys.readouterr().err


def test_fixed_points_orbit_size_is_measured(monkeypatch):
    # a "subgroup" holding the generator itself fixes each of its tori:
    # orbits of length 1, which the orbit-size check must report
    monkeypatch.setattr(
        kummer, "_subgroup_without",
        lambda elements, g: [e for e in elements if e.name in ("", g)])
    assert kummer.singular_components()["orbit_size"] == 1
    assert run_cli(["kummer", "fixed-points"]) == 1


@pytest.mark.parametrize("argv", [
    ["cone", "rates", "--from=abc"],
    ["rates", "jk", "--B=1/0"],
    ["cone", "rates", "--degree", "9"],
    ["cone", "rates", "--degree=-1"],
    ["cone", "rates", "--from=0", "--to=-1"],
    ["cone", "rates", "--from=-1000", "--to=0"],
    ["cone", "index", "--degree", "2", "--from=-2", "--to=-1"],
    ["kummer", "torsion", "--samples", "0"],
    ["torus", "solve", "--tol=-1"],
    ["kummer", "torsion", "--beta", "x"],
    ["eh", "verify", "--samples", "abc"],
    ["torus", "solve", "--n", "x"],
    ["rates", "jk", "--table", "bogus"],
], ids=["rational-not-a-number", "rational-zero-denominator",
        "degree-above-4", "degree-negative", "empty-rate-interval",
        "beyond-link-tables", "critical-endpoint", "no-samples",
        "negative-tol", "float-not-a-number", "int-not-a-number",
        "grid-size-not-a-number", "unknown-table"])
def test_invalid_input_rejected(argv, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err and "Traceback" not in err


def test_bad_config_value_rejected(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[torus]\nn = six\n")
    assert run_cli(["torus", "solve", "--config", str(cfg)]) == 2
    assert "bad value 'six'" in capsys.readouterr().err


def test_csv_only_where_rows_exist(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["cone", "oracle", "--csv", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    # nor is there a --mode flag: the torus solve has one scheme
    with pytest.raises(SystemExit) as exc:
        run_cli(["torus", "solve", "--n", "4", "--mode", "cg"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --mode cg" in err
    assert "Traceback" not in err


def test_torus_checks_apply_their_tolerance(monkeypatch, tmp_path):
    # a solve whose distance to phi0 is above 1e-8 must fail the distance
    # check, and one whose invariance defect is above 1e-12 the invariance
    # check; the residual's bound is max(tol, 1e-8), and each bound applied
    # is reported as the check's tolerance
    report = {"iterations": 3, "residual": 5e-7, "distance_to_flat": 2e-8,
              "zero_mode_gap": 0.0, "invariance_defect": 2e-12,
              "contraction_factors": [0.1]}
    monkeypatch.setattr(torus, "solve", lambda cfg: (None, report))
    out = tmp_path / "t.json"
    assert run_cli(["torus", "solve", "--n", "4", "--tol", "1e-6",
                    "--out", str(out)]) == 1
    by_name = {c["name"]: c for c in load(out)["checks"]}
    assert by_name["torsion-residual"]["status"] == "pass"
    assert by_name["torsion-residual"]["tolerance"] == 1e-6
    assert by_name["distance-to-flat"]["status"] == "fail"
    assert by_name["distance-to-flat"]["tolerance"] == 1e-8
    assert by_name["gamma-invariance"]["status"] == "fail"
    assert by_name["gamma-invariance"]["tolerance"] == 1e-12


def test_all_concatenates_suite_checks(monkeypatch, tmp_path):
    names = ["suite_kummer_fixed_points", "suite_eh_verify",
             "suite_eh_decay", "suite_cone_oracle", "suite_rates_jk",
             "suite_kummer_torsion", "suite_torus_solve"]
    calls = []

    def fake(name):
        def suite(*args, **kwargs):
            calls.append(name)
            return [{"name": f"{name}-{len(calls)}", "status": "pass"}], []
        return suite

    for name in names:
        monkeypatch.setattr(cli, name, fake(name))
    out = tmp_path / "all.json"
    assert run_cli(["all", "--fast", "--out", str(out)]) == 0
    rep = load(out)
    assert rep["suite"] == "all"
    assert calls == names[:5] + ["suite_rates_jk"] + names[5:]
    assert [c["name"] for c in rep["checks"]] == [
        f"{name}-{i}" for i, name in enumerate(calls, 1)]
