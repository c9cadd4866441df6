"""CLI surface tests: subcommands, config handling, exit codes,
determinism of reports."""

import json

import pytest

from g2glue import cli


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


def test_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[torus]\nbogus = 1\n")
    assert run_cli(["kummer", "fixed-points", "--config", str(cfg)]) == 2


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
