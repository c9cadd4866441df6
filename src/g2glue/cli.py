"""g2glue command line: verification suites with JSON/CSV reports.

Subcommands: eh verify | eh decay | cone rates | cone index | cone oracle
| rates jk | kummer fixed-points | kummer torsion | torus solve | all.
Each suite returns its checks and CSV rows; `run` times the suite call
once with a monotonic clock and builds the one report.  `--csv` exists on
`eh decay` and `kummer torsion` only, the two suites that produce rows.
Exit codes: 0 all checks pass, 1 suite failure, 2 invalid configuration
(a bad value, a value outside a suite's domain, or an unknown config
section or key), 3 I/O error.  Reports are deterministic for a fixed seed
up to `timing_seconds`.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import platform
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np


class ConfigError(ValueError):
    pass


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------

# The known sections and keys; a value read from the command line or a
# config file is converted to the type of its default.
DEFAULTS = {
    "torus": {"n": 6, "eps": 1e-2, "seed": 7, "tol": 1e-8, "max_iter": 50},
    "kummer": {"t": "0.008,0.004,0.002,0.001", "samples": 2000,
               "beta": -0.05},
    "eh": {"k": "1,1e-2,1e-4", "samples": 1000, "seed": 1},
    "cone": {"degree": 2, "from": Fraction(-4), "to": Fraction(0)},
    "rates": {"table": "naive", "beta": Fraction(-1, 20),
              "b": Fraction(-1, 5)},
    "all": {"fast": 0},
}


def config_load(path: str | None) -> dict:
    """Read `key = value` pairs under [section] headers; unknown keys are
    rejected, domains are checked when the values are used."""
    cfg = {sec: dict(vals) for sec, vals in DEFAULTS.items()}
    if path is None:
        return cfg
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
            cfg[section][key] = value
    return cfg


def _options(section: str, cfg: dict, flags: dict) -> dict:
    """The section's config values with the flags given on the command
    line laid over them, each converted to the type of its default."""
    opts = {}
    for key, default in DEFAULTS[section].items():
        value = cfg[section][key] if flags.get(key) is None else flags[key]
        try:
            opts[key] = type(default)(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad value '{value}' for {key} in "
                              f"[{section}]") from exc
    return opts


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in str(text).split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list '{text}'") from exc


def _validate_beta(beta: float):
    if not (-4.0 < beta < 0.0):
        raise ConfigError(f"beta = {beta} outside the admissible "
                          "interval (-4, 0)")


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------

def _check(name, status, measured=None, expected=None, tol=None, anchor=""):
    return {"name": name, "status": status, "measured": measured,
            "expected": expected, "tolerance": tol, "anchor": anchor}


def _passfail(name, ok, measured=None, expected=None, tol=None, anchor=""):
    return _check(name, "pass" if ok else "fail", measured, expected, tol,
                  anchor)


def assemble_report(suite: str, checks: list, seconds: float) -> dict:
    return {
        "suite": suite,
        "checks": checks,
        "n_fail": sum(1 for c in checks if c["status"] == "fail"),
        "timing_seconds": round(seconds, 3),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit(report: dict, out_json: str | None, out_csv: str | None,
         csv_rows: list):
    """Write the report (stdout without `out_json`) and, with `out_csv`,
    the CSV rows, whose first row is the header."""
    payload = json.dumps(report, indent=2, default=str)
    if out_json:
        _atomic_write(out_json, payload)
    else:
        print(payload)
    if out_csv:
        _atomic_write(out_csv, "".join(",".join(str(v) for v in row) + "\n"
                                       for row in csv_rows))


# ----------------------------------------------------------------------
# suites: each returns (checks, CSV rows with the header first, or [])
# ----------------------------------------------------------------------

def suite_eh_verify(samples: int, seed: int) -> tuple[list, list]:
    from g2glue import eguchi_hanson as eh
    rng = np.random.default_rng(seed)
    ks = 10.0 ** rng.uniform(-3, 0.5, size=8)
    rs = 10.0 ** rng.uniform(-2, 3, size=max(8, samples // 8))
    checks = []

    nu, lam, tau1 = eh.harmonic_forms()
    om = eh.hyperkaehler_triple()
    omh = eh.asd_triple()
    flat1 = eh.RadialForm(2, {(0, 1): 1, (2, 3): eh.R})
    checks.append(_passfail("d-closed-triple",
                            all(o.d().is_zero() for o in om),
                            anchor="triple-closed"))
    checks.append(_passfail("d-lambda-is-nu", (lam.d() - nu).is_zero(),
                            anchor="primitive-of-nu"))
    checks.append(_passfail("d-tau-is-triple-difference",
                            (tau1.d() - (om[0] - flat1)).is_zero(),
                            anchor="ale-primitive"))
    # (name, forms, sign of * on them, anchor)
    for name, forms, sign, anchor in (
            ("nu-anti-self-dual", (nu,), -1, "nu-asd"),
            ("triple-self-dual", om, 1, "triple-sd"),
            ("hatted-anti-self-dual", omh, -1, "hat-asd")):
        worst = 0.0
        for k in ks:
            for o in forms:
                f = o.evaluate_onb(k, rs)
                worst = max(worst, float(np.abs(
                    eh.star_onb(f).coeffs - sign * f.coeffs).max()))
        checks.append(_passfail(name, worst <= 1e-10, worst, 0.0, 1e-10,
                                anchor))
    checks.append(_passfail("hatted-closed",
                            all(o.d().is_zero() for o in omh),
                            anchor="hat-closed"))

    geo1, geo16 = eh.sphere_geometry(1.0), eh.sphere_geometry(16.0)
    checks.append(_passfail("sphere-volume-scaling",
                            abs(geo16["volume"] / geo1["volume"] - 4) < 1e-8,
                            geo16["volume"] / geo1["volume"], 4.0, 1e-8,
                            "bolt-volume-k-half"))
    checks.append(_check("sphere-constants", "reported",
                         {"diameter": geo1["diameter_constant"],
                          "volume": geo1["volume_constant"]},
                         {"diameter": geo1["reference_diameter_constant"],
                          "volume": geo1["reference_volume_constant"]},
                         None, "bolt-constants"))

    err = eh.scaling_pullback_check(16.0, 1.0, np.array([0.5, 2.0, 9.0]))
    checks.append(_passfail("scaling-pullback", err <= 1e-12, err, 0.0,
                            1e-12, "family-rescaling"))
    disc = eh.rescaling_invariance_check(nu, -4.0, 0.6,
                                         np.geomspace(1e-3, 30, 150))
    checks.append(_passfail("weighted-norm-rescaling", disc <= 1e-8, disc,
                            0.0, 1e-8, "norm-rescaling"))
    return checks, []


def suite_eh_decay(k_values, out_rows: bool = True) -> tuple[list, list]:
    from g2glue import eguchi_hanson as eh
    if any(not (0.0 < k <= 1.0) for k in k_values):
        raise ConfigError(f"k values {k_values} must lie in (0, 1]")
    nu, _, tau1 = eh.harmonic_forms()
    rr = np.geomspace(1.01, 1e4, 2000)
    checks, rows = [], [("r", "k", "value", "bound", "ratio")]
    for k in k_values:
        ratios = eh.ale_decay_ratio(k, rr)
        sup = float(ratios.max())
        checks.append(_passfail(f"ale-ratio-bound-k-{k:g}", sup <= 4.0, sup,
                                "<= 4", None, "ale-decay-c4"))
        if out_rows:
            vals = tau1.pointwise_norm(k, rr[::100])
            bounds = k * (k ** 0.25 + np.sqrt(rr[::100])) ** -3.0
            for r, v, b in zip(rr[::100], vals, bounds):
                rows.append((r, k, v, b, v / b))
    k = 1e-4
    rs = np.geomspace(1e2, 1e6, 60)
    w = k ** 0.25 + eh.radial_distance_many(k, rs)
    slope = float(np.polyfit(np.log(w), np.log(nu.pointwise_norm(k, rs)),
                             1)[0])
    checks.append(_passfail("nu-decay-slope", abs(slope + 4) <= 0.05, slope,
                            -4.0, 0.05, "nu-weighted-decay"))
    return checks, rows


def suite_cone_rates(degree: int, lam1: Fraction,
                     lam2: Fraction) -> tuple[list, list]:
    from g2glue import cone
    try:
        rates = cone.critical_rates(cone.so3_link(), degree, lam1, lam2)
    except ValueError as exc:
        # a degree outside 0..4, an empty interval, or an interval that
        # needs eigenvalues beyond the link tables
        raise ConfigError(str(exc)) from exc
    checks = [_check("critical-rates", "reported",
                     [{"rate": str(r.rate), "dim": r.dimension,
                       "case": r.case} for r in rates],
                     None, None, "cone-rates")]
    return checks, []


def suite_cone_index(degree: int, lam1: Fraction,
                     lam2: Fraction) -> tuple[list, list]:
    from g2glue import cone
    try:
        jump = cone.index_change(degree, lam1, lam2)
    except ValueError as exc:
        # as for cone rates, or an endpoint that is itself a critical rate
        raise ConfigError(str(exc)) from exc
    return [_check("index-change", "reported", jump, None, None,
                   "index-jump")], []


def suite_cone_oracle() -> tuple[list, list]:
    from g2glue import cone
    checks = []
    basis = cone.order_minus2_basis()
    bad = max(cone.harmonic_oracle_r4(w)["residual"] for w in basis)
    checks.append(_passfail("six-order-minus2-harmonic", bad == 0.0, bad,
                            0.0, 0.0, "order-minus2-kernel"))
    for w in cone.decaying_pair_forms():
        out = cone.harmonic_oracle_r4(w)
        checks.append(_passfail("decaying-harmonic",
                                out["residual"] == 0.0 and out["closed"]
                                and out["coclosed"], out["residual"], 0.0,
                                0.0, "l2-harmonic-form"))
    for m in range(0, 9):
        out = cone.s3_function_spectrum_check(m)
        checks.append(_passfail(f"sphere-spectrum-m-{m}",
                                out["eigenvalue"] == m * (m + 2),
                                out["eigenvalue"], m * (m + 2), 0,
                                "sphere-function-spectrum"))
    return checks, []


def suite_rates_jk(table: str, beta: Fraction,
                   B: Fraction) -> tuple[list, list]:
    from g2glue import cone
    _validate_beta(float(beta))
    checks = []
    if table == "naive":
        expo = cone.jk_rate_bound(cone.naive_gradient_table(B), beta - 2)
        expected = Fraction(4, 5) * (2 - beta) if B == Fraction(-1, 5) else None
        status_ok = (expected is None) or (expo == expected)
        checks.append(_passfail("weighted-torsion-exponent", status_ok,
                                str(expo), str(expected), 0,
                                "two-scale-exponent"))
        checks.append(_check("value-exponent", "reported",
                             str(cone.jk_rate_bound(
                                 cone.naive_value_table(B), 0)),
                             ">= 0", None, "torsion-size"))
    elif table == "refined":
        expo = cone.jk_rate_bound(cone.refined_gradient_table(), beta - 2)
        checks.append(_passfail("refined-exponent-certifies-13/5",
                                expo >= Fraction(13, 5), str(expo),
                                ">= 13/5", 0, "refined-exponent"))
    else:
        raise ConfigError(f"unknown table '{table}'")
    return checks, []


def suite_kummer_fixed_points() -> tuple[list, list]:
    from g2glue import kummer
    sc = kummer.singular_components()
    counts = sc["counts"]
    checks = [
        _passfail("fixed-tori-generators",
                  all(counts[n] == 16 for n in ("a", "b", "c")),
                  {n: counts[n] for n in ("a", "b", "c")}, 16, 0,
                  "sixteen-tori"),
        _passfail("fixed-free-products",
                  all(counts[n] == 0 for n in ("ba", "ca", "cb", "cba")),
                  {n: counts[n] for n in ("ba", "ca", "cb", "cba")}, 0, 0,
                  "free-products"),
        _passfail("twelve-components", sc["n_components"] == 12,
                  sc["n_components"], 12, 0, "singular-components"),
        _passfail("orbit-size", sc["orbit_size"] == 4, sc["orbit_size"], 4,
                  0, "free-orbits"),
        _passfail("disjoint", sc["disjoint"], sc["disjoint"], True, 0,
                  "disjoint-union"),
    ]
    return checks, []


def suite_kummer_torsion(t_values, samples: int,
                         beta: float) -> tuple[list, list]:
    from g2glue import kummer
    _validate_beta(beta)
    rows = [("t", "sup_psi", "sup_grad", "weighted_sup")]
    try:
        out = kummer.torsion_decay_fit(t_values, n_samples=samples,
                                       beta=beta, with_gradient=False)
    except ValueError as exc:
        # fewer than 4 values of t, a t outside (0, 0.3], or no samples
        raise ConfigError(str(exc)) from exc
    except RuntimeError as exc:
        t_max = kummer.positivity_threshold()
        checks = [_passfail("torsion-slope", False, str(exc),
                            "slope 4.0 +- 0.1", 0.1, "fourth-power-law"),
                  _check("positivity-threshold", "reported", t_max,
                         "largest admissible t", None, "positivity-domain")]
        return checks, rows
    checks = [
        _passfail("torsion-slope", 3.9 <= out["slope"] <= 4.1, out["slope"],
                  4.0, 0.1, "fourth-power-law"),
        _passfail("weighted-slope", out["weighted_slope"] >= 3.9,
                  out["weighted_slope"], ">= 3.9", None, "weighted-law"),
        _check("usable-points", "reported", out["usable"], len(t_values),
               None, "positivity-domain"),
    ]
    return checks, rows + out["rows"]


def suite_torus_solve(n: int, eps: float, seed: int, tol: float, max_iter: int,
                      dump: str | None = None) -> tuple[list, list]:
    from g2glue import torus
    try:
        cfg = torus.SolverConfig(N=n, eps=eps, seed=seed, tol_residual=tol,
                                 max_iter=max_iter)
        eta, report = torus.solve(cfg)
    except (ValueError, torus.GridTooLargeError) as exc:
        # a grid size, tol or max_iter outside the solver's domain, an eps
        # that puts phi outside the G2 cone (PositivityError), or a grid
        # that cannot fit in memory
        raise ConfigError(str(exc)) from exc
    except RuntimeError as exc:
        checks = [_passfail("converged", False, str(exc),
                            f"step <= {tol:g}", tol, "iteration-count")]
        return checks, []
    if dump:
        torus.save_field(dump, eta)
    # the solve is exact: it returns to phi0 up to rounding
    res_tol, dist_tol = max(tol, 1e-8), 1e-8
    checks = [
        _check("iterations", "reported", report["iterations"],
               f"<= {max_iter}", None, "iteration-count"),
        _passfail("torsion-residual", report["residual"] <= res_tol,
                  report["residual"], 0.0, res_tol, "torsion-free-residual"),
        _passfail("distance-to-flat", report["distance_to_flat"] <= dist_tol,
                  report["distance_to_flat"], 0.0, dist_tol, "unique-flat"),
        _passfail("cohomology-class", report["zero_mode_gap"] <= 1e-14,
                  report["zero_mode_gap"], 0.0, 1e-14, "class-preserved"),
        _passfail("gamma-invariance", report["invariance_defect"] <= 1e-12,
                  report["invariance_defect"], 0.0, 1e-12,
                  "gamma-invariant-model"),
        _check("contraction-factors", "reported",
               report["contraction_factors"], "< 1", None, "contraction"),
    ]
    return checks, []


def suite_all(fast: bool = False) -> tuple[list, list]:
    parts = [
        suite_kummer_fixed_points(),
        suite_eh_verify(400, 1),
        suite_eh_decay([1.0, 1e-2, 1e-4], out_rows=False),
        suite_cone_oracle(),
        suite_rates_jk("naive", Fraction(-1, 20), Fraction(-1, 5)),
        suite_rates_jk("refined", Fraction(-1, 20), Fraction(-1, 5)),
        suite_kummer_torsion([0.008, 0.004, 0.002, 0.001],
                             300 if fast else 2000, -0.05),
        suite_torus_solve(4 if fast else 6, 1e-2, 7, 1e-8, 50),
    ]
    return [c for checks, _ in parts for c in checks], []


# Suite name (the command words joined by '-') -> call on the options of
# the command's config section, with the remaining flags (--dump) merged in.
SUITES = {
    "eh-verify": lambda o: suite_eh_verify(o["samples"], o["seed"]),
    "eh-decay": lambda o: suite_eh_decay(_parse_floats(o["k"])),
    "cone-rates": lambda o: suite_cone_rates(o["degree"], o["from"],
                                             o["to"]),
    "cone-index": lambda o: suite_cone_index(o["degree"], o["from"],
                                             o["to"]),
    "cone-oracle": lambda o: suite_cone_oracle(),
    "rates-jk": lambda o: suite_rates_jk(o["table"], o["beta"], o["b"]),
    "kummer-fixed-points": lambda o: suite_kummer_fixed_points(),
    "kummer-torsion": lambda o: suite_kummer_torsion(
        _parse_floats(o["t"]), o["samples"], o["beta"]),
    "torus-solve": lambda o: suite_torus_solve(
        o["n"], o["eps"], o["seed"], o["tol"], o["max_iter"], o["dump"]),
    "all": lambda o: suite_all(fast=bool(o["fast"])),
}


# ----------------------------------------------------------------------
# argument handling
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """Flag destinations are the config keys of the command's section."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument("--out", help="write the JSON report here (atomic)")
    with_csv = argparse.ArgumentParser(add_help=False, parents=[common])
    with_csv.add_argument("--csv", help="write CSV rows here (atomic)")

    ap = argparse.ArgumentParser(prog="g2glue",
                                 description="verification suites")
    sub = ap.add_subparsers(dest="command", required=True)

    eh = sub.add_parser("eh").add_subparsers(dest="sub", required=True)
    ehv = eh.add_parser("verify", parents=[common])
    ehv.add_argument("--samples")
    ehv.add_argument("--seed")
    ehd = eh.add_parser("decay", parents=[with_csv])
    ehd.add_argument("--k", help="comma separated family parameters")

    cone_p = sub.add_parser("cone").add_subparsers(dest="sub", required=True)
    for name in ("rates", "index"):
        cp = cone_p.add_parser(name, parents=[common])
        cp.add_argument("--degree")
        cp.add_argument("--from")
        cp.add_argument("--to")
    cone_p.add_parser("oracle", parents=[common])

    rates_p = sub.add_parser("rates").add_subparsers(dest="sub",
                                                     required=True)
    rj = rates_p.add_parser("jk", parents=[common])
    rj.add_argument("--table")
    rj.add_argument("--beta")
    rj.add_argument("--B", dest="b")

    km = sub.add_parser("kummer").add_subparsers(dest="sub", required=True)
    km.add_parser("fixed-points", parents=[common])
    kt = km.add_parser("torsion", parents=[with_csv])
    kt.add_argument("--t", help="comma separated gluing parameters")
    kt.add_argument("--samples")
    kt.add_argument("--beta")

    ts = sub.add_parser("torus").add_subparsers(dest="sub", required=True)
    sv = ts.add_parser("solve", parents=[common])
    sv.add_argument("--n")
    sv.add_argument("--eps")
    sv.add_argument("--seed")
    sv.add_argument("--tol")
    sv.add_argument("--max-iter")
    sv.add_argument("--dump", help="binary field dump path")

    al = sub.add_parser("all", parents=[common])
    al.add_argument("--fast", action="store_true", default=None)
    return ap


def run(args) -> tuple[dict, list]:
    """Look up the suite named by the command words, time its call and
    assemble its report."""
    cfg = config_load(args.config)
    flags = vars(args)
    name = "-".join(w for w in (args.command, flags.get("sub")) if w)
    opts = {**flags, **_options(args.command, cfg, flags)}
    t0 = time.perf_counter()
    checks, rows = SUITES[name](opts)
    return assemble_report(name, checks, time.perf_counter() - t0), rows


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, rows = run(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    try:
        emit(report, args.out, getattr(args, "csv", None), rows)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    return 0 if report["n_fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
