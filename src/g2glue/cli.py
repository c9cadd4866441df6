"""g2glue command line: verification suites with JSON/CSV reports.

Subcommands: eh verify | eh decay | cone rates | cone index | cone oracle
| rates jk | kummer fixed-points | kummer torsion | torus solve | all.
Exit codes: 0 all checks pass, 1 suite failure, 2 invalid configuration,
3 I/O error.  Reports are deterministic for a fixed seed up to the
timing/environment stamp.
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

KNOWN_KEYS = {
    "torus": {"n", "eps", "seed", "tol", "mode", "max_iter"},
    "kummer": {"t", "samples", "beta"},
    "eh": {"k", "samples", "seed"},
    "cone": {"degree", "from", "to"},
    "rates": {"table", "beta", "b"},
    "all": {"fast"},
}

DEFAULTS = {
    "torus": {"n": 6, "eps": 1e-2, "seed": 7, "tol": 1e-8, "mode": "flat",
              "max_iter": 50},
    "kummer": {"t": "0.008,0.004,0.002,0.001", "samples": 2000,
               "beta": -0.05},
    "eh": {"k": "1,1e-2,1e-4", "samples": 1000, "seed": 1},
    "cone": {"degree": 2, "from": "-4", "to": "0"},
    "rates": {"table": "naive", "beta": "-1/20", "b": "-1/5"},
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
        if section not in KNOWN_KEYS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in parser.items(section):
            if key not in KNOWN_KEYS[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")
            cfg[section][key] = value
    return cfg


def _validate_beta(beta: float):
    if not (-4.0 < beta < 0.0):
        raise ConfigError(f"beta = {beta} outside the admissible "
                          "interval (-4, 0)")


def _validate_t(t_values):
    if len(t_values) < 4:
        raise ConfigError("the torsion fit needs at least 4 values of t, "
                          f"got {len(t_values)}")
    if any(not (0.0 < t <= 0.3) for t in t_values):
        raise ConfigError(f"t values {t_values} must lie in (0, 0.3]")


# ----------------------------------------------------------------------
# report plumbing
# ----------------------------------------------------------------------

def _check(name, status, measured=None, expected=None, tol=None, anchor=""):
    return {"name": name, "status": status, "measured": measured,
            "expected": expected, "tolerance": tol, "anchor": anchor}


def _passfail(name, ok, measured=None, expected=None, tol=None, anchor=""):
    return _check(name, "pass" if ok else "fail", measured, expected, tol,
                  anchor)


def assemble_report(suite: str, checks: list, t_start: float) -> dict:
    return {
        "suite": suite,
        "checks": checks,
        "n_fail": sum(1 for c in checks if c["status"] == "fail"),
        "timing_seconds": round(time.time() - t_start, 3),
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
         csv_rows: list | None = None, csv_header: str = ""):
    payload = json.dumps(report, indent=2, default=str)
    if out_json:
        _atomic_write(out_json, payload)
    else:
        print(payload)
    if out_csv and csv_rows is not None:
        lines = [csv_header] + [",".join(str(v) for v in row)
                                for row in csv_rows]
        _atomic_write(out_csv, "\n".join(lines) + "\n")


# ----------------------------------------------------------------------
# suites
# ----------------------------------------------------------------------

def suite_eh_verify(samples: int, seed: int) -> tuple[dict, list]:
    from g2glue import eguchi_hanson as eh
    t0 = time.time()
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
    worst = {"nu-asd": 0.0, "triple-sd": 0.0, "hat-asd": 0.0,
             "hat-closed": 0.0}
    for k in ks:
        nf = nu.evaluate_onb(k, rs)
        worst["nu-asd"] = max(worst["nu-asd"], float(np.abs(
            eh.star_onb(nf).coeffs + nf.coeffs).max()))
        for o in om:
            f = o.evaluate_onb(k, rs)
            worst["triple-sd"] = max(worst["triple-sd"], float(np.abs(
                eh.star_onb(f).coeffs - f.coeffs).max()))
        for o in omh:
            f = o.evaluate_onb(k, rs)
            worst["hat-asd"] = max(worst["hat-asd"], float(np.abs(
                eh.star_onb(f).coeffs + f.coeffs).max()))
    checks.append(_passfail("nu-anti-self-dual", worst["nu-asd"] <= 1e-10,
                            worst["nu-asd"], 0.0, 1e-10, "nu-asd"))
    checks.append(_passfail("triple-self-dual", worst["triple-sd"] <= 1e-10,
                            worst["triple-sd"], 0.0, 1e-10, "triple-sd"))
    checks.append(_passfail("hatted-anti-self-dual",
                            worst["hat-asd"] <= 1e-10,
                            worst["hat-asd"], 0.0, 1e-10, "hat-asd"))
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
    return assemble_report("eh-verify", checks, t0), []


def suite_eh_decay(k_values, out_rows: bool = True) -> tuple[dict, list]:
    from g2glue import eguchi_hanson as eh
    t0 = time.time()
    if any(not (0.0 < k <= 1.0) for k in k_values):
        raise ConfigError(f"k values {k_values} must lie in (0, 1]")
    rr = np.geomspace(1.01, 1e4, 2000)
    checks, rows = [], []
    for k in k_values:
        ratios = eh.ale_decay_ratio(k, rr)
        sup = float(ratios.max())
        checks.append(_passfail(f"ale-ratio-bound-k-{k:g}", sup <= 4.0, sup,
                                "<= 4", None, "ale-decay-c4"))
        if out_rows:
            nu, _, tau1 = eh.harmonic_forms()
            vals = tau1.pointwise_norm(k, rr[::100])
            bounds = k * (k ** 0.25 + np.sqrt(rr[::100])) ** -3.0
            for r, v, b in zip(rr[::100], vals, bounds):
                rows.append((r, k, v, b, v / b))
    nu, _, _ = eh.harmonic_forms()
    k = 1e-4
    rs = np.geomspace(1e2, 1e6, 60)
    w = k ** 0.25 + eh.radial_distance_many(k, rs)
    slope = float(np.polyfit(np.log(w), np.log(nu.pointwise_norm(k, rs)),
                             1)[0])
    checks.append(_passfail("nu-decay-slope", abs(slope + 4) <= 0.05, slope,
                            -4.0, 0.05, "nu-weighted-decay"))
    return assemble_report("eh-decay", checks, t0), rows


def suite_cone_rates(degree: int, lam1, lam2) -> tuple[dict, list]:
    from g2glue import cone
    t0 = time.time()
    rates = cone.critical_rates(cone.so3_link(), degree,
                                Fraction(lam1), Fraction(lam2))
    checks = [_check("critical-rates", "reported",
                     [{"rate": str(r.rate), "dim": r.dimension,
                       "case": r.case} for r in rates],
                     None, None, "cone-rates")]
    return assemble_report("cone-rates", checks, t0), []


def suite_cone_index(degree: int, lam1, lam2) -> tuple[dict, list]:
    from g2glue import cone
    t0 = time.time()
    jump = cone.index_change(degree, Fraction(lam1), Fraction(lam2))
    checks = [_check("index-change", "reported", jump, None, None,
                     "index-jump")]
    return assemble_report("cone-index", checks, t0), []


def suite_cone_oracle() -> tuple[dict, list]:
    from g2glue import cone
    t0 = time.time()
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
        ok = (out["eigenvalue"] == m * (m + 2) and out["parity_verified"])
        checks.append(_passfail(f"sphere-spectrum-m-{m}", ok,
                                out["eigenvalue"], m * (m + 2), 0,
                                "sphere-function-spectrum"))
    return assemble_report("cone-oracle", checks, t0), []


def suite_rates_jk(table: str, beta, B) -> tuple[dict, list]:
    from g2glue import cone
    t0 = time.time()
    beta = Fraction(beta)
    B = Fraction(B)
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
    return assemble_report("rates-jk", checks, t0), []


def suite_kummer_fixed_points() -> tuple[dict, list]:
    from g2glue import kummer
    t0 = time.time()
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
    return assemble_report("kummer-fixed-points", checks, t0), []


def suite_kummer_torsion(t_values, samples: int, beta: float) -> tuple[dict, list]:
    from g2glue import kummer
    t0 = time.time()
    _validate_beta(beta)
    _validate_t(t_values)
    try:
        out = kummer.torsion_decay_fit(t_values, n_samples=samples,
                                       beta=beta, with_gradient=False)
    except RuntimeError as exc:
        t_max = kummer.positivity_threshold()
        checks = [_passfail("torsion-slope", False, str(exc),
                            "slope 4.0 +- 0.1", 0.1, "fourth-power-law"),
                  _check("positivity-threshold", "reported", t_max,
                         "largest admissible t", None, "positivity-domain")]
        return assemble_report("kummer-torsion", checks, t0), []
    checks = [
        _passfail("torsion-slope", 3.9 <= out["slope"] <= 4.1, out["slope"],
                  4.0, 0.1, "fourth-power-law"),
        _passfail("weighted-slope", out["weighted_slope"] >= 3.9,
                  out["weighted_slope"], ">= 3.9", None, "weighted-law"),
        _check("usable-points", "reported", out["usable"], len(t_values),
               None, "positivity-domain"),
    ]
    rows = [(t, s, g, w) for (t, s, g, w) in out["rows"]]
    return assemble_report("kummer-torsion", checks, t0), rows


def suite_torus_solve(n: int, eps: float, seed: int, tol: float,
                      mode: str, max_iter: int,
                      dump: str | None = None) -> tuple[dict, list]:
    from g2glue import torus
    t0 = time.time()
    mode_name = {"flat": "flat-background", "cg": "curved-cg"}.get(mode)
    if mode_name is None:
        raise ConfigError(f"unknown mode '{mode}'")
    try:
        cfg = torus.SolverConfig(N=n, eps=eps, seed=seed, tol_residual=tol,
                                 max_iter=max_iter, operator_mode=mode_name)
        eta, report = torus.solve(cfg)
    except (ValueError, torus.GridTooLargeError) as exc:
        # a grid size or max_iter outside the solver's domain, an eps that
        # puts phi outside the G2 cone (PositivityError), or a grid that
        # cannot fit in memory
        raise ConfigError(str(exc)) from exc
    except RuntimeError as exc:
        checks = [_passfail("converged", False, str(exc),
                            f"step <= {tol:g}", tol, "iteration-count")]
        return assemble_report("torus-solve", checks, t0), []
    if dump:
        torus.save_field(dump, eta)
    checks = [
        _check("iterations", "reported", report["iterations"],
               f"<= {max_iter}", None, "iteration-count"),
        _passfail("torsion-residual", report["residual"] <= max(tol, 1e-8)
                  if mode == "flat" else report["residual"] < 1e-4,
                  report["residual"], 0.0, tol, "torsion-free-residual"),
        _passfail("distance-to-flat", report["distance_to_flat"] <= 1e-8
                  if mode == "flat" else True,
                  report["distance_to_flat"], 0.0, 1e-8, "unique-flat"),
        _passfail("cohomology-class", report["zero_mode_gap"] <= 1e-14,
                  report["zero_mode_gap"], 0.0, 1e-14, "class-preserved"),
        _check("contraction-factors", "reported",
               report["contraction_factors"], "< 1", None, "contraction"),
    ]
    return assemble_report("torus-solve", checks, t0), []


def suite_all(fast: bool = False) -> tuple[dict, list]:
    t0 = time.time()
    checks = []
    rep, _ = suite_kummer_fixed_points()
    checks += rep["checks"]
    rep, _ = suite_eh_verify(400, 1)
    checks += rep["checks"]
    rep, _ = suite_eh_decay([1.0, 1e-2, 1e-4], out_rows=False)
    checks += rep["checks"]
    rep, _ = suite_cone_oracle()
    checks += rep["checks"]
    rep, _ = suite_rates_jk("naive", Fraction(-1, 20), Fraction(-1, 5))
    checks += rep["checks"]
    rep, _ = suite_rates_jk("refined", Fraction(-1, 20), Fraction(-1, 5))
    checks += rep["checks"]
    rep, _ = suite_kummer_torsion([0.008, 0.004, 0.002, 0.001],
                                  2000 if not fast else 300, -0.05)
    checks += rep["checks"]
    rep, _ = suite_torus_solve(4 if fast else 6, 1e-2, 7, 1e-8, "flat", 50)
    checks += rep["checks"]
    return assemble_report("all", checks, t0), []


# ----------------------------------------------------------------------
# argument handling
# ----------------------------------------------------------------------

def _parse_floats(text: str) -> list[float]:
    try:
        return [float(v) for v in str(text).split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"bad numeric list '{text}'") from exc


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument("--out", help="write the JSON report here (atomic)")
    common.add_argument("--csv", help="write CSV rows here (atomic)")

    ap = argparse.ArgumentParser(prog="g2glue",
                                 description="verification suites")
    sub = ap.add_subparsers(dest="command", required=True)

    eh = sub.add_parser("eh").add_subparsers(dest="sub", required=True)
    ehv = eh.add_parser("verify", parents=[common])
    ehv.add_argument("--samples", type=int)
    ehv.add_argument("--seed", type=int)
    ehd = eh.add_parser("decay", parents=[common])
    ehd.add_argument("--k", help="comma separated family parameters")

    cone_p = sub.add_parser("cone").add_subparsers(dest="sub", required=True)
    for name in ("rates", "index"):
        cp = cone_p.add_parser(name, parents=[common])
        cp.add_argument("--degree", type=int)
        cp.add_argument("--from", dest="lam1")
        cp.add_argument("--to", dest="lam2")
    cone_p.add_parser("oracle", parents=[common])

    rates_p = sub.add_parser("rates").add_subparsers(dest="sub",
                                                     required=True)
    rj = rates_p.add_parser("jk", parents=[common])
    rj.add_argument("--table", choices=("naive", "refined"))
    rj.add_argument("--beta")
    rj.add_argument("--B", dest="big_b")

    km = sub.add_parser("kummer").add_subparsers(dest="sub", required=True)
    km.add_parser("fixed-points", parents=[common])
    kt = km.add_parser("torsion", parents=[common])
    kt.add_argument("--t", help="comma separated gluing parameters")
    kt.add_argument("--samples", type=int)
    kt.add_argument("--beta", type=float)

    ts = sub.add_parser("torus").add_subparsers(dest="sub", required=True)
    sv = ts.add_parser("solve", parents=[common])
    sv.add_argument("--n", type=int)
    sv.add_argument("--eps", type=float)
    sv.add_argument("--seed", type=int)
    sv.add_argument("--tol", type=float)
    sv.add_argument("--mode", choices=("flat", "cg"))
    sv.add_argument("--max-iter", type=int, dest="max_iter")
    sv.add_argument("--dump", help="binary field dump path")

    al = sub.add_parser("all", parents=[common])
    al.add_argument("--fast", action="store_true")
    return ap


def run(args) -> tuple[dict, list, str]:
    """Dispatch a parsed command line to its suite."""
    cfg = config_load(args.config)

    def pick(section, key, arg_val, cast=None):
        val = arg_val if arg_val is not None else cfg[section][key]
        return cast(val) if cast else val

    if args.command == "eh" and args.sub == "verify":
        rep, rows = suite_eh_verify(pick("eh", "samples", args.samples, int),
                                    pick("eh", "seed", args.seed, int))
        return rep, rows, ""
    if args.command == "eh" and args.sub == "decay":
        ks = _parse_floats(pick("eh", "k", args.k))
        rep, rows = suite_eh_decay(ks)
        return rep, rows, "r,k,value,bound,ratio"
    if args.command == "cone" and args.sub == "rates":
        rep, rows = suite_cone_rates(
            pick("cone", "degree", args.degree, int),
            pick("cone", "from", args.lam1), pick("cone", "to", args.lam2))
        return rep, rows, ""
    if args.command == "cone" and args.sub == "index":
        rep, rows = suite_cone_index(
            pick("cone", "degree", args.degree, int),
            pick("cone", "from", args.lam1), pick("cone", "to", args.lam2))
        return rep, rows, ""
    if args.command == "cone" and args.sub == "oracle":
        rep, rows = suite_cone_oracle()
        return rep, rows, ""
    if args.command == "rates" and args.sub == "jk":
        rep, rows = suite_rates_jk(pick("rates", "table", args.table),
                                   pick("rates", "beta", args.beta),
                                   pick("rates", "b", args.big_b))
        return rep, rows, ""
    if args.command == "kummer" and args.sub == "fixed-points":
        rep, rows = suite_kummer_fixed_points()
        return rep, rows, ""
    if args.command == "kummer" and args.sub == "torsion":
        ts_ = _parse_floats(pick("kummer", "t", args.t))
        rep, rows = suite_kummer_torsion(
            ts_, pick("kummer", "samples", args.samples, int),
            pick("kummer", "beta", args.beta, float))
        return rep, rows, "t,sup_psi,sup_grad,weighted_sup"
    if args.command == "torus" and args.sub == "solve":
        rep, rows = suite_torus_solve(
            pick("torus", "n", args.n, int),
            pick("torus", "eps", args.eps, float),
            pick("torus", "seed", args.seed, int),
            pick("torus", "tol", args.tol, float),
            pick("torus", "mode", args.mode),
            pick("torus", "max_iter", args.max_iter, int),
            dump=args.dump)
        return rep, rows, ""
    if args.command == "all":
        rep, rows = suite_all(fast=bool(args.fast or
                                        int(cfg["all"]["fast"])))
        return rep, rows, ""
    raise ConfigError(f"unhandled command {args.command}")


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        report, rows, header = run(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    try:
        emit(report, args.out, args.csv, rows, header)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    return 0 if report["n_fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
