"""Batch command-line front end.

Every command reads one JSON configuration document, runs deterministically
on one thread (fixed seeds, ordered reductions), and writes CSV/JSON
artifacts stamped with the configuration hash.

Exit codes: 0 success, 1 failed assertion or selftest check, 2 usage,
configuration, or resource errors.

Each handler imports the modules it runs, so a command loads no more of the
package than it needs (``build`` loads ``config``, ``geometry`` and ``io``).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .config import ExperimentConfig, load_config
from .errors import ConfigError, VicsekError
from .geometry import Hierarchy, build_level
from .io import config_hash, write_csv, write_json
from .ratios import example_prefix


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vicsek-lab",
        description="finite Vicsek-set approximations: measures, p-energies, "
        "Besov functionals, BBM experiments",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default="artifacts", help="output directory")
    parser.add_argument("--threads", type=int, default=None)
    parser.add_argument("--mode", choices=("rational", "float"), default=None)
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config, mode=args.mode, threads=args.threads)
        if config.threads is not None and config.threads > 1:
            print(f"note: vicsek-lab runs on one thread; threads={config.threads} has no effect",
                  file=sys.stderr)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        meta = config_hash(config.to_canonical_dict())
        handler = _HANDLERS[args.command]
        return handler(config, out, meta)
    except VicsekError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:  # numpy's message names the bytes and the shape
        print(f"error: out of memory: {e}", file=sys.stderr)
        return 2


def _cmd_build(config: ExperimentConfig, out: Path, meta: str) -> int:
    ratios = config.ratio_sequence()
    level = build_level(ratios, config.depth, budget=config.cell_budget)
    write_json(out / f"geometry_level{config.depth}.json", level.to_json_dict(), meta)
    print(f"level {config.depth}: {level.num_vertices} vertices, {level.num_edges} edges")
    return 0


# Writers of the artifacts that more than one command writes.
def _write_scale_table(out: Path, config: ExperimentConfig, meta: str) -> None:
    from .measure import scale_table

    rows = scale_table(config.ratio_sequence(), config.depth)
    write_csv(out / "scale_table.csv", ("n", "rho", "psi", "phi"), rows, meta)


def _write_histogram(out: Path, hist, meta: str) -> None:
    write_csv(out / "pushforward_histogram.csv", ("bin_left", "bin_right", "mass"),
              hist.to_rows(), meta)


def _write_bbm_curve(out: Path, curve, meta: str) -> None:
    rows = [
        (pt.epsilon, pt.beta, pt.value, pt.bracket_low, pt.bracket_high, pt.within_bracket)
        for pt in curve.points
    ]
    write_csv(
        out / "bbm_curve.csv",
        ("epsilon", "beta", "value", "bracket_low", "bracket_high", "within_bracket"),
        rows,
        meta,
    )


def _cmd_measure(config: ExperimentConfig, out: Path, meta: str) -> int:
    from .geometry import LatticePoint
    from .measure import (derived_constants, mu_ball_bounds, psi_ratio_bounds,
                          regularized_scales)

    ratios = config.ratio_sequence()
    _write_scale_table(out, config, meta)

    consts = derived_constants(ratios)
    write_json(
        out / "derived_constants.json",
        {
            "alpha": {str(k): v for k, v in consts.alpha.items()},
            "beta_l": {str(k): v for k, v in consts.beta.items()},
            "t_l": {str(k): v for k, v in consts.t.items()},
            "inf_alpha": consts.inf_alpha,
            "sup_alpha": consts.sup_alpha,
            "eps_p": consts.eps_p,
        },
        meta,
    )

    origin = LatticePoint(0, 0, 0)  # the origin vertex at every level
    rows = []
    for k in range(1, 3 * config.depth + 1):
        r = Fraction(2) * Fraction(9, 10) ** k
        lo, hi = mu_ball_bounds(ratios, origin, r, min(config.depth, 4))
        rows.append((float(r), str(r), lo, hi))
    write_csv(out / "ball_bounds.csv", ("r_float", "r", "lower", "upper"), rows, meta)

    c1, ia, c2, sa = psi_ratio_bounds(ratios)
    write_json(
        out / "doubling_report.json",
        {"c1": c1, "inf_alpha": ia, "c2": c2, "sup_alpha": sa},
        meta,
    )

    rows = []
    r = Fraction(3)
    for _ in range(4 * config.depth):
        psi_t, phi_t = regularized_scales(ratios, r)
        rows.append((float(r), psi_t, phi_t))
        r = r * Fraction(4, 5)
    write_csv(out / "regularized_scales.csv", ("r", "psi_tilde", "phi_tilde"), rows, meta)
    return 0


def _cmd_hausdorff(config: ExperimentConfig, out: Path, meta: str) -> int:
    from .measure import hausdorff_report

    h = config.hausdorff
    prefix = list(example_prefix(h.a, h.b, h.prefix_len))
    report = hausdorff_report(
        h.a, h.b, prefix, h.theta, liminf_eta=h.liminf_eta, limsup_eta=h.limsup_eta
    )
    rows = [
        (n + 1, report.theta_seq[n], report.eta_seq[n], report.xi_seq[n])
        for n in range(len(prefix))
    ]
    write_csv(out / "hausdorff_diagnostics.csv", ("n", "theta", "eta", "xi"), rows, meta)
    write_json(
        out / "hausdorff_summary.json",
        {
            "a": h.a,
            "b": h.b,
            "theta": h.theta,
            "alpha": report.alpha,
            "hausdorff_measure_class": report.hausdorff_measure_class,
            "ahlfors_regular": report.ahlfors_regular,
            "non_self_similar": report.non_self_similar,
            "note": report.note,
        },
        meta,
    )
    print(f"alpha = {report.alpha}")
    return 0


def _suite(config: ExperimentConfig, hier: Hierarchy):
    from .energy import diagonal_ramp, random_affine

    funcs = [("ramp", diagonal_ramp())]
    funcs += [(f"seed{{{s}}}", random_affine(hier, s)) for s in config.seeds]
    return funcs


def _cmd_energy(config: ExperimentConfig, out: Path, meta: str) -> int:
    from .energy import (arithmetic, energy_limit, energy_property_checks, random_affine,
                         restrict_to_arm)

    hier = config.hierarchy()
    arith = arithmetic(config.mode, config.p)
    reports = {
        name: energy_limit(hier, u, config.p, config.depth, arith).to_json_dict()
        for name, u in _suite(config, hier)
    }
    write_json(out / "energy_report.json", reports, meta)

    v1 = restrict_to_arm(hier, random_affine(hier, config.seeds[0]), 1)
    v3 = restrict_to_arm(hier, random_affine(hier, config.seeds[0]), 3)
    checks = energy_property_checks(hier, v1, v3, config.p, config.depth, arith=arith)
    write_json(out / "property_checks.json", checks.to_json_dict(), meta)
    return 0


def _cmd_energy_measure(config: ExperimentConfig, out: Path, meta: str) -> int:
    from .energy import arithmetic, diagonal_ramp
    from .energy_measure import (coincidence_check, gamma_cells, pushforward_profile,
                                 word_energy_measure)
    from .words import word_from_index, word_string

    if config.vertex_level < 2 and config.depth < 1:
        raise ConfigError(
            "energy-measure verifies its level-1 word measure on level 2, so it needs "
            f"depth >= 1 or vertex_level >= 2; got depth={config.depth}, "
            f"vertex_level={config.vertex_level}"
        )
    hier = config.hierarchy()
    arith = arithmetic(config.mode, config.p)
    u = diagonal_ramp()
    depth = min(config.depth, 3)
    gm = gamma_cells(hier, u, config.p, 1, arith)
    wm = word_energy_measure(hier, u, config.p, 1, arith)
    rows = [
        (word_string(word_from_index(hier.ratios, 1, i)), gm.masses[i], wm.masses[i])
        for i in range(len(gm.masses))
    ]
    write_csv(out / "cell_measures.csv", ("word", "gradient_mass", "word_mass"), rows, meta)
    dev = coincidence_check(hier, u, config.p, depth, arith)
    hist = pushforward_profile(hier, u, config.p, config.bins, arith)
    _write_histogram(out, hist, meta)
    write_json(
        out / "energy_measure_summary.json",
        {
            "gamma_total": gm.total,
            "coincidence_max_relative_discrepancy": dev,
            "histogram_total": hist.total,
            "point_mass_flags": list(hist.point_mass_flags),
        },
        meta,
    )
    return 0


def _cmd_besov(config: ExperimentConfig, out: Path, meta: str) -> int:
    from .besov import ball_energies, discrete_profiles, phi_profile, weak_monotonicity_report
    from .energy import arithmetic, diagonal_ramp, energy_limit

    window = _window("besov", config)
    if config.vertex_level < config.depth + 2:
        raise ConfigError(
            "besov profiles need vertex_level >= depth + 2 as a discretization "
            f"margin; got vertex_level={config.vertex_level}, depth={config.depth}"
        )
    hier = config.hierarchy()
    u = diagonal_ramp()
    m = config.vertex_level
    arith = arithmetic(config.mode, config.p)
    balls = ball_energies(hier, u, config.p, m, config.depth, arith)  # I_{m,n}, for every beta
    base = energy_limit(hier, u, config.p, config.depth, arith).energies  # E_{p,n}
    rows = []
    for beta in config.beta_grid:
        prof = phi_profile(hier, config.p, beta, m, balls, arith)
        dprof = discrete_profiles(hier, u, config.p, beta, base, arith)
        for n in range(config.depth + 1):
            rows.append(
                (
                    beta,
                    n,
                    float(prof.ball_energies[n]),
                    float(prof.phi_proxy[n]),
                    float(dprof.beta_energies[n]),
                )
            )
    write_csv(
        out / "besov_profiles.csv",
        ("beta", "n", "ball_energy", "phi_proxy", "beta_energy"),
        rows,
        meta,
    )
    wm = weak_monotonicity_report(hier, config.p, m, window, balls, arith)
    write_json(
        out / "weak_monotonicity.json",
        {
            "phi_values": list(wm.phi_values),
            "sup": wm.sup_value,
            "window_min": wm.window_min,
            "ratio": wm.ratio,
            "degenerate": wm.degenerate,
        },
        meta,
    )
    return 0


def _window(command: str, config: ExperimentConfig) -> tuple[int, int]:
    """The weak-monotonicity window of the depth; one without a scale exits 2."""
    from .besov import weak_monotonicity_window

    lo, hi = window = weak_monotonicity_window(config.depth)
    if lo > hi:
        raise ConfigError(f"{command} needs depth >= {lo} for a non-empty weak-monotonicity "
                          f"window; got depth={config.depth}")
    return window


def _cmd_bbm(config: ExperimentConfig, out: Path, meta: str) -> int:
    from .besov import bbm_curve
    from .energy import arithmetic, diagonal_ramp, energy_limit

    hier = config.hierarchy()
    u = diagonal_ramp()
    arith = arithmetic(config.mode, config.p)
    base = energy_limit(hier, u, config.p, config.depth, arith).energies  # E_{p,n}
    curve = bbm_curve(hier, u, config.p, list(config.epsilons), base, arith)
    _write_bbm_curve(out, curve, meta)
    write_json(
        out / "bbm_summary.json",
        {
            "energy": curve.energy,
            "limit_low": curve.limit_low,
            "limit_high": curve.limit_high,
        },
        meta,
    )
    flagged = [pt.epsilon for pt in curve.points if not pt.within_bracket]
    if flagged:
        print(f"bracket violations at epsilon = {flagged}", file=sys.stderr)
        return 1
    return 0


def _cmd_resistance(config: ExperimentConfig, out: Path, meta: str) -> int:
    from .energy import ORACLE_P_RANGE, oracle_agrees, oracle_covers, resistance, resistance_oracle

    ratios = config.ratio_sequence()
    level = build_level(ratios, min(config.depth, 2), budget=config.cell_budget)
    L = level.L
    pairs = [
        (level.origin, level.vertex_id(L, L)),
        (level.vertex_id(L, L), level.vertex_id(-L, -L)),
        (level.vertex_id(-L, L), level.vertex_id(L, -L)),
        (level.origin, level.vertex_id(-L, L)),
    ]
    run_oracle = oracle_covers(config.p)
    if not run_oracle:
        print(f"note: resistance oracle skipped: p = {config.p} is outside {list(ORACLE_P_RANGE)}",
              file=sys.stderr)
    rows = []
    oracle_ok = True
    for a, b in pairs:
        d = level.geodesic_distance(a, b)
        r = resistance(level, a, b, config.p)
        agree = ""
        if run_oracle:
            agree = oracle_agrees(r, resistance_oracle(level, a, b, float(config.p)))
            oracle_ok = oracle_ok and agree
        rows.append((a, b, d, r, agree))
    write_csv(
        out / "resistance_table.csv",
        ("vertex_a", "vertex_b", "geodesic", "resistance", "oracle_agrees"),
        rows,
        meta,
    )
    return 0 if oracle_ok else 1


def _cmd_selftest(config: ExperimentConfig, out: Path, meta: str) -> int:
    from .selftest import run_selftest

    _window("selftest", config)
    checks, artifacts = run_selftest(config)
    # determinism-bearing artifacts
    _write_scale_table(out, config, meta)
    write_json(out / "energy_report.json", artifacts["energy_report"].to_json_dict(), meta)
    _write_bbm_curve(out, artifacts["bbm"], meta)
    wm = artifacts["weak_monotonicity"]
    write_json(
        out / "weak_monotonicity.json",
        {"phi_values": list(wm.phi_values), "ratio": wm.ratio},
        meta,
    )
    _write_histogram(out, artifacts["histogram"], meta)
    rows = [(name, ok, detail) for name, ok, detail in checks]
    write_csv(out / "selftest_report.csv", ("check", "ok", "detail"), rows, meta)
    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"  [{detail}]" if detail else ""))
    if failed:
        print(f"{len(failed)} selftest check(s) failed: {failed}", file=sys.stderr)
        return 1
    print(f"all {len(checks)} selftest checks passed")
    return 0


_HANDLERS = {
    "build": _cmd_build,
    "measure": _cmd_measure,
    "hausdorff": _cmd_hausdorff,
    "energy": _cmd_energy,
    "energy-measure": _cmd_energy_measure,
    "besov": _cmd_besov,
    "bbm": _cmd_bbm,
    "resistance": _cmd_resistance,
    "selftest": _cmd_selftest,
}
COMMANDS = tuple(_HANDLERS)


if __name__ == "__main__":
    sys.exit(main())
