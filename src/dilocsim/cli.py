"""Experiment runner CLI.

Builds a scenario from a flat key = value config (or a named preset), runs
the requested algorithm with a seeded, fully reproducible random stream, and
writes three artifact kinds into the output directory: a per-iteration trace
table, a structured summary, and per-sensor coordinate series for plotting.
Identical config and seed produce byte-identical artifacts.

Commands:
    run <config-or-preset> [--seed S] [--replicas K] [--out DIR] [--print-config]
    validate <config-or-preset> [--print-config]
    presets list

Exit codes: 0 success, 2 config error, 3 runtime error. The environment
variable DILOCSIM_OUT_ROOT overrides the default output root (./runs).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import deployment as dep
from . import engine as eng
from . import random_env as renv
from . import system as sysm

OUT_ROOT_ENV = "DILOCSIM_OUT_ROOT"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigInvalidError(ValueError):
    pass


# Schema: key -> (type, default); REQUIRED means no default.
_REQUIRED = object()
_SCHEMA = {
    "scenario": (str, _REQUIRED),
    "dimension": (int, 2),
    "field.source": (str, _REQUIRED),
    "field.gamma": (float, None),
    "field.anchors": (str, None),
    "field.path": (str, None),
    "algorithm": (str, _REQUIRED),
    "alpha": (float, None),
    "schedule.family": (str, None),
    "schedule.param": (float, None),
    "noise.link_prob": (float, 1.0),
    "noise.channel_var": (float, 0.0),
    "noise.channel_var_scaled_by_M": (bool, False),
    "noise.fluct_var": (float, 0.0),
    "noise.bias_scale": (float, 0.0),
    "stop.step_tol": (float, 1e-10),
    "stop.max_iters": (int, 100_000),
    "snapshot_stride": (int, 10),
    "seed": (int, 0),
}

_NOISE_DEFAULTS = {key: default for key, (_, default) in _SCHEMA.items() if key.startswith("noise.")}


@dataclass(frozen=True)
class ExperimentConfig:
    """Schema-validated, fully resolved experiment description."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    def canonical_text(self) -> str:
        lines = []
        for key in sorted(self.values):
            lines.append(f"{key} = {_format_value(self.values[key])}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    if v is None:
        return "-"
    return str(v)


def _coerce(key: str, raw: str):
    typ, _ = _SCHEMA[key]
    raw = raw.strip()
    if raw == "-":
        return None
    try:
        if typ is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        value = typ(raw)
    except ValueError as exc:
        raise ConfigInvalidError(f"key {key!r}: cannot parse {raw!r} as {typ.__name__}") from exc
    if typ is float and not np.isfinite(value):
        raise ConfigInvalidError(f"key {key!r}: {raw!r} is not a finite number")
    return value


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse and validate flat 'key = value' config text.

    Unknown keys are rejected, as are incompatible key combinations (noise
    settings on a deterministic algorithm, schedules without dlre, and so
    on). The result carries every key with defaults filled in.
    """
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigInvalidError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _SCHEMA:
            raise ConfigInvalidError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigInvalidError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw)
    for key, (_, default) in _SCHEMA.items():
        if key not in values:
            if default is _REQUIRED:
                raise ConfigInvalidError(f"missing required key {key!r}")
            values[key] = default
    _validate_semantics(values)
    return ExperimentConfig(values)


def _validate_semantics(v: dict):
    m = v["dimension"]
    if not 1 <= m <= 3:
        # set-up is measured in 1-3 dimensions; a 97-sensor 4-D field ran past 300 s
        raise ConfigInvalidError("dimension must be 1, 2 or 3")
    if v["field.source"] == "poisson":
        if not v["field.gamma"] or v["field.gamma"] <= 0:
            raise ConfigInvalidError("poisson fields need field.gamma > 0")
        if not v["field.anchors"]:
            raise ConfigInvalidError("poisson fields need field.anchors")
        try:  # the deployment's own rule: m+1 points spanning a volume
            dep._simplex_volume(_parse_anchors(v["field.anchors"], m), m)
        except dep.DeploymentError as exc:
            raise ConfigInvalidError(f"field.anchors: {exc}") from exc
        if v["field.path"] is not None:
            raise ConfigInvalidError("field.path is meaningless for poisson fields")
    elif v["field.source"] == "file":
        if not v["field.path"]:
            raise ConfigInvalidError("file fields need field.path")
        for key in ("field.gamma", "field.anchors"):
            if v[key] is not None:
                raise ConfigInvalidError(f"{key} is meaningless for file fields")
    else:
        raise ConfigInvalidError("field.source must be 'poisson' or 'file'")
    algo = v["algorithm"]
    if algo not in ("diloc", "diloc_rel", "dlre"):
        raise ConfigInvalidError("algorithm must be diloc, diloc_rel or dlre")
    if algo == "diloc_rel":
        if v["alpha"] is None or not 0.0 < v["alpha"] <= 1.0:
            raise ConfigInvalidError("diloc_rel needs alpha in (0, 1]")
    elif v["alpha"] is not None:
        raise ConfigInvalidError("alpha applies only to diloc_rel")
    if algo == "dlre":
        if v["schedule.family"] is None or v["schedule.param"] is None:
            raise ConfigInvalidError("dlre needs schedule.family and schedule.param")
        try:
            renv.make_weight_schedule(v["schedule.family"], v["schedule.param"])
        except renv.PersistenceViolationError as exc:
            raise ConfigInvalidError(str(exc)) from exc
    else:
        if v["schedule.family"] is not None or v["schedule.param"] is not None:
            raise ConfigInvalidError("schedules apply only to dlre")
        for key, default in _NOISE_DEFAULTS.items():
            if v[key] != default:
                raise ConfigInvalidError(f"{key} applies only to dlre")
    if not 0.0 < v["noise.link_prob"] <= 1.0:
        raise ConfigInvalidError("noise.link_prob must lie in (0, 1]")
    for key in ("noise.channel_var", "noise.fluct_var", "noise.bias_scale"):
        if v[key] < 0.0:
            raise ConfigInvalidError(f"{key} must be nonnegative")
    if v["stop.max_iters"] < 0 or v["stop.step_tol"] < 0:
        raise ConfigInvalidError("stop criteria must be nonnegative")
    if v["snapshot_stride"] < 0:
        raise ConfigInvalidError("snapshot_stride must be nonnegative")


def _parse_anchors(text: str, m: int) -> np.ndarray:
    try:
        rows = [
            [float(x) for x in chunk.replace(",", " ").split()]
            for chunk in text.split(";")
            if chunk.strip()
        ]
        anchors = np.array(rows, dtype=float).reshape(len(rows), -1)
    except ValueError as exc:
        raise ConfigInvalidError(f"cannot parse field.anchors {text!r}") from exc
    if not np.isfinite(anchors).all():
        raise ConfigInvalidError(f"field.anchors {text!r} holds a non-finite coordinate")
    return anchors


# -- presets -----------------------------------------------------------------

# Equilateral anchor triangle of area ~47: a density-1 deployment gives a
# network of about 50 nodes.
_POISSON50_ANCHORS = "0 0; 10.42 0; 5.21 9.024"


def _demo_field_path() -> str:
    return str(resources.files("dilocsim").joinpath("data/demo7.field"))


# Every preset is the base config with some keys overridden (None drops one).
_PRESET_BASE = {
    "dimension": "2",
    "field.source": "poisson",
    "field.gamma": "1.0",
    "field.anchors": _POISSON50_ANCHORS,
    "algorithm": "diloc",
    "stop.step_tol": "1e-10",
    "stop.max_iters": "100000",
    "seed": "3",
}
_DLRE = {"algorithm": "dlre", "stop.step_tol": "0", "stop.max_iters": "5000"}
_POWER = {"schedule.family": "power", "schedule.param": "0.55"}
_LOSSY_CHANNEL = {
    "noise.link_prob": "0.9",
    "noise.channel_var": "1.0",
    "noise.channel_var_scaled_by_M": "true",
}
_PRESETS = {
    "deterministic-fixture": {
        "field.source": "file",
        "field.gamma": None,
        "field.anchors": None,
        "field.path": _demo_field_path,
        "snapshot_stride": "1",
        "seed": "7",
    },
    "deterministic-poisson": {},
    # link failures plus channel noise; decreasing harmonic gains
    "lf-cn": {**_DLRE, "schedule.family": "harmonic", "schedule.param": "4.0", **_LOSSY_CHANNEL},
    "noisy-distances": {**_DLRE, **_POWER, "noise.fluct_var": "0.1"},
    "biased-distances": {**_DLRE, **_POWER, "noise.fluct_var": "0.1", "noise.bias_scale": "0.01"},
    "all-random": {**_DLRE, **_POWER, **_LOSSY_CHANNEL, "noise.fluct_var": "0.1"},
}


def preset_names() -> list[str]:
    return sorted(_PRESETS)


def materialize_preset(name: str) -> str:
    """The preset's config text, one 'key = value' line per key."""
    if name not in _PRESETS:
        raise ConfigInvalidError(
            f"unknown preset {name!r}; available: {', '.join(preset_names())}"
        )
    values = {"scenario": name, **_PRESET_BASE, **_PRESETS[name]}
    return "".join(
        f"{key} = {val() if callable(val) else val}\n"
        for key, val in values.items()
        if val is not None
    )


# -- artifact emission --------------------------------------------------------


def emit_trace(trace: eng.RunTrace, path):
    """Tab-separated per-iteration rows; header always, rows per iteration."""
    lines = ["iteration\tstep_norm\toracle_error\tmessages_total\talpha_t"]
    for i in range(trace.iterations):
        lines.append(
            f"{i + 1}\t{trace.step_norms[i]:.17g}\t{trace.oracle_errors[i]:.17g}"
            f"\t{trace.messages_total(i + 1)}\t{trace.alphas[i]:.17g}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def emit_summary(summary: dict, path):
    """Deterministic JSON with sorted keys."""
    Path(path).write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def emit_plot_data(trace: eng.RunTrace, path, m: int):
    """One iteration-vs-value series file per (sensor, coordinate)."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    for row in range(trace.n_sensors):
        sensor_id = m + 2 + row
        for j in range(m):
            lines = ["iteration\tvalue"]
            for t, snap in trace.snapshots:
                lines.append(f"{t}\t{snap[row, j]:.17g}")
            (out / f"sensor{sensor_id}_coord{j + 1}.tsv").write_text(
                "\n".join(lines) + "\n", encoding="utf-8"
            )


# -- experiment execution ------------------------------------------------------


def _build_field(cfg: ExperimentConfig, seed: int) -> dep.SensorField:
    if cfg["field.source"] == "poisson":
        anchors = _parse_anchors(cfg["field.anchors"], cfg["dimension"])
        return dep.generate_poisson_field(cfg["dimension"], cfg["field.gamma"], anchors, seed)
    field = dep.load_field(cfg["field.path"])
    if field.m != cfg["dimension"]:
        raise ConfigInvalidError(
            f"config dimension {cfg['dimension']} does not match field file dimension {field.m}"
        )
    return field


def run_experiment(cfg: ExperimentConfig, out_dir, seed: int | None = None) -> dict:
    """Execute one seeded run and write trace, summary and plot data.

    Returns the summary dictionary. Raises ConfigInvalidError for config
    problems and lets runtime failures propagate for the CLI to map onto
    exit status 3.
    """
    seed = cfg["seed"] if seed is None else int(seed)
    field = _build_field(cfg, seed)
    if field.n_sensors == 0:
        raise ConfigInvalidError("field holds no sensors; nothing to localize")
    tris = dep.triangulate_all(field)
    sys_m = sysm.build_system_matrices(field, tris)
    anchors = sysm.AnchorBlock(field.anchor_block())
    truth = field.true_sensor_matrix()
    rho_error = None
    try:
        rho_p = sysm.spectral_radius(sys_m.P)
    except sysm.NoConvergenceError as exc:
        # a diagnostic: the run itself does not depend on it
        rho_p, rho_error = None, str(exc)
    algo = cfg["algorithm"]
    initial = eng.initial_state(anchors, sys_m.M, seed=seed)
    stride = cfg["snapshot_stride"]
    summary = {
        "scenario": cfg["scenario"],
        "algorithm": algo,
        "config_hash": cfg.config_hash(),
        "seed": seed,
        "dimension": sys_m.m,
        "n_anchors": sys_m.m + 1,
        "n_sensors": sys_m.M,
        "rho_P": rho_p,
    }
    if rho_error is not None:
        summary["rho_P_error"] = rho_error
    summary["setup"] = _setup_summary(tris, field.m)
    if algo in ("diloc", "diloc_rel"):
        alpha = cfg["alpha"] if algo == "diloc_rel" else 1.0
        trace = eng.run_to_convergence(
            initial,
            sys_m,
            anchors,
            mode=algo,
            alpha=alpha,
            step_tol=cfg["stop.step_tol"],
            max_iters=cfg["stop.max_iters"],
            snapshot_stride=stride,
            oracle=truth,
            seed=seed,
        )
        # observed geometric decay of the step norms, to set beside rho_P (rho_J)
        summary["decay_rate"] = trace.decay_rate_estimate()
        if algo == "diloc_rel":
            summary["alpha"] = alpha
            # J = (1 - alpha) I + alpha P has eigenvalues 1 - alpha + alpha * lambda(P),
            # and P is nonnegative, so its Perron root sets the largest modulus
            summary["rho_J"] = None if rho_p is None else 1.0 - alpha * (1.0 - rho_p)
    else:
        channel_var = cfg["noise.channel_var"]
        if cfg["noise.channel_var_scaled_by_M"]:
            channel_var = channel_var / sys_m.M
        bias_b = bias_p = None
        if cfg["noise.bias_scale"] > 0.0:
            bias_b, bias_p = renv.random_link_bias(sys_m, cfg["noise.bias_scale"], seed=seed)
        model = renv.NoiseModel(
            link_prob=cfg["noise.link_prob"],
            channel_noise_var=channel_var,
            bias_B=bias_b,
            bias_P=bias_p,
            fluct_var=cfg["noise.fluct_var"],
            seed=seed,
        )
        schedule = renv.make_weight_schedule(cfg["schedule.family"], cfg["schedule.param"])
        trace = renv.run_dlre(
            initial,
            sys_m,
            anchors,
            model,
            schedule,
            max_iters=cfg["stop.max_iters"],
            step_tol=cfg["stop.step_tol"],
            snapshot_stride=stride,
            oracle=truth,
            seed=seed,
        )
        limit = renv.dlre_limit(sys_m, anchors, model)
        summary["schedule"] = f"{cfg['schedule.family']}({cfg['schedule.param']:g})"
        summary["channel_var_effective"] = channel_var
        summary["e_l"] = limit.e_l
        summary["dist_to_dstar"] = float(np.linalg.norm(trace.final_state - limit.d_star))
        # the distance to d* at every snapshot iteration that is a power of ten
        summary["dist_to_dstar_at"] = {
            str(t): float(np.linalg.norm(snap - limit.d_star))
            for t, snap in trace.snapshots
            if t == 10 ** (len(str(t)) - 1)
        }
    summary["iterations"] = trace.iterations
    summary["converged_at"] = trace.converged_at
    summary["final_step_norm"] = (
        float(trace.step_norms[-1]) if trace.iterations else None
    )
    summary["final_oracle_error"] = (
        float(trace.oracle_errors[-1]) if trace.oracle_errors is not None and trace.iterations else None
    )
    summary["per_sensor_messages"] = trace.per_sensor_messages
    summary["per_sensor_flops"] = trace.per_sensor_flops
    summary["messages_total"] = trace.messages_total()
    # created only now, so a run that fails writes nothing
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_trace(trace, out / "trace.tsv")
    emit_summary(summary, out / "summary.json")
    emit_plot_data(trace, out / "plot", sys_m.m)
    dep.save_field(field, out / "field.field")
    return summary


def _setup_summary(tris: dict, m: int) -> dict:
    """What the set-up phase did: radius quantiles, the sensor with the
    largest radius (lowest id on ties) and how many sensors triangulate off
    at least one anchor (ids 1..m+1). Deterministic; no timing."""
    ids = sorted(tris)
    radius = np.array([tris[l].radius for l in ids])
    return {
        "radius_p50": float(np.percentile(radius, 50)),
        "radius_p99": float(np.percentile(radius, 99)),
        "radius_max": float(radius.max()),
        "max_radius_sensor": ids[int(np.argmax(radius))],
        "sensors_on_anchors": sum(min(tris[l].neighbor_ids) <= m + 1 for l in ids),
    }


def _replica_seed(base: int, index: int) -> int:
    return int(np.random.SeedSequence([dep._u64(base), index]).generate_state(1)[0])


def run_replicas(cfg: ExperimentConfig, out_dir, replicas: int, seed: int | None = None) -> list[dict]:
    """Run seed-derived independent replicas one after another, each in its
    own subdirectory."""
    base = cfg["seed"] if seed is None else int(seed)
    out = Path(out_dir)
    if replicas <= 1:
        return [run_experiment(cfg, out, seed=base)]
    return [
        run_experiment(cfg, out / f"replica-{k:03d}", seed=_replica_seed(base, k))
        for k in range(replicas)
    ]


# -- command line ---------------------------------------------------------------


def _load_config_arg(arg: str) -> ExperimentConfig:
    path = Path(arg)
    if path.exists():
        return parse_config_text(path.read_text(encoding="utf-8"))
    if arg in _PRESETS:
        return parse_config_text(materialize_preset(arg))
    raise ConfigInvalidError(f"{arg!r} is neither a config file nor a preset name")


def _default_out_dir(cfg: ExperimentConfig) -> Path:
    root = Path(os.environ.get(OUT_ROOT_ENV, "runs"))
    return root / cfg["scenario"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="dilocsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a config file or preset")
    p_run.add_argument("config", help="config file path or preset name")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--replicas", type=int, default=1, help="independent seeded replicas")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--print-config", action="store_true", help="dump the resolved config")
    p_val = sub.add_parser("validate", help="validate a config file or preset")
    p_val.add_argument("config")
    p_val.add_argument("--print-config", action="store_true")
    p_pre = sub.add_parser("presets", help="preset utilities")
    p_pre.add_argument("action", choices=["list"])
    args = parser.parse_args(argv)

    if args.command == "presets":
        for name in preset_names():
            print(name)
        return EXIT_OK

    try:
        cfg = _load_config_arg(args.config)
    except (ConfigInvalidError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    if getattr(args, "print_config", False):
        print(cfg.canonical_text(), end="")

    if args.command == "validate":
        print(f"config OK (hash {cfg.config_hash()[:12]})")
        return EXIT_OK

    if args.replicas < 1:
        print("config error: --replicas must be >= 1", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out) if args.out else _default_out_dir(cfg)
    try:
        summaries = run_replicas(cfg, out_dir, args.replicas, seed=args.seed)
    except ConfigInvalidError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (dep.DeploymentError, sysm.SystemMatrixError, eng.EngineError, renv.RandomEnvError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    for s in summaries:
        final = s.get("final_oracle_error")
        final_txt = "n/a" if final is None else f"{final:.3e}"
        print(
            f"{s['scenario']}: seed={s['seed']} iters={s['iterations']} "
            f"converged_at={s['converged_at']} final_oracle_error={final_txt}"
        )
    print(f"artifacts in {out_dir}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
