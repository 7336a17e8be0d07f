"""Per-layer metrics derived from the spans of a traced run.

A span's self time is its duration minus the part of its interval that
its direct children cover; children may run in several threads at once
(``cli.run_replicas``), so the covered part is the union of their
intervals. A layer's self time is the sum over its spans. Totals are per
round: sums over the traced rounds divided by their number, so that runs
with different round counts compare.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

LAYERS = ("geometry", "deployment", "system", "engine", "random_env", "cli")

# DLRE runs on fewer sensors than this count as "small": the per-step cost is
# then mostly interpreter overhead rather than work proportional to M.
SMALL_M = 1000

# (name, unit); the order is the order of BENCHMARK.json's per_layer list.
PER_LAYER = (
    ("geometry.subsets_tested", "count"),
    ("geometry.inclusion_s", "s"),
    ("geometry.ns_per_subset", "ns"),
    ("geometry.barycentric_s", "s"),
    ("geometry.self_s", "s"),
    ("deployment.field_s", "s"),
    ("deployment.triangulate_s", "s"),
    ("deployment.enumerate_s", "s"),
    ("deployment.sensor_s.p50", "s"),
    ("deployment.sensor_s.tail", "s"),
    ("deployment.sensor_s.max", "s"),
    ("deployment.radius_rounds", "count"),
    ("deployment.peak_rss_mb", "MB"),
    ("deployment.self_s", "s"),
    ("system.assemble_s", "s"),
    ("system.rho_s", "s"),
    ("system.oracle_s", "s"),
    ("system.self_s", "s"),
    ("engine.diloc_us_per_step", "us"),
    ("engine.diloc_rel_us_per_step", "us"),
    ("engine.diloc_iterations", "count"),
    ("engine.self_s", "s"),
    ("random_env.dlre_us_per_step.small", "us"),
    ("random_env.dlre_us_per_step.large", "us"),
    ("random_env.dlre_biased_us_per_step", "us"),
    ("random_env.sample_us", "us"),
    ("random_env.bias_setup_s", "s"),
    ("random_env.limit_s", "s"),
    ("random_env.self_s", "s"),
    ("cli.run_experiment_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.files_written", "count"),
    ("cli.bytes_written", "bytes"),
    ("cli.replicas_s", "s"),
    ("cli.replicas_serial_s", "s"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.span_cost_pct", "%"),
    ("trace.spans", "count"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_quantile(n: int) -> float:
    """Highest quantile with at least ten samples beyond it; the median below 40."""
    return 1.0 - 10.0 / n if n >= 40 else 0.5


def radius_rounds(radius: float, r0: float, growth: float) -> int:
    """Rounds a sensor needed: its radius grew from r0 by ``growth`` per failed round."""
    return 1 + int(round(math.log(radius / r0) / math.log(growth)))


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for t0, t1 in sorted(intervals):
        if t1 > reach:
            total += t1 - max(t0, reach)
            reach = t1
    return total


def per_layer_metrics(spans, rounds: int, extra: dict) -> dict:
    """Every per-layer metric from the spans of ``rounds`` traced rounds.

    ``extra`` carries what spans cannot hold: file counts from the output
    directories, the set-up memory high-water mark, the traced wall time and
    the overhead against an untraced round.
    """
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    total = defaultdict(float)  # name -> inclusive seconds
    count = defaultdict(int)
    self_by_layer = defaultdict(float)
    self_by_name = defaultdict(float)
    for s in spans:
        total[s.name] += s.seconds
        count[s.name] += 1
        own = s.seconds - covered(children[s.id])
        self_by_layer[s.layer] += own
        self_by_name[s.name] += own

    def ok(name):
        return [s for s in spans if s.name == name and s.info is not None]

    subsets = sum(s.info["subsets"] for s in ok("geometry.batch_strict_inclusion"))
    sensors = ok("deployment.triangulate_sensor")
    sensor_s = np.array([s.seconds for s in sensors])
    n_rounds = sum(
        radius_rounds(s.info["radius"], s.info["r0"], s.info["growth"]) for s in sensors
    )

    def per_step(name, keep):
        runs = [s for s in ok(name) if keep(s.info)]
        return 1e6 * _ratio(sum(s.seconds for s in runs), sum(s.info["iterations"] for s in runs))

    diloc = [s for s in ok("engine.run_to_convergence") if s.info["mode"] == "diloc"]
    dlre = "random_env.run_dlre"
    samples = count["random_env.sample_environment"]

    def op_total(name, prefix):
        return sum(s.seconds for s in spans if s.name == name and (s.op or "").startswith(prefix))

    m = {
        "geometry.subsets_tested": subsets / rounds,
        "geometry.inclusion_s": total["geometry.batch_strict_inclusion"] / rounds,
        "geometry.ns_per_subset": 1e9 * _ratio(total["geometry.batch_strict_inclusion"], subsets),
        "geometry.barycentric_s": total["geometry.barycentric_coordinates"] / rounds,
        "deployment.field_s": (
            total["deployment.generate_poisson_field"] + total["deployment.load_field"]
        ) / rounds,
        "deployment.triangulate_s": total["deployment.triangulate_all"] / rounds,
        "deployment.enumerate_s": (
            self_by_name["deployment.triangulate_all"] + self_by_name["deployment.triangulate_sensor"]
        ) / rounds,
        "deployment.sensor_s.p50": float(np.median(sensor_s)) if sensor_s.size else 0.0,
        "deployment.sensor_s.tail": (
            float(np.quantile(sensor_s, tail_quantile(sensor_s.size))) if sensor_s.size else 0.0
        ),
        "deployment.sensor_s.max": float(sensor_s.max()) if sensor_s.size else 0.0,
        "deployment.radius_rounds": n_rounds / rounds,
        "system.assemble_s": total["system.build_system_matrices"] / rounds,
        "system.rho_s": total["system.spectral_radius"] / rounds,
        "system.oracle_s": total["system.exact_locations_oracle"] / rounds,
        "engine.diloc_us_per_step": per_step("engine.run_to_convergence", lambda i: i["mode"] == "diloc"),
        "engine.diloc_rel_us_per_step": per_step(
            "engine.run_to_convergence", lambda i: i["mode"] == "diloc_rel"
        ),
        "engine.diloc_iterations": sum(s.info["iterations"] for s in diloc) / rounds,
        "random_env.dlre_us_per_step.small": per_step(dlre, lambda i: i["M"] < SMALL_M),
        "random_env.dlre_us_per_step.large": per_step(
            dlre, lambda i: i["M"] >= SMALL_M and not i["biased"]
        ),
        "random_env.dlre_biased_us_per_step": per_step(dlre, lambda i: i["M"] >= SMALL_M and i["biased"]),
        "random_env.sample_us": 1e6 * _ratio(total["random_env.sample_environment"], samples),
        "random_env.bias_setup_s": total["random_env.random_link_bias"] / rounds,
        "random_env.limit_s": total["random_env.dlre_limit"] / rounds,
        "cli.run_experiment_s": op_total("cli.run_experiment", "run_experiment") / rounds,
        "cli.emit_s": (
            total["cli.emit_trace"]
            + total["cli.emit_summary"]
            + total["cli.emit_plot_data"]
            + total["deployment.save_field"]
        ) / rounds,
        "cli.replicas_s": total["cli.run_replicas"] / rounds,
        "cli.replicas_serial_s": op_total("cli.run_experiment", "replicas_serial") / rounds,
        "trace.spans": len(spans) / rounds,
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_by_layer[layer] / rounds
    m["cli.files_written"] = extra["files_written"] / rounds
    m["cli.bytes_written"] = extra["bytes_written"] / rounds
    m["deployment.peak_rss_mb"] = extra["rss_after_setup_mb"]
    m["trace.wall_s"] = extra["wall_s"]
    m["trace.overhead_pct"] = extra["overhead_pct"]
    m["trace.span_cost_pct"] = 100.0 * len(spans) / rounds * extra["span_cost_s"] / extra["wall_s"]
    units = dict(PER_LAYER)
    return {name: {"value": float(m[name]), "unit": units[name]} for name, _ in PER_LAYER}
