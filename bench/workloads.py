"""The workloads: what one round calls in the program, and the checks on its outputs.

A round is a fixed list of operations. Each operation is one or a few calls
into the program, timed as one window; its checks run after the window
closes. An operation whose input comes from a failed operation is counted
as attempted and failed without being called, so every round attempts the
same operations whatever fails.
"""

from __future__ import annotations

import re
import shutil
import time
import traceback
from pathlib import Path

import numpy as np

import checks as ck
import inputs

# DLRE noise as in the all-random preset: link failures, channel noise scaled
# by 1/M, weight fluctuations, power-law gains.
LINK_PROB = 0.9
FLUCT_VAR = 0.1
SCHEDULE = ("power", 0.55)
STEP_TOL = 1e-10

# Fixed horizons, sized so that each iteration window lasts a second or more.
# The DLRE presets stop at 5000 steps; the benchmark runs them for 1000, so
# that a presets round takes seconds rather than 20 and a run holds several.
PRESET_DLRE_STEPS = 1000
DLRE_PLANAR_STEPS = 15000
REL_STEPS = 6000
DLRE_LARGE_STEPS = 1500
DLRE_BIASED_STEPS = 800
# The chains' set-up takes under a second, most of it in the failing
# spectral_radius; kernels-large repeats it so that setup_s is timed over
# more than a second.
SETUP_REPEATS = 2
# Frobenius norm of each bias block, as in the biased-distances preset; small
# enough that rho(P + S_P) stays below one for every bias draw.
BIAS_SCALE = 0.01


class Round:
    """Counts, timed windows and check failures of one round."""

    def __init__(self, meter):
        self.meter = meter
        self.wall = 0.0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.files = 0
        self.bytes = 0
        self.seconds: dict[str, float] = {}  # operation -> time in its windows

    def call(self, name: str, fn, *args, **kwargs):
        """Run one operation in a timed window; None if it or one of its inputs failed.

        Only positional arguments are inputs: None there means an earlier
        operation failed.
        """
        self.attempted += 1
        if any(a is None for a in args):
            self.failed += 1
            self.errors.append(f"{name}: not run, an input failed")
            return None
        self.meter.op = name
        self.meter.recording = True
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:  # the operation boundary: count it, report it, go on
            self.failed += 1
            self.errors.append(f"{name}: {traceback.format_exc(limit=-2)}")
            return None
        finally:
            elapsed = time.perf_counter() - t0
            self.wall += elapsed
            self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
            self.meter.recording = False
            self.meter.op = None

    def check(self, name: str, fn, *args):
        """Run one check outside the timed windows; skipped when an input failed."""
        if any(a is None for a in args):
            return
        try:
            fn(*args)
        except ck.CheckError as exc:
            self.problems.append(f"{name}: {exc}")


class Workload:
    """Inputs made once per run by ``prepare``; ``round`` runs one round."""

    def __init__(self, lib, seed: int, out: Path):
        self.lib = lib  # module name -> dilocsim module
        self.seed = seed
        self.out = out

    def prepare(self):
        pass

    def round(self, rnd: Round, index: int):
        raise NotImplementedError


def _diloc(eng, sys_m, anchors, seed, truth, mode="diloc", alpha=1.0, step_tol=STEP_TOL, max_iters=100_000):
    initial = eng.initial_state(anchors, sys_m.M, seed=seed)
    return eng.run_to_convergence(
        initial, sys_m, anchors, mode=mode, alpha=alpha, step_tol=step_tol,
        max_iters=max_iters, oracle=truth, seed=seed,
    )


def _noise_model(renv, sys_m, seed, bias=(None, None)):
    return renv.NoiseModel(
        link_prob=LINK_PROB,
        channel_noise_var=1.0 / sys_m.M,
        fluct_var=FLUCT_VAR,
        bias_B=bias[0],
        bias_P=bias[1],
        seed=seed,
    )


def _dlre(eng, renv, sys_m, anchors, model, seed, truth, steps):
    initial = eng.initial_state(anchors, sys_m.M, seed=seed)
    schedule = renv.make_weight_schedule(*SCHEDULE)
    return renv.run_dlre(initial, sys_m, anchors, model, schedule, max_iters=steps, oracle=truth, seed=seed)


def _shorten_dlre(text: str) -> str:
    """A preset's config text with a DLRE run's horizon set to PRESET_DLRE_STEPS."""
    if "\nalgorithm = dlre\n" not in text:
        return text
    return re.sub(r"(?m)^stop\.max_iters = \d+$", f"stop.max_iters = {PRESET_DLRE_STEPS}", text)


def _scale(U) -> float:
    return float(np.ptp(U, axis=0).max())


class Presets(Workload):
    """Every preset through cli.run_experiment, a DILOC-REL run, replicas pooled and serial.

    The Poisson presets run with their own seeds: a preset's seed also draws
    its field, and the field size sets the cost of the run. The fixture's
    field is a file, so it takes the workload seed (its initial guess).
    """

    def prepare(self):
        cli = self.lib["cli"]
        self.configs = []
        for name in cli.preset_names():
            text = _shorten_dlre(cli.materialize_preset(name))
            seed = self.seed if name == "deterministic-fixture" else None
            self.configs.append((name, cli.parse_config_text(text), seed))
        rel = cli.materialize_preset("deterministic-poisson")
        rel = rel.replace("scenario = deterministic-poisson", "scenario = deterministic-poisson-rel")
        rel = rel.replace("algorithm = diloc\n", "algorithm = diloc_rel\nalpha = 0.5\n")
        self.configs.append(("deterministic-poisson-rel", cli.parse_config_text(rel), None))
        self.replica_cfg = cli.parse_config_text(_shorten_dlre(cli.materialize_preset("lf-cn")))

    def round(self, rnd: Round, index: int):
        cli = self.lib["cli"]
        out = self.out / f"presets-{index}"
        meter = rnd.meter
        for name, cfg, seed in self.configs:
            meter.captured.clear()
            meter.capturing = True
            summary = rnd.call(f"run_experiment:{name}", cli.run_experiment, cfg, out / name, seed=seed)
            meter.capturing = False
            rnd.check(name, self._check_run, meter, cfg, summary, out / name)
        meter.captured.clear()
        pooled = rnd.call(
            "run_replicas:lf-cn", cli.run_replicas, self.replica_cfg, out / "pooled", 4
        )
        seeds = None if pooled is None else [s["seed"] for s in pooled]
        rnd.call("replicas_serial:lf-cn", self._serial, seeds, out / "serial")
        for k in range(4):
            rnd.check(
                f"replica {k}",
                ck.check_same_tree,
                out / "pooled" / f"replica-{k:03d}",
                out / "serial" / f"replica-{k:03d}",
            )
        rnd.files, rnd.bytes = ck.tree_size(out)
        shutil.rmtree(out)

    def _serial(self, seeds, out: Path):
        cli = self.lib["cli"]
        return [
            cli.run_experiment(self.replica_cfg, out / f"replica-{k:03d}", seed=s)
            for k, s in enumerate(seeds)
        ]

    def _check_run(self, meter, cfg, summary: dict, out: Path):
        """Checks on one CLI run, from the results of the calls it made."""
        eng, renv, sysm = self.lib["engine"], self.lib["random_env"], self.lib["system"]
        field = [r for _, _, r in meter.take("generate_poisson_field") + meter.take("load_field")][-1]
        (_, _, tris), = meter.take("triangulate_all")
        (_, _, sys_m), = meter.take("build_system_matrices")
        (_, _, rho), = meter.take("spectral_radius")
        U = field.anchor_block()
        truth = field.true_sensor_matrix()
        nodes = np.vstack([U, truth])
        m = field.m
        ids, weights = ck.tris_arrays(tris, field.sensor_ids)
        ck.check_triangulation(nodes, ids, weights)
        B, P = ck.reference_blocks(ids, weights, m)
        rho_ref = ck.eigs_radius(P)
        ck.check_rho(rho, rho_ref)
        ck.require(summary["rho_P"] == rho, "summary rho_P is not the computed rho(P)")
        ck.check_artifacts(out, summary, nodes, m)
        anchors = sysm.AnchorBlock(U)
        if cfg["algorithm"] in ("diloc", "diloc_rel"):
            (_, _, trace), = meter.take("run_to_convergence")
            ck.require(trace.converged_at is not None, "DILOC did not reach its tolerance")
            tol = ck.diloc_tolerance(cfg["stop.step_tol"], rho_ref, _scale(U))
            ck.check_positions(trace.final_state, truth, tol, "DILOC final state")
            ck.check_dlre_matches_rel(renv, eng, sys_m, anchors, trace.snapshots[0][1])
        else:
            (_, _, trace), = meter.take("run_dlre")
            (lim_args, _, limit), = meter.take("dlre_limit")
            schedule = (cfg["schedule.family"], cfg["schedule.param"])
            ck.check_dlre_run(trace, cfg["stop.max_iters"], schedule)
            ck.check_limit(limit, lim_args[2], B, P, U, truth)
            ck.require(summary["e_l"] == limit.e_l, "summary e_l is not the computed e_l")
            dist = float(np.linalg.norm(trace.final_state - limit.d_star))
            ck.require(
                abs(dist - summary["dist_to_dstar"]) <= 1e-9 * max(dist, 1.0),
                "dist_to_dstar does not match the final state",
            )


class SetupPoisson(Workload):
    """Set-up on a planar and a 3-D Poisson field, then assembly, rho, oracle, DILOC; DLRE on the planar one."""

    def round(self, rnd: Round, index: int):
        dep, sysm, eng, renv = (self.lib[k] for k in ("deployment", "system", "engine", "random_env"))
        for name, m, density, corners in inputs.POISSON_FIELDS:
            field = rnd.call(f"field:{name}", dep.generate_poisson_field, m, density, corners, inputs.FIELD_SEED)
            tris = rnd.call(f"triangulate:{name}", dep.triangulate_all, field)
            sys_m = rnd.call(f"assemble:{name}", sysm.build_system_matrices, field, tris)
            U = truth = anchors = P = None
            seed = inputs.derived_seed(self.seed, index)
            if field is not None:
                U = field.anchor_block()
                truth = field.true_sensor_matrix()
                anchors = sysm.AnchorBlock(U)
            if sys_m is not None:
                P = sys_m.P
            rho = rnd.call(f"rho:{name}", sysm.spectral_radius, P)
            X = rnd.call(f"oracle:{name}", sysm.exact_locations_oracle, sys_m, anchors)
            trace = rnd.call(f"diloc:{name}", _diloc, eng, sys_m, anchors, seed, truth)
            rnd.check(name, self._check, field, tris, sys_m, rho, X, trace)
            if name != "planar":
                continue
            model = rnd.call("noise_model:planar", _noise_model, renv, sys_m, seed)
            run = rnd.call("dlre:planar", _dlre, eng, renv, sys_m, anchors, model, seed, truth, DLRE_PLANAR_STEPS)
            limit = rnd.call("dlre_limit:planar", renv.dlre_limit, sys_m, anchors, model)
            rnd.check("dlre:planar", ck.check_dlre_run, run, DLRE_PLANAR_STEPS, SCHEDULE)
            rnd.check("dlre_limit:planar", self._check_limit, limit, model, field, tris)

    @staticmethod
    def _check_limit(limit, model, field, tris):
        B, P = ck.reference_blocks(*ck.tris_arrays(tris, field.sensor_ids), field.m)
        ck.check_limit(limit, model, B, P, field.anchor_block(), field.true_sensor_matrix())

    @staticmethod
    def _check(field, tris, sys_m, rho, X, trace):
        U = field.anchor_block()
        truth = field.true_sensor_matrix()
        nodes = np.vstack([U, truth])
        ids, weights = ck.tris_arrays(tris, field.sensor_ids)
        ck.check_triangulation(nodes, ids, weights)
        B, P = ck.reference_blocks(ids, weights, field.m)
        ck.check_blocks(sys_m, B, P)
        rho_ref = ck.eigs_radius(P)
        ck.check_rho(rho, rho_ref)
        ck.check_positions(X, truth, 1e-9 * _scale(U), "exact_locations_oracle")
        ck.require(trace.converged_at is not None, "DILOC did not reach its tolerance")
        ck.check_positions(trace.final_state, truth, ck.diloc_tolerance(STEP_TOL, rho_ref, _scale(U)), "DILOC")


class KernelsLarge(Workload):
    """Iteration kernels and dense bias/limit paths on chains past the reach of set-up."""

    def prepare(self):
        dep, geo = self.lib["deployment"], self.lib["geometry"]
        self.chains = {}
        for M, construction_seed in (inputs.CHAIN_LARGE, inputs.CHAIN_BIASED):
            sensors, ids, weights = inputs.chain(M, construction_seed)
            field = dep.SensorField(2, inputs.TRIANGLE, sensors)
            path = self.out / f"chain-{M}.field"
            dep.save_field(field, path)
            nodes = np.vstack([inputs.TRIANGLE, sensors])
            ck.check_triangulation(nodes, ids, weights)
            radius = np.sqrt(((nodes[ids - 1] - sensors[:, None, :]) ** 2).sum(axis=2)).max(axis=1)
            tris = {}
            for l, row, w, r in zip(field.sensor_ids, ids, weights, radius):
                row = tuple(int(i) for i in row)
                tris[l] = dep.TriangulationSet(l, float(r), row, geo.BarycentricWeights(l, row, w))
            B, P = ck.reference_blocks(ids, weights, 2)
            self.chains[M] = dict(path=path, tris=tris, truth=sensors, B=B, P=P, rho=ck.eigs_radius(P))

    def round(self, rnd: Round, index: int):
        dep, sysm, eng, renv = (self.lib[k] for k in ("deployment", "system", "engine", "random_env"))
        seed = inputs.derived_seed(self.seed, index)
        U = inputs.TRIANGLE
        anchors = sysm.AnchorBlock(U)
        scale = _scale(U)

        c = self.chains[inputs.CHAIN_LARGE[0]]
        for _ in range(SETUP_REPEATS):
            field = rnd.call("field:chain-5000", dep.load_field, c["path"])
            sys_m = rnd.call("assemble:chain-5000", sysm.build_system_matrices, field, c["tris"])
            P = None if sys_m is None else sys_m.P
            # Fails while power iteration stops at its cap and the dense fallback at n = 2000.
            rho = rnd.call("rho:chain-5000", sysm.spectral_radius, P)
        X = rnd.call("oracle:chain-5000", sysm.exact_locations_oracle, sys_m, anchors)
        trace = rnd.call("diloc:chain-5000", _diloc, eng, sys_m, anchors, seed, c["truth"])
        rel = rnd.call(
            "diloc_rel:chain-5000", _diloc, eng, sys_m, anchors, seed, c["truth"],
            mode="diloc_rel", alpha=0.5, step_tol=0.0, max_iters=REL_STEPS,
        )
        model = rnd.call("noise_model:chain-5000", _noise_model, renv, sys_m, seed)
        run = rnd.call("dlre:chain-5000", _dlre, eng, renv, sys_m, anchors, model, seed, c["truth"], DLRE_LARGE_STEPS)
        limit = rnd.call("dlre_limit:chain-5000", renv.dlre_limit, sys_m, anchors, model)
        start = eng.initial_state(anchors, len(c["truth"]), seed=seed).X
        rnd.check("assemble:chain-5000", ck.check_blocks, sys_m, c["B"], c["P"])
        rnd.check("rho:chain-5000", ck.check_rho, rho, c["rho"])
        rnd.check("oracle:chain-5000", ck.check_positions, X, c["truth"], 1e-9 * scale, "exact_locations_oracle")
        rnd.check("diloc:chain-5000", self._check_diloc, trace, c)
        rnd.check("diloc_rel:chain-5000", ck.check_relaxed_run, rel, REL_STEPS, c["truth"], start)
        rnd.check("dlre:chain-5000", ck.check_dlre_run, run, DLRE_LARGE_STEPS, SCHEDULE)
        rnd.check("dlre_limit:chain-5000", ck.check_limit, limit, model, c["B"], c["P"], U, c["truth"])
        if sys_m is not None:
            rnd.check("dlre=rel:chain-5000", ck.check_dlre_matches_rel, renv, eng, sys_m, anchors, start)

        c = self.chains[inputs.CHAIN_BIASED[0]]
        for _ in range(SETUP_REPEATS):
            field = rnd.call("field:chain-2000", dep.load_field, c["path"])
            sys_m = rnd.call("assemble:chain-2000", sysm.build_system_matrices, field, c["tris"])
            bias = rnd.call("random_link_bias:chain-2000", renv.random_link_bias, sys_m, BIAS_SCALE, seed=seed)
            model = rnd.call("noise_model:chain-2000", _noise_model, renv, sys_m, seed, bias)
        run = rnd.call("dlre_biased:chain-2000", _dlre, eng, renv, sys_m, anchors, model, seed, c["truth"], DLRE_BIASED_STEPS)
        limit = rnd.call("dlre_limit:chain-2000", renv.dlre_limit, sys_m, anchors, model)
        rnd.check("assemble:chain-2000", ck.check_blocks, sys_m, c["B"], c["P"])
        rnd.check("dlre_biased:chain-2000", ck.check_dlre_run, run, DLRE_BIASED_STEPS, SCHEDULE)
        rnd.check("dlre_limit:chain-2000", ck.check_limit, limit, model, c["B"], c["P"], U, c["truth"])

    @staticmethod
    def _check_diloc(trace, c):
        ck.require(trace.converged_at is not None, "DILOC did not reach its tolerance")
        tol = ck.diloc_tolerance(STEP_TOL, c["rho"], _scale(inputs.TRIANGLE))
        ck.check_positions(trace.final_state, c["truth"], tol, "DILOC")


WORKLOADS = {"presets": Presets, "setup-poisson": SetupPoisson, "kernels-large": KernelsLarge}
