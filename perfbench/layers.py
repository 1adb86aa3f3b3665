"""Which fieldalign functions the traced run wraps, and the per-layer
metrics computed from their spans.

Metric names read <module>.<function>.<stat>. Counts and times are per
workload unit (totals over the traced units divided by their number);
shares, chain-time percentiles and the tracing overhead are not divided.
A metric whose function no longer exists under any of the names below is
reported as 0 and listed as absent.
"""

from __future__ import annotations

import numpy as np

from fieldalign import analysis, cli, covariance, geometry, gpa, kriging, mcmc, molio, simulation

from tracer import Tracer

# span name -> stats reported for it
SPAN_STATS = {
    "covariance.gram_cholesky": ("calls", "self_s", "jitter_escalations"),
    "covariance.cdist": ("calls", "pairs", "self_s"),
    "covariance.kernel_eval": ("calls", "elements", "self_s"),
    "covariance.kernel_value": ("calls", "self_s"),
    "kriging.solve_weights": ("calls", "self_s"),
    "kriging.build_field": ("calls", "self_s"),
    "similarity.carbo": ("calls", "self_s"),
    "geometry.rotation_matrix": ("calls", "self_s"),
    "geometry.euler_prior_log_density": ("calls", "self_s"),
    "mcmc.step_rigid.rotation": ("calls", "self_s", "accept_share"),
    "mcmc.step_rigid.translation": ("calls", "self_s", "accept_share"),
    "mcmc.step_mask.a": ("calls", "self_s", "accept_share"),
    "mcmc.step_mask.b": ("calls", "self_s", "accept_share"),
    "mcmc.step_tau": ("calls", "self_s", "accept_share"),
    "mcmc.set_rho": ("calls", "self_s"),
    "mcmc.install_state": ("calls", "self_s"),
    "mcmc.chain": ("s_p50", "s_max", "restarts", "sweeps"),
    "simulation.sample_grf": ("self_s",),
    "simulation.generate_pair": ("self_s",),
    "gpa.run_field_gpa": ("self_s",),
    "gpa.multi_carbo": ("self_s",),
    "gpa.mean_field_excluding": ("self_s",),
    "analysis.ward_cluster": ("self_s",),
    "analysis.t_field": ("self_s",),
    "analysis.threshold_regions": ("self_s",),
    "molio.parse_molecule_file": ("self_s",),
    "cli.align-all": ("total_s",),
    "cli.cluster": ("total_s",),
    "cli.gpa": ("total_s",),
    "cli.tfield": ("total_s",),
}

# metrics not of the form <span>.<stat>: name -> (unit, span it comes from)
DERIVED = {
    "kriging.factor_flops": ("flop", "covariance.gram_cholesky"),
    "mcmc.restart_sweep_share": ("share", "mcmc.chain"),
    "gpa.passes": ("count", "gpa.run_field_gpa"),
    "trace.overhead_share": ("share", None),
}

_UNITS = {
    "calls": "count", "self_s": "s", "total_s": "s", "s_p50": "s", "s_max": "s",
    "accept_share": "share", "jitter_escalations": "count", "pairs": "count",
    "elements": "count", "restarts": "count", "sweeps": "count",
}


def metric_table() -> dict[str, tuple[str, str | None]]:
    """Every per-layer metric name -> (unit, span name)."""
    table = {
        f"{span}.{stat}": (_UNITS[stat], span)
        for span, stats in SPAN_STATS.items()
        for stat in stats
    }
    table.update(DERIVED)
    return table


def instrument(t: Tracer):
    """Wrap every layer boundary under the names its callers use."""
    c = t.counts

    def patch_all(owners, attr, name, hook=None):
        if not any([t.patch(o, attr, name, hook) for o in owners]):
            t.absent.add(name)

    def on_cholesky(args, kwargs, result, dt):
        chol, jitter = result
        if jitter:
            c["covariance.gram_cholesky.jitter_escalations"] += 1
        c["kriging.factor_flops"] += chol.shape[0] ** 3 / 3.0

    def on_cdist(args, kwargs, result, dt):
        c["covariance.cdist.pairs"] += result.size

    def on_kernel(args, kwargs, result, dt):
        c["covariance.kernel_eval.elements"] += np.size(result)

    def accept_counter(args, kwargs, result, dt, name):
        c[f"{name}.accepted"] += bool(result)

    def by_arg(prefix, position, keyword):
        def label(args, kwargs):
            value = args[position] if len(args) > position else kwargs[keyword]
            return f"{prefix}.{value}"
        return label

    def on_block(prefix, position, keyword):
        label = by_arg(prefix, position, keyword)
        return lambda a, k, r, dt: accept_counter(a, k, r, dt, label(a, k))

    def on_chain(args, kwargs, result, dt):
        hyper = args[1]
        restart_sweeps = result.n_restarts * (hyper.restart_check_iter or 0)
        c["mcmc.chain.restarts"] += result.n_restarts
        c["mcmc.chain.sweeps"] += restart_sweeps + result.n_iterations
        c["mcmc.chain.restart_sweeps"] += restart_sweeps
        t.samples["mcmc.chain.s"].append(dt)

    def on_gpa(args, kwargs, result, dt):
        c["gpa.passes"] += result[0].iteration

    patch_all((mcmc, simulation, kriging), "gram_cholesky", "covariance.gram_cholesky", on_cholesky)
    patch_all((mcmc, covariance), "cdist", "covariance.cdist", on_cdist)
    if not t.patch_factory(mcmc, "kernel_evaluator", "covariance.kernel_eval", on_kernel):
        t.absent.add("covariance.kernel_eval")
    patch_all((covariance,), "kernel_value", "covariance.kernel_value")
    patch_all((mcmc, kriging), "solve_weights", "kriging.solve_weights")
    patch_all((gpa, cli), "build_field", "kriging.build_field")
    patch_all((mcmc.PairEngine,), "_similarity", "similarity.carbo")
    patch_all((mcmc, geometry), "rotation_matrix", "geometry.rotation_matrix")
    patch_all((mcmc,), "euler_prior_log_density", "geometry.euler_prior_log_density")
    for attr, position, keyword, sides in (
        ("step_rigid", 2, "block", ("rotation", "translation")),
        ("step_mask", 2, "side", ("a", "b")),
    ):
        prefix = f"mcmc.{attr}"
        if not t.patch(mcmc.PairEngine, attr, by_arg(prefix, position, keyword),
                       on_block(prefix, position, keyword)):
            t.absent.update(f"{prefix}.{s}" for s in sides)
    patch_all((mcmc.PairEngine,), "step_tau", "mcmc.step_tau",
              lambda a, k, r, dt: accept_counter(a, k, r, dt, "mcmc.step_tau"))
    patch_all((mcmc.PairEngine,), "set_rho", "mcmc.set_rho")
    patch_all((mcmc.PairEngine,), "install_state", "mcmc.install_state")
    patch_all((mcmc,), "_run_chain", "mcmc.chain", on_chain)
    patch_all((simulation,), "sample_grf", "simulation.sample_grf")
    patch_all((simulation,), "generate_pair_2d", "simulation.generate_pair")
    patch_all((simulation,), "generate_pair_3d", "simulation.generate_pair")
    patch_all((gpa,), "run_field_gpa", "gpa.run_field_gpa", on_gpa)
    patch_all((gpa,), "multi_carbo", "gpa.multi_carbo")
    patch_all((gpa,), "mean_field_excluding", "gpa.mean_field_excluding")
    for fn in ("ward_cluster", "t_field", "threshold_regions"):
        patch_all((analysis,), fn, f"analysis.{fn}")
    patch_all((molio,), "parse_molecule_file", "molio.parse_molecule_file")
    for sub in ("align-all", "cluster", "gpa", "tfield"):
        if not t.patch_item(getattr(cli, "_COMMANDS", {}), sub, f"cli.{sub}"):
            t.absent.add(f"cli.{sub}")


def layer_metrics(t: Tracer, n_units: int, overhead_share: float) -> dict[str, float]:
    """Per-layer metric values from a tracer that ran n_units units."""
    spans = t.per_name()
    c = t.counts
    chain_s = t.samples.get("mcmc.chain.s", [])
    sweeps = c.get("mcmc.chain.sweeps", 0.0)
    values = {}
    for metric, (unit, span) in metric_table().items():
        stat = metric.rsplit(".", 1)[1]
        if span is not None and span in t.absent:
            values[metric] = 0.0
            continue
        row = spans.get(span, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        if metric == "trace.overhead_share":
            v = overhead_share
        elif metric == "mcmc.restart_sweep_share":
            v = c.get("mcmc.chain.restart_sweeps", 0.0) / sweeps if sweeps else 0.0
        elif stat == "s_p50":
            v = float(np.median(chain_s)) if chain_s else 0.0
        elif stat == "s_max":
            v = float(np.max(chain_s)) if chain_s else 0.0
        elif stat == "accept_share":
            v = c.get(f"{span}.accepted", 0.0) / row["calls"] if row["calls"] else 0.0
        elif stat in row:
            v = row[stat]
        else:
            v = c.get(metric, 0.0)
        if unit != "share" and stat not in ("s_p50", "s_max"):
            v /= n_units
        values[metric] = float(v)
    return values
