"""Which trinoids functions the traced run wraps, and the per-layer metrics.

Every per-layer metric is reported on every workload (0 where a workload
does not reach the layer).  Counts and times are divided by the number of
items in the traced run, so that runs of different length compare.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from tracer import Target, Tracer, aggregate


def _sample_points(tr: Tracer, args, kwargs, sample) -> None:
    n = sum(len(arc) for arc in sample.arc_points)
    tr.add("asymptotics.sample_points", n + len(sample.boundary_pos) + len(sample.boundary_neg))


def _distance_points(tr: Tracer, args, kwargs, result) -> None:
    tr.add("asymptotics.helicoid_distances.points", len(result[0]))


def _nonconverged(tr: Tracer, args, kwargs, profile) -> None:
    tr.add("asymptotics.decay.nonconverged", profile.nonconverged)


def _solutions(tr: Tracer, args, kwargs, solutions) -> None:
    tr.add("constellation.solutions", len(solutions))
    tr.add("constellation.useful_calls", 1 if solutions else 0)


def _residual(tr: Tracer, args, kwargs, report) -> None:
    tr.record_max("constellation.max_residual", report.max_residual)


def _grid_nodes(tr: Tracer, args, kwargs, grid) -> None:
    tr.add("surfaces.grid_nodes", grid.positions.shape[0] * grid.positions.shape[1])


def _bytes(tr: Tracer, args, kwargs, result) -> None:
    path = args[0] if args else kwargs.get("path")
    text = args[1] if len(args) > 1 else kwargs.get("text")
    if path is not None:
        tr.add("emit.bytes", len(text.encode("utf-8")))


def _t(name: str, spans: bool = True, on_result=None) -> Target:
    """Target ``trinoids.<module>.<attr>`` for the name ``<module>.<attr>``;
    a function from another package is named after the trinoids module that
    binds it (``weierstrass.quad`` is scipy's ``quad``)."""
    module, _, attr = name.partition(".")
    return Target(name, "trinoids." + module, attr, spans, on_result)


# Span targets that no metric reads (gap_report, cmd_*) are kept as
# boundaries: they make the self time of their callers (verify_end,
# cli.main) the caller's own work.
TARGETS: Tuple[Target, ...] = (
    # weierstrass
    _t("weierstrass.integrate"),
    _t("weierstrass.quad"),
    _t("weierstrass.branch_power", spans=False),
    # asymptotics
    _t("asymptotics.verify_end"),
    _t("asymptotics.sample_conjugate_end", on_result=_sample_points),
    _t("asymptotics.check_slab"),
    _t("asymptotics.fit_rays"),
    _t("asymptotics.gap_report"),
    _t("asymptotics.normal_limit_report"),
    _t("asymptotics.fit_helicoid"),
    _t("asymptotics.least_squares"),
    _t("asymptotics.helicoid_distances", on_result=_distance_points),
    _t("asymptotics.decay_profile", on_result=_nonconverged),
    # classify and params
    _t("classify.classify_triple"),
    _t("params.reduced_angle", spans=False),
    # constellation and lines
    _t("constellation.solve_constellations", on_result=_solutions),
    _t("constellation.verify_constellation", on_result=_residual),
    _t("lines.ruling_residual", spans=False),
    _t("lines.common_perpendicular_feet", spans=False),
    # surfaces and emit
    _t("surfaces.surface_grid", on_result=_grid_nodes),
    _t("emit.obj_from_grid"),
    _t("emit.csv_from_grid"),
    _t("emit.obj_from_segments_and_patches"),
    _t("emit.write_text", on_result=_bytes),
    _t("emit.validate_against_schema"),
    _t("emit.load_schema"),
    _t("emit.dump_json"),
    # cli and config
    _t("cli.main"),
    _t("cli.build_parser"),
    _t("cli.cmd_classify"),
    _t("cli.cmd_convert"),
    _t("cli.cmd_surface"),
    _t("cli.cmd_constellation"),
    _t("config.load_config"),
)

PER_ITEM = "count/item"
SECONDS = "s/item"

# (metric name, unit, source): "count" reads the tracer counter of the same
# name (``<target>.calls`` counts calls); "busy_s" and "self_s" read the
# span aggregate of the target the name starts with.
METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("weierstrass.integrate.calls", PER_ITEM, "count"),
    ("weierstrass.integrate.busy_s", SECONDS, "busy_s"),
    ("weierstrass.quad.calls", PER_ITEM, "count"),
    ("weierstrass.branch_power.calls", PER_ITEM, "count"),
    ("asymptotics.sample_conjugate_end.busy_s", SECONDS, "busy_s"),
    ("asymptotics.sample_points", PER_ITEM, "count"),
    ("asymptotics.check_slab.busy_s", SECONDS, "busy_s"),
    ("asymptotics.fit_rays.busy_s", SECONDS, "busy_s"),
    ("asymptotics.fit_helicoid.busy_s", SECONDS, "busy_s"),
    ("asymptotics.least_squares.calls", PER_ITEM, "count"),
    ("asymptotics.helicoid_distances.points", PER_ITEM, "count"),
    ("asymptotics.helicoid_distances.busy_s", SECONDS, "busy_s"),
    ("asymptotics.decay_profile.busy_s", SECONDS, "busy_s"),
    ("asymptotics.normal_limit_report.busy_s", SECONDS, "busy_s"),
    ("asymptotics.verify_end.self_s", SECONDS, "self_s"),
    ("asymptotics.decay.nonconverged", PER_ITEM, "count"),
    ("classify.classify_triple.calls", PER_ITEM, "count"),
    ("classify.classify_triple.busy_s", SECONDS, "busy_s"),
    ("params.reduced_angle.calls", PER_ITEM, "count"),
    ("constellation.solve_constellations.calls", PER_ITEM, "count"),
    ("constellation.solve_constellations.busy_s", SECONDS, "busy_s"),
    ("constellation.verify_constellation.busy_s", SECONDS, "busy_s"),
    ("constellation.solutions", PER_ITEM, "count"),
    ("lines.ruling_residual.calls", PER_ITEM, "count"),
    ("lines.common_perpendicular_feet.calls", PER_ITEM, "count"),
    ("surfaces.surface_grid.busy_s", SECONDS, "busy_s"),
    ("surfaces.grid_nodes", PER_ITEM, "count"),
    ("emit.obj_from_grid.busy_s", SECONDS, "busy_s"),
    ("emit.csv_from_grid.busy_s", SECONDS, "busy_s"),
    ("emit.obj_from_segments_and_patches.busy_s", SECONDS, "busy_s"),
    ("emit.write_text.busy_s", SECONDS, "busy_s"),
    ("emit.bytes", "B/item", "count"),
    ("emit.validate_against_schema.calls", PER_ITEM, "count"),
    ("emit.validate_against_schema.busy_s", SECONDS, "busy_s"),
    ("emit.load_schema.calls", PER_ITEM, "count"),
    ("emit.dump_json.busy_s", SECONDS, "busy_s"),
    ("cli.build_parser.busy_s", SECONDS, "busy_s"),
    ("cli.main.self_s", SECONDS, "self_s"),
    ("config.load_config.busy_s", SECONDS, "busy_s"),
)

# Metrics that are not per-item totals; computed in ``per_layer``.
EXTRA: Tuple[Tuple[str, str], ...] = (
    ("constellation.useful_ratio", "ratio"),
    ("asymptotics.unperturbed_sup_distance", "1"),
    ("constellation.max_residual", "1"),
    ("trace.overhead", "ratio"),
)


def all_metric_names() -> List[Tuple[str, str]]:
    return [(name, unit) for name, unit, _ in METRICS] + list(EXTRA)


def per_layer(tracer: Tracer, items: int, diagnostics: Dict[str, float],
              overhead: float) -> Dict[str, Dict[str, float]]:
    """Per-layer metrics of one traced run of ``items`` items."""
    agg = aggregate([s for s in tracer.spans if s is not None])
    out: Dict[str, Dict[str, float]] = {}
    for name, unit, source in METRICS:
        if source == "count":
            total = tracer.counts.get(name, 0)
        else:
            layer = name.rsplit(".", 1)[0]
            total = agg.get(layer, {}).get(source, 0.0)
        out[name] = {"value": total / items, "unit": unit}
    calls = tracer.counts.get("constellation.solve_constellations.calls", 0)
    useful = tracer.counts.get("constellation.useful_calls", 0)
    out["constellation.useful_ratio"] = {"value": useful / calls if calls else 0.0,
                                         "unit": "ratio"}
    out["asymptotics.unperturbed_sup_distance"] = {
        "value": diagnostics.get("asymptotics.unperturbed_sup_distance", 0.0), "unit": "1"}
    out["constellation.max_residual"] = {
        "value": tracer.maxima.get("constellation.max_residual", 0.0), "unit": "1"}
    out["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return out
