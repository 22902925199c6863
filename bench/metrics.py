"""Which end-to-end metric each per-layer metric should move, and on which workload.

The names, units and directions of every metric are in ``BENCHMARK.json``;
this map is what that file has no field for.  A change to one layer can be
checked against the workload that exercises it and the one that bypasses it.
End-to-end metrics are measured with tracing off; per-layer metrics come only
from the traced run.

Nothing in tensorgeom waits on another thread, queue or lock, so no layer has
a wait-time metric; reporting zeros for it would say nothing.
"""

_GRID = "work_per_s on grid"
_MARCH = "work_per_s on march"
_QUERY = "work_per_s on query"
_IMPORT = "setup_s on all; wall_s most on query"
_SERIALIZE = "work_per_s on grid and march"
_JETS = "work_per_s on grid, then query and march"

MOVES = {
    "cli.import_s": _IMPORT,
    "cli.import.scipy_s": _IMPORT,
    "cli.import.numpy_s": _IMPORT,
    "cli.main.self_s": "work_per_s on all",
    "cli.format_json.self_s": _SERIALIZE,
    "cli.write_csv.self_s": _SERIALIZE,
    "cli.report_bytes": _SERIALIZE,
    "cli.skipped_points": _GRID,
    "expr.eval_jet.calls": _JETS,
    "expr.eval_jet.self_s": _JETS,
    "expr.eval_jet.us_per_call": _JETS,
    "expr.jet_mul.calls": _JETS,
    "expr.eval_float.calls": _MARCH,
    "expr.eval_float.self_s": _MARCH,
    "expr.parse.calls": _QUERY,
    "expr.parse.self_s": _QUERY,
    "surface.jet_at.calls": _GRID,
    "surface.jet_at.self_s": _GRID,
    "surface.egregium_curvature.calls": _GRID,
    "surface.egregium_curvature.self_s": _GRID,
    "surface.surface_area.calls": _GRID,
    "surface.surface_area.self_s": _GRID,
    "surface.geodesic_integrate.self_s": _MARCH,
    "surface.geodesic.steps": _MARCH,
    "surface.geodesic.us_per_step": _MARCH,
    "curve.Curve.calls": _GRID,
    "curve.Curve.self_s": _GRID,
    "curve.frenet.calls": _GRID,
    "curve.frenet.self_s": _GRID,
    "curve.evolute.calls": _GRID,
    "curve.evolute.self_s": _GRID,
    "curve.arc_length.calls": _GRID,
    "curve.arc_length.self_s": _GRID,
    "curve.quad.calls": _GRID,
    "curve.bonnet_reconstruct.self_s": _MARCH,
    "curve.bonnet.steps": _MARCH,
    "curve.bonnet.us_per_step": _MARCH,
    "curve.osculating.calls": _QUERY,
    "curve.osculating.self_s": _QUERY,
    "curve.canonical_coefficients.calls": _QUERY,
    "curve.canonical_coefficients.self_s": _QUERY,
    "coords.metric_at.calls": _QUERY,
    "coords.metric_at.self_s": _QUERY,
    "coords.christoffel.calls": _QUERY,
    "coords.christoffel.self_s": _QUERY,
    "coords.second_partials.calls": _QUERY,
    "coords.second_partials.self_s": _QUERY,
    "coords.laplacian_curvilinear.calls": _QUERY,
    "coords.laplacian_curvilinear.self_s": _QUERY,
    "coords.eval_jet_per_point": _QUERY,
    "tensor2.eigen_sym.calls": _MARCH,
    "tensor2.eigen_sym.self_s": _MARCH,
    "tensor2.sqrt_spd.calls": _MARCH,
    "tensor2.sqrt_spd.self_s": _MARCH,
    "tensor2.inverse.calls": _MARCH,
    "tensor2.inverse.self_s": _MARCH,
    "tensor2.polar.self_s": _QUERY,
    "tensor4.kelvin_rotation.self_s": _QUERY,
    "tensor4.to_kelvin.self_s": _QUERY,
    "trace.overhead_ratio": "none: traced over untraced in-process time",
}
