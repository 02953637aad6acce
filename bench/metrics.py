"""Metric definitions shared by ``run.py`` and ``baseline.py``.

Each per-layer metric names the end-to-end metric and workload it is
expected to move; nf_param, nf_plain and ideal_window are the parts of
lib_mix, which ``run.py`` also runs alone.  ``calls`` and the ``rref`` sizes are counts over the
traced op set, which is fixed per (workload, seed), so they repeat exactly;
``busy_ms`` is inclusive time and ``self_ms`` busy time minus child spans of
other layers, both summed over the traced op set; ``cli.import_ms``,
``cli.sympy_import_ms`` and ``cli.process_ms`` are medians per ``sgr`` call.
"""

END_TO_END = (
    # name, unit, better, bound (share of the parent's median)
    ("ops_per_s", "ops/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_p90", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

_CLI_P50 = "op_ms_p50 on cli_mix"
_CLI_P90 = "op_ms_p90 on cli_mix"
_PARAM = "ops_per_s on lib_mix and its part nf_param"
_PLAIN = "ops_per_s and peak_rss_mb on lib_mix and its part nf_plain"
_WINDOW = "ops_per_s and op_ms_p90 on lib_mix and its part ideal_window"

PER_LAYER = (
    # name, unit, better, moves
    ("cli.import_ms", "ms", "lower", _CLI_P50),
    ("cli.sympy_import_ms", "ms", "lower", _CLI_P50),
    ("cli.process_ms", "ms", "lower", _CLI_P50),
    ("cli.main.self_ms", "ms", "lower", _CLI_P50),
    ("presentation.parse_element.calls", "count", "lower", _CLI_P90),
    ("presentation.parse_element.self_ms", "ms", "lower", _CLI_P90),
    ("presentation.parse_presentation.calls", "count", "lower", _CLI_P90),
    ("presentation.parse_presentation.busy_ms", "ms", "lower", _CLI_P90),
    ("presentation.format_element.calls", "count", "lower", _CLI_P90),
    ("presentation.format_element.busy_ms", "ms", "lower", _CLI_P90),
    ("presentation.print_presentation.busy_ms", "ms", "lower", _CLI_P90),
    ("presentation.specialize_presentation.busy_ms", "ms", "lower",
     "ops_per_s on lib_mix and its part ideal_window"),
    ("scalars.normalize.calls", "count", "lower",
     _PARAM + "; no change on nf_plain or ideal_window"),
    ("scalars.normalize.busy_ms", "ms", "lower",
     _PARAM + "; no change on nf_plain or ideal_window"),
    ("scalars.specialize.calls", "count", "lower", _PARAM),
    ("scalars.specialize.busy_ms", "ms", "lower", _PARAM),
    ("rewrite.nc_mul.calls", "count", "lower", _PLAIN),
    ("rewrite.nc_mul.busy_ms", "ms", "lower", _PLAIN),
    ("rewrite.nc_mul.self_ms", "ms", "lower", _PLAIN),
    ("rewrite.nc_pow.calls", "count", "lower", _PLAIN),
    ("rewrite.nc_pow.busy_ms", "ms", "lower", _PLAIN),
    ("rewrite.free_to_normal_form.calls", "count", "lower", _PLAIN + "; " + _CLI_P90),
    ("rewrite.free_to_normal_form.busy_ms", "ms", "lower", _PLAIN + "; " + _CLI_P90),
    ("rewrite.check_pbw.calls", "count", "lower", _PARAM),
    ("rewrite.check_pbw.busy_ms", "ms", "lower", _PARAM),
    ("rewrite.terms_out", "count", "lower", _PLAIN),
    ("grading.rref.calls", "count", "lower", _WINDOW),
    ("grading.rref.busy_ms", "ms", "lower", _WINDOW),
    ("grading.rref.rows_in", "count", "lower", _WINDOW),
    ("grading.rref.cols", "count", "lower", _WINDOW),
    ("grading.rref.rank", "count", "lower", _WINDOW),
    ("grading.rref.nnz_in", "count", "lower", _WINDOW),
    ("grading.rref.fill", "ratio", "higher", _WINDOW),
    ("grading.left_ideal_window.busy_ms", "ms", "lower", _WINDOW),
    ("grading.left_ideal_window.self_ms", "ms", "lower", _WINDOW),
    ("grading.is_semigraded_window.busy_ms", "ms", "lower", _WINDOW),
    ("grading.window_dims.busy_ms", "ms", "lower", _CLI_P90),
    ("grading.filtration_window.busy_ms", "ms", "lower", _CLI_P90),
    ("invariants.hilbert_series.calls", "count", "lower", _CLI_P90),
    ("invariants.hilbert_series.busy_ms", "ms", "lower", _CLI_P90),
    ("invariants.hilbert_polynomial.busy_ms", "ms", "lower", _CLI_P90),
    ("invariants.ggk_estimate.calls", "count", "lower", _CLI_P90 + "; lib_mix part ideal_window"),
    ("invariants.ggk_estimate.busy_ms", "ms", "lower", _CLI_P90 + "; lib_mix part ideal_window"),
    ("catalog.catalog_verify.calls", "count", "lower", _CLI_P90),
    ("catalog.catalog_verify.busy_ms", "ms", "lower", _CLI_P90),
    ("catalog.catalog_verify.self_ms", "ms", "lower", _CLI_P90),
    ("trace.ops", "count", "higher", "none: the traced op count, fixed per workload"),
    ("trace.overhead_frac", "ratio", "lower",
     "none: traced wall time over untraced wall time of the same ops, minus 1"),
)
