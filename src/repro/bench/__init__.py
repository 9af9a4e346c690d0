"""Benchmark harness: synthesized loops, metrics, tables, and figures."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.bench.ablation": (
        "OptionAblation", "PeelingAblation", "memnorm_ablation",
        "peeling_ablation", "reuse_ablation", "unroll_ablation",
    ),
    "repro.bench.coverage": ("CoverageResult", "coverage_sweep"),
    "repro.bench.figures": (
        "FigureBar", "FigureResult", "figure", "figure11", "figure12",
        "figure_configs",
    ),
    "repro.bench.lowerbound": (
        "LowerBound", "lower_bound", "peak_speedup", "seq_opd",
    ),
    "repro.bench.runner": (
        "SWEEP_MODES", "Measurement", "SuiteResult", "SweepConfig",
        "measure_batch", "measure_loop", "measure_many", "measure_suite",
    ),
    "repro.bench.synth": (
        "MAX_OFFSET", "SynthParams", "SynthesizedLoop", "synthesize",
        "synthesize_suite",
    ),
    "repro.bench.tables": (
        "TABLE_ROWS", "TableResult", "TableRow", "measure_row", "table1",
        "table2",
    ),
})
