"""Comparison baselines: ideal scalar, loop peeling, VAST-equivalent."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.baselines.peeling": (
        "PeelingMeasurement", "measure_peeling", "peeling_alignment",
        "peeling_applicable",
    ),
    "repro.baselines.scalar_seq": ("SeqMeasurement", "measure_seq"),
    "repro.baselines.vast": ("VAST_OPTIONS", "vast_options"),
})
