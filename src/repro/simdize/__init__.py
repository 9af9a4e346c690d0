"""End-to-end simdization: driver, options, verification."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.simdize.driver": ("SimdizeResult", "simdize"),
    "repro.simdize.options": ("REUSE_MODES", "SimdOptions", "scheme_name"),
    "repro.simdize.verify": (
        "EquivalenceReport", "fill_random", "make_space", "verify_equivalence",
        "verify_equivalence_batch",
    ),
})
