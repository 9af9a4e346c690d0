"""Alignment analysis: stream offsets and their lattice."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.align.analysis": (
        "distinct_alignments", "loop_offsets", "misaligned_fraction",
        "misaligned_stream_count", "ref_offset", "ref_offset_sexpr",
    ),
    "repro.align.offsets": (
        "ANY", "AnyOffset", "KnownOffset", "Offset", "RuntimeOffset", "ZERO",
        "compatible", "merge", "merge_all",
    ),
})
