"""Mini-C frontend for the simdizer."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.lang.frontend": ("compile_source", "simdize_source"),
    "repro.lang.lexer": ("Token", "tokenize"),
    "repro.lang.parser": ("parse",),
    "repro.lang.sema": ("analyze",),
})
