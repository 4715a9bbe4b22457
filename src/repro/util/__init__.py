"""Shared utilities: units, deterministic RNG, ASCII tables and plots.

These helpers are deliberately dependency-light; everything in the rest of
the package that needs unit conversion, formatted reporting, or seeded
randomness goes through this module so behaviour stays consistent.
"""

from repro.util.units import MICROSECONDS_PER_SECOND, mbytes_per_s_to_us_per_byte
from repro.util.atomic import atomic_write, atomic_write_text
from repro.util.log import get_logger, setup_logging
from repro.util.rng import make_rng, spawn_rngs
from repro.util.tables import format_table
from repro.util.asciiplot import ascii_lanes, ascii_series_plot

__all__ = [
    "ascii_lanes",
    "atomic_write",
    "atomic_write_text",
    "get_logger",
    "setup_logging",
    "MICROSECONDS_PER_SECOND",
    "mbytes_per_s_to_us_per_byte",
    "make_rng",
    "spawn_rngs",
    "format_table",
    "ascii_series_plot",
]
