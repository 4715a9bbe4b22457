"""Unit conventions and conversions.

The whole library measures *time in microseconds* (float), matching the
units the paper quotes for every model parameter (Table 1, Table 3).
Bandwidths in the paper are quoted both as MB/s and as a per-byte transfer
time; :func:`mbytes_per_s_to_us_per_byte` turns the first into the second,
which is what the parameter sets hold.

A "MByte" here is 10**6 bytes, which is how the paper's numbers work out:
0.118 us/byte == 8.5 MB/s and 0.05 us/byte == 20 MB/s.
"""

from __future__ import annotations

#: Number of microseconds in one second.
MICROSECONDS_PER_SECOND: float = 1_000_000.0

#: Bytes per megabyte for bandwidth arithmetic (decimal, as in the paper).
BYTES_PER_MBYTE: float = 1_000_000.0


def mbytes_per_s_to_us_per_byte(mbytes_per_s: float) -> float:
    """Convert a link bandwidth in MB/s to a per-byte transfer time in us.

    >>> round(mbytes_per_s_to_us_per_byte(20.0), 6)
    0.05
    >>> round(mbytes_per_s_to_us_per_byte(8.5), 3)
    0.118
    """
    if mbytes_per_s <= 0:
        raise ValueError(f"bandwidth must be positive, got {mbytes_per_s}")
    return MICROSECONDS_PER_SECOND / (mbytes_per_s * BYTES_PER_MBYTE)

