"""Unit conversions: the paper's bandwidth/time numbers must round-trip."""

import pytest

from repro.util.units import mbytes_per_s_to_us_per_byte


def test_paper_bandwidths():
    # The parameter-set bandwidths quoted in §4.1 and Table 3.
    assert mbytes_per_s_to_us_per_byte(20.0) == pytest.approx(0.05)
    assert mbytes_per_s_to_us_per_byte(200.0) == pytest.approx(0.005)
    assert mbytes_per_s_to_us_per_byte(5.0) == pytest.approx(0.2)
    assert mbytes_per_s_to_us_per_byte(8.5) == pytest.approx(0.118, abs=1e-3)


def test_roundtrip():
    # us per byte is the reciprocal of bytes per us, which is MB/s.
    for mb in (1.0, 8.5, 20.0, 200.0, 1234.5):
        assert 1.0 / mbytes_per_s_to_us_per_byte(mb) == pytest.approx(mb)


@pytest.mark.parametrize("fn", [mbytes_per_s_to_us_per_byte])
@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_rejects_nonpositive(fn, bad):
    with pytest.raises(ValueError):
        fn(bad)
