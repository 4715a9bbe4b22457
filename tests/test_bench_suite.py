"""The benchmark registry (Table 2)."""

import pytest

from repro.bench import BENCHMARKS, get_benchmark


def test_all_table2_benchmarks_present():
    for name in ("embar", "cyclic", "sparse", "grid", "mgrid", "poisson", "sort"):
        assert name in BENCHMARKS
    assert "matmul" in BENCHMARKS  # §4.2


def test_descriptions_match_table2():
    assert "embarrassingly parallel" in BENCHMARKS["embar"].description
    assert "Cyclic reduction" in BENCHMARKS["cyclic"].description
    assert "conjugate gradient" in BENCHMARKS["sparse"].description
    assert "two dimensional grid" in BENCHMARKS["grid"].description
    assert "multigrid" in BENCHMARKS["mgrid"].description
    assert "Poisson solver" in BENCHMARKS["poisson"].description
    assert "Bitonic sort" in BENCHMARKS["sort"].description


def test_power_of_two_flags():
    assert BENCHMARKS["cyclic"].power_of_two_only
    assert BENCHMARKS["sort"].power_of_two_only
    assert not BENCHMARKS["grid"].power_of_two_only


def test_counts_keep_order_and_drop_only_what_the_flag_forbids():
    counts = [16, 3, 1, 6, 8, 2]
    assert BENCHMARKS["cyclic"].counts(counts) == [16, 1, 8, 2]
    assert BENCHMARKS["sort"].counts(iter(counts)) == [16, 1, 8, 2]
    assert BENCHMARKS["grid"].counts(counts) == counts


def test_lookup():
    assert get_benchmark(" GRID ").name == "grid"
    with pytest.raises(ValueError):
        get_benchmark("missing")


def test_make_config_and_program():
    info = get_benchmark("embar")
    cfg = info.make_config(total_pairs=128, chunks=4)
    assert cfg.total_pairs == 128
    maker = info.make_program(cfg)
    assert callable(maker(2))
    with pytest.raises(ValueError):
        info.make_program(cfg, total_pairs=1)
