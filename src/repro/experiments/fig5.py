"""Figure 5 — comparison of different Grid extrapolations.

The §4.1 performance-debugging story, replayed end to end:

1. **base** — distributed-memory preset, compiler-reported transfer
   sizes (every remote access recorded at the 231456-byte element size);
2. **high-bw** — communication bandwidth raised to 200 MB/s (the
   shared-memory approximation): better, but only about half the
   speedup of the shared-memory case;
3. **ideal** — all synchronisation and communication costs null: close
   to the desired speedup, proving the computation itself scales;
4. **actual-size** — the real fix: traces recorded with the *actual*
   remote transfer sizes (2 and 128 bytes), original parameters;
5. **actual+low-startup** — actual sizes plus reduced communication
   start-up: the best of the distributed-memory variants.

All five runs use the same single-processor measurements — the point of
the exercise is that every "what if" was answered without touching the
target machine.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.grid import make_program
from repro.core import presets
from repro.core.pipeline import measure
from repro.core.translation import translate
from repro.experiments.base import ExperimentResult, predicted_series
from repro.experiments.paramsets import PROCESSOR_COUNTS, figure4_params, grid_config
from repro.util.units import mbytes_per_s_to_us_per_byte


def run(
    *,
    quick: bool = True,
    processor_counts: Sequence[int] = PROCESSOR_COUNTS,
    jobs: int = 1,
) -> ExperimentResult:
    """Regenerate the Figure 5 Grid comparison (execution times in us)."""
    cfg = grid_config(quick=quick)
    maker = make_program(cfg)
    base = figure4_params()
    high_bw = base.with_(
        network={"byte_transfer_time": mbytes_per_s_to_us_per_byte(200.0)}
    )
    low_startup = base.with_(network={"comm_startup_time": 10.0})
    ideal = presets.ideal()

    variants = [
        ("base (compiler sizes)", "compiler", base),
        ("200 MB/s bandwidth", "compiler", high_bw),
        ("ideal (no comm/sync)", "compiler", ideal),
        ("actual sizes (2/128 B)", "actual", base),
        ("actual + 10us startup", "actual", low_startup),
    ]

    result = ExperimentResult(
        name="fig5",
        title="Comparison of Different Extrapolations (Grid)",
        ylabel="execution time (us)",
    )
    # One measurement per (P, size_mode) — every variant reuses them.
    traces = {}
    for p in processor_counts:
        for mode in ("compiler", "actual"):
            traces[(p, mode)] = measure(
                maker(p), p, name="grid", size_mode=mode
            )
    cells = [
        (label, p, traces[(p, mode)], params)
        for label, mode, params in variants
        for p in processor_counts
    ]
    result.series = predicted_series(cells, jobs=jobs)

    # The trace statistics that drove the §4.1 diagnosis.
    top = max(processor_counts)
    tr = traces[(top, "actual")]
    from repro.trace.stats import compute_stats

    st = compute_stats(tr)
    result.notes.append(
        f"trace statistics at P={top}: {st.n_barriers} barriers, "
        f"{st.n_remote_reads} remote reads, actual sizes "
        f"min={st.remote_bytes_min} B / max={st.remote_bytes_max} B "
        f"(compiler mode records {cfg.effective_element_nbytes()} B per access)"
    )
    ideal_time = translate(traces[(top, "compiler")]).ideal_execution_time()
    result.notes.append(
        f"ideal execution time at P={top}: {ideal_time:.0f} us "
        "(translation alone, zero-cost environment)"
    )
    return result
