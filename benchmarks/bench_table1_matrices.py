"""Table 1 — test-matrix properties.

Regenerates the paper's Table 1 for our synthetic stand-ins and prints
the paper's native figures next to them.  The benchmark times problem
generation (matrix assembly + RHS).
"""

from __future__ import annotations

from conftest import is_quick, write_artifact

from repro.matrices import sparsity_stats, suite


def _scale() -> str:
    import os

    return os.environ.get("REPRO_SCALE", "small" if is_quick() else "bench")


def render_table1() -> str:
    lines = [
        "Table 1: Test matrices (synthetic stand-ins; paper values in parentheses)",
        "",
        f"{'Matrix':18s} {'Problem type':14s} {'Problem size':>14s} {'#NZ':>12s} {'nnz/row':>9s} {'bandwidth':>10s}",
        "-" * 84,
    ]
    for name in suite.available_problems():
        matrix, _b, meta = suite.load(name, scale=_scale())
        stats = sparsity_stats(matrix)
        # A matrix without a paper entry (poisson3d) prints "—".
        paper_n = meta.paper.get("paper_n", "—")
        paper_nnz = meta.paper.get("paper_nnz", "—")
        lines.append(
            f"{name:18s} {meta.problem_type:14s} "
            f"{meta.n:>8d} ({paper_n:>7}) "
            f"{meta.nnz:>6d} ({paper_nnz:>8}) "
            f"{meta.nnz_per_row:>9.1f} {stats.bandwidth:>10d}"
        )
        assert stats.symmetric, f"{name} must be symmetric"
    return "\n".join(lines)


def test_table1_matrix_properties(benchmark):
    def generate():
        return render_table1()

    table = benchmark.pedantic(generate, rounds=1, iterations=1)
    print("\n" + table)
    rows = [line.split()[0] for line in table.splitlines()[4:]]
    assert rows == list(suite.available_problems())
    write_artifact("table1_matrices.txt", table)
