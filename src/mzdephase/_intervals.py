"""Internal helpers: the rise tolerance of the memory-effect detectors, and
the merge of flagged grid steps into maximal intervals."""
from __future__ import annotations

# a rise between grid points must exceed this to count: of the trace
# distance for information backflow, and of |f| relative to the port
# probability for a non-CP-divisible step (the two differ by that factor);
# separates genuine recoherence from floating-point ripple on flat tails
RISE_TOL = 1e-9


def merge_rising_steps(grid, rising) -> list[tuple[float, float]]:
    """Collect maximal runs of flagged consecutive-point steps into
    (t_lo, t_hi) intervals, in time order.

    ``rising[k]`` refers to the step from grid[k] to grid[k+1].
    """
    intervals = []
    start = None
    for k, flag in enumerate(rising):
        if flag and start is None:
            start = grid[k]
        elif not flag and start is not None:
            intervals.append((float(start), float(grid[k])))
            start = None
    if start is not None:
        intervals.append((float(start), float(grid[-1])))
    return intervals
