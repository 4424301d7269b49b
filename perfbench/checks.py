"""Output checks, computed outside the timed region in the benchmark's own code.

A failed check is recorded and counted; it never stops the run.
"""

from __future__ import annotations

import math
import traceback


def reference_dtw(a, b) -> float:
    """Plain dynamic program over the full table: squared local cost plus the
    minimum of the three predecessors. Bit-identical to any DP that adds the
    local cost after taking that minimum."""
    x = [float(v) for v in a]
    y = [float(v) for v in b]
    inf = math.inf
    prev = [inf] * (len(y) + 1)
    prev[0] = 0.0  # the (0, 0) cell then costs exactly d * d + 0.0
    for i, xv in enumerate(x):
        cur = [inf] * (len(y) + 1)
        for j, yv in enumerate(y, start=1):
            best = min(prev[j - 1], prev[j], cur[j - 1])
            d = xv - yv
            cur[j] = d * d + best
        prev = cur
    return prev[-1]


class Checks:
    """Named pass/fail results of one run."""

    def __init__(self):
        self.passed = 0
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return self.passed + len(self.failures)

    def expect(self, name: str, condition, detail: str = "") -> bool:
        if condition:
            self.passed += 1
            return True
        self.failures.append(f"{name}: {detail}" if detail else name)
        return False

    def run(self, name: str, fn) -> None:
        """Call fn(); an exception counts as one failed check."""
        try:
            fn()
        except Exception:  # noqa: BLE001 - a broken check must not end the run
            self.failures.append(f"{name}: raised\n{traceback.format_exc()}")
