"""What one workload run hands back to the entry point."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Outcome:
    #: End-to-end metric name -> (value, unit); a percentile whose tail
    #: is too thin for its sample count is left out.
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: Sample count behind every reported percentile or median.
    samples: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: Failed output checks, one line each (empty = every check passed).
    check_failures: List[str] = field(default_factory=list)
    #: Everything else worth keeping in the run record.
    record: Dict = field(default_factory=dict)
    #: Raw observations the per-layer rollup needs.
    facts: Dict = field(default_factory=dict)

    def put(self, name: str, value: Optional[float], unit: str, samples: int) -> None:
        self.samples[name] = samples
        if value is not None:
            self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.check_failures.append(message)
