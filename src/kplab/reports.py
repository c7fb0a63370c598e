"""Report containers shared by the counting modules and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional


@dataclass
class CountReport:
    """Exact counts plus the bound they were compared against.

    `counts` hold exact integers; `ratios` are decimal renderings of exact
    comparisons (None when undefined, e.g. empty input); `verdicts` carry
    the pass/fail decisions, each computed by exact integer arithmetic.
    """

    counts: Dict[str, int] = field(default_factory=dict)
    ratios: Dict[str, Optional[float]] = field(default_factory=dict)
    verdicts: Dict[str, object] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)

