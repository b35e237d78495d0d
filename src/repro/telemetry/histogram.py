"""Log-bucketed latency histograms (the HDR-histogram idea, simplified).

A :class:`LogHistogram` records latency samples into geometrically spaced
buckets: ``buckets_per_decade`` buckets per factor-of-10 of value, so the
relative width of every bucket -- and therefore the worst-case relative
error of any reported percentile -- is ``10**(1/buckets_per_decade) - 1``
(~2.6 % at the default 90/decade).  Memory is bounded by the value range
actually observed, not the sample count: a million samples spanning six
decades costs at most ``6 * 90`` integer cells.

Percentiles are extracted by an integer-rank walk over the sorted bucket
indices, which makes them a pure function of the recorded multiset --
deterministic across platforms and process boundaries (the sweep
engine's byte-identity contract).  Exact ``min``/``max`` are
tracked on the side and clamp the bucket representatives, so the extreme
percentiles (p0, p100) are exact.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

#: default resolution: ~2.6 % worst-case relative error per percentile.
BUCKETS_PER_DECADE = 90

#: smallest distinguishable latency (1 ns in our microsecond unit);
#: values at or below it share bucket 0.
MIN_TRACKABLE_US = 1e-3


class LogHistogram:
    """Constant-memory latency histogram with deterministic percentiles."""

    __slots__ = ("buckets_per_decade", "_scale", "counts", "count",
                 "min", "max", "sum")

    def __init__(self, buckets_per_decade: int = BUCKETS_PER_DECADE):
        if buckets_per_decade < 1:
            raise ValueError("buckets_per_decade must be >= 1")
        self.buckets_per_decade = buckets_per_decade
        self._scale = float(buckets_per_decade)
        #: sparse bucket index -> sample count.
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.min = math.inf
        self.max = -math.inf
        self.sum = 0.0

    # -- recording -------------------------------------------------------

    def _index(self, value: float) -> int:
        if value <= MIN_TRACKABLE_US:
            return 0
        return 1 + int(math.log10(value / MIN_TRACKABLE_US) * self._scale)

    def record(self, value: float, count: int = 1) -> None:
        value = float(value)
        idx = self._index(value)
        self.counts[idx] = self.counts.get(idx, 0) + count
        self.count += count
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.sum += value * count

    # -- reading ---------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def _bucket_upper(self, idx: int) -> float:
        """Upper edge of bucket ``idx`` (its reported representative)."""
        if idx <= 0:
            return MIN_TRACKABLE_US
        return MIN_TRACKABLE_US * 10.0 ** (idx / self._scale)

    def percentile(self, q: float) -> float:
        return self.percentiles((q,))[0]

    def percentiles(self, qs: Sequence[float]) -> List[float]:
        """Values at percentiles ``qs`` (each in [0, 100]), one bucket walk.

        The rank of percentile ``q`` over ``n`` samples is
        ``ceil(q/100 * n)`` clamped to [1, n]; the reported value is the
        representative of the bucket holding that rank, clamped into the
        exact observed [min, max].
        """
        if self.count == 0:
            return [0.0 for _ in qs]
        order = sorted(range(len(qs)), key=lambda i: qs[i])
        out = [0.0] * len(qs)
        items = sorted(self.counts.items())
        pos = 0
        cumulative = items[0][1]
        for i in order:
            q = qs[i]
            if not 0.0 <= q <= 100.0:
                raise ValueError(f"percentile {q!r} outside [0, 100]")
            rank = min(self.count, max(1, math.ceil(q / 100.0 * self.count)))
            if rank == 1:
                # The lowest rank is the observed minimum, tracked exactly.
                out[i] = self.min
                continue
            while cumulative < rank:
                pos += 1
                cumulative += items[pos][1]
            value = self._bucket_upper(items[pos][0])
            out[i] = min(self.max, max(self.min, value))
        return out

    # -- serialization ---------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        return {
            "buckets_per_decade": self.buckets_per_decade,
            "count": self.count,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "sum": self.sum,
            "buckets": [[idx, n] for idx, n in sorted(self.counts.items())],
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "LogHistogram":
        hist = cls(buckets_per_decade=int(data["buckets_per_decade"]))  # type: ignore[arg-type]
        buckets: Iterable[Tuple[int, int]] = data["buckets"]  # type: ignore[assignment]
        hist.counts = {int(idx): int(n) for idx, n in buckets}
        hist.count = int(data["count"])  # type: ignore[arg-type]
        if hist.count:
            hist.min = float(data["min"])  # type: ignore[arg-type]
            hist.max = float(data["max"])  # type: ignore[arg-type]
        hist.sum = float(data["sum"])  # type: ignore[arg-type]
        return hist
