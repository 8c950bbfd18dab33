"""Materialized correlation summaries (the lake's precomputed views).

When the sliding-window correlator evicts its oldest block, the block's
contribution to the window aggregate -- the sum of every cached
lag-product vector involving it -- is about to be subtracted and lost.
The engine instead hands that row (plus the block's marginal mass/energy
statistics) to the lake as a :class:`BlockSummary`, keyed by the service
class and edge it belongs to.

Folding summaries answers drift questions over arbitrary past spans by
pure vector addition: ``sum(lag_products)`` re-creates the span's raw
lag-product aggregate and the folded totals/energies normalize it,
skipping the correlation kernels entirely.  The fold is deterministic
(summaries are ordered by block start) but an *approximation* of a
from-scratch correlation over the span: block pairs straddling the span
boundary are attributed to their older block, and the boundary mass
corrections of :func:`repro.core.correlation._normalize` are replaced by
the whole-span masses -- an ``O(max_lag / span)`` relative effect, which
is why summary folds are meant for spans much longer than ``T_u`` (the
week-vs-Monday questions), not single-window forensics.

Arrays are serialized as base64 of their little-endian bytes, so a
summary round-trips bit-exactly through JSON.  Rows written by older
versions may also carry a ``spectrum``/``spectrum_size`` pair; readers
ignore it.
"""

from __future__ import annotations

import base64
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from repro.core.correlation import CorrelationSeries, fold_correlation
from repro.errors import CorrelationError, TraceError


def _encode_array(values: np.ndarray, dtype: str) -> str:
    return base64.b64encode(
        np.ascontiguousarray(values, dtype=dtype).tobytes()
    ).decode("ascii")


def _decode_array(text: str, dtype: str) -> np.ndarray:
    try:
        raw = base64.b64decode(text.encode("ascii"), validate=True)
    except (ValueError, UnicodeEncodeError) as exc:
        raise TraceError(f"lake summary: bad base64 payload: {exc}") from exc
    itemsize = np.dtype(dtype).itemsize
    if len(raw) % itemsize:
        raise TraceError(
            f"lake summary: payload length {len(raw)} not a multiple of {itemsize}"
        )
    return np.frombuffer(raw, dtype=dtype).copy()


@dataclass(frozen=True)
class BlockSummary:
    """One evicted block's materialized contribution for one (class, edge).

    ``lag_products`` is the block's summed pair-product row
    (``None`` for a quiet block: identically zero, but its length and
    zero masses still count toward the fold's normalization).
    """

    client: str
    root: str
    src: str
    dst: str
    block_start: int  # absolute quantum index
    block_length: int  # quanta
    quantum: float
    x_total: float
    x_energy: float
    y_total: float
    y_energy: float
    lag_products: Optional[np.ndarray] = None

    @property
    def t_min(self) -> float:
        return self.block_start * self.quantum

    @property
    def t_max(self) -> float:
        return (self.block_start + self.block_length) * self.quantum

    @property
    def quiet(self) -> bool:
        return self.lag_products is None

    def to_dict(self) -> dict:
        doc = {
            "client": self.client,
            "root": self.root,
            "src": self.src,
            "dst": self.dst,
            "block_start": self.block_start,
            "block_length": self.block_length,
            "quantum": self.quantum,
            "x_total": self.x_total,
            "x_energy": self.x_energy,
            "y_total": self.y_total,
            "y_energy": self.y_energy,
        }
        if self.lag_products is not None:
            doc["lag_products"] = _encode_array(self.lag_products, "<f8")
        return doc

    @classmethod
    def from_dict(cls, data: dict) -> "BlockSummary":
        try:
            summary = cls(
                client=str(data["client"]),
                root=str(data["root"]),
                src=str(data["src"]),
                dst=str(data["dst"]),
                block_start=int(data["block_start"]),
                block_length=int(data["block_length"]),
                quantum=float(data["quantum"]),
                x_total=float(data["x_total"]),
                x_energy=float(data["x_energy"]),
                y_total=float(data["y_total"]),
                y_energy=float(data["y_energy"]),
                lag_products=(
                    _decode_array(data["lag_products"], "<f8")
                    if "lag_products" in data
                    else None
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"lake summary: malformed row: {exc}") from exc
        if summary.block_length < 1 or summary.quantum <= 0:
            raise TraceError("lake summary: bad block geometry")
        return summary


def fold_summaries(
    summaries: Iterable[BlockSummary],
    max_lag: Optional[int] = None,
) -> CorrelationSeries:
    """Fold many block summaries into one normalized correlation series.

    All summaries must share one quantum; rows are summed, masses and
    energies accumulate, and the span length is the total block length
    (quiet summaries contribute length but zero mass -- dropping them
    would silently inflate the span's mean rate).  See the module
    docstring for the approximation semantics versus a from-scratch
    correlation over the same span.
    """
    rows = sorted(summaries, key=lambda s: (s.block_start, s.src, s.dst))
    if not rows:
        raise CorrelationError("cannot fold an empty summary set")
    quantum = rows[0].quantum
    lag_sum: Optional[np.ndarray] = None
    n = 0
    x_total = x_energy = y_total = y_energy = 0.0
    for row in rows:
        if row.quantum != quantum:
            raise CorrelationError(
                f"summary quantum mismatch: {row.quantum} vs {quantum}"
            )
        n += row.block_length
        x_total += row.x_total
        x_energy += row.x_energy
        y_total += row.y_total
        y_energy += row.y_energy
        if row.lag_products is None:
            continue
        if lag_sum is None:
            lag_sum = row.lag_products.astype(np.float64, copy=True)
        elif row.lag_products.size != lag_sum.size:
            raise CorrelationError(
                f"summary lag-row length mismatch: {row.lag_products.size} "
                f"vs {lag_sum.size}"
            )
        else:
            lag_sum += row.lag_products
    if lag_sum is None:
        lag_sum = np.zeros((max_lag or 0) + 1, dtype=np.float64)
    if max_lag is not None:
        lag_sum = lag_sum[: max_lag + 1]
    return fold_correlation(
        lag_sum, n, x_total, x_energy, y_total, y_energy, quantum
    )
