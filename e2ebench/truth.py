"""Lean ground truth for grading published service graphs.

:class:`repro.simulation.groundtruth.GroundTruth` keeps every request it
ever sees and scans all of them on every query. Over a long benchmark run
that costs memory inside the measured phase (one recorder per front end)
and seconds of grading per refresh. :class:`BlockTruth` records the same
quantities -- which edges the requests of each class traversed, and the
cumulative delay from front-end arrival to arrival at each edge -- but
folds them on the fly into per-block sums keyed by the block the request
reached its front end in. Only requests still in flight are kept.

It answers the two queries :func:`repro.scenarios.scoring.score_refresh`
makes (``traversed_edges`` and ``mean_edge_delay``) for any window whose
bounds are multiples of the block length, which is every window an engine
attached at time 0 publishes.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.simulation.nodes import REQUEST, RESPONSE, Message

EdgeKey = Tuple[str, str]


class BlockTruth:
    """Exact per-block edge counts and delay sums, per service class.

    ``front_ends`` maps each service class to its front-end node and
    ``clients`` names the client nodes; a request's state is dropped
    when its response reaches the client.
    """

    def __init__(self, fabric, front_ends: Dict[str, str], clients, block_seconds: float) -> None:
        self.block_seconds = float(block_seconds)
        self._front_ends = dict(front_ends)
        self._clients = frozenset(clients)
        # request id -> [class, block, front arrival, edges seen]
        self._inflight: Dict[int, list] = {}
        # (class, block) -> {edge: [count, delay sum]}
        self._blocks: Dict[Tuple[str, int], Dict[EdgeKey, List[float]]] = {}
        fabric.add_capture_hook(self.on_capture)

    def on_capture(self, timestamp, src, dst, observer, message) -> None:
        if observer != dst or not isinstance(message, Message):
            return  # count each delivery once, at its receiver
        state = self._inflight.get(message.request_id)
        if state is None:
            cls = message.service_class
            if message.kind != REQUEST or dst != self._front_ends.get(cls):
                return
            block = math.floor(timestamp / self.block_seconds)
            state = [cls, block, timestamp, set()]
            self._inflight[message.request_id] = state
        edge = (src, dst)
        seen = state[3]
        if edge not in seen:
            seen.add(edge)
            sums = self._blocks.setdefault((state[0], state[1]), {})
            entry = sums.get(edge)
            if entry is None:
                sums[edge] = [1, timestamp - state[2]]
            else:
                entry[0] += 1
                entry[1] += timestamp - state[2]
        if message.kind == RESPONSE and dst in self._clients:
            del self._inflight[message.request_id]

    def _window(self, service_class: str, since: float, until: float) -> Dict[EdgeKey, List[float]]:
        first = round(since / self.block_seconds)
        last = round(until / self.block_seconds)
        if not (
            math.isclose(first * self.block_seconds, since, abs_tol=1e-9)
            and math.isclose(last * self.block_seconds, until, abs_tol=1e-9)
        ):
            raise ValueError(
                f"window [{since}, {until}) is not aligned to {self.block_seconds} s blocks"
            )
        out: Dict[EdgeKey, List[float]] = {}
        for block in range(first, last):
            for edge, (count, total) in self._blocks.get((service_class, block), {}).items():
                entry = out.setdefault(edge, [0, 0.0])
                entry[0] += count
                entry[1] += total
        return out

    def traversed_edges(self, service_class: str, since: float = 0.0, until: float = math.inf) -> Dict[EdgeKey, int]:
        """Edges the class's requests traversed, with request counts, for
        requests that reached their front end in ``[since, until)``."""
        return {
            edge: int(count)
            for edge, (count, _) in self._window(service_class, since, until).items()
        }

    def mean_edge_delay(self, service_class: str, edge: EdgeKey, since: float = 0.0, until: float = math.inf) -> float:
        """Mean front-end-arrival to edge-arrival delay over the window."""
        count, total = self._window(service_class, since, until).get(edge, (0, 0.0))
        return total / count if count else float("nan")
