"""Vectorized batch kernel for the response-time fixed points (numpy).

This module is the solver behind
:class:`~repro.analysis.response_time.CanBusAnalysis`.  It reads one
bus-wide interference table (an ``(n, 4)`` float64 array with one
``(transmission_time, period, jitter, min_distance)`` row per message in
K-Matrix order) and, per message kernel, the int64 array ``hp_rows`` of its
higher-priority rows.  Own parameters are gathered as ``table[own_rows]``
and interference rows as ``table[concat(hp_rows)]`` with per-message
offsets, and then the busy-period and queuing-delay fixed points of *many*
messages run in lockstep:

* every higher-priority activation count of every candidate window is
  evaluated as one array operation over the row table (instead of one
  Python-level ``ceil`` per message per iteration).  The count is
  :func:`_eta_plus_vec`, the one vector copy of the standard
  ``eta_plus``: the interference rows, the own-instance counts and the
  what-if session's warm-seed re-verification
  (:func:`repro.service.session._unaffected_seeds`) all evaluate it;
* the ~2 warm-start right-hand-side evaluations per message of a what-if
  query are batched *across* messages, so re-converging a whole bus from
  warm seeds costs a couple of numpy passes;
* messages converge (or diverge past the horizon) individually and drop out
  of the active set, so the lockstep sweep does no row work for settled
  messages.

Bit-identity
------------
Results must stay bit-identical to :mod:`repro.analysis.reference`, the
executable spec.  Three rules make that hold:

* every element-wise operation replicates the scalar ``eta_plus``
  arithmetic of :class:`~repro.events.model.EventModel` IEEE operation for
  IEEE operation on float64 (``np.rint`` is round-half-even,
  exactly like Python's ``round``; the snap tolerances are the same
  expressions; activation counts are integer-valued doubles well below
  2**53, so products and comparisons are exact);
* rows whose event model overrides ``eta_plus`` (looked up by bus row,
  for interference rows and a message's own row alike) are evaluated one
  at a time as ``model.eta_plus(dt) * c``, the reference expression itself;
* the per-message interference *sum* runs left-to-right over its
  ``hp_rows``, in the same order as the reference's ``total += ...``
  loop: each message's terms are one row of a zero-padded matrix whose
  row-wise ``np.cumsum`` (a strict left-to-right accumulate) ends in the
  sum.  numpy's pairwise ``np.sum`` would regroup the additions, and the
  builtin ``sum`` compensates float sums since Python 3.12; both change
  low-order bits, so neither is used.

The error-model overhead is vectorized for the standard
:class:`~repro.errors.models.SporadicErrorModel` and
:class:`~repro.errors.models.BurstErrorModel` parameter shapes; any other
model is evaluated per message through its own ``overhead`` method on Python
floats, which is the reference arithmetic by construction.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.errors.models import BurstErrorModel, SporadicErrorModel
from repro.events.model import _EPSILON

_MAX_ITERATIONS = 100_000


def _segment_indices(starts: "np.ndarray", counts: "np.ndarray",
                     ) -> "np.ndarray":
    """Row indices of the concatenation of ``[start, start+count)`` ranges."""
    keep = counts > 0
    starts = starts[keep]
    counts = counts[keep]
    if starts.size == 0:
        return np.empty(0, dtype=np.int64)
    total = int(counts.sum())
    idx = np.ones(total, dtype=np.int64)
    idx[0] = starts[0]
    if starts.size > 1:
        jumps = np.cumsum(counts[:-1])
        idx[jumps] = starts[1:] - (starts[:-1] + counts[:-1] - 1)
    return np.cumsum(idx)


def _segment_layout(counts: "np.ndarray",
                    ) -> tuple[tuple[int, int], "np.ndarray"]:
    """Scatter layout of :func:`_segment_sums` for segment sizes ``counts``.

    Segment ``i`` fills row ``i`` of a ``(len(counts), max(counts))``
    matrix from the left; the second item maps each concatenated value to
    its flat position in that matrix.  It depends on the counts only, so
    a solver computes it once per active set, not once per iteration.
    """
    width = int(counts.max()) if counts.size else 0
    starts = np.cumsum(counts) - counts
    shift = np.arange(counts.size, dtype=np.int64) * width - starts
    flat = np.arange(int(counts.sum())) + np.repeat(shift, counts)
    return (counts.size, width), flat


def _segment_sums(products: "np.ndarray",
                  layout: tuple[tuple[int, int], "np.ndarray"],
                  ) -> "np.ndarray":
    """Left-to-right per-segment sums (the reference accumulation order).

    ``np.cumsum`` along a row adds strictly left to right, and the zero
    padding after a segment's last term adds ``+0.0`` to a sum of
    non-negative terms, which is exact -- so the last column equals the
    reference's ``total += term`` loop bit for bit.
    """
    shape, flat = layout
    if not shape[1]:
        return np.zeros(shape[0], dtype=np.float64)
    padded = np.zeros(shape, dtype=np.float64)
    padded.reshape(-1)[flat] = products
    return np.cumsum(padded, axis=1)[:, -1]


def _ceil_div_vec(numerator: "np.ndarray", denominator) -> "np.ndarray":
    """Vector replica of :func:`repro.events.model._ceil_div`."""
    value = numerator / denominator
    nearest = np.rint(value)
    snap = np.abs(value - nearest) <= _EPSILON * np.maximum(
        np.abs(nearest), 1.0)
    return np.where(snap, nearest, np.ceil(value))


def _eta_plus_vec(dt: "np.ndarray", period, jitter, min_distance,
                  ) -> "np.ndarray":
    """Vector replica of the standard :meth:`EventModel.eta_plus
    <repro.events.model.EventModel.eta_plus>`, as integer-valued doubles.

    The one copy of the activation count: the solver's interference rows,
    its own-instance counts and the what-if session's seed
    re-verification all evaluate it here.  Arguments broadcast.
    """
    counts = _ceil_div_vec(dt + jitter, period)
    has_d = min_distance > 0.0
    if has_d.any():
        capped = _ceil_div_vec(dt, np.where(has_d, min_distance, 1.0)) + 1.0
        counts = np.where(has_d & (capped < counts), capped, counts)
    if (dt <= 0.0).any():
        counts = np.where(dt <= 0.0, 0.0, counts)
    return counts


def _arrivals_vec(t: "np.ndarray", period: float) -> "np.ndarray":
    """Vector replica of :func:`repro.errors.models._count_arrivals`."""
    value = t / period
    nearest = np.rint(value)
    value = np.where(np.abs(value - nearest) < 1e-9, nearest, value)
    counts = 1.0 + np.floor(value)
    return np.where(t <= 0.0, 0.0, counts)


class BatchSolver:
    """Lockstep fixed-point solver over a set of message kernels.

    ``table`` is the bus-wide ``(n, 4)`` interference table the kernels'
    ``row`` and ``hp_rows`` index into; ``custom`` maps the bus rows whose
    event model overrides ``eta_plus`` to that model, which is evaluated
    per iteration wherever the row occurs (own row or interference row).

    ``error_model`` is ``None`` for an error-free bus; otherwise overheads
    are evaluated vectorized (standard models) or per message (exotic
    models), always reproducing the reference arithmetic.

    ``cancel`` is an optional :class:`repro.cancel.CancelToken` checked once
    per lockstep iteration; a fired token raises out of the sweep instead of
    running the remaining active set to the iteration cap.
    """

    def __init__(self, kernels: Sequence, table: "np.ndarray",
                 custom: Mapping[int, object], bit_time: float,
                 recovery: float, horizon: float, error_model=None,
                 cancel=None) -> None:
        self.kernels = list(kernels)
        self.custom = custom
        self.bit_time = bit_time
        self.recovery = recovery
        self.horizon = horizon
        self.error_model = error_model
        self.cancel = cancel
        # Profiling accumulator: total lockstep rounds.  A plain int add
        # paid identically whether or not a MetricsRegistry is attached
        # upstream; callers publish it once per solve (service layer),
        # never per iteration.
        self.iterations = 0
        n = len(self.kernels)
        self.own_c = np.array([k.own_c for k in self.kernels],
                              dtype=np.float64)
        self.blocking = np.array([k.blocking for k in self.kernels],
                                 dtype=np.float64)
        self.retransmit = np.array([k.retransmit for k in self.kernels],
                                   dtype=np.float64)
        row_custom = np.zeros(table.shape[0], dtype=bool)
        row_custom[list(custom)] = True
        self.own_rows = np.array([k.row for k in self.kernels],
                                 dtype=np.int64)
        self.own_flat = ~row_custom[self.own_rows]
        self.own_period = table[self.own_rows, 1]
        self.own_jitter = table[self.own_rows, 2]
        self.own_dmin = table[self.own_rows, 3]
        hp_rows = [k.hp_rows for k in self.kernels]
        self.counts = np.array([r.size for r in hp_rows], dtype=np.int64)
        self.starts = np.zeros(n, dtype=np.int64)
        if n > 1:
            np.cumsum(self.counts[:-1], out=self.starts[1:])
        # Bus row of every concatenated interference row.
        self.hp_rows = (np.concatenate(hp_rows) if hp_rows
                        else np.empty(0, dtype=np.int64))
        self.hp_c = table[self.hp_rows, 0]
        self.hp_period = table[self.hp_rows, 1]
        self.hp_jitter = table[self.hp_rows, 2]
        self.hp_dmin = table[self.hp_rows, 3]
        self.row_custom = row_custom
        self.hp_any_custom = bool(row_custom[self.hp_rows].any())

    # ------------------------------------------------------------------ #
    # Element-wise replicas of the reference arithmetic
    # ------------------------------------------------------------------ #
    def _override_products(self, products, dt, c, rows):
        """Overwrite the rows whose model overrides ``eta_plus``.

        ``rows`` holds the bus row of every product.
        """
        custom = self.custom
        for index in np.flatnonzero(self.row_custom[rows]):
            model = custom[int(rows[index])]
            products[index] = model.eta_plus(float(dt[index])) * float(
                c[index])

    def _own_eta(self, w, period, jitter, dmin, flat_mask, own_rows):
        """Own-model ``eta_plus`` per item (overriding models one by one,
        looked up by the item's bus row in ``own_rows``)."""
        activations = _eta_plus_vec(w, period, jitter, dmin)
        if not flat_mask.all():
            custom = self.custom
            for index in np.flatnonzero(~flat_mask):
                activations[index] = custom[int(own_rows[index])].eta_plus(
                    float(w[index]))
        return activations

    def _error(self, windows, retransmit):
        """Error overhead per item (vectorized standard models)."""
        model = self.error_model
        if model is None:
            return 0.0
        if type(model) is SporadicErrorModel:
            counts = _arrivals_vec(windows, model.min_interarrival)
            return counts * (self.recovery + retransmit)
        if type(model) is BurstErrorModel:
            bursts = _arrivals_vec(windows, model.min_interarrival)
            if model.intra_burst_gap > 0:
                partial = np.minimum(
                    float(model.burst_length),
                    1.0 + np.floor_divide(windows, model.intra_burst_gap))
            else:
                partial = float(model.burst_length)
            counts = (np.maximum(bursts - 1.0, 0.0) * model.burst_length
                      + partial)
            counts = np.where(windows <= 0.0, 0.0, counts)
            return counts * (self.recovery + retransmit)
        recovery = self.recovery
        return np.array(
            [model.overhead(w, recovery, r)
             for w, r in zip(windows.tolist(), retransmit.tolist())],
            dtype=np.float64)

    # ------------------------------------------------------------------ #
    # Lockstep fixed-point driver
    # ------------------------------------------------------------------ #
    def _iterate(self, kidx, w0, base, busy: bool):
        """Iterate all items to their individual fixed points.

        ``kidx`` maps items to kernels (repeatable: the queuing-delay phase
        has one item per analysed instance).  ``base`` is the additive term
        of the queuing-delay right-hand side (``None`` for the busy-period
        phase, whose RHS carries the own-instances term instead).  Returns
        ``(values, bounded)`` in item order.  Each item stops on the
        horizon, on exact float equality (the iterate reproduces itself
        once its activation counts settle) or at the iteration cap.
        """
        n_items = int(kidx.size)
        out_w = np.empty(n_items, dtype=np.float64)
        out_ok = np.zeros(n_items, dtype=bool)
        if n_items == 0:
            return out_w, out_ok
        counts = self.counts[kidx]
        seg = _segment_indices(self.starts[kidx], counts)
        c = self.hp_c[seg]
        period = self.hp_period[seg]
        jitter = self.hp_jitter[seg]
        dmin = self.hp_dmin[seg]
        rows = self.hp_rows[seg] if self.hp_any_custom else None
        own_c = self.own_c[kidx]
        retransmit = self.retransmit[kidx]
        if busy:
            blocking = self.blocking[kidx]
            own_period = self.own_period[kidx]
            own_jitter = self.own_jitter[kidx]
            own_dmin = self.own_dmin[kidx]
            own_flat = self.own_flat[kidx]
            own_rows = self.own_rows[kidx]
        position = np.arange(n_items)
        layout = _segment_layout(counts)
        w = w0
        horizon = self.horizon
        cancel = self.cancel
        iterations = 0
        while position.size:
            iterations += 1
            if cancel is not None:
                cancel.check()
            dt_rows = np.repeat(w + self.bit_time, counts)
            products = _eta_plus_vec(dt_rows, period, jitter, dmin) * c
            if rows is not None:
                self._override_products(products, dt_rows, c, rows)
            interference = _segment_sums(products, layout)
            if busy:
                own_eta = self._own_eta(w, own_period, own_jitter, own_dmin,
                                        own_flat, own_rows)
                own_instances = np.maximum(own_eta, 1.0)
                error = self._error(w, retransmit)
                new_w = blocking + own_instances * own_c + interference + error
            else:
                error = self._error(w + own_c, retransmit)
                new_w = base + interference + error
            unbounded = new_w > horizon
            converged = ~unbounded & (new_w == w)
            if iterations >= _MAX_ITERATIONS:
                out_w[position] = new_w
                out_ok[position[converged]] = True
                break
            done = unbounded | converged
            if not done.any():
                w = new_w
                continue
            out_w[position[done]] = new_w[done]
            out_ok[position[converged]] = True
            keep = ~done
            if not keep.any():
                break
            row_keep = np.repeat(keep, counts)
            w = new_w[keep]
            position = position[keep]
            counts = counts[keep]
            layout = _segment_layout(counts)
            c = c[row_keep]
            period = period[row_keep]
            jitter = jitter[row_keep]
            dmin = dmin[row_keep]
            if rows is not None:
                rows = rows[row_keep]
            own_c = own_c[keep]
            retransmit = retransmit[keep]
            if busy:
                blocking = blocking[keep]
                own_period = own_period[keep]
                own_jitter = own_jitter[keep]
                own_dmin = own_dmin[keep]
                own_flat = own_flat[keep]
                own_rows = own_rows[keep]
            else:
                base = base[keep]
        self.iterations += iterations
        return out_w, out_ok

    # ------------------------------------------------------------------ #
    # Phases
    # ------------------------------------------------------------------ #
    def busy_periods(self, seeds: Sequence[Optional[float]] | None,
                     ) -> tuple["np.ndarray", "np.ndarray"]:
        """Busy periods of all kernels, warm-started where seeded."""
        t0 = self.own_c + self.blocking
        if seeds is not None:
            seed = np.array([-math.inf if s is None else s for s in seeds],
                            dtype=np.float64)
            t0 = np.where(seed > t0, seed, t0)
        kidx = np.arange(len(self.kernels), dtype=np.int64)
        return self._iterate(kidx, t0, None, busy=True)

    def own_instances(self, busy: "np.ndarray") -> "np.ndarray":
        """Instances inside each (bounded) busy period, ``max(eta, 1)``."""
        eta = self._own_eta(busy, self.own_period, self.own_jitter,
                            self.own_dmin, self.own_flat, self.own_rows)
        return np.maximum(eta, 1.0)

    def queuing_delays(self, kidx, instance,
                       seeds: Sequence[Optional[float]] | None,
                       ) -> tuple["np.ndarray", "np.ndarray"]:
        """Queuing delays for ``(kernel, instance)`` items, warm-seeded."""
        kidx = np.asarray(kidx, dtype=np.int64)
        instance = np.asarray(instance, dtype=np.float64)
        base = self.blocking[kidx] + instance * self.own_c[kidx]
        w0 = base
        if seeds is not None:
            seed = np.array([-math.inf if s is None else s for s in seeds],
                            dtype=np.float64)
            w0 = np.where(seed > base, seed, base)
        return self._iterate(kidx, w0, base, busy=False)
