"""The Greedy Progressive KD-Tree (Section III-C) — cost-model-driven PKD.

The fixed ``delta`` of the Progressive KD-Tree trades overhead against
convergence speed.  The greedy variant removes the trade-off: for each
query it estimates the *net* execution time ``t'_i`` with the cost model,
then sets the indexing budget to ``t_total - t'_i`` so that every query's
*gross* time stays constant at ``t_total = t_scan + t_budget(delta_0)``
until the index converges.  Because the estimate is conservative, a query
may finish under budget; a *reactive phase* then tops up the indexing
until the budget is consumed.

Time here is *model time*: work counters priced by the machine profile
(:meth:`CostModel.seconds_of`).  That makes the greedy invariant — gross
model cost constant per query — exact and testable; wall-clock follows it
up to interpreter noise.  It also makes the greedy controller oblivious
to *how* its budget is spent physically: with parallel workers
configured (:mod:`repro.parallel`) the inherited refinement step fans
the same row budget out across disjoint pieces and the scans run as
morsels, while every budget decision here stays driven by the same
deterministic model-time ledger.

Interactivity threshold (paper Section III-C): with a threshold ``tau``,

* if a full scan fits under ``tau``: ``t_total = tau`` (delta/x ignored);
* else with a penalty budget ``delta`` (GPFP): start at
  ``t_total = t_scan + t_budget(delta)`` until the per-query scan cost
  drops under ``tau``, then switch to ``t_total = tau``;
* else with a query limit ``x`` (GPFQ): spread the indexing work needed to
  push scans under ``tau`` evenly over the first ``x`` queries, then
  proceed as above.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import InvalidParameterError
from .cost_model import CostModel
from .index_base import IndexDebugState
from .metrics import PhaseTimer, QueryStats
from .progressive_kdtree import CONVERGED, CREATION, REFINEMENT, ProgressiveKDTree
from .query import RangeQuery
from .table import Table

__all__ = ["GreedyProgressiveKDTree"]

#: Stop the reactive phase once the remaining headroom is below this
#: fraction of t_total (avoids unbounded tiny top-ups).
REACTIVE_SLACK = 0.01


class GreedyProgressiveKDTree(ProgressiveKDTree):
    """Greedy Progressive KD-Tree (GPKD).

    Parameters
    ----------
    table, delta, size_threshold, tau, cost_model:
        As for :class:`ProgressiveKDTree`; ``delta`` only determines the
        first query's budget ("the first query uses the user-provided
        delta"), after which the cost model takes over.
    query_limit:
        Optional ``x``: with ``tau`` set and a full scan above ``tau``,
        distribute the indexing needed to get under ``tau`` over the first
        ``x`` queries (the paper's GPFQ mode).  Mutually exclusive with
        relying on ``delta`` for that situation (GPFP mode).
    use_histograms:
        Build per-column equi-width histograms at load time and use them
        to estimate candidate survival per predicate instead of the
        conservative half-per-column default (extension; see
        :mod:`repro.core.histogram`).
    """

    name = "GPKD"

    def __init__(
        self,
        table: Table,
        delta: float = 0.2,
        size_threshold: int = 1024,
        tau: Optional[float] = None,
        query_limit: Optional[int] = None,
        cost_model: Optional[CostModel] = None,
        use_histograms: bool = False,
    ) -> None:
        super().__init__(
            table,
            delta=delta,
            size_threshold=size_threshold,
            tau=tau,
            cost_model=cost_model,
        )
        if query_limit is not None and query_limit < 1:
            raise InvalidParameterError(
                f"query_limit must be >= 1, got {query_limit}"
            )
        self.query_limit = query_limit
        # Fused converged lookup: (query, matches, visited) carried from
        # the pricing descent to the answering scan.
        self._fused_lookup = None
        self._t_total: Optional[float] = None
        self._fixed_budget_seconds: Optional[float] = None  # GPFQ spreading
        self._under_tau = False
        self._histograms = None
        if use_histograms:
            from .histogram import TableHistograms

            self._histograms = TableHistograms(table)

    # ----------------------------------------------------------------- targets

    def _scan_d_factor(self) -> float:
        return 1.0 + 0.5 * (self.n_dims - 1)

    def _establish_t_total(self) -> None:
        """Fix the gross per-query target on the first query."""
        model = self.cost_model
        scan_seconds = model.full_scan_seconds()
        if self.tau is not None and scan_seconds <= self.tau:
            self._t_total = self.tau
            self._under_tau = True
            return
        budget = model.creation_indexing_seconds(self.delta)
        self._t_total = scan_seconds + budget
        if self.tau is not None and self.query_limit is not None:
            # GPFQ: total indexing needed = full creation plus enough whole
            # refinement levels that the largest piece scans under tau,
            # spread evenly (in model seconds) over the first x queries.
            target_rows = max(
                self.size_threshold,
                int(self.tau / (model.profile.seq_read * self._scan_d_factor())),
            )
            levels = max(0, math.ceil(math.log2(max(2, self.n_rows) / target_rows)))
            total_seconds = model.creation_indexing_seconds(
                1.0
            ) + levels * model.refinement_swap_seconds(1.0)
            self._fixed_budget_seconds = total_seconds / self.query_limit

    def _maybe_switch_to_tau(self) -> None:
        """GPFP/GPFQ: once scans fit under tau, the target becomes tau.

        In GPFQ mode the switch is additionally held until the user's
        ``x`` queries have run: the work was deliberately spread over
        exactly that many queries (Fig. 7: "this first drop happens after
        ten queries, as requested by the user").
        """
        if self._fixed_budget_seconds is not None and (
            self.queries_executed + 1 < self.query_limit
        ):
            return
        if (
            self.tau is not None
            and not self._under_tau
            and self._estimated_scan_seconds() < self.tau
        ):
            self._t_total = self.tau
            self._under_tau = True
            self._fixed_budget_seconds = None

    # ---------------------------------------------------------------- estimates

    def _net_scan_elements(self, query: RangeQuery, touched: int) -> int:
        """Expected element touches to candidate-scan ``touched`` rows.

        With histograms: the estimated candidate survival per predicate,
        padded 20% to stay an over-estimate (the reactive phase repairs
        under-spending; over-spending cannot be taken back).  Without:
        the conservative half-per-column default.
        """
        if self._histograms is not None:
            return int(
                1.2 * self._histograms.estimate_candidate_elements(query, touched)
            )
        return int(touched * self._scan_d_factor())

    def _estimate_net_seconds(self, query: RangeQuery, stats: QueryStats) -> float:
        """Conservative model estimate of this query's non-indexing cost."""
        model = self.cost_model
        if self.phase == CREATION:
            touched = self.n_rows - self._rows_copied
            if self._pivot0 is not None:
                if query.lows[0] < self._pivot0:
                    touched += self._top_write
                if query.highs[0] > self._pivot0:
                    touched += self.n_rows - 1 - self._bottom_write
            alpha = touched / self.n_rows
            return model.creation_lookup_seconds(alpha) + model.scan_seconds(
                self._net_scan_elements(query, touched)
            )
        if self._tree is None:
            return model.full_scan_seconds()
        nodes_before = stats.lookup_nodes
        if self.phase == CONVERGED:
            # Fused pricing+answering descent: once the tree is frozen
            # the answering search visits exactly the nodes the pricing
            # probe would (the batch prelude already banks on this), so
            # one descent serves both — _refined_scan reuses the matches
            # and charges the answering search's visits itself, keeping
            # every counter identical to the probe+search sequence.
            matches = self._tree.search(query, stats)
            touched = sum(match.piece.size for match in matches)
            visited = stats.lookup_nodes - nodes_before
            self._fused_lookup = (query, matches, visited)
        else:
            # Pricing-only descent: same visits, no match construction.
            touched = self._tree.arena.probe(query, stats)
            visited = stats.lookup_nodes - nodes_before
        # The answering search after refinement re-pays roughly the same
        # node visits, so count them twice to stay conservative.
        return 2.0 * visited * model.profile.random_access + model.scan_seconds(
            self._net_scan_elements(query, touched)
        )

    def _budget_rows_for(self, headroom_seconds: float) -> int:
        if headroom_seconds <= 0.0:
            return 0
        if self.phase == CREATION:
            return self.cost_model.rows_for_creation_budget(headroom_seconds)
        return self.cost_model.rows_for_refinement_budget(headroom_seconds)

    # -------------------------------------------------------------------- query

    def _spend(self, budget_rows: int, query: RangeQuery, stats: QueryStats) -> None:
        """Run one indexing slice of ``budget_rows`` in the current phase."""
        if budget_rows <= 0 or self.phase == CONVERGED:
            return
        if self.phase == CREATION:
            copied = self._creation_step(budget_rows, stats)
            leftover = budget_rows - copied
            if leftover > 0 and self.phase == REFINEMENT:
                # Same time budget, dearer row visits during refinement.
                leftover = self.cost_model.rows_for_refinement_budget(
                    leftover * self.cost_model.creation_row_seconds()
                )
                if leftover > 0:
                    self._refine_step(leftover, query, stats)
        elif self.phase == REFINEMENT:
            self._refine_step(budget_rows, query, stats)

    def _execute(self, query: RangeQuery, stats: QueryStats) -> np.ndarray:
        self._ensure_initialized(stats)
        if self._t_total is None:
            self._establish_t_total()
            if self._fixed_budget_seconds is not None:
                budget_rows = self._budget_rows_for(self._fixed_budget_seconds)
            elif self._under_tau:
                # tau situation (1): the user delta is ignored; derive the
                # first budget from the headroom under tau directly.
                net = self._estimate_net_seconds(query, stats)
                budget_rows = self._budget_rows_for(self._t_total - net)
            else:
                budget_rows = max(1, int(round(self.delta * self.n_rows)))
        else:
            self._maybe_switch_to_tau()
            if self._fixed_budget_seconds is not None:
                budget_rows = self._budget_rows_for(self._fixed_budget_seconds)
            else:
                net = self._estimate_net_seconds(query, stats)
                budget_rows = self._budget_rows_for(self._t_total - net)
        stats.delta_used = budget_rows / self.n_rows
        with PhaseTimer(stats, "adaptation"):
            self._spend(budget_rows, query, stats)
        if self.phase == CREATION:
            with PhaseTimer(stats, "scan"):
                answer = self._creation_scan(query, stats)
        else:
            with PhaseTimer(stats, "scan"):
                answer = self._refined_scan(query, stats)
        # Reactive phase: the estimate was conservative; top the budget up
        # until the gross model cost reaches t_total.
        if self.phase != CONVERGED and self._fixed_budget_seconds is None:
            with PhaseTimer(stats, "adaptation"):
                self._reactive(query, stats)
        stats.delta_used = None if self.n_rows == 0 else stats.indexing_work / (
            (self.n_dims + 1) * self.n_rows
        )
        return answer

    def _refined_scan(self, query: RangeQuery, stats: QueryStats) -> np.ndarray:
        fused = self._fused_lookup
        if fused is None or fused[0] is not query:
            self._fused_lookup = None
            return super()._refined_scan(query, stats)
        # Converged fused path: the pricing descent already built the
        # matches.  Charge the answering search's node visits here so
        # _record_scan_cost sees the same scanned/visited deltas as the
        # separate-descent sequence.
        self._fused_lookup = None
        _, matches, visited = fused
        scanned_before = stats.scanned
        nodes_before = stats.lookup_nodes
        stats.lookup_nodes += visited
        from ..parallel import executor as parallel_executor

        if parallel_executor.batch_scan_serial():
            # Guaranteed-serial config: same per-piece loop the executor
            # would run, minus the fan-out bookkeeping layers.
            index_table = self._index
            parts = [
                index_table.scan_piece(match, query, stats)
                for match in matches
            ]
        else:
            parts = self._index.scan_pieces(matches, query, stats)
        self._record_scan_cost(stats, scanned_before, nodes_before)
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(parts)

    # -------------------------------------------------------------- batching

    def _supports_batch(self) -> bool:
        return super()._supports_batch() and self._t_total is not None

    def _batch_prelude(
        self, query, stats, matches, visited: int, touched=None
    ) -> None:
        # Mirror the converged sequential control flow exactly: the
        # estimate's probe descent charges lookup_nodes (unless a GPFQ
        # fixed budget skips the estimate), the budget prices against
        # t_total, and the answering descent charges once more.
        self._maybe_switch_to_tau()
        if self._fixed_budget_seconds is not None:
            budget_rows = self._budget_rows_for(self._fixed_budget_seconds)
        else:
            model = self.cost_model
            stats.lookup_nodes += visited
            if touched is None:
                touched = 0
                for match in matches:
                    touched += match.piece.size
            net = (
                2.0 * visited * model.profile.random_access
                + model.scan_seconds(self._net_scan_elements(query, touched))
            )
            budget_rows = self._budget_rows_for(self._t_total - net)
        stats.delta_used = budget_rows / self.n_rows
        stats.lookup_nodes += visited

    def _batch_prelude_many(self, queries, stats_list, visited, touched):
        # The scalar prelude is pure profile arithmetic whenever no
        # GPFQ fixed budget is live, no histograms refine the scan
        # estimate, and tau (if any) has already been adopted — then
        # _maybe_switch_to_tau is a guaranteed no-op and the whole
        # batch prices in five vector expressions that replay the
        # scalar float operations element by element.
        if (
            self._fixed_budget_seconds is not None
            or self._histograms is not None
            or (self.tau is not None and not self._under_tau)
        ):
            super()._batch_prelude_many(queries, stats_list, visited, touched)
            return
        model = self.cost_model
        profile = model.profile
        elements = (touched * self._scan_d_factor()).astype(np.int64)
        net = (
            2.0 * visited * profile.random_access
            + elements * profile.seq_read
        )
        headroom = self._t_total - net
        budget_rows = (
            headroom / model.refinement_row_seconds() + 1e-6
        ).astype(np.int64)
        np.minimum(budget_rows, self.n_rows, out=budget_rows)
        budget_rows[headroom <= 0.0] = 0
        delta_used = budget_rows / self.n_rows
        visits = visited.tolist()
        delta_list = delta_used.tolist()
        for position, stats in enumerate(stats_list):
            stats.delta_used = delta_list[position]
            # The scalar prelude charges the descent twice (estimate
            # probe + answering lookup).
            stats.lookup_nodes += 2 * visits[position]

    def _batch_postlude(self, query, stats, visited: int) -> None:
        self._record_scan_cost(stats, 0, stats.lookup_nodes - visited)
        stats.delta_used = None if self.n_rows == 0 else stats.indexing_work / (
            (self.n_dims + 1) * self.n_rows
        )

    def _batch_postlude_many(self, queries, stats_list, visited):
        # The PKD tau recording plus the sequential epilogue's
        # delta_used recomputation, inlined over the batch.
        profile = self.cost_model.profile
        seq_read = profile.seq_read
        random_access = profile.random_access
        n_rows = self.n_rows
        denominator = (self.n_dims + 1) * n_rows
        visits = visited.tolist()
        last = self._last_scan_seconds
        for position, stats in enumerate(stats_list):
            last = (
                stats.scanned * seq_read + visits[position] * random_access
            )
            stats.delta_used = (
                None
                if n_rows == 0
                else (stats.copied + stats.swapped) / denominator
            )
        self._last_scan_seconds = last

    def debug_state(self) -> IndexDebugState:
        """PKD state plus the greedy controller's target bookkeeping."""
        state = super().debug_state()
        state.extras["t_total"] = self._t_total
        state.extras["under_tau"] = self._under_tau
        state.extras["fixed_budget_seconds"] = self._fixed_budget_seconds
        return state

    def _reactive(self, query: RangeQuery, stats: QueryStats) -> None:
        model = self.cost_model
        slack = REACTIVE_SLACK * self._t_total
        for _ in range(64):  # hard cap; each round makes forward progress
            if self.phase == CONVERGED:
                return
            headroom = self._t_total - model.seconds_of(stats)
            if headroom <= slack:
                return
            rows = self._budget_rows_for(headroom)
            if rows <= 0:
                return
            self._spend(rows, query, stats)
