"""Adaptive mirror-descent engine for convex programs with functional constraints.

Each iteration classifies the current iterate: if every constraint is within
epsilon the step is *productive* and descends on the objective, otherwise it
is *non-productive* and descends on one violated constraint chosen by the
configured policy.  Step sizes adapt to the observed subgradient dual norms;
no Lipschitz constants are supplied.  Two regimes are available:

* ``Regime.LIPSCHITZ`` assumes a Lipschitz objective.  Both step kinds use
  h = eps / ||s||^2 and the run stops once sum(1 / ||s_j||^2) over all steps
  reaches 2 * theta0^2 / eps^2.  The output is the step-size-weighted average
  of the productive iterates.
* ``Regime.NONSTANDARD`` drops objective Lipschitz continuity (covering e.g.
  quadratic growth).  Productive steps use h = eps / ||grad f||, stopping
  counts productive steps with weight 1, and the output is the productive
  iterate with the smallest objective value.
"""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from functools import cache, partial
from itertools import repeat
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .geometry import (Array, EntropySimplex, EuclideanBall, EuclideanSpace, ProxGeometry,
                       as_vector)
from .problems import (EvaluationError, MaxOracle, Oracle, OracleBank,
                       ProblemInstance)

__all__ = [
    "Regime",
    "Policy",
    "StopReason",
    "StepKind",
    "RunConfig",
    "StepRecord",
    "StepHistory",
    "SolverReport",
    "run",
    "vf_gap",
    "iteration_bound",
]


class Regime(Enum):
    LIPSCHITZ = "lipschitz"
    NONSTANDARD = "nonstandard"


class Policy(Enum):
    AGGREGATE_MAX = "aggregate-max"
    FIRST_VIOLATED = "first-violated"
    MAX_VIOLATION = "max-violation"
    MIN_DUAL_NORM = "min-dual-norm"


class StopReason(Enum):
    CRITERION_MET = "criterion-met"
    ZERO_OBJECTIVE_GRADIENT = "zero-objective-gradient"
    INFEASIBLE_CONSTRAINT = "infeasible-constraint"
    ITERATION_CAP = "iteration-cap"


class StepKind(Enum):
    PRODUCTIVE = "productive"
    NONPRODUCTIVE = "nonproductive"


@dataclass(frozen=True)
class RunConfig:
    """Solver settings.

    Parameters
    ----------
    epsilon : float
        Target accuracy, positive.
    regime : Regime
        Step-size and stopping regime.
    policy : Policy
        Which violated constraint a non-productive step descends on.
    max_iterations : int
        Safety cap; reaching it is reported, not raised.
    record_history : bool
        Keep the run's steps as a :class:`StepHistory`, whose passes build
        one :class:`StepRecord` per step (including the iterate), for
        inspection only: no report field or verification check reads it.
    """

    epsilon: float
    regime: Regime = Regime.LIPSCHITZ
    policy: Policy = Policy.FIRST_VIOLATED
    max_iterations: int = 10_000_000
    record_history: bool = False

    def __post_init__(self) -> None:
        eps = float(self.epsilon)
        if not (math.isfinite(eps) and eps > 0.0 and eps * eps > 0.0):  # eps^2 divides
            raise ValueError("epsilon must be finite, positive, its square nonzero")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "regime", Regime(self.regime))
        object.__setattr__(self, "policy", Policy(self.policy))
        cap = self.max_iterations
        try:
            integral = cap == int(cap)
        except (OverflowError, ValueError):  # inf, nan
            integral = False
        if not integral or cap < 1:
            raise ValueError("max_iterations must be an integer, at least 1")
        object.__setattr__(self, "max_iterations", int(cap))


@dataclass(slots=True)
class StepRecord:
    """One solver step.

    ``constraint_index`` is 1-based and set on non-productive steps only;
    ``objective_value`` is set on productive steps only.  ``point`` is the
    iterate the step was taken from, stored only when history is recorded.
    """

    index: int
    kind: StepKind
    step_size: float
    grad_dual_norm: float
    constraint_index: int | None = None
    objective_value: float | None = None
    point: Array | None = None

    def __eq__(self, other: object) -> bool:
        # The points by value: the generated method compares them with ==,
        # which has no truth value for two distinct arrays.
        if type(other) is not StepRecord:
            return NotImplemented
        return ((self.index, self.kind, self.step_size, self.grad_dual_norm,
                 self.constraint_index, self.objective_value)
                == (other.index, other.kind, other.step_size, other.grad_dual_norm,
                    other.constraint_index, other.objective_value)
                and np.array_equal(self.point, other.point))


class _Segment(NamedTuple):
    """A batched run of non-productive steps on one constraint, one run of
    a batch: the first step's index, the shared fields, the first iterate,
    the step -q_j that each later iterate adds (a read-only row of the
    batch kernel's shared table) and the number of steps."""

    index: int
    step_size: float
    grad_dual_norm: float
    constraint_index: int
    first: Array
    step: Array
    count: int

    def records(self) -> Iterator[StepRecord]:
        """The run's records, its iterates rebuilt by the cumulative sum
        over the first iterate and ``count - 1`` steps, which adds them in
        the order the batch's own cumulative sum did, so bit for bit."""
        block = np.empty((self.count, self.first.shape[0]))
        block[0] = self.first
        block[1:] = self.step
        _cumsum_rows(block)
        # One map over the rows: a Python loop iterates ex 2 N's history
        # about a quarter slower.
        return map(StepRecord, range(self.index, self.index + self.count),
                   repeat(StepKind.NONPRODUCTIVE), repeat(self.step_size),
                   repeat(self.grad_dual_norm), repeat(self.constraint_index),
                   repeat(None), block)


def _ordinary_record(index: int, step_size: float, grad_dual_norm: float,
                     constraint_index: int | None, objective_value: float | None,
                     point: Array) -> StepRecord:
    """An ordinary step's record from its stored fields: the step is
    productive where it descended on no constraint."""
    kind = StepKind.PRODUCTIVE if constraint_index is None else StepKind.NONPRODUCTIVE
    return StepRecord(index, kind, step_size, grad_dual_norm, constraint_index,
                      objective_value, point)


class StepHistory:
    """A run's steps, read by passes: ``len``, iteration over one
    :class:`StepRecord` per step in step order, and :meth:`ordinary`.

    An ordinary step is stored as the tuple of its record's fields but the
    kind, which its constraint gives; the ``point`` is the iterate itself,
    made read-only when recorded, so writing into it raises ``ValueError``.
    A batch of non-productive steps (see :func:`run`) is stored as one
    segment per constraint run it spans, each holding the run's first
    index, step size, dual norm, constraint, first iterate, the step every
    later iterate adds and the number of steps: 2 n floats whatever the
    run's length, the step a view of a table the run shares.  Every pass
    builds fresh records, a segment's from its iterates, rebuilt once per
    pass by the batch's own cumulative sum, so bit for bit.  A record holds
    no stored state but an ordinary step's read-only point, so writing into
    one changes no later pass.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: list[tuple | _Segment] = []

    def _append(self, entry: tuple) -> None:
        entry[-1].setflags(write=False)  # the iterate, kept as recorded
        self._entries.append(entry)

    def _add_segment(self, start: int, step_size: float, grad_dual_norm: float,
                     constraint_index: int, first: Array, step: Array,
                     count: int) -> None:
        self._entries.append(_Segment(start, step_size, grad_dual_norm,
                                      constraint_index, first, step, count))

    def __len__(self) -> int:
        if not self._entries:
            return 0
        last = self._entries[-1]
        return last[0] + (1 if type(last) is tuple else last.count)

    def __iter__(self) -> Iterator[StepRecord]:
        for entry in self._entries:
            if type(entry) is tuple:
                yield _ordinary_record(*entry)
            else:
                yield from entry.records()

    def ordinary(self) -> Iterator[StepRecord]:
        """The ordinary (unbatched) steps' records, in step order, with no
        batched record built.  Productive steps are never batched where
        history is recorded, so these hold every productive step."""
        return (_ordinary_record(*entry) for entry in self._entries if type(entry) is tuple)

    def __repr__(self) -> str:
        return f"StepHistory({len(self)} steps, {len(self._entries)} entries)"


@dataclass
class SolverReport:
    """Outcome of one solver run.

    ``history`` is the run's :class:`StepHistory`, where ``record_history``
    is set: each pass over it builds one fresh :class:`StepRecord` per
    step.  ``output_point`` is the report's own array, never a record's
    point.

    ``certificate`` is min <s_k, x_k - x*> / ||s_k||_* over the productive
    iterates and an exact solution the run stops at (gap 0), inf if none,
    against the known optimum point x*; None in the Lipschitz regime or
    without a known optimum.
    """

    total_steps: int
    productive_count: int
    nonproductive_count: int
    output_point: Array
    output_objective: float
    output_max_violation: float
    stop_reason: StopReason
    a_priori_bound: int | None
    wall_time: float
    config: RunConfig
    history: StepHistory | None = None
    certificate: float | None = None

    @property
    def converged(self) -> bool:
        return self.stop_reason in (
            StopReason.CRITERION_MET,
            StopReason.ZERO_OBJECTIVE_GRADIENT,
        )


def _sources(bank: OracleBank, dual: Callable[[Array], float]):
    """A bank's scan ``x -> (values, argmax, max)`` and row source
    ``(i, x) -> (i, subgradient, dual norm)``.

    The scan is :meth:`OracleBank.scan` into one buffer per call of this
    function, so a stacked bank's values are overwritten by its next scan.
    Where the bank is stacked (``OracleBank._matrix`` set), each member is
    affine, with a constant subgradient a, so its row ``(i, a, dual norm of
    a)`` is a constant of the run, tabled once and looked up, bit for bit
    what the oracle and dual-norm calls return.  Otherwise the row calls
    the member and the dual norm.
    """
    scan = partial(bank.scan, out=np.empty(len(bank.oracles)))
    if bank._matrix is None:
        subgradient = bank.subgradient

        def row(i: int, x: Array):
            s = subgradient(i, x)
            return i, s, dual(s)

        return scan, row

    with np.errstate(over="ignore"):  # a norm that overflows reads inf
        rows = [(i, member.a, dual(member.a)) for i, member in enumerate(bank.oracles)]
    return scan, lambda i, x: rows[i]


def _make_selector(scan: Callable, row: Callable, epsilon: float, policy: Policy,
                   norms: Array | None = None) -> Callable[[Array], tuple | None]:
    """Build the per-iteration constraint choice for one policy.

    The returned callable maps an iterate to ``None`` (no constraint above
    epsilon, step is productive) or the ``row`` of the constraint the step
    descends on.  ``scan`` and ``row`` are a bank's, from ``_sources``;
    ``norms``, where given, are its tabled rows' dual norms.
    """
    if policy is Policy.FIRST_VIOLATED:

        def select(x: Array):
            vals, _, high = scan(x)
            if high <= epsilon:
                return None
            return row(int((vals > epsilon).argmax()), x)

    elif policy is Policy.MIN_DUAL_NORM and norms is not None:
        # The first violated row in one stable order of the norms, so ties
        # go to the lowest index; a non-finite norm sorts last, and any
        # violated row with one is a broken subgradient.
        order = np.argsort(norms, kind="stable")
        broken = np.flatnonzero(~np.isfinite(norms))

        def select(x: Array):
            vals, _, high = scan(x)
            if high <= epsilon:
                return None
            if broken.size and (vals[broken] > epsilon).any():
                raise EvaluationError("constraint produced a non-finite subgradient")
            return row(int(order[int((vals[order] > epsilon).argmax())]), x)

    elif policy is Policy.MIN_DUAL_NORM:

        def select(x: Array):
            vals, _, high = scan(x)
            if high <= epsilon:
                return None
            best = None
            for i in np.flatnonzero(vals > epsilon).tolist():
                candidate = row(i, x)
                if not math.isfinite(candidate[2]):
                    raise EvaluationError(
                        "constraint produced a non-finite subgradient")
                if best is None or candidate[2] < best[2]:
                    best = candidate
            return best

    else:  # aggregate-max and max-violation descend on the argmax

        def select(x: Array):
            _, i, high = scan(x)
            if high <= epsilon:
                return None
            return row(i, x)

    return select


# Float budget of one batch's (rows x max(n, M)) arrays, which bounds memory.
# Swept from 2^14 to 2^17 on the benchmark: from 2^16 on, a batch's fixed
# costs no longer show, and 2^17 costs 2 MiB more peak memory.
_BLOCK_FLOATS = 1 << 16
# The most multiply-adds of one matrix product over a block's rows.  numpy's
# OpenBLAS splits a product of 2^19 or more over threads, which cost up to
# 8 ms per product on a shared 2-CPU machine against 0.05 ms on one thread,
# so a longer block's product is taken in chunks of columns.
_PRODUCT_MACS = 1 << 18
# Below this bound on |A| @ |x| + |b|, sixteen times under the largest float,
# no summation order of a constraint value overflows.
_HUGE = 2.0 ** 1020
# The fewest rows of a one-run block that ``_AffineRuns.advance`` first
# certifies from its two end rows; shorter blocks are checked row by row.
_ENDS_MIN_ROWS = 64
# The fewest rows of a block that ``_cumsum_rows`` sums in complex pairs;
# on shorter blocks the view costs more than it saves.
_PAIR_MIN_ROWS = 32
# The entropy simplex's support scan (``_SupportScan``): the fewest entries
# of a constraint matrix that takes it, the floor of a support coordinate,
# the scans between two checks of the support, the share of its coordinates
# still at the floor below which it is rebuilt, and the share of the
# dimension above which the stacked product is taken instead.
_SUPPORT_MIN_SIZE = 100_000
_SUPPORT_FLOOR = 1e-7
_SUPPORT_CHECK = 64
_SUPPORT_SHRINK = 0.7
_SUPPORT_SHARE = 0.5


def _cumsum_rows(block: Array) -> Array:
    """The cumulative sums down a 2-D block's columns, in place: bit for bit
    ``np.cumsum(block, axis=0, out=block)``, and the block.

    Where the rows have even length, the block is C-contiguous and holds at
    least ``_PAIR_MIN_ROWS`` rows, the sums run over its view as complex
    pairs.  A complex addition adds the real parts and the imaginary parts
    apart, so every column gets the same additions in the same order, one
    row after another, while two columns' dependent additions go side by
    side.
    """
    if (block.shape[0] >= _PAIR_MIN_ROWS and not block.shape[1] % 2
            and block.flags.c_contiguous):
        pairs = block.view(np.complex128)
        np.cumsum(pairs, axis=0, out=pairs)
    else:
        np.cumsum(block, axis=0, out=block)
    return block


@cache
def _piece_predictor(count: int) -> Callable[[list, int, list, list], list[int]]:
    """The productive-step predictor over ``count`` pieces: ``(values, k,
    ends, drops) -> labels``, the pieces of up to k steps from the piece
    values, stopping before a piece with ``ends[l]`` set; a step on piece l
    subtracts ``drops[l]`` from the values.

    Straight-line code, generated once per piece count: the values are
    locals, the argmax is ``count - 1`` strict comparisons, so the lowest
    index wins ties, as ``values.index(max(values))`` picks (a NaN first
    value included), and a step is one float subtraction per piece, as a
    loop over the list would make.
    """
    names = [f"v{j}" for j in range(count)]
    lines = ["def predict(values, k, ends, drops):",
             f"    {', '.join(names)}, = values",
             "    labels = []",
             "    append = labels.append",
             "    for _ in range(k):",
             "        l, top = 0, v0"]
    lines += [f"        if {v} > top: l, top = {j}, {v}"
              for j, v in enumerate(names) if j]
    lines += ["        if ends[l]:",
              "            break",
              "        append(l)",
              f"        {', '.join(f'd{j}' for j in range(count))}, = drops[l]"]
    lines += [f"        {v} -= d{j}" for j, v in enumerate(names)]
    lines.append("    return labels")
    namespace: dict = {}
    exec("\n".join(lines), namespace)
    return namespace["predict"]


class _AffineRuns:
    """Batched steps x - q, q tabled, on an exact Euclidean space: chains of
    runs of non-productive steps, each run on one constraint, and, given a
    max of stacked affine ``pieces``, runs of productive steps on predicted
    pieces.

    Both are predicted in floats from one product ``A @ x + b``: a step on
    row j is x - q_j, q_j = h_j a_j with h_j from the row's tabled dual
    norm, and lowers row k's value by a_k . q_j.  ``_cumsum_rows`` builds
    a batch's iterates by the same subtractions as the stepwise ``x - h *
    p``, so they are bitwise its iterates.  One matrix product gives their
    constraint and piece values, one column per iterate, so every check
    reduces a column.  A row is committed only while the stepwise engine
    provably takes its step there: each comparison it makes holds with a
    margin above the rounding bound ``gamma * (|A| @ r + |b|)``, where r
    bounds |x| over the batch, so no summation order of the stepwise
    matrix-vector product decides otherwise.  A block of one run and at
    least ``_ENDS_MIN_ROWS`` rows is first offered to a cheaper check: its
    values are linear in the step up to the cumulative sum's drift, so
    the values of its first and last rows, one matrix-vector product
    each, can certify every row between (see ``advance``).  A productive
    batch's pieces are predicted by ``_piece_predictor``'s straight-line
    code, generated once per piece count, and its weighted sums are
    committed by one more ``_cumsum_rows``.  A batch's arrays hold at
    most ``_BLOCK_FLOATS`` floats, so a batch asks for at most
    ``max_rows`` rows.
    """

    def __init__(self, bank: OracleBank, config: RunConfig, row: Callable,
                 pieces: OracleBank | None = None, piece_row: Callable | None = None) -> None:
        self.first_violated = config.policy is Policy.FIRST_VIOLATED
        self.epsilon = eps = config.epsilon
        self.a = bank._matrix
        self.b = bank._offsets
        m, n = bank._matrix.shape
        # The rows ``advance`` evaluates and steps on: the constraints, then
        # the pieces; their row sources give the tabled dual norms.
        banks = [(bank, row)] if pieces is None else [(bank, row), (pieces, piece_row)]
        self.stack = np.vstack([o._matrix for o, _ in banks])
        self.offsets, self.m = np.concatenate([o._offsets for o, _ in banks]), m
        self.abs_a = np.abs(self.stack)
        # The smallest normal float covers underflow in the products.
        self.abs_b = np.abs(self.offsets) + np.finfo(float).tiny
        # Four times the bound 2 * gamma_(n+1) on two summation orders'
        # difference, which also absorbs the rounding of r and the margins.
        self.gamma = 4.0 * (n + 2) * np.finfo(float).eps
        self.u = np.finfo(float).eps / 2.0  # the unit roundoff
        self.max_rows = max(1, _BLOCK_FLOATS // max(n, self.offsets.shape[0]))
        # The columns of one matrix product over a block's rows.
        self.chunk = max(1, _PRODUCT_MACS // (n * self.offsets.shape[0]))
        # A step on row j is x - q_j, q_j = h_j a_j, as the stepwise h * grad;
        # h_j and the criterion weight 1 / ||a_j||^2 come from the tabled dual
        # norm.  A zero or non-finite norm ends a prediction before its row.
        norms = np.array([source(j, None)[2] for o, source in banks
                          for j in range(o._matrix.shape[0])])
        with np.errstate(all="ignore"):  # a zero or overflowing row: inf, NaN
            ends = ~(np.isfinite(norms) & (norms * norms > 0.0))
            self.h, self.weights = eps / (norms * norms), 1.0 / (norms * norms)
            q = np.where(ends[:, None], 0.0, self.h[:, None] * self.stack)
            # drops[j][k] = a_k . q_j, within each bank.
            drops = [(a @ qs.T).T.tolist() for a, qs in
                     ((self.stack[:m], q[:m]), (self.stack[m:], q[m:]))]
        self.ends = ends.tolist()
        self.abs_q = np.abs(q)
        # The steps -q_j that a block's cumulative sum adds; history
        # segments keep views of their rows, so it is read-only.
        self.steps = np.negative(q)
        self.steps.flags.writeable = False
        # Per constraint, filled on its first chain: see ``_table``.
        self.drops, self.piece_drops, self.tables = *drops, {}
        # A productive batch asks for twice the rows the last took, plus two;
        # after batches of under two rows, 0, 1, 3, ... steps pass idle.
        self.ask, self.idle, self.backoff, self.pieces = self.max_rows, 0, 0, pieces
        if pieces is None:
            return
        self.predict_pieces = _piece_predictor(pieces._matrix.shape[0])
        # Twin pieces take bitwise the same step: the argmax may pick either.
        c = pieces._matrix
        bits = c.view(np.uint64)
        self.same = (bits[:, None] == bits[None]).all(axis=2) & (norms[m:, None] == norms[m:])
        self.twins = not np.array_equal(self.same, np.eye(len(c), dtype=bool))

    def _table(self, i: int) -> tuple | None:
        """Constraint i's run table: how much a step lowers i, each
        constraint's drop, and the rows that can end i's run with the rate
        at which they close on it (the lower rows that rise under
        first-violated, else the rows that gain on i); None where a step on
        i ends a prediction."""
        drops = self.drops[i]
        own = drops[i]
        if self.ends[i] or not (math.isfinite(own) and own > 0.0):
            table = None
        else:
            closing = ([(j, -d) for j, d in enumerate(drops[:i])] if self.first_violated
                       else [(j, own - d) for j, d in enumerate(drops)])
            closing = [(j, rate) for j, rate in closing if rate > 0.0]
            table = own, drops, closing
        self.tables[i] = table
        return table

    def predict(self, x: Array, i: int, rows: int) -> list[list[int]]:
        """The runs of non-productive steps from x on, as [constraint, count]
        pairs, from constraint i's (which may have ended at x) on: predicted
        in floats up to ``rows`` steps, a predicted productive step, or a
        constraint that ends a prediction."""
        eps, first_violated, tables = self.epsilon, self.first_violated, self.tables
        values, chain = (self.a @ x + self.b).tolist(), []
        while rows:
            table = tables[i] if i in tables else self._table(i)
            if table is None:
                break
            own, drops, closing = table
            # In exact arithmetic the policy picks i at the first ceil(length)
            # of the points the run takes.
            vi = values[i]
            bound = eps if first_violated else vi
            length = (vi - eps) / own
            for j, rate in closing:
                t = (bound - values[j]) / rate
                if t < length:
                    length = t
            if math.isnan(length):
                break
            count = rows if length >= rows else math.ceil(length) if length > 0.0 else 0
            if count:
                if chain and chain[-1][0] == i:
                    chain[-1][1] += count
                else:
                    chain.append([i, count])
                rows -= count
                values = [v - count * d for v, d in zip(values, drops)]
            # The policy's choice where the run ends.  Only the first run,
            # which may have ended at x, can have no step.
            if first_violated:
                j = next((j for j, v in enumerate(values) if v > eps), None)
            else:
                high = max(values)
                j = values.index(high) if high > eps else None
            if j is None or not count and j == i:
                break
            i = j
        return chain

    def chain(self, x: Array, i: int, rows: int, crit_sum: float,
              target: float) -> tuple:
        """Batch up to ``rows`` non-productive steps from x, on the runs
        predicted from constraint i on, that keep ``crit_sum`` below
        ``target``, where two steps at least, or all ``rows``, are
        predicted: x and ``crit_sum`` after them, the runs taken as
        (constraint, iterates) pairs, and whether to chain again on the
        same run, which holds where every row asked was taken.  A
        prediction of fewer steps ends batching for the run too.  A chain
        of one run sums its criterion weights from one repeated weight,
        in the order the stepwise engine adds them."""
        chain = self.predict(x, i, min(rows, self.max_rows))
        predicted = sum(count for _, count in chain)
        if not predicted or predicted < min(rows, 2):
            return x, crit_sum, [], False
        if len(chain) == 1:
            labels = chain[0][0]
            crit = np.full(predicted + 1, self.weights[labels])
            crit[0] = crit_sum
        else:
            labels = np.repeat(*np.array(chain).T)
            crit = np.concatenate(([crit_sum], self.weights[labels]))
        np.cumsum(crit, out=crit)
        rows = int(np.searchsorted(crit[1:], target))
        # Rows on one run are certified against its one constraint.
        one = rows <= chain[0][1]
        block, count = self.advance(x, chain[0][0] if one else labels[:rows], rows)
        taken, start = [], 0
        for j, length in chain:
            if start == count:
                break
            length = min(length, count - start)
            taken.append((j, block[start:start + length]))
            start += length
        return block[count].copy(), float(crit[count]), taken, count == rows

    def advance(self, x: Array, labels: int | Array, rows: int) -> tuple[Array, int]:
        """The block of iterates x, x - q_(labels[0]), ..., a row per step,
        and how many leading ones (at most ``rows``) provably take their
        step: a step on constraint ``labels[k]`` below m, a productive step
        on piece ``labels[k] - m`` above; an int labels every row.

        A one-run block of at least ``_ENDS_MIN_ROWS`` rows on constraint
        i is first offered to ``_ends``, which certifies every row from the
        constraint values of the block's first and last rows alone.  Along
        the line y_k = x + k s, s = -q_i, every exact value l_j(y_k) is
        linear in k.  The block's row x_k is the cumulative sum's, which
        rounds once per addition, by at most u |x_k| per coordinate (u =
        eps_mach / 2), so |x_k - y_k| <= k u r, r the block's bound on |x|,
        and l_j(x_k) is within D_j = rows u bound_j of the line's value,
        bound_j = |a_j| . r + |b_j|.  A computed value c_j (the ends' or
        the stepwise engine's) is within a quarter of slack_j of l_j at the
        same row.  So with S_j = slack_j + D_j, any difference of two
        values, or of a value and epsilon, that clears 2 S_i + 2 S_j (2
        S_j against epsilon) at both end rows clears S_i + S_j on the line
        there, so at every row between, since it is linear in k; the
        stepwise engine's computed values at each row, every one within
        slack_j / 4 + D_j < S_j of the line, then make the same
        comparison.  The ends thus require c_i - 2 S_i > max(epsilon,
        max_(j != i) c_j + 2 S_j) under aggregate-max and max-violation,
        and c_i - 2 S_i > epsilon with c_j + 2 S_j <= epsilon for every j
        < i under first-violated, at both end rows.  The unused part of
        slack_j covers the rounding of these margins and comparisons.
        Where the ends fail, every row is checked as below, so they never
        shorten a block.  The ``_HUGE`` guards come first, so every value
        and margin is finite.  The block's rows are summed by
        ``_cumsum_rows``, as ``_Segment.records`` rebuilds them.  Nothing
        that ``predict`` computed is read here, so any labels and any x
        may be passed, predicted or not.
        """
        block = np.empty((rows + 1, x.shape[0]))
        block[0] = x
        block[1:] = self.steps[labels]
        one = not isinstance(labels, np.ndarray)
        if one:
            reach = np.abs(x) + rows * self.abs_q[labels]
        else:
            reach = np.abs(x) + np.bincount(labels, minlength=self.steps.shape[0]) @ self.abs_q
        _cumsum_rows(block)
        if not rows:
            return block, 0
        bound = self.abs_a @ reach + self.abs_b
        if not (np.maximum.reduce(reach) < _HUGE and np.maximum.reduce(bound) < _HUGE):
            return block, 0  # NaN included: the stepwise engine decides
        if one and rows >= _ENDS_MIN_ROWS and self._ends(block, labels, rows, bound):
            return block, rows
        slack = self.gamma * bound
        eps, m = self.epsilon, self.m
        # One column per row of the block: the reductions below run along
        # contiguous memory, across the rows' constraints and pieces.
        values = np.empty((self.stack.shape[0], rows))
        for start in range(0, rows, self.chunk):
            end = min(start + self.chunk, rows)
            np.matmul(self.stack, block[start:end].T, out=values[:, start:end])
        values += self.offsets[:, None]
        at_most = (eps - slack[:m])[:, None]  # a constraint provably at most eps
        if one:
            i = labels
            if self.first_violated:
                ok = values[i] > eps + slack[i]
                if i:
                    ok &= (values[:i] <= at_most[:i]).all(axis=0)
            else:
                # i is above epsilon and the argmax with the lowest index.
                low = values[i] - slack[i]
                top = values[:m]
                top += slack[:m, None]
                top[i] = eps
                ok = low > top.max(axis=0)
            return block, rows if ok.all() else int(ok.argmin())
        k = np.arange(rows)
        own, own_slack = values[labels, k], slack[labels]
        if labels[0] >= m:
            # All constraints at most eps; the piece or its twin tops the pieces.
            ok = (values[:m] <= at_most).all(axis=0)
            pieces = values[m:]
            pieces += slack[m:, None]
            # same is symmetric: column k marks the twins of the block row
            # k's piece, and without twins only the piece itself.
            if self.twins:
                pieces[self.same[:, labels - m]] = -math.inf
            else:
                pieces[labels - m, k] = -math.inf
            ok &= own - own_slack > pieces.max(axis=0)
        elif self.first_violated:
            # The label is above epsilon, the constraints before it are not:
            # it is the first that is not at most eps.
            ok = own > eps + own_slack
            ok &= (values[:m] <= at_most).argmin(axis=0) == labels
        else:
            top = values[:m]
            top += slack[:m, None]
            top[labels, k] = eps
            ok = own - own_slack > top.max(axis=0)
        return block, rows if ok.all() else int(ok.argmin())

    def _ends(self, block: Array, i: int, rows: int, bound: Array) -> bool:
        """Whether the first and last of a one-run block's ``rows`` rows
        certify every row on constraint i (see ``advance``): each end's
        values from one matrix-vector product, the last end's only where
        the first passes."""
        eps = self.epsilon
        wide = (2.0 * (self.gamma + rows * self.u)) * bound[:self.m]  # 2 S_j
        for end in (block[0], block[rows - 1]):
            values = self.a @ end
            values += self.b
            if self.first_violated:
                if not (values[i] - wide[i] > eps
                        and np.logical_and.reduce(values[:i] + wide[:i] <= eps)):
                    return False
            else:
                low = values[i] - wide[i]
                values += wide
                values[i] = eps
                if not low > np.maximum.reduce(values):
                    return False
        return True

    def produce(self, x: Array, rows: int, crit_sum: float, target: float,
                weighted: Array, weight_sum: float) -> tuple:
        """Batch up to ``rows`` productive steps from x, each on its predicted
        piece, that keep ``crit_sum`` below ``target``: their count, then x,
        ``crit_sum``, ``weighted`` and ``weight_sum`` after them."""
        if self.idle:
            self.idle -= 1
            return 0, x, crit_sum, weighted, weight_sum
        # Predict: the piece values in floats; ties go to the lowest index.
        m = self.m
        labels = self.predict_pieces((self.stack @ x + self.offsets)[m:].tolist(),
                                     min(rows, self.ask, self.max_rows),
                                     self.ends[m:], self.piece_drops)
        labels = m + np.array(labels, dtype=np.intp)  # the pieces' stack rows
        crit = np.concatenate(([crit_sum], self.weights[labels])).cumsum()
        labels = labels[:np.searchsorted(crit[1:], target)]
        rows = labels.shape[0]
        block, count = self.advance(x, labels, rows)
        self.ask = 2 * count + 2
        self.backoff = 2 * self.backoff + 1 if count < 2 else 0
        self.idle = self.backoff // 2
        # Commit: the sums add the rows' terms one by one, in stepwise order.
        h = self.h[labels[:count]]
        terms = np.empty((count + 1, x.shape[0]))
        terms[0] = weighted
        np.multiply(block[:count], h[:, None], out=terms[1:])
        weight_sum = np.concatenate(([weight_sum], h)).cumsum()
        return (count, block[count].copy(), float(crit[count]), _cumsum_rows(terms)[count],
                float(weight_sum[count]))


def _decided(v: Array, bound: float, epsilon: float, ranked: bool,
             gap: Array) -> tuple[int, float] | None:
    """The argmax and maximum of v where every policy decides on v as on
    any values within ``bound`` of it, else None: every value more than
    ``bound`` from epsilon, so the violated set is the same, and, where
    ``ranked`` and a value is above epsilon, the largest more than twice
    ``bound`` above the others, so the argmax is too.  ``gap`` is a buffer
    of v's size; NaN, inf or an infinite bound decides nothing.  Where the
    largest value is at or below epsilon, every |v_j - epsilon| rounds to
    at least epsilon - max v (rounding is monotone), so that one
    difference decides and ``gap`` is left untouched."""
    i = int(v.argmax())
    high = v.item(i)
    if not (math.isfinite(bound) and math.isfinite(high)
            and math.isfinite(v.item(v.argmin()))):
        return None
    if high <= epsilon:
        return (i, high) if epsilon - high > bound else None
    np.subtract(v, epsilon, out=gap)
    np.abs(gap, out=gap)
    if not np.minimum.reduce(gap) > bound:
        return None
    if not ranked:
        return i, high
    v[i] = -math.inf
    second = v.max()
    v[i] = high
    return (i, high) if second < high - 2.0 * bound else None


class _BallTracker:
    """Constraint values tracked in O(M) per step on an exact Euclidean ball.

    A ball step is x' = c + t (x - h p - c), so A x' + b = (1 - t)(A c + b)
    + t (A x + b - h A p).  Where p is a tabled row (a constraint row or a
    max-affine piece), ``step`` updates the values v that way, the column
    ``A p`` computed once per row, and ``scan`` hands v to the selector in
    place of the stacked product when the decision is certified: ``e``
    bounds |v - (A x + b)| in exact arithmetic at the iterate x, and the
    product's rounding is at most a quarter of ``e0`` = gamma (rn R +
    max|b|), R a bound on ||x|| over the ball and rn on the rows' norms.
    With E = e + e0, every value more than E away from epsilon and, where
    one is above it, the largest more than 2E above the others, every
    policy sees the violated set and the argmax the product would give;
    the unused part of e0 covers the rounding of these comparisons.
    Anything else, or an iterate the tracker did not step to, takes the
    product and restarts v from it.

    Rounding per step, with u = eps_mach / 2 and L = h ||p|| the step
    length: the column is off by at most gamma rn ||p|| / 4, the step and
    the projection move x by O(u (R + L)) from their exact values, and each
    update of v rounds by O(u |v|).  So e grows by L ``slope``, slope =
    (gamma + 16u) rn, by ``base`` = 16u (rn R + max|b|), and by 8u e; a
    projection scales it by t and adds (1 - t) e0 for A c + b.  Steps with
    L max(rn, 1) past ``_HUGE`` are not tracked, so no update overflows and
    every tracked iterate is finite.
    """

    def __init__(self, bank: OracleBank, ball: EuclideanBall, scan: Callable,
                 rows: list[tuple], epsilon: float) -> None:
        matrix, offsets = bank._matrix, bank._offsets
        m, n = matrix.shape
        u = np.finfo(float).eps / 2.0
        gamma = 4.0 * (n + 2) * u
        # The rows' dual norms are their l2 norms, up to the rounding gamma covers.
        norms = [norm * (1.0 + gamma) for _, _, norm in rows]
        rn = max(norms[:m])
        center = ball.center
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: not finite
            offset = ball.anchor - center
            reach = (math.sqrt(float(center @ center))
                     + max(ball.radius, math.sqrt(float(offset @ offset))))
            reach *= 1.0 + 2.0 * gamma
            top = rn * reach + float(np.abs(offsets).max())
            self.shift = matrix @ center + offsets  # A c + b
        # Below _HUGE no summation order of the product overflows.
        self.finite = top < _HUGE
        self.real, self.step_ball, self.epsilon = scan, ball.scaled_step, epsilon
        self.matrix = matrix
        self.e0 = gamma * (top + np.finfo(float).tiny)
        self.base = 16.0 * u * top
        self.grow = 1.0 + 8.0 * u
        self.slope = (gamma + 16.0 * u) * rn
        # [norm, column] per tabled row, by identity: the rows are constant
        # arrays the oracles hold for the run.  The column is computed on
        # the row's first step.  Rows whose column may overflow are left out.
        self.limit = _HUGE / max(rn, 1.0)
        self.columns = {id(p): [norm, None] for (_, p, _), norm in zip(rows, norms)
                        if norm < self.limit}
        self.values, self.work, self.gap = np.empty(m), np.empty(m), np.empty(m)
        self.x: Array | None = None
        self.e = math.inf

    def scan(self, x: Array):
        """The selector's scan at x: the tracked values where certified."""
        if x is self.x:
            v = self.values
            decided = _decided(v, self.e + self.e0, self.epsilon, True, self.gap)
            if decided is not None:
                return v, *decided
        vals, i, high = self.real(x)
        np.copyto(self.values, vals)
        self.x, self.e = x, self.e0
        return vals, i, high

    def step(self, x: Array, p: Array, h: float) -> Array:
        """The ball's mirror step, with the values moved along."""
        x_new, t = self.step_ball(x, p, h)
        entry = self.columns.get(id(p)) if x is self.x else None
        if entry is None or not h * entry[0] < self.limit:
            self.x = None
            return x_new
        norm, g = entry
        if g is None:
            g = entry[1] = self.matrix @ p
        v, work = self.values, self.work
        np.multiply(g, h, out=work)
        np.subtract(v, work, out=v)
        e = self.e * self.grow + h * norm * self.slope
        if t != 1.0:
            np.multiply(v, t, out=v)
            np.multiply(self.shift, 1.0 - t, out=work)
            np.add(v, work, out=v)
            e = t * e + (1.0 - t) * self.e0
        self.x, self.e = x_new, e + self.base
        return x_new


class _SupportScan:
    """Constraint values on an exact entropy simplex from the columns of
    the iterate's support.

    Entropic steps put the iterate's mass on few coordinates.  The support
    S holds the coordinates at or above ``_SUPPORT_FLOOR``, with a
    contiguous copy of ``A[:, S]``, and a scan takes w = A[:, S] x[S] + b
    and the tail t = sum x[~S], read off as ``x.sum() - x[S].sum()`` plus
    its rounding bound.  Where x >= 0, both products are within gamma
    (|a_j| sum x + |b_j|) of exact, |a_j| the row's largest entry, and the
    dropped columns move row j by at most |a_j| t; so w is within E =
    gamma (rmax sum x + bmax) + rmax t of the stacked product, the
    constant gamma four times the products' rounding bound, which also
    covers the rounding of E and of the comparisons.  Where ``_decided``
    certifies w against E, the selector reads it.  Anywhere else, for an
    x with a negative or non-finite coordinate, and where a value could
    overflow, the stacked product is taken, and S is rebuilt where its
    tail holds more than a fresh one leaves, n floors.  Every
    ``_SUPPORT_CHECK`` scans S is also rebuilt where fewer than
    ``_SUPPORT_SHRINK`` of its coordinates are still at the floor; while
    more than ``_SUPPORT_SHARE`` of all coordinates are, every scan is the
    stacked product.
    """

    def __init__(self, bank: OracleBank, scan: Callable, epsilon: float,
                 ranked: bool) -> None:
        self.matrix, self.offsets = bank._matrix, bank._offsets
        m, n = self.matrix.shape
        self.real, self.epsilon, self.ranked = scan, epsilon, ranked
        self.gamma = 4.0 * (n + 2) * np.finfo(float).eps
        self.rmax = float(np.abs(self.matrix).max())
        # The smallest normal float covers underflow in the products.
        self.bmax = float(np.abs(self.offsets).max()) + np.finfo(float).tiny
        self.values, self.gap = np.empty(m), np.empty(m)
        # A fresh support leaves a tail of under n floors.
        self.stale = n * _SUPPORT_FLOOR
        self.support = self.columns = None
        self.wait = 0  # scans until the support is next checked

    def _rebuild(self, x: Array) -> None:
        support = np.flatnonzero(x >= _SUPPORT_FLOOR)
        self.wait = _SUPPORT_CHECK
        if support.shape[0] > _SUPPORT_SHARE * x.shape[0]:
            self.support = self.columns = None
        else:
            self.support, self.columns = support, np.take(self.matrix, support, axis=1)

    def scan(self, x: Array):
        """The selector's scan at x: the reduced product where certified."""
        self.wait -= 1
        if self.wait <= 0:
            self.wait = _SUPPORT_CHECK
            if (self.support is None or np.count_nonzero(x >= _SUPPORT_FLOOR)
                    < _SUPPORT_SHRINK * self.support.shape[0]):
                self._rebuild(x)
        if self.columns is not None:
            head = x[self.support]
            w = np.dot(self.columns, head, out=self.values)
            w += self.offsets
            total = float(np.add.reduce(x))
            # The tail's mass t, up to the rounding of the two sums.
            tail = total - float(np.add.reduce(head)) + self.gamma * total
            top = self.rmax * total + self.bmax
            # Below _HUGE (so not NaN) no summation order overflows.
            if top < _HUGE and np.minimum.reduce(x) >= 0.0:
                bound = self.gamma * top + self.rmax * tail
                decided = _decided(w, bound, self.epsilon, self.ranked, self.gap)
                if decided is not None:
                    return w, *decided
            if tail > self.stale:
                self._rebuild(x)
        return self.real(x)


def _metadata_bound(problem: ProblemInstance, theta0: float, epsilon: float,
                    regime: Regime) -> int | None:
    """A-priori iteration bound from declared Lipschitz metadata, if any."""
    bounds = [c.lipschitz_value for c in problem.constraints]
    if any(b is None for b in bounds):
        return None
    try:
        return iteration_bound(problem.objective.lipschitz_value, max(bounds),
                               theta0, epsilon, regime)
    except ValueError:
        return None


def _make_evaluator(objective: Oracle, dual: Callable[[Array], float],
                    sources: tuple | None) -> Callable[[Array], tuple]:
    """The objective's value and row ``(index, subgradient, dual norm)`` at
    x: given ``sources``, a scan of a max-affine objective's stacked pieces
    (from ``_sources``), or else its own call and the dual norm."""
    if sources is not None:
        top, piece = sources

        def evaluate(x: Array):
            _, i, high = top(x)
            return high, piece(i, x)

        return evaluate
    value_and_subgradient = objective.value_and_subgradient

    def evaluate(x: Array):
        value, grad = value_and_subgradient(x)
        return value, (None, grad, dual(grad))

    return evaluate


def run(problem: ProblemInstance, prox: ProxGeometry, config: RunConfig) -> SolverReport:
    """Solve ``problem`` over the geometry's feasible set.

    Starts from the geometry's anchor and iterates until the regime's
    adaptive stopping criterion fires, a degenerate subgradient ends the run
    early (exact solution or certified infeasibility), or the iteration cap
    is reached.

    Notes
    -----
    If the run stops without any productive step, the reported output point
    is the final iterate; the usual output formulas need a non-empty
    productive set, which the stopping criterion guarantees whenever the
    problem admits a feasible point within the prox radius.

    Affine data take table-driven steps on every geometry and under every
    policy; the trajectory, counts and history are bitwise those of the
    stepwise engine.  The constraints are scanned by :meth:`OracleBank.scan`
    into a buffer of the run's, one matrix-vector product where they are all
    affine; each such constraint row's subgradient and dual norm are then
    looked up in a table built at the start of the run, with no call to the
    oracles or the dual norm; so are a max-affine objective's pieces on
    productive steps.  Min-dual-norm then takes the first violated row in
    one stable order of the tabled norms, the lowest index among ties, as
    the loop over violated rows that other banks take.  Any other
    objective is called; a max of diagonal quadratics then takes a
    certified argmax of its pieces from one stacked product and calls the
    winning piece alone, falling back to every piece's
    value where the argmax is not certified (see :class:`MaxOracle`), with
    the member loop's numbers.  On an exact :class:`EuclideanSpace`, under
    every policy but min-dual-norm, non-productive steps are also batched by
    ``_AffineRuns``: a batch chains the rest of a constraint's run and the
    runs the policy is computed to take after it, on other constraints, up
    to the first predicted productive step; a batch of one run and at
    least ``_ENDS_MIN_ROWS`` rows is certified from the constraint values
    of its first and last rows where their margins allow for the
    cumulative sum's drift, and row by row elsewhere; a batch that the
    rounding margins cut short, or a prediction of fewer than two steps,
    ends batching until the constraint changes.  In the
    Lipschitz regime without history, a run of productive steps on a
    max-affine objective is batched too, on pieces predicted from the piece
    values by straight-line code generated once per piece count, and
    certified by the same margins; a batch's constraint and piece values are
    one column per iterate, reduced column by column.  A batch's arrays
    hold at most ``_BLOCK_FLOATS`` floats; its iterates, and a productive
    batch's weighted sums, are one cumulative sum down the columns, taken
    two columns at a time as complex pairs where the rows are of even
    length (``_cumsum_rows``), with the additions of the stepwise
    engine.  The first step of
    each run and the step after each batch are ordinary steps.  On an exact
    :class:`EuclideanBall` with all-affine constraints, ``_BallTracker``
    updates the constraint values in O(M) along each step on a constraint
    row or a max-affine piece, and the policy reads them in place of the
    matrix-vector product wherever a rounding bound certifies that the
    product would give the same violated set and argmax; anywhere else, and
    after a productive step on any other objective, the product is taken.
    On an exact :class:`EntropySimplex`, under every policy, all-affine
    constraints with at least ``_SUPPORT_MIN_SIZE`` matrix entries are
    scanned by ``_SupportScan`` over the iterate's support, the
    coordinates at or above ``_SUPPORT_FLOOR``, from a copy of their
    columns; the policy reads these values where a bound on the left-out
    mass and on both products' rounding certifies the product's violated
    set and, for the argmax policies, its argmax.  Anywhere else, while
    the support holds more than half the coordinates, for an iterate with
    a negative or non-finite coordinate and where a value could overflow,
    the product is taken, so a non-finite value raises where it did.  The
    types of the data and the geometry alone pick these paths, so a
    subclass of any of these geometries takes the tables only.

    With ``record_history``, the report's ``history`` is a
    :class:`StepHistory`: an ordinary step appends its record's fields, a
    batch of non-productive steps one segment per constraint run it spans
    (see :class:`StepHistory` for what each holds).
    """
    if problem.dimension != prox.dimension:
        raise ValueError("problem and geometry dimensions differ")
    if not isinstance(config, RunConfig):
        raise TypeError("config must be a RunConfig")

    t0 = time.perf_counter()
    eps = config.epsilon
    lipschitz = config.regime is Regime.LIPSCHITZ
    bank = problem.constraint_bank()
    objective = problem.objective
    mirror = prox.mirror_step
    dual = prox.dual_norm
    isfinite = math.isfinite
    scan, row = _sources(bank, dual)
    # A max of affine pieces is evaluated from its stacked pieces' sources.
    pieces = objective._bank if type(objective) is MaxOracle else None
    if pieces is not None and pieces._matrix is None:
        pieces = None
    piece_sources = None if pieces is None else _sources(pieces, dual)
    evaluate = _make_evaluator(objective, dual, piece_sources)
    norms = None
    if bank._matrix is not None:
        rows = [row(i, None) for i in range(len(bank.oracles))]
        norms = np.array([norm for _, _, norm in rows])
        if type(prox) is EuclideanBall:
            if pieces is not None:
                rows += [piece_sources[1](l, None) for l in range(len(pieces.oracles))]
            tracker = _BallTracker(bank, prox, scan, rows, eps)
            if tracker.finite:
                scan, mirror = tracker.scan, tracker.step
        elif type(prox) is EntropySimplex and bank._matrix.size >= _SUPPORT_MIN_SIZE:
            scan = _SupportScan(bank, scan, eps, config.policy in (
                Policy.AGGREGATE_MAX, Policy.MAX_VIOLATION)).scan
    select = _make_selector(scan, row, eps, config.policy, norms)
    # Productive runs are batched where a gemm row need not give the
    # stepwise objective value: in the Lipschitz regime, without history.
    produce = pieces is not None and lipschitz and not config.record_history
    runs = (_AffineRuns(bank, config, row, *(pieces, piece_sources[1]) if produce else ())
            if type(prox) is EuclideanSpace and bank._matrix is not None
            and config.policy is not Policy.MIN_DUAL_NORM else None)

    # Both regimes stop once this running sum reaches 2 * theta0^2 / eps^2:
    # productive steps contribute 1/||s||^2 (Lipschitz) or 1 (nonstandard),
    # non-productive steps contribute 1/||s||^2 in both.
    stop_target = 2.0 * prox.theta0 * prox.theta0 / (eps * eps)

    x = prox.anchor.copy()
    crit_sum = 0.0
    n_productive = 0
    weight_sum = 0.0
    weighted = np.zeros(problem.dimension)
    best_value = math.inf
    best_point: Array | None = None
    reference = (problem.known_optimum[0]
                 if not lipschitz and problem.known_optimum is not None else None)
    certificate = math.inf
    history = StepHistory() if config.record_history else None
    stop = StopReason.ITERATION_CAP
    steps = 0
    max_steps = config.max_iterations
    # The constraint of the last step (None if productive), and whether its
    # run is batched: from its second step on, until a batch falls short.
    last = None
    batching = False

    while steps < max_steps:
        sel = select(x)
        if sel is None:
            value, (_, grad, norm) = evaluate(x)
            if not (isfinite(value) and isfinite(norm)):
                raise EvaluationError("objective produced a non-finite result")
            if norm == 0.0:
                # Exact solution: feasible within eps and no descent exists.
                # Its gap is 0, as vf_gap has it for a zero subgradient.
                certificate = min(certificate, 0.0)
                stop = StopReason.ZERO_OBJECTIVE_GRADIENT
                break
            if lipschitz:
                h = eps / (norm * norm)
                crit_sum += 1.0 / (norm * norm)
                weight_sum += h
                weighted += h * x
            else:
                h = eps / norm
                crit_sum += 1.0
                if value < best_value:
                    best_value = value
                    best_point = x
                if reference is not None:
                    gap = float(grad @ (x - reference)) / norm
                    if gap < certificate:
                        certificate = gap
            if history is not None:
                history._append((steps, h, norm, None, value, x))
            x = mirror(x, grad, h)
            n_productive += 1
        else:
            idx0, grad, norm = sel
            if not isfinite(norm):
                raise EvaluationError("constraint produced a non-finite subgradient")
            if norm == 0.0:
                # A constraint is violated beyond eps yet cannot decrease:
                # the feasible set is empty.
                stop = StopReason.INFEASIBLE_CONSTRAINT
                break
            h = eps / (norm * norm)
            crit_sum += 1.0 / (norm * norm)
            if history is not None:
                history._append((steps, h, norm, idx0 + 1, None, x))
            x = mirror(x, grad, h)
        steps += 1
        if crit_sum >= stop_target:
            stop = StopReason.CRITERION_MET
            break
        if sel is None:
            # As a constraint run, a productive run is batched from its second step.
            if last is None and runs is not None and runs.pieces is not None:
                count, x, crit_sum, weighted, weight_sum = runs.produce(
                    x, max_steps - steps, crit_sum, stop_target, weighted, weight_sum)
                steps += count
                n_productive += count
            last = None
        elif idx0 != last:
            last, batching = idx0, runs is not None
        elif batching:
            # Chain the steps the run and the runs after it are computed to
            # take, as far as neither the criterion nor the cap ends the
            # loop: the step that may is left to the next ordinary step.
            x, crit_sum, taken, batching = runs.chain(
                x, idx0, max_steps - steps, crit_sum, stop_target)
            for last, points in taken:
                if history is not None:  # the rows are rebuilt from the first
                    norm = row(last, None)[2]
                    history._add_segment(steps, eps / (norm * norm), norm, last + 1,
                                         points[0].copy(), runs.steps[last], len(points))
                steps += len(points)

    if stop in (StopReason.ZERO_OBJECTIVE_GRADIENT, StopReason.INFEASIBLE_CONSTRAINT):
        out = x
    elif lipschitz:
        out = weighted / weight_sum if weight_sum > 0.0 else x
    else:
        out = best_point if best_point is not None else x

    # A copy: the point may be an iterate a history record holds.
    out = np.array(out, dtype=np.float64)
    out_objective = objective.value(out)
    out_violation, _ = bank.max_entry(out)
    return SolverReport(
        total_steps=steps,
        productive_count=n_productive,
        nonproductive_count=steps - n_productive,
        output_point=out,
        output_objective=float(out_objective),
        output_max_violation=float(out_violation),
        stop_reason=stop,
        a_priori_bound=_metadata_bound(problem, prox.theta0, eps, config.regime),
        wall_time=time.perf_counter() - t0,
        config=config,
        history=history,
        certificate=None if reference is None else certificate,
    )


def vf_gap(x, y, objective: Oracle, structure: ProxGeometry) -> float:
    """Normalized objective-subgradient gap <s(x)/||s(x)||, x - y>.

    Zero when the subgradient vanishes.  Bounded by the primal-norm distance
    between x and y in absolute value.
    """
    x = as_vector(x, structure.dimension, "x")
    y = as_vector(y, structure.dimension, "y")
    if objective.dimension != structure.dimension:
        raise ValueError("objective and geometry dimensions differ")
    grad = objective.subgradient(x)
    norm = structure.dual_norm(grad)
    if norm == 0.0:
        return 0.0
    return float(grad @ (x - y)) / norm


def iteration_bound(m_f: float | None, m_g: float, theta0: float,
                    epsilon: float, regime: Regime) -> int:
    """A-priori iteration count guaranteeing the stopping criterion.

    ``ceil(2 * max(m_f^2, m_g^2) * theta0^2 / eps^2)`` in the Lipschitz
    regime (``m_f`` required), ``ceil(2 * max(1, m_g^2) * theta0^2 / eps^2)``
    in the nonstandard regime.
    """
    regime = Regime(regime)
    for name, val in (("m_g", m_g), ("theta0", theta0), ("epsilon", epsilon)):
        if not (math.isfinite(float(val)) and float(val) > 0.0):
            raise ValueError(f"{name} must be finite and positive")
    m_g = float(m_g)
    theta0 = float(theta0)
    epsilon = float(epsilon)
    if regime is Regime.LIPSCHITZ:
        if m_f is None:
            raise ValueError("m_f is required in the lipschitz regime")
        m_f = float(m_f)
        if not (math.isfinite(m_f) and m_f > 0.0):
            raise ValueError("m_f must be finite and positive")
        peak = max(m_f * m_f, m_g * m_g)
    else:
        peak = max(1.0, m_g * m_g)
    if epsilon * epsilon == 0.0:
        raise ValueError("epsilon^2 underflows to 0")
    bound = 2.0 * peak * theta0 * theta0 / (epsilon * epsilon)
    if not math.isfinite(bound):
        raise ValueError("the iteration bound is not finite")
    return math.ceil(bound)
