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
from operator import and_
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple

import numpy as np

from .geometry import (Array, EntropySimplex, EuclideanBall, EuclideanSpace, ProxGeometry,
                       as_vector)
from .problems import (AbsAffinePlusOracle, AffineOracle, EvaluationError, MaxOracle,
                       Oracle, OracleBank, ProblemInstance, QuadraticOracle,
                       SqrtQuadraticOracle)

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
    # The aggregate constraint max g_i's subgradient at a violated point
    # is that of its largest g_i: the same step under another name.
    MAX_VIOLATION = "aggregate-max"
    MIN_DUAL_NORM = "min-dual-norm"

    @classmethod
    def _missing_(cls, value: object) -> Policy | None:
        return cls.AGGREGATE_MAX if value == "max-violation" else None


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
    The replayed steps of a two-step cycle (see :func:`run`) share the
    cycle's two iterates, each recorded before the replay began.
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

    ``crit_sum`` is the stopping rule's running sum at the end of the run
    and ``stop_target`` the value it must reach, 2 theta0^2 / eps^2, so
    ``progress`` rises from 0 and is at least 1 exactly where the stop is
    ``criterion-met``.
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
    crit_sum: float = 0.0
    stop_target: float = math.inf

    @property
    def converged(self) -> bool:
        return self.stop_reason in (
            StopReason.CRITERION_MET,
            StopReason.ZERO_OBJECTIVE_GRADIENT,
        )

    @property
    def progress(self) -> float:
        """How far the run got towards the stopping rule: ``crit_sum /
        stop_target``; where the target underflowed to 0, which the sum
        reaches at the first step, inf once a step was taken."""
        if not self.stop_target:
            return math.inf if self.total_steps else 0.0
        return self.crit_sum / self.stop_target


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

    else:  # aggregate-max descends on the argmax

        def select(x: Array):
            _, i, high = scan(x)
            if high <= epsilon:
                return None
            return row(i, x)

    return select


# Float budget of one batch's (rows x max(n, M)) arrays, which bounds memory;
# a chain's block holds two columns more (see ``_AffineRuns``).  Swept from
# 2^14 to 2^17 on the benchmark: from 2^16 on, a batch's fixed costs no
# longer show, and 2^17 costs 2 MiB more peak memory.
_BLOCK_FLOATS = 1 << 16
# The most multiply-adds of one matrix product over a block's rows.  numpy's
# OpenBLAS splits a product of 2^19 or more over threads, which cost up to
# 8 ms per product on a shared 2-CPU machine against 0.05 ms on one thread,
# so a longer block's product is taken in chunks of columns.
_PRODUCT_MACS = 1 << 18
# Below this bound on |A| @ |x| + |b|, sixteen times under the largest float,
# no summation order of a constraint value overflows.
_HUGE = 2.0 ** 1020
# The fewest rows of a block that ``_cumsum_rows`` sums in complex pairs;
# on shorter blocks the view costs more than it saves.
_PAIR_MIN_ROWS = 32
# The most pieces whose productive steps ``_piece_predictor`` predicts by a
# comparison tree.  The tree is generated for every run, so it pays off
# only on runs with enough productive rows: on random dense tables one
# generation is paid back after 2 200 rows at 1 piece, 4 700 at 5, 10 600
# at 8 and 23 900 at 16.  Example 6, 5 pieces and 280 000 rows per run, is
# the only measured run that batches productive steps (``BENCH_27.json``).
_TREE_MAX_PIECES = 5
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
def _piece_loop(count: int) -> Callable[[list, int, list, list], list[int]]:
    """The productive-step loop over ``count`` pieces: ``(values, k, ends,
    drops) -> labels``, the pieces of up to k steps from the piece values,
    stopping before a piece with ``ends[l]`` set; a step on piece l
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


def _piece_predictor(ends: list[bool], drops: list[list[float]]
                     ) -> Callable[[list, int], bytearray | list[int]]:
    """The productive-step predictor over one max's pieces: ``(values, k)
    -> labels``, ``_piece_loop``'s labels for these ``ends`` and ``drops``.

    Over at most ``_TREE_MAX_PIECES`` pieces whose drops are all finite, it
    is a comparison tree generated for this table, whose labels are a
    bytearray.  Level l tests ``not (v_j > v_l or ...)`` over the later
    pieces j: it is reached only where each earlier piece has a later one
    above it, so the lowest index wins ties, as ``values.index(max(values))``
    picks on NaN-free values.  Leaf l breaks where piece l ends a
    prediction, else appends l and subtracts piece l's drops, written as
    float literals (``repr`` round-trips); a drop of +0.0 is left out,
    since x - (+0.0) is x bit for bit, -0.0 included.  A finite drop never
    makes a NaN of a value that is not one, so a call whose values hold a
    NaN, checked once, takes the loop, as do more pieces and a non-finite
    drop; the loop's labels are a list.
    """
    count = len(ends)
    loop = _piece_loop(count)
    if count > _TREE_MAX_PIECES or not all(math.isfinite(d) for row in drops for d in row):
        return partial(loop, ends=ends, drops=drops)
    names = [f"v{j}" for j in range(count)]
    lines = ["def predict(values, k):",
             f"    {', '.join(names)}, = values",
             f"    if {' or '.join(f'{v} != {v}' for v in names)}:",
             "        return loop(values, k, ends, drops)",
             "    labels = bytearray()",
             "    append = labels.append",
             "    for _ in range(k):"]
    indent = " " * (12 if count > 1 else 8)  # one piece: no test
    for l, v in enumerate(names):
        later = " or ".join(f"{w} > {v}" for w in names[l + 1:])
        if later:
            lines.append(f"        {'elif' if l else 'if'} not ({later}):")
        elif l:
            lines.append("        else:")
        if ends[l]:
            lines.append(f"{indent}break")
            continue
        lines.append(f"{indent}append({l})")
        lines += [f"{indent}{w} -= {d!r}" for w, d in zip(names, drops[l])
                  if d or math.copysign(1.0, d) < 0.0]
    lines.append("    return labels")
    namespace: dict = {"loop": loop, "ends": ends, "drops": drops}
    exec("\n".join(lines), namespace)
    return namespace["predict"]


@cache
def _run_predictor(count: int, first_violated: bool) -> Callable[..., list[list[int]]]:
    """The non-productive run predictor over ``count`` constraints:
    ``(values, i, rows, epsilon, tables, table) -> runs``, the runs of
    ``_AffineRuns.predict`` from the constraint values, ``tables`` the run
    tables built so far and ``table(i)`` the builder of constraint i's.

    Straight-line code, generated once per constraint count and policy, as
    ``_piece_loop`` is once per piece count: the values are locals; a run's
    closing rows are ``count`` divisions, each guarded by its rate, which
    the table sets to 0 for a row that does not close; a step is one float
    subtraction per constraint; and the policy's choice is ``count`` flat
    comparisons.
    So the runs are those of a loop over the list of values: under
    first-violated the lowest index above epsilon, else the argmax with
    the lowest index (a NaN first value included), as
    ``values.index(max(values))`` picks.
    """
    v = [f"v{j}" for j in range(count)]
    lines = ["def predict(values, i, rows, eps, tables, table):",
             f"    {', '.join(v)}, = values",
             "    chain = []",
             "    while rows:",
             "        run = tables[i] if i in tables else table(i)",
             "        if run is None:",
             "            break",
             f"        own, ({', '.join(f'd{j}' for j in range(count))},), "
             f"({', '.join(f'r{j}' for j in range(count))},) = run",
             # In exact arithmetic the policy picks i at the first
             # ceil(length) of the points the run takes.
             f"        vi = ({', '.join(v)},)[i]",
             f"        bound = {'eps' if first_violated else 'vi'}",
             "        length = (vi - eps) / own"]
    for j in range(count):
        lines += [f"        if r{j} > 0.0:",
                  f"            t = (bound - v{j}) / r{j}",
                  "            if t < length:",
                  "                length = t"]
    lines += ["        if isnan(length):",
              "            break",
              "        count = rows if length >= rows else ceil(length) if length > 0.0 else 0",
              "        if count:",
              "            if chain and chain[-1][0] == i:",
              "                chain[-1][1] += count",
              "            else:",
              "                chain.append([i, count])",
              "            rows -= count"]
    lines += [f"            v{j} -= count * d{j}" for j in range(count)]
    # The policy's choice where the run ends.  Only the first run, which
    # may have ended at x, can have no step.
    if first_violated:
        lines.append("        j = None")
        lines += [f"        if v{j} > eps: j = {j}" for j in reversed(range(count))]
    else:
        lines.append("        j, high = 0, v0")
        lines += [f"        if v{j} > high: j, high = {j}, v{j}" for j in range(1, count)]
        lines += ["        if not high > eps:",
                  "            j = None"]
    lines += ["        if j is None or not count and j == i:",
              "            break",
              "        i = j",
              "    return chain"]
    namespace: dict = {"ceil": math.ceil, "isnan": math.isnan}
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
    matrix-vector product decides otherwise.  A chain's block is built
    from a table row per constraint, [-q_j, w_j] with w_j its criterion
    weight, so one ``_cumsum_rows`` gives both the iterates and the
    criterion sums after each step.  Along each run of a chain the values
    are linear in the step up to the cumulative sum's drift, so the values
    of the run's first and last rows, all runs' in one matrix product,
    certify every row between (see ``_certify``); a chain of one run
    reads its first row's from its prediction and takes one product for
    its last.  Rows are reduced one by one only where these fail.  A
    chain's runs are predicted by
    ``_run_predictor``'s straight-line code, generated once per
    constraint count and policy.  A productive batch's pieces are predicted
    by ``_piece_predictor``'s code, generated for this instance's pieces on
    its first ``produce`` call: a comparison tree over at most
    ``_TREE_MAX_PIECES`` pieces with finite drops, else ``_piece_loop``'s
    loop, generated once per piece count.  A productive batch's rows are
    checked one by one; its weighted sums are committed by one more
    ``_cumsum_rows``.  A batch asks for at most ``max_rows`` rows, so that
    its (rows x max(n, M)) arrays hold at most ``_BLOCK_FLOATS`` floats; a
    chain's block has up to two columns more, its criterion sums and their
    pad.
    """

    def __init__(self, bank: OracleBank, config: RunConfig, row: Callable,
                 pieces: OracleBank | None = None, piece_row: Callable | None = None) -> None:
        self.first_violated = config.policy is Policy.FIRST_VIOLATED
        self.epsilon = eps = config.epsilon
        self.a = bank._matrix
        self.b = bank._offsets
        m, n = bank._matrix.shape
        # The rows a batch evaluates and steps on: the constraints, then
        # the pieces; their row sources give the tabled dual norms.
        banks = [(bank, row)] if pieces is None else [(bank, row), (pieces, piece_row)]
        self.stack = np.vstack([o._matrix for o, _ in banks])
        self.offsets, self.m = np.concatenate([o._offsets for o, _ in banks]), m
        self.abs_a = np.abs(self.stack)
        # The smallest normal float covers underflow in the products.
        self.abs_b = np.abs(self.offsets) + np.finfo(float).tiny
        # Four times the bound 2 * gamma_(n+1) on two summation orders'
        # difference, which also absorbs the rounding of r and the margins.
        self.gamma = 4.0 * (n + 2) * float(np.finfo(float).eps)
        self.u = float(np.finfo(float).eps) / 2.0  # the unit roundoff
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
        # A row per stacked row, [-q_j, w_j], padded to an even width for
        # ``_cumsum_rows``'s pairs: a chain's block adds the steps and their
        # criterion weights in one sum.  ``steps`` views the steps -q_j;
        # history segments keep views of its rows, so the table is read-only.
        self.table = np.zeros((q.shape[0], n + 2 - n % 2))
        np.negative(q, out=self.table[:, :n])
        self.table[:, n] = self.weights
        self.table.flags.writeable = False
        self.steps = self.table[:, :n]
        # Per constraint, filled on its first chain: see ``_table``.
        self.drops, self.piece_drops, self.tables = *drops, {}
        # The values at a chain's first row, from ``chain`` to ``_certify``.
        self.first_values = None
        self.predict_runs = _run_predictor(m, self.first_violated)
        # A productive batch asks for twice the rows the last took, plus two;
        # after batches of under two rows, 0, 1, 3, ... steps pass idle.
        self.ask, self.idle, self.backoff, self.pieces = self.max_rows, 0, 0, pieces
        if pieces is None:
            return
        # Generated on the first ``produce`` call (see ``_piece_predictor``).
        self.predict_pieces = None
        # Twin pieces take bitwise the same step: the argmax may pick either.
        c = pieces._matrix
        bits = c.view(np.uint64)
        self.same = (bits[:, None] == bits[None]).all(axis=2) & (norms[m:, None] == norms[m:])
        self.twins = not np.array_equal(self.same, np.eye(len(c), dtype=bool))

    def _table(self, i: int) -> tuple | None:
        """Constraint i's run table: how much a step lowers i, each
        constraint's drop, and the rate at which each row closes on i, 0
        for a row that cannot end i's run (the lower rows that rise under
        first-violated, else the rows that gain on i, close); None where a
        step on i ends a prediction."""
        drops = self.drops[i]
        own = drops[i]
        if self.ends[i] or not (math.isfinite(own) and own > 0.0):
            table = None
        else:
            rates = ([-d for d in drops[:i]] + [0.0] * (len(drops) - i) if self.first_violated
                     else [own - d for d in drops])
            table = own, drops, [rate if rate > 0.0 else 0.0 for rate in rates]
        self.tables[i] = table
        return table

    def predict(self, x: Array, i: int, rows: int,
                values: list[float] | None = None) -> list[list[int]]:
        """The runs of non-productive steps from x on, as [constraint, count]
        pairs, from constraint i's (which may have ended at x) on: predicted
        in floats up to ``rows`` steps, a predicted productive step, or a
        constraint that ends a prediction (see ``_run_predictor``).
        ``values`` are the constraint values ``A @ x + b`` as a list, taken
        here where not given."""
        if values is None:
            values = (self.a @ x + self.b).tolist()
        return self.predict_runs(values, i, rows, self.epsilon, self.tables, self._table)

    def chain(self, x: Array, i: int, rows: int, crit_sum: float,
              target: float) -> tuple:
        """Batch up to ``rows`` non-productive steps from x, on the runs
        predicted from constraint i on, that keep ``crit_sum`` below
        ``target``, where two steps at least, or all ``rows``, are
        predicted: x and ``crit_sum`` after them, the block of iterates,
        the runs taken as (constraint, first row, count) triples, and
        whether to chain again on the same run, which holds where every row
        asked was taken.  A prediction of fewer steps ends batching for the
        run too.  The block's column after the iterates sums the
        criterion weights in the order the stepwise engine adds them;
        where it reaches ``target``, the chain is cut before."""
        # The values at x, read by the prediction and by a one-run certificate.
        values = (self.a @ x + self.b).tolist()
        chain = self.predict(x, i, min(rows, self.max_rows), values)
        predicted = sum(count for _, count in chain)
        if not predicted or predicted < min(rows, 2):
            return x, crit_sum, None, [], False
        # Row 0 is x and crit_sum, each later row its step's table row: one
        # sum gives the iterates and the criterion sums after each step.
        n = x.shape[0]
        block = np.empty((predicted + 1, self.table.shape[1]))
        block[0, :n] = x
        block[0, n:] = crit_sum
        start = 1
        for j, count in chain:
            block[start:start + count] = self.table[j]
            start += count
        _cumsum_rows(block)
        rows = predicted
        if block[rows, n] >= target:
            rows = int(np.searchsorted(block[1:, n], target))
        iterates = block[:, :n]
        self.first_values = values
        count = self._certify(iterates, chain, rows)
        taken, first = [], 0
        for j, length in chain:
            if first == count:
                break
            length = min(length, count - first)
            taken.append((j, first, length))
            first += length
        return iterates[count].copy(), float(block[count, n]), iterates, taken, count == rows

    def _certify(self, block: Array, labels: list | Array, rows: int) -> int:
        """How many of a summed block's leading ``rows`` rows provably take
        their step: ``labels`` a list of (constraint, count) runs, which
        may run past ``rows``, or an array of pieces' stacked rows, one
        productive step per block row.  ``first_values``, where ``chain``
        set them, are the constraint values of the block's first row as its
        prediction took them; this call consumes them, and a block of one
        run reads them as its first row's.

        Each run, on constraint i, is first offered to ``_ends``, which
        certifies all its rows from the constraint values of its own first
        and last rows alone.  Along the line y_k = x_s + (k - s) t, x_s the
        run's first row and t = -q_i, every exact value l_j(y_k) is linear
        in k.  The block's row x_k is the cumulative sum's, which rounds
        once per addition, by at most u |x_k| per coordinate (u = eps_mach
        / 2), so |x_k - y_k| <= (k - s) u r, r the block's bound on |x|,
        and l_j(x_k) is within D_j = length u bound_j of the line's value,
        bound_j = |a_j| . r + |b_j| and length the run's.  A computed value
        c_j (the ends' or the stepwise engine's) is within a quarter of
        slack_j of l_j at the same row.  So with S_j = slack_j + D_j, any
        difference of two values, or of a value and epsilon, that clears 2
        S_i + 2 S_j (2 S_j against epsilon) at both end rows clears S_i +
        S_j on the line there, so at every row between, since it is linear
        in k; the stepwise engine's computed values at each row, every one
        within slack_j / 4 + D_j < S_j of the line, then make the same
        comparison.  The ends thus require c_i - 2 S_i > max(epsilon,
        max_(j != i) c_j + 2 S_j) under aggregate-max, and c_i - 2 S_i >
        epsilon with c_j + 2 S_j <= epsilon for every j < i under
        first-violated, at both end rows.  The unused part of slack_j
        covers the rounding of these margins and comparisons.

        A run that lands on its switch within its drift fails on its last
        row alone, so a run whose ends fail is offered again as two runs,
        its last row and the rest.  The rows of a run that still fails are
        checked one by one (``_rows``), so the ends never shorten a block.
        The ``_HUGE`` guards come first, so every value and margin is
        finite.  A block of one run on constraint i reaches |x| + count |q_i|.
        """
        values, self.first_values = self.first_values, None
        if not rows:
            return 0
        reach = np.abs(block[0])
        runs = type(labels) is list
        if runs:
            # The runs that hold the first ``rows`` rows: their constraints,
            # first rows and lengths.
            js, firsts, counts, first = [], [], [], 0
            for j, count in labels:
                js.append(j)
                firsts.append(first)
                counts.append(min(count, rows - first))
                first += count
                if first >= rows:
                    break
            if len(js) == 1:
                reach += counts[0] * self.abs_q[js[0]]
            else:
                reach += np.bincount(js, counts, self.steps.shape[0]) @ self.abs_q
        else:
            reach += np.bincount(labels, minlength=self.steps.shape[0]) @ self.abs_q
        bound = self.abs_a @ reach + self.abs_b
        if not (np.maximum.reduce(reach) < _HUGE and np.maximum.reduce(bound) < _HUGE):
            return 0  # NaN included: the stepwise engine decides
        if not runs:
            return self._rows(block[:rows], labels, self.gamma * bound)
        certified = self._ends(block, js, firsts, counts, bound, values)
        if all(certified):
            return rows
        split = [r for r, ok in enumerate(certified) if not ok and counts[r] > 1]
        if split:
            ends = iter(self._ends(
                block, [js[r] for r in split for _ in (0, 1)],
                [k for r in split for k in (firsts[r], firsts[r] + counts[r] - 1)],
                [k for r in split for k in (counts[r] - 1, 1)], bound))
            for r, rest, last in zip(split, ends, ends):
                certified[r] = rest and last
        slack = self.gamma * bound
        for r, ok in enumerate(certified):
            if not ok:
                first, count = firsts[r], counts[r]
                taken = self._rows(block[first:first + count], js[r], slack)
                if taken < count:
                    return first + taken
        return rows

    def _rows(self, rows: Array, labels: int | Array, slack: Array) -> int:
        """How many leading ``rows`` (iterates) provably take their step,
        each checked from its own values: a step on constraint ``labels``
        where an int, else a productive step on piece ``labels[k] - m``.
        A row is taken where each comparison the stepwise engine makes
        holds with margin ``slack`` (see the class docstring)."""
        count = rows.shape[0]
        eps, m = self.epsilon, self.m
        # One column per row: the reductions below run along contiguous
        # memory, across the rows' constraints and pieces.
        values = np.empty((self.stack.shape[0], count))
        for start in range(0, count, self.chunk):
            end = min(start + self.chunk, count)
            np.matmul(self.stack, rows[start:end].T, out=values[:, start:end])
        values += self.offsets[:, None]
        at_most = (eps - slack[:m])[:, None]  # a constraint provably at most eps
        if isinstance(labels, np.ndarray):
            # All constraints at most eps; the piece or its twin tops the pieces.
            k = np.arange(count)
            ok = (values[:m] <= at_most).all(axis=0)
            low = values[labels, k] - slack[labels]
            pieces = values[m:]
            pieces += slack[m:, None]
            # same is symmetric: column k marks the twins of the block row
            # k's piece, and without twins only the piece itself.
            if self.twins:
                pieces[self.same[:, labels - m]] = -math.inf
            else:
                pieces[labels - m, k] = -math.inf
            ok &= low > pieces.max(axis=0)
        elif self.first_violated:
            i = labels
            ok = values[i] > eps + slack[i]
            if i:
                ok &= (values[:i] <= at_most[:i]).all(axis=0)
        else:
            # i is above epsilon and the argmax with the lowest index.
            i = labels
            low = values[i] - slack[i]
            top = values[:m]
            top += slack[:m, None]
            top[i] = eps
            ok = low > top.max(axis=0)
        return count if ok.all() else int(ok.argmin())

    def _ends(self, block: Array, labels: list, firsts: list, counts: list,
              bound: Array, values: list[float] | None = None) -> list[bool]:
        """Per run of ``counts[r]`` rows on constraint ``labels[r]`` from
        block row ``firsts[r]``, whether its first and last rows certify
        every row of it (see ``_certify``).  Several runs take all their
        ends' values from one matrix product, the first rows' above the
        last rows'.  One run compares the floats of its first row's
        ``values``, taken here where not given, and of one product for its
        last row."""
        eps, m, runs = self.epsilon, self.m, len(labels)
        if runs == 1:
            # Most chains are one run, whose prediction already took its
            # first row's values: one more product and the comparisons on
            # floats cost less than the ten numpy calls of the general path.
            (i,), (first,), (count,) = labels, firsts, counts
            if values is None:
                values = (self.a @ block[first] + self.b).tolist()
            last = (self.a @ block[first + count - 1] + self.b).tolist()
            factor = 2.0 * (self.gamma + count * self.u)
            wide = [factor * w for w in bound[:m].tolist()]  # 2 S_j
            own = wide[i]
            for ends in (values, last):
                low = ends[i] - own
                if self.first_violated:
                    if not (low > eps and all(v + w <= eps for v, w in zip(ends[:i], wide))):
                        return [False]
                else:
                    tops = [v + w for v, w in zip(ends, wide)]
                    tops[i] = eps
                    if not max(tops) < low:
                        return [False]
            return [True]
        # 2 S_j per run, from its own drift, and the flat positions of each
        # run's own value in wide and in the ends' values.
        wide = np.multiply.outer([2.0 * (self.gamma + c * self.u) for c in counts],
                                 bound[:m])
        own = [r * m + i for r, i in enumerate(labels)]
        at = own + [k + runs * m for k in own]
        values = block[firsts + [f + c - 1 for f, c in zip(firsts, counts)]] @ self.a.T
        values += self.b
        low = values.take(at)
        low -= wide.take(own + own)
        pairs = values.reshape(2, runs, m)
        pairs += wide
        if self.first_violated:
            ok = low > eps
            ok &= (values <= eps).argmin(axis=1) == labels + labels
        else:
            values.put(at, eps)
            ok = low > np.maximum.reduce(values, axis=1)
        ok = ok.tolist()
        return list(map(and_, ok[:runs], ok[runs:]))

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
        if self.predict_pieces is None:
            self.predict_pieces = _piece_predictor(self.ends[m:], self.piece_drops)
        labels = self.predict_pieces((self.stack @ x + self.offsets)[m:].tolist(),
                                     min(rows, self.ask, self.max_rows))
        if type(labels) is bytearray:  # the comparison tree's
            labels = np.frombuffer(labels, np.uint8).astype(np.intp)
        else:
            labels = np.array(labels, dtype=np.intp)
        labels += m  # the pieces' stack rows
        crit = np.concatenate(([crit_sum], self.weights[labels])).cumsum()
        labels = labels[:np.searchsorted(crit[1:], target)]
        rows = labels.shape[0]
        # The iterates x, x - q_(labels[0]), ...: a row per step.
        block = np.empty((rows + 1, x.shape[0]))
        block[0] = x
        np.take(self.steps, labels, axis=0, out=block[1:])
        _cumsum_rows(block)
        count = self._certify(block, labels, rows)
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


def _built_in(oracle: Oracle) -> bool:
    """Whether the oracle is exactly a built-in kind, a max over such oracles
    included, so that its value and subgradient are functions of the bits
    of the point alone."""
    if type(oracle) is MaxOracle:
        return all(map(_built_in, oracle.children))
    return type(oracle) in (AffineOracle, QuadraticOracle, SqrtQuadraticOracle,
                            AbsAffinePlusOracle)


def _replay(first: tuple, second: tuple) -> tuple[Callable, Callable, Callable]:
    """The selector, evaluator and mirror step of a run whose iterate
    repeats ``first``'s bit for bit two steps on: lookups of the cycle's
    two productive steps ``(x, value, row)``, given in step order.  From
    the repeat on every step is productive, and the step from ``first``'s
    iterate, or from its repeat, goes to ``second``'s iterate, whose step
    goes back to ``first``'s."""
    a, a_step, b, b_step = first[0], first[1:], second[0], second[1:]

    def select(x: Array) -> None:
        return None

    def evaluate(x: Array) -> tuple:
        return b_step if x is b else a_step

    def mirror(x: Array, grad: Array, h: float) -> Array:
        return a if x is b else b

    return select, evaluate, mirror


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
    to the first predicted productive step, and is certified run by run
    (see ``_AffineRuns``); a batch that the rounding margins cut short, or
    a prediction of fewer than two steps, ends batching until the
    constraint changes.  In the
    Lipschitz regime without history, a run of productive steps on a
    max-affine objective is batched too, on pieces predicted from the piece
    values by code generated for the run's pieces on its first batch: a
    comparison tree holding the pieces' drops as literals, over at most
    ``_TREE_MAX_PIECES`` pieces whose drops are finite, else, and for values
    that hold a NaN, a loop generated once per piece count; both give the
    pieces of a loop over the list of values.  The batch is
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
    set and, under aggregate-max, its argmax.  Anywhere else, while
    the support holds more than half the coordinates, for an iterate with
    a negative or non-finite coordinate and where a value could overflow,
    the product is taken, so a non-finite value raises where it did.  In
    the nonstandard regime every productive step has length epsilon, so a
    run can end bouncing between two iterates bit for bit.  Where the
    geometry is exactly one of these three and every oracle exactly a
    built-in kind (a :class:`MaxOracle` over such oracles included), a
    step is a function of the iterate's bits; so once a productive step's
    value equals the one two steps back and its iterate that one's bytes
    (not ``==``: -0.0 equals +0.0 but is another point), the steps between
    productive, every later step repeats one of the last two, and the run
    replays them (``_replay``): no scan, evaluation or mirror step, while
    the criterion sum, counts, best point, certificate, history, stop rule
    and cap run as for any step.  The types of the data and the geometry
    alone pick these paths, so a subclass of any of these geometries takes
    the tables only.

    With ``record_history``, the report's ``history`` is a
    :class:`StepHistory`: an ordinary step appends its record's fields, a
    batch of non-productive steps one segment per constraint run it spans
    (see :class:`StepHistory` for what each holds); a replayed step is an
    ordinary one, its point one of the cycle's two iterates.
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
            scan = _SupportScan(bank, scan, eps, config.policy is Policy.AGGREGATE_MAX).scan
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
    # Where every step is a function of the iterate's bits, the last two
    # ordinary productive steps as (step, x, value, row), watched for a
    # two-step cycle (see ``_replay``).
    replay = (not lipschitz and type(prox) in (EuclideanSpace, EuclideanBall, EntropySimplex)
              and _built_in(objective) and all(map(_built_in, bank.oracles)))
    back1 = back2 = None

    while steps < max_steps:
        sel = select(x)
        if sel is None:
            value, objective_row = evaluate(x)
            _, grad, norm = objective_row
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
            if replay:
                # Bytes, not ==: a -0.0 equals +0.0 but is another point.
                if (back2 is not None and value == back2[2] and back2[0] == steps - 2
                        and x.tobytes() == back2[1].tobytes()):
                    select, evaluate, mirror = _replay(back2[1:], back1[1:])
                    replay = False
                else:
                    back2, back1 = back1, (steps, x, value, objective_row)
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
            x, crit_sum, iterates, taken, batching = runs.chain(
                x, idx0, max_steps - steps, crit_sum, stop_target)
            for last, first, count in taken:
                if history is not None:  # the rows are rebuilt from the first
                    norm = row(last, None)[2]
                    history._add_segment(steps, eps / (norm * norm), norm, last + 1,
                                         iterates[first].copy(), runs.steps[last], count)
                steps += count

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
        crit_sum=crit_sum,
        stop_target=stop_target,
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
