"""Channel models: weighted symbols, branch systems, and weighted FSMs.

A discrete noiseless channel accepts some set of weighted-symbol strings and
rejects everything else.  We model the accepted strings as root paths of a
(usually infinite) tree: every node expands into a finite, nonempty set of
branches, each branch carries a symbol with a strictly positive weight, and
path weights add along branches.  Regular constraints come from finite-state
machines; non-regular ones from arbitrary generator functions over opaque
node handles.

Every weight is an exact rational, so that enumeration buckets equal weights
exactly: ints and Fractions as they are, strings ("3/10" or "0.3") as the
rational they spell, and a float as the binary fraction it stores.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidSystemError

Branches = tuple[tuple["Symbol", Hashable], ...]


def parse_weight(value) -> Fraction:
    """Coerce a weight to an exact Fraction.

    Decimal strings are scaled to exact rationals ("0.3" -> 3/10), so spec
    files never suffer a silent float round trip; a float becomes the binary
    fraction it stores (0.5 -> 1/2), and inf and nan raise
    ``InvalidSystemError``.  A string may hold no "_" and no inner space:
    ``Fraction`` takes "1_000" from Python 3.11 on and "1 / 2" from 3.12 on.
    """
    if isinstance(value, bool):
        raise TypeError("weight must be numeric, not bool")
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        try:
            if "_" in text or len(text.split()) > 1:
                raise ValueError
            return Fraction(text)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a valid rational weight: {value!r}") from exc
    if isinstance(value, float):
        if not math.isfinite(value):
            raise InvalidSystemError(f"weight {value} is outside the float range")
        return Fraction(value)
    raise TypeError(f"unsupported weight type: {type(value).__name__}")


@dataclass(frozen=True)
class Symbol:
    """A channel symbol: a nonempty label with no tab or line break and a
    strictly positive weight, whose float is positive and finite too.  That
    float is kept as ``_float``, an attribute outside the dataclass fields."""

    label: str
    weight: Fraction

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise InvalidSystemError("symbol label must be a nonempty string")
        if {"\t", "\n", "\r"} & {*self.label}:  # the sample TSV's separators
            raise InvalidSystemError("symbol label must hold no tab or line break")
        raw = self.weight
        try:
            object.__setattr__(self, "weight", parse_weight(raw))
        except InvalidSystemError as exc:  # inf or nan
            raise InvalidSystemError(f"symbol {self.label!r}: {exc}") from None
        try:
            object.__setattr__(self, "_float", float(self.weight))
        except OverflowError:
            object.__setattr__(self, "_float", math.inf)
        if not 0.0 < self._float < math.inf:
            if not self.weight > 0:
                raise InvalidSystemError(
                    f"symbol {self.label!r}: weight must be > 0, got {self.weight}"
                )
            raise InvalidSystemError(
                f"symbol {self.label!r}: weight {raw} is outside the float range"
            )


def symbols(spec: Mapping[str, object]) -> tuple[Symbol, ...]:
    """Build an alphabet from a {label: weight} mapping."""
    return tuple(Symbol(label, w) for label, w in spec.items())


@dataclass(frozen=True, eq=False)
class BranchSystem:
    """Tree view of a channel: a root handle plus a pure expansion function.

    ``expand`` maps a node handle to the finite, nonempty tuple of
    ``(Symbol, child_handle)`` branches leaving that node.  Handles are opaque
    and owned by the system (state indices for FSMs, encoded prefix state for
    generators), so no tree is ever materialized.  Instances are immutable and
    ``expand`` must be a pure function of its handle, which makes concurrent
    read access safe.  ``fsm`` is set for every regular channel (a
    memoryless one is its one-state FSM); generators leave it unset.
    """

    root: Hashable
    expand: Callable[[Hashable], Branches]
    fsm: "WeightedFsm | None" = None


@dataclass(frozen=True, eq=False)
class WeightedFsm:
    """A finite-state machine with weighted, deterministically labeled edges.

    Invariants enforced at construction: every state has at least one
    outgoing transition (no dead ends -- a dead end would break Markov
    generability and is treated as a modeling bug, not silently pruned),
    all states are reachable from ``start``, and the labels leaving any one
    state are pairwise distinct.  The graph is derived then, once:
    ``outgoing``, the read-only ``edges`` (source, float weight and target
    arrays in ``transitions`` order) and the read-only ``components``,
    whose one forward search from ``start`` also proves reachability.
    """

    num_states: int
    start: int
    transitions: tuple[tuple[int, Symbol, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "transitions", tuple(self.transitions))
        if not all(isinstance(sym, Symbol) for _, sym, _ in self.transitions):
            raise InvalidSystemError("every transition needs a Symbol")
        if self.num_states < 1:
            raise InvalidSystemError("an FSM needs at least one state")
        if not 0 <= self.start < self.num_states:
            raise InvalidSystemError(f"start state {self.start} out of range")
        for src, _, dst in self.transitions:
            if not (0 <= src < self.num_states and 0 <= dst < self.num_states):
                raise InvalidSystemError(f"transition ({src} -> {dst}) out of range")
        # the first state without a successor, found before any table of
        # num_states entries is built
        sources = sorted({src for src, _, _ in self.transitions})
        if len(sources) < self.num_states:
            state = next(
                (i for i, source in enumerate(sources) if i != source), len(sources)
            )
            raise InvalidSystemError(
                f"state {state} is a dead end (every state needs a successor)"
            )
        table: list[list] = [[] for _ in range(self.num_states)]
        for src, sym, dst in self.transitions:
            table[src].append((sym, dst))
        outgoing = dict(enumerate(map(tuple, table)))
        for state, outs in outgoing.items():
            if len({sym.label for sym, _ in outs}) != len(outs):
                raise InvalidSystemError(f"state {state} has duplicate outgoing labels")
        label = strong_components([[dst for _, dst in outs] for outs in table], [self.start])
        if (label < 0).any():
            raise InvalidSystemError(f"states {np.flatnonzero(label < 0).tolist()} "
                                     "unreachable from start (prune them first)")
        columns = zip(*((i, sym._float, j) for i, sym, j in self.transitions))
        edges = tuple(map(np.array, columns))
        for array in (*edges, label):
            array.flags.writeable = False
        vars(self).update(outgoing=outgoing, edges=edges, components=label)

    def accepts(self, labels: Iterable[str]) -> bool:
        """Walk the label sequence from the start state; labels are atomic."""
        state = self.start
        for label in labels:
            for sym, dst in self.outgoing[state]:
                if sym.label == label:
                    state = dst
                    break
            else:
                return False
        return True

    def is_strongly_connected(self) -> bool:
        return bool((self.components == self.components[0]).all())


def _finish_order(successors, roots, seen=None) -> list[int]:
    """States reachable from ``roots`` and not in ``seen``, in depth-first
    finishing order; ``seen`` gains every state visited."""
    seen = set() if seen is None else seen
    order = []
    for root in roots:
        path = [] if root in seen else [(root, iter(successors[root]))]
        seen.add(root)
        while path:
            for nxt in path[-1][1]:
                if nxt not in seen:
                    seen.add(nxt)
                    path.append((nxt, iter(successors[nxt])))
                    break
            else:
                order.append(path.pop()[0])
    return order


def strong_components(successors: list[list[int]], roots) -> np.ndarray:
    """Each state's strongly connected component, named by its smallest
    state, for the successor lists of any directed multigraph; dead ends are
    fine, and a state not reachable from ``roots`` is labelled -1.

    Kosaraju: a backward search in reverse forward-finishing order stays
    inside one component.  The forward pass runs from ``roots`` only, and
    the states it missed are marked seen, so no backward search enters them.
    """
    backward: list[list[int]] = [[] for _ in successors]
    for i, outs in enumerate(successors):
        for j in outs:
            backward[j].append(i)
    order = _finish_order(successors, roots)
    label, seen = [-1] * len(successors), set(range(len(successors))) - set(order)
    for root in reversed(order):
        if root not in seen:
            component = _finish_order(backward, [root], seen)
            name = min(component)
            for state in component:
                label[state] = name
    return np.array(label)


def fsm_to_branch_system(fsm: WeightedFsm) -> BranchSystem:
    """View an FSM as a branch system whose handles are state indices.

    Depth-l paths of the result are exactly the FSM's length-l transition
    sequences from the start state.
    """
    return BranchSystem(root=fsm.start, expand=fsm.outgoing.__getitem__, fsm=fsm)


def _checked_alphabet(alphabet: Sequence[Symbol]) -> tuple[Symbol, ...]:
    alphabet = tuple(alphabet)
    if not alphabet:
        raise InvalidSystemError("alphabet must be nonempty")
    labels = [sym.label for sym in alphabet]
    if len(set(labels)) != len(labels):
        raise InvalidSystemError("alphabet labels must be distinct")
    return alphabet


def make_memoryless(alphabet: Sequence[Symbol]) -> BranchSystem:
    """An unconstrained channel: depth-l support is every l-tuple of symbols.

    It is its one-state FSM, whose self-loops are its branches.
    """
    loops = tuple((0, sym, 0) for sym in _checked_alphabet(alphabet))
    return fsm_to_branch_system(WeightedFsm(1, 0, loops))


_OPEN = Symbol("(", 1)
_CLOSE = Symbol(")", 1)


def _dyck_expand(balance: int) -> Branches:
    if balance == 0:
        return ((_OPEN, 1),)
    return ((_OPEN, balance + 1), (_CLOSE, balance - 1))


def make_dyck_prefix() -> BranchSystem:
    """Balanced-prefix channel over "(" and ")", both of weight 1.

    Accepted strings are exactly those whose every prefix has a nonnegative
    running balance.  The node handle is the current balance, so the state
    space is unbounded and the constraint is not regular.
    """
    return BranchSystem(root=0, expand=_dyck_expand)


def make_rll(d: int, k: int) -> WeightedFsm:
    """Run-length-limited binary channel on the standard (k+1)-state graph.

    State i means "i zeros seen in the current run"; "0" advances i while
    i < k and "1" resets to state 0 when i >= d.  The start state is 0, i.e.
    the sequence begins as if a one had just been emitted, so the leading
    zero run obeys the same [d, k] bound as every interior run.  Unit weights.
    """
    if not (isinstance(d, int) and isinstance(k, int)):
        raise InvalidSystemError("run-length bounds must be integers")
    if not 0 <= d < k:
        raise InvalidSystemError(f"need 0 <= d < k, got d={d}, k={k}")
    zero = Symbol("0", 1)
    one = Symbol("1", 1)
    transitions = []
    for i in range(k + 1):
        if i < k:
            transitions.append((i, zero, i + 1))
        if i >= d:
            transitions.append((i, one, 0))
    return WeightedFsm(k + 1, 0, tuple(transitions))


def make_golden_mean() -> WeightedFsm:
    """Binary channel forbidding "11" (two ones in a row), unit weights."""
    zero = Symbol("0", 1)
    one = Symbol("1", 1)
    return WeightedFsm(2, 0, ((0, zero, 0), (0, one, 1), (1, zero, 0)))
