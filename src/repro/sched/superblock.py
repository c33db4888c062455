"""Superblock assembly: merge blocks + speculatable if/else regions.

The paper's scheduler speculates across if/else structures: operations
of both paths become ordinary candidates and only their pWRITEs / memory
operations are predicated (Section V-B).  We realise this by flattening
a maximal run of blocks and loop-free if/else regions into one
*superblock*: a DAG of :class:`SBItem` scheduling items with

* VARREAD nodes elided into variable operands (read fusing, V-E),
* CONST nodes elided into constant operands (materialised on demand),
* pWRITE fusing into single-consumer producers (V-E),
* cross-block variable/array hazard edges,
* a predicate (:class:`PredRef`) per item from its if-nesting, and
* :class:`CondStep` plans attached to condition compares.

All of that except the C-Box pair numbers depends only on the kernel.
It is built once per (region tuple, outer-predicate shape) as a
:class:`Skeleton`, which the scheduler keeps in the kernel's carried
memo (:meth:`repro.ir.cdfg.Kernel.facts`).  Every schedule then *binds*
the skeleton: it plans the speculated ifs' conditions on its own
:class:`PredPlanner`, attaches the planned steps and the chain
dependences between them, and takes the longest-path priorities for
that chain from the skeleton.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.ir.nodes import ArrayRef, Node, Var
from repro.ir.regions import BlockRegion, CondExpr, IfRegion, Region, SeqRegion
from repro.sched.predication import CondStep, PredPlanner
from repro.sched.schedule import PredRef, SchedulingError

__all__ = ["OperandSpec", "SBItem", "Skeleton", "Superblock", "build_superblock"]


@dataclass(frozen=True)
class OperandSpec:
    """One operand of a scheduling item after read/const elision."""

    kind: str  # "node" | "var" | "const"
    node: Optional[Node] = None
    var: Optional[Var] = None
    const: Optional[int] = None

    @staticmethod
    def of_node(node: Node) -> "OperandSpec":
        return OperandSpec("node", node=node)

    @staticmethod
    def of_var(var: Var) -> "OperandSpec":
        return OperandSpec("var", var=var)

    @staticmethod
    def of_const(const: int) -> "OperandSpec":
        return OperandSpec("const", const=const)


@dataclass
class SBItem:
    """One schedulable operation of a superblock."""

    node: Node
    pred: Optional[PredRef]
    operands: Tuple[OperandSpec, ...]
    deps: FrozenSet[int] = frozenset()  # item node-ids
    #: variable written by this item (fused pWRITE target, or the
    #: variable of an unfused VARWRITE)
    dest_var: Optional[Var] = None
    #: the VARWRITE node fused into this item, if any
    fused_write: Optional[Node] = None
    cond_step: Optional[CondStep] = None
    priority: int = 0
    #: the node's id and opcode, read on every placement probe
    key: int = field(init=False, repr=False, compare=False)
    opcode: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.key = self.node.id
        self.opcode = self.node.opcode


@dataclass
class Superblock:
    items: Dict[int, SBItem]  # keyed by node id, in program order
    #: pairs introduced by this superblock's speculated ifs
    pairs: List[int]
    #: fused pWRITE node id -> producer item key
    fused_writes: Dict[int, int] = field(default_factory=dict)
    #: successor map over the item graph (filled by priority analysis)
    succs: Dict[int, List[int]] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.items)


#: stands for the caller's predicate inside a skeleton, whose own pairs
#: are numbered from 0
_OUTER = PredRef(-1, True)

#: chain dependences (item key, previous step's item key) -> (item key
#: -> longest-path priority, successor map)
Ranks = Tuple[Dict[int, int], Dict[int, List[int]]]


@dataclass
class Skeleton:
    """The kernel-only part of one superblock.

    Pair numbers are relative: the skeleton's own pairs count from 0 and
    :data:`_OUTER` stands for the caller's predicate.  Items carry no
    condition steps, no chain dependences and no priority; binding adds
    them.  A skeleton is never changed by binding except that ``ranks``
    fills in once per chain shape.
    """

    #: (condition, outer predicate) of every speculated if, in the order
    #: their pairs are minted
    conds: List[Tuple[CondExpr, Optional[PredRef]]]
    items: Dict[int, SBItem]
    fused_writes: Dict[int, int]
    ranks: Dict[FrozenSet[Tuple[int, int]], Ranks] = field(default_factory=dict)


def _flatten(
    regions: Sequence[Region],
    pred: Optional[PredRef],
    planner: PredPlanner,
    out: List[Tuple[Node, Optional[PredRef]]],
    conds: List[Tuple[CondExpr, Optional[PredRef]]],
) -> None:
    for region in regions:
        if isinstance(region, BlockRegion):
            for node in region.node_list:
                out.append((node, pred))
        elif isinstance(region, SeqRegion):
            _flatten(region.items, pred, planner, out, conds)
        elif isinstance(region, IfRegion):
            if not region.is_speculatable():
                raise SchedulingError(
                    "internal: non-speculatable if inside a superblock"
                )
            conds.append((region.cond, pred))
            pair = planner.plan_condition(region.cond, pred)
            for node in region.cond_block.node_list:
                out.append((node, pred))
            then_pred, else_pred = PredRef(pair, True), PredRef(pair, False)
            _flatten([region.then_body], then_pred, planner, out, conds)
            _flatten([region.else_body], else_pred, planner, out, conds)
        else:
            raise SchedulingError(
                f"internal: {type(region).__name__} inside a superblock"
            )


def build_superblock(
    regions: Sequence[Region],
    outer_pred: Optional[PredRef],
    planner: PredPlanner,
    memo: Optional[Dict[Any, Skeleton]] = None,
) -> Superblock:
    """Flatten ``regions`` (blocks + speculatable ifs) into a superblock.

    The skeleton comes from ``memo`` when it holds one for these regions
    and this outer-predicate shape, and is built and stored there
    otherwise.  The memo's keys hold the region objects, so an id is
    never reused while its entry lives.  The returned superblock has its
    own items dict; items are never changed by placement.
    """
    key = (tuple(regions), outer_pred is None)
    memo = {} if memo is None else memo
    skeleton = memo.get(key)
    if skeleton is None:
        skeleton = memo.setdefault(key, _skeleton(key[0], outer_pred))
    return _bind(skeleton, outer_pred, planner)


def _skeleton(regions: Sequence[Region], outer_pred: Optional[PredRef]) -> Skeleton:
    flat: List[Tuple[Node, Optional[PredRef]]] = []
    conds: List[Tuple[CondExpr, Optional[PredRef]]] = []
    outer = None if outer_pred is None else _OUTER
    # a private planner numbers the skeleton's pairs from 0 and applies
    # the structural checks; binding re-plans on the schedule's planner
    _flatten(regions, outer, PredPlanner(), flat, conds)

    # -- cross-block hazards (uniform recomputation over the flat order) --
    extra_deps: Dict[int, Set[int]] = {node.id: set() for node, _ in flat}
    last_write: Dict[Var, Node] = {}
    reads_since: Dict[Var, List[Node]] = {}
    last_store: Dict[ArrayRef, Node] = {}
    loads_since: Dict[ArrayRef, List[Node]] = {}
    for node, _ in flat:
        deps = extra_deps[node.id]
        if node.opcode == "VARREAD":
            var = node.var
            if var in last_write:
                deps.add(last_write[var].id)
            reads_since.setdefault(var, []).append(node)
        elif node.opcode == "VARWRITE":
            var = node.var
            if var in last_write:
                deps.add(last_write[var].id)
            for r in reads_since.get(var, ()):
                if r is not node.operands[0]:
                    deps.add(r.id)
            last_write[var] = node
            reads_since[var] = []
        elif node.opcode == "DMA_LOAD":
            arr = node.array
            if arr in last_store:
                deps.add(last_store[arr].id)
            loads_since.setdefault(arr, []).append(node)
        elif node.opcode == "DMA_STORE":
            arr = node.array
            if arr in last_store:
                deps.add(last_store[arr].id)
            for ld in loads_since.get(arr, ()):
                deps.add(ld.id)
            last_store[arr] = node
            loads_since[arr] = []
        for d in node.deps:
            deps.add(d.id)

    # -- VARREAD / CONST elision -------------------------------------------
    # consumers of each read node, and the read's own deps to transfer
    read_nodes = {n.id: n for n, _ in flat if n.opcode == "VARREAD"}
    const_nodes = {n.id: n for n, _ in flat if n.opcode == "CONST"}
    read_consumers: Dict[int, List[int]] = {rid: [] for rid in read_nodes}

    items: Dict[int, SBItem] = {}
    item_deps: Dict[int, Set[int]] = {}
    for node, pred in flat:
        if node.id in read_nodes or node.id in const_nodes:
            continue
        operands: List[OperandSpec] = []
        deps = set(extra_deps[node.id])
        for op in node.operands:
            if op.id in read_nodes:
                operands.append(OperandSpec.of_var(op.var))  # type: ignore[arg-type]
                read_consumers[op.id].append(node.id)
                deps |= extra_deps[op.id]  # transfer the read's RAW dep
            elif op.id in const_nodes:
                operands.append(OperandSpec.of_const(op.value))  # type: ignore[arg-type]
            else:
                operands.append(OperandSpec.of_node(op))
        items[node.id] = SBItem(node=node, pred=pred, operands=tuple(operands))
        item_deps[node.id] = deps

    # rewrite deps that point at elided reads/consts
    for key, deps in item_deps.items():
        new_deps: Set[int] = set()
        for dep in deps:
            if dep in read_nodes:
                # WAR: wait for the read's consumers instead
                for consumer in read_consumers[dep]:
                    if consumer != key:
                        new_deps.add(consumer)
            elif dep in const_nodes:
                continue
            elif dep in items and dep != key:
                new_deps.add(dep)
            # deps outside the superblock were satisfied by region order
        item_deps[key] = new_deps

    # -- pWRITE fusing (Section V-E) ---------------------------------------
    consumer_count: Dict[int, int] = {}
    for item in items.values():
        for op in item.operands:
            if op.kind == "node":
                consumer_count[op.node.id] = consumer_count.get(op.node.id, 0) + 1

    fused: Dict[int, int] = {}  # write node id -> producer node id
    for key in list(items):
        item = items.get(key)
        if item is None or item.opcode != "VARWRITE":
            continue
        src_spec = item.operands[0]
        if src_spec.kind != "node":
            continue  # var-to-var move or constant write: keep as op
        src = src_spec.node
        if src.id not in items:
            continue
        if consumer_count.get(src.id, 0) != 1:
            continue
        src_item = items[src.id]
        if src_item.dest_var is not None:
            continue
        if src_item.pred != item.pred:
            # "if any control flow predecessor inhibits fusing, a pWRITE
            # is not fused" — differing predicates would change semantics
            continue
        if src_item.opcode in ("DMA_STORE",):
            continue
        src_item.dest_var = item.node.var
        src_item.fused_write = item.node
        item_deps[src.id] |= {d for d in item_deps[key] if d != src.id}
        fused[key] = src.id
        del items[key]

    # unfused VARWRITE items carry their own variable
    for item in items.values():
        if item.opcode == "VARWRITE":
            item.dest_var = item.node.var

    # Deps referencing a fused write are kept as-is: the scheduler marks
    # the write id done when the fusion commits, or schedules it as its
    # own item when fusing fails on placement (dynamic unfuse) — so
    # readers always wait for the *actual* home update.  Deps referencing
    # ids that are neither items nor fused writes (elided dead reads,
    # consts) are dropped.
    for key, item in items.items():
        item.deps = frozenset(
            d for d in item_deps[key] if d != key and (d in items or d in fused)
        )
    return Skeleton(conds=conds, items=items, fused_writes=fused)


def _bind(
    skeleton: Skeleton, outer_pred: Optional[PredRef], planner: PredPlanner
) -> Superblock:
    """Plan the skeleton's conditions on ``planner`` and bind its items."""
    base = planner.n_pairs

    def rebase(pred: Optional[PredRef]) -> Optional[PredRef]:
        if pred is None:
            return None
        if pred is _OUTER:
            return outer_pred
        return PredRef(pred.pair + base, pred.positive)

    # minting in the skeleton's order numbers every pair base + its
    # relative number; the planner rejects a compare feeding two
    # conditions exactly as an unmemoised build would
    pairs = [
        planner.plan_condition(cond, rebase(outer))
        for cond, outer in skeleton.conds
    ]

    # condition steps: this superblock's ifs, plus conditions the caller
    # planned for a cond block or loop header in the superblock
    steps = {key: planner.steps[key] for key in skeleton.items if key in planner.steps}
    # condition chains evaluate in order: each non-first step must wait
    # for the previous leaf's combine (enforced at placement through
    # pair_ready, plus an explicit dep for list-scheduling sanity)
    writers = {step.write_pair: key for key, step in steps.items()}
    chain: Dict[int, int] = {}
    for key, step in steps.items():
        if step.read is not None:
            prev = writers.get(step.read.pair)
            if prev is not None and prev != key:
                chain[key] = prev
    shape = frozenset(chain.items())
    ranks = skeleton.ranks.get(shape)
    if ranks is None:
        ranks = skeleton.ranks.setdefault(shape, _rank(skeleton, chain))
    priority, succs = ranks

    items: Dict[int, SBItem] = {}
    for key, item in skeleton.items.items():
        prev = chain.get(key)
        items[key] = SBItem(
            node=item.node,
            pred=rebase(item.pred),
            operands=item.operands,
            deps=item.deps if prev is None else item.deps | {prev},
            dest_var=item.dest_var,
            fused_write=item.fused_write,
            cond_step=steps.get(key),
            priority=priority[key],
        )
    return Superblock(
        items=items, pairs=pairs, fused_writes=skeleton.fused_writes, succs=succs
    )


def _rank(skeleton: Skeleton, chain: Dict[int, int]) -> Ranks:
    """Longest-path priorities over the item graph (Section V-F)."""
    from repro.arch.operations import default_costs

    items, fused_writes = skeleton.items, skeleton.fused_writes
    succs: Dict[int, List[int]] = {k: [] for k in items}
    indeg: Dict[int, int] = {k: 0 for k in items}

    def preds_of(item: SBItem) -> Set[int]:
        preds = set()
        deps = set(item.deps)
        if item.key in chain:
            deps.add(chain[item.key])
        for dep in deps:
            # deps may reference a fused write; for graph purposes the
            # producer stands in (scheduling resolves the real timing)
            while dep in fused_writes:
                dep = fused_writes[dep]
            if dep in items:
                preds.add(dep)
        for op in item.operands:
            if op.kind == "node" and op.node.id in items:
                preds.add(op.node.id)
        preds.discard(item.key)
        return preds

    for item in items.values():
        for p in preds_of(item):
            succs[p].append(item.key)
            indeg[item.key] += 1

    ready = [k for k, d in indeg.items() if d == 0]
    topo: List[int] = []
    while ready:
        k = ready.pop()
        topo.append(k)
        for s in succs[k]:
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if len(topo) != len(items):
        raise SchedulingError("dependence cycle inside a superblock")

    def duration(item: SBItem) -> int:
        if item.opcode == "VARWRITE":
            return 1
        return default_costs(item.opcode).duration

    weight: Dict[int, int] = {}
    for k in reversed(topo):
        best = 0
        for s in succs[k]:
            best = max(best, weight[s])
        weight[k] = duration(items[k]) + best
    return weight, succs
