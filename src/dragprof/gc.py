"""Single-pass Cheney collection plus independent verification traversals.

collect() copies the graph reachable from the roots breadth-first into
a fresh list, to-space (Cheney, "A nonrecursive list compacting
algorithm", CACM 1970).  To-space is the work queue: one loop forwards
the roots, then, batch by batch, the slots copied since its previous
batch, until no new slot was copied.  Each object moves with one slice
assignment at the list's end, which extends it, so to-space holds only
the copied slots; the heap's capacity_slots, not the list's length,
bounds it (ToSpaceOverflow).  An object's record takes the new address,
and the shared forwarding marker FORWARDED is left in its evacuated
from-space cell.  A reference is the record itself (heap.py), so the
copied slots keep their references and nothing is rewritten.  Then
to-space becomes the heap's slots, and the flush callback the Collector
was made with (runtime.Runtime.flush_unmarked) drops every record of
the object table whose id was not copied and dates its death, reading
the dead objects' slots from from-space, which is let go after it.

A copy opens no collection point; the runtime opens every point and
decides when to copy (runtime.py).  So one copy resolves every point
opened since the last one: the Merlin stamps (heap.py) date each object
it did not copy to the point at which it became unreachable, and each
point's statistics follow from those dates.

reachability_oracle() and canonical_serialization() are verification
helpers for the test suites.  They share the heap's slot accessors but no
traversal logic with collect(), so they can be used to cross-check it.
"""

from .errors import DanglingRef, ToSpaceOverflow
from .heap import FORWARDED, PAIR, Heap, LifetimeRecord, Nil
from .profiler import CollectionStats


class Collector:
    """Cheney-style copier over one Heap.  flush(marked, from_slots)
    drops the records whose ids are not in marked and returns them."""

    def __init__(self, heap: Heap, flush):
        self.heap = heap
        self.flush = flush

    def collect(self, roots, clock: int, trigger: str = "manual"
                ) -> CollectionStats:
        heap = self.heap
        src = heap.slots
        dst = []
        capacity = heap.capacity_slots
        copied: set[int] = set()
        free = 0  # next free to-space slot
        scan = 0  # first copied slot not yet handed to the loop
        batch = roots
        while True:
            for v in batch:
                if type(v) is not LifetimeRecord:
                    if v is FORWARDED:
                        raise AssertionError(
                            "forwarding marker leaked into to-space")
                    continue
                obj_id = v.obj_id
                if obj_id in copied:
                    continue
                base = v.address
                if base is None:
                    raise DanglingRef(f"root/slot points at collected "
                                      f"object #{obj_id}")
                size = v.size_slots
                if free + size > capacity:
                    raise ToSpaceOverflow(f"to-space full while "
                                          f"copying object #{obj_id}")
                dst[free:free + size] = src[base:base + size]
                if size:
                    src[base] = FORWARDED
                v.address = free
                free += size
                copied.add(obj_id)
            if scan == free:
                break
            # The slots copied since the last batch are the next batch.
            batch = dst[scan:free]
            scan = free

        heap.slots = dst
        heap.used_slots = free
        flushed = self.flush(copied, src)
        return CollectionStats(trigger, clock, len(copied), len(flushed),
                               free)


def reachability_oracle(heap: Heap, roots) -> set[int]:
    """Exact transitive closure over reference slots, by brute-force
    worklist, through the object table by id.

    Shares no traversal code with Collector.collect; tests compare the two.
    """
    reached: set[int] = set()
    stack = []
    for ref in roots:
        if ref.obj_id not in heap.objects:
            raise DanglingRef(f"oracle root #{ref.obj_id} was collected")
        if ref.obj_id not in reached:
            reached.add(ref.obj_id)
            stack.append(ref.obj_id)
    while stack:
        obj_id = stack.pop()
        for i in range(heap.objects[obj_id].size_slots):
            v = heap.slot_value(obj_id, i)
            if type(v) is LifetimeRecord and v.obj_id not in reached:
                if v.obj_id not in heap.objects:
                    raise DanglingRef(f"slot points at collected "
                                      f"object #{v.obj_id}")
                reached.add(v.obj_id)
                stack.append(v.obj_id)
    return reached


def canonical_serialization(heap: Heap, roots) -> str:
    """Deterministic textual form of the graph reachable from the roots.

    Objects are numbered in first-visit order and later visits emit a
    back-reference token, so shared and cyclic structure serializes
    finitely and equality means graph isomorphism (given equal root
    order).  Tokens are type-prefixed to keep the encoding injective.
    """
    out: list[str] = []
    seen: dict[LifetimeRecord, int] = {}
    # Frames: ("val", value) emits one value, ("lit", token) emits a token.
    stack = []
    for ref in reversed(list(roots)):
        stack.append(("val", ref))
    while stack:
        op, payload = stack.pop()
        if op == "lit":
            out.append(payload)
            continue
        v = payload
        if type(v) is LifetimeRecord:
            if v in seen:
                out.append(f"@{seen[v]}")
                continue
            if heap.objects.get(v.obj_id) is not v:
                raise DanglingRef(f"serializing collected object #{v.obj_id}")
            seen[v] = len(seen)
            out.append("p(" if v.kind == PAIR else f"v{v.size_slots}(")
            stack.append(("lit", ")"))
            base = v.address
            for i in range(v.size_slots - 1, -1, -1):
                stack.append(("val", heap.slots[base + i]))
        elif v is True:
            out.append("b:t")
        elif v is False:
            out.append("b:f")
        elif isinstance(v, int):
            out.append(f"i:{v}")
        elif isinstance(v, Nil):
            out.append("nil")
        elif isinstance(v, str):
            out.append(f"s:{v}")
        else:
            raise AssertionError(f"unserializable slot value {v!r}")
    return " ".join(out)
