"""Collection points, lazy copies and Merlin death dating.

A collection point that does not copy only stamps its roots; a later
copy dates the deaths in between.  The dating tests run under
oracle_checked_points, which checks each point's stats and each
object's collect tick against the reachability oracle, so a missing
stamp shows as a wrong tick.  The last test bounds the copying itself.
"""

from collections import Counter

import pytest

from dragprof import runtime
from dragprof.heap import NIL
from dragprof.interp import run_source
from dragprof.profiler import CollectionStats
from dragprof.runtime import Runtime

from support import (
    RULE_PROGRAMS,
    in_key_order,
    oracle_checked_copies,
    oracle_checked_points,
)

# A 100-cell list stays live, so a copy keeps about 200 slots and the
# next one waits until the heap has doubled: many points pass uncopied.
KEEP = """
(define keep (let build ((i 0) (acc '()))
               (if (= i 100) acc (build (+ i 1) (cons i acc)))))
"""

# Each round stores a fresh pair in a slot of box, dropping the last
# reference to the previous round's pair, then allocates enough that a
# point passes at K=16 too.
OVERWRITE = KEEP + """
(define box {make})
(let loop ((i 0))
  ({store} (cons i i))
  (let spin ((k 0))
    (if (< k 20) (begin (cons k k) (spin (+ k 1)))))
  (if (< i 40) (loop (+ i 1))))
(car keep)
"""

STORES = {
    "set-car!": ("(cons 0 0)", "set-car! box"),
    "set-cdr!": ("(cons 0 0)", "set-cdr! box"),
    "vector-set!": ("(make-vector 3 0)", "vector-set! box 1"),
}


@pytest.mark.parametrize("k", [1, 2, 16])
@pytest.mark.parametrize("primitive", sorted(STORES))
def test_overwritten_slot_dates_its_old_target(primitive, k):
    make, store = STORES[primitive]
    with oracle_checked_points() as checked:
        r = run_source(OVERWRITE.format(make=make, store=store),
                       gc_interval=k, heap_slots=4096)
    assert r.value == 99
    assert checked.dated_points > len(checked.copies)


@pytest.mark.parametrize("k", [1, 2, 16])
def test_heap_write_slot_dates_its_old_target(k):
    with oracle_checked_points() as checked:
        rt = Runtime(heap_slots=4096, gc_interval=k)
        roots = [NIL]
        rt.roots = lambda: [v for v in roots if v is not NIL]
        for i in range(100):
            roots[0] = rt.alloc_pair(i, roots[0])
        box = rt.alloc_vector(2, NIL)
        roots.append(box)
        for i in range(40):
            pair = rt.alloc_pair(i, i)  # may move the box
            rt.heap.store(box.address + 1, pair)
            for _ in range(20):
                rt.alloc_pair(0, 0)
        rt.terminate()
    assert checked.dated_points > len(checked.copies)


def test_copy_between_points_leaves_ghosts():
    # K=8 in a 40-slot heap that keeps 24 slots live: the heap fills
    # between points, so copies run before allocations, and some find
    # the room a heap collected at every point would have, which makes
    # no exhaustion point.  The pair pinned at the last point, dropped
    # since, waits as a ghost for the next one.
    src = KEEP.replace("100", "12") + """
    (let loop ((i 0))
      (if (< i 300) (begin (cons i i) (loop (+ i 1)))))
    (car keep)
    """
    with oracle_checked_points() as checked:
        r = run_source(src, gc_interval=8, heap_slots=40)
    copies = sum(c.trigger == "exhaustion" for c in checked.copies)
    points = sum(s.trigger == "exhaustion" for s in r.collections)
    assert copies > points
    assert checked.dated_points > 0
    assert in_key_order(r.trace_log)


def test_ghosts_of_copies_out_of_id_order_are_sorted(monkeypatch):
    # the ghosts of two copies wait out of id order, and are logged so
    # at a point before the last: each sort takes the rows of one
    # collect tick, and some run before terminate
    sorted_ticks = []  # the collect ticks of each sort's rows
    sort = runtime.sorted_lines

    def noting(text):
        sorted_ticks.append([line.split()[6] for line in text.splitlines()])
        return sort(text)

    before_terminate = []
    terminate = Runtime.terminate

    def noting_terminate(rt):
        before_terminate.append(len(sorted_ticks))
        return terminate(rt)

    monkeypatch.setattr(runtime, "sorted_lines", noting)
    monkeypatch.setattr(Runtime, "terminate", noting_terminate)
    with oracle_checked_points() as checked:
        r = run_source(RULE_PROGRAMS["ghosts-out-of-id-order"],
                       gc_interval=8, heap_slots=44)
    assert r.value_repr == "11"
    assert checked.dated_points > 0
    log = r.trace_log
    assert in_key_order(log)
    rows = Counter(map(str, log.columns.collect_tick))
    for ticks in sorted_ticks:
        assert ticks == [ticks[0]] * rows[ticks[0]]
    assert before_terminate[0] >= 1


def test_exhaustion_point_is_dated_by_a_later_copy():
    # Ten live slots in a 16-slot heap: the heap can never double, so
    # only exhaustion and manual points copy.  g is a root at the
    # exhaustion point and dropped before the interval point after it,
    # so it died at that interval point; only the exhaustion point's
    # stamp on g tells the closing copy it was alive at the one before.
    with oracle_checked_points() as checked:
        rt = Runtime(heap_slots=16, gc_interval=2)
        roots = []
        rt.roots = lambda: list(roots)
        for i in range(5):
            roots.append(rt.alloc_pair(i, i))
        rt.collect_now()
        roots.append(rt.alloc_pair(0, 0))  # g
        for i in range(3):  # an interval point, then an exhaustion one
            rt.alloc_pair(i, i)
        g = roots.pop()
        rt.alloc_pair(0, 0)  # an interval point
        log = rt.terminate()
    assert checked.dated == ["interval", "exhaustion", "interval"]
    [rec] = [r for r in log.records if r.obj_id == g.obj_id]
    assert rec.collect_tick == rt.collections[-2].tick


def test_exhaustion_point_does_not_copy_an_empty_heap():
    # The ninth pair does not fit: the copy before it keeps nothing, but
    # the eight dead pairs still count as used until the next point, so
    # an exhaustion point opens.  The heap is empty, so the point is
    # resolved at once without a second copy.
    with oracle_checked_points() as checked:
        rt = Runtime(heap_slots=16, gc_interval=10 ** 9)
        for _ in range(9):
            rt.alloc_pair(1, 2)
        assert rt.collections == [CollectionStats("exhaustion", 8, 0, 8, 0)]
        rt.terminate()
    assert [c.trigger for c in checked.copies] == ["exhaustion", "manual"]
    assert checked.dated == ["exhaustion"]
    assert rt.collections[1:] == [CollectionStats("manual", 10, 0, 1, 0)]


@pytest.mark.parametrize("k", [1, 16])
def test_list_build_copies_a_constant_per_slot(k):
    # Copying only once the heap has doubled copies each slot of a
    # growing list a bounded number of times: at most 2 x 2n slots over
    # the growth plus the closing copy's 2n, where a copy at every
    # point would copy about n^2 / (2K) cells.
    n = 5000
    src = (f"(define (build i acc) (if (= i 0) acc (build (- i 1) "
           f"(cons i acc))))\n"
           f"(define xs (build {n} '()))\n"
           f"(let walk ((l xs)) (if (null? l) 0 (walk (cdr l))))")
    with oracle_checked_copies() as copies:
        run_source(src, gc_interval=k, heap_slots=1 << 15)
    assert sum(c.slots_copied for c in copies) <= 6 * n
