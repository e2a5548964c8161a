"""Shared drivers and program templates for the test suite."""

import contextlib
import random

import dragprof
from dragprof.gc import Collector, canonical_serialization, reachability_oracle
from dragprof.heap import NIL
from dragprof.runtime import Runtime


def _substitute(text, old, new):
    assert old in text, f"template drifted: {old!r} not found"
    return text.replace(old, new)


def motiv_source(n, spin_steps):
    """The bundled motiv program with its two size knobs substituted."""
    text = dragprof.bundled_program("motiv.scm")
    text = _substitute(text, "(define n 1000)", f"(define n {n})")
    return _substitute(text, "(define spin-steps 5000)",
                       f"(define spin-steps {spin_steps})")


def nullified_source(n):
    text = dragprof.bundled_program("motiv-nullified.scm")
    return _substitute(text, "(define n 1000)", f"(define n {n})")


class HeapDriver:
    """Random mutator over a Runtime, no interpreter involved.

    Keeps an explicit root list registered as a root provider and mixes
    allocations (pairs and short vectors, some dropped immediately),
    root drops, slot writes and use events.  Live-set size stays bounded
    by max_roots plus whatever the rooted objects reach.
    """

    def __init__(self, runtime: Runtime, rng: random.Random, max_roots=40):
        self.rt = runtime
        self.rng = rng
        self.max_roots = max_roots
        self.roots = []
        runtime.add_root_provider(lambda: list(self.roots))

    def _random_value(self):
        r = self.rng.random()
        if self.roots and r < 0.5:
            return self.rng.choice(self.roots)
        if r < 0.75:
            return self.rng.randrange(-100, 100)
        return NIL

    def step(self) -> str:
        rng = self.rng
        rt = self.rt
        op = rng.random()
        if op < 0.45 or not self.roots:
            if rng.random() < 0.7:
                ref = rt.alloc_pair(self._random_value(),
                                    self._random_value())
            else:
                ref = rt.alloc_vector(rng.randrange(0, 4),
                                      self._random_value())
            if rng.random() < 0.8 and len(self.roots) < self.max_roots:
                self.roots.append(ref)
            return "alloc"
        if op < 0.60:
            self.roots.pop(rng.randrange(len(self.roots)))
            return "drop"
        if op < 0.80:
            ref = rng.choice(self.roots)
            size = rt.heap.objects[ref.obj_id].size_slots
            if size:
                rt.heap.write_slot(ref, rng.randrange(size),
                                   self._random_value())
            return "write"
        rt.record_use(rng.choice(self.roots))
        return "use"


def checked_collect(rt: Runtime):
    """Collect once, asserting the survivor set matches the independent
    reachability oracle and the reachable graph is unchanged."""
    live_before = len(rt.heap.objects)
    with oracle_checked_collections() as checked:
        stats = rt.collect_now("manual")
    assert checked == [stats]
    assert stats.survivors + stats.collected == live_before
    assert stats.survivors == len(rt.heap.objects)
    # every survivor sits inside the (new) active semispace
    for meta in rt.heap.objects.values():
        assert 0 <= meta.address
        assert meta.address + meta.size_slots <= rt.heap.used_slots
    return stats


def run_gc_correctness_session(seed: int, objects_budget=120,
                               heap_slots=8192):
    """One randomized mutation program with oracle-checked collections."""
    rng = random.Random(seed)
    rt = Runtime(heap_slots=heap_slots, gc_interval=10 ** 9)
    driver = HeapDriver(rt, rng)
    allocated = 0
    while allocated < objects_budget:
        if driver.step() == "alloc":
            allocated += 1
        if rng.random() < 0.04:
            checked_collect(rt)
    checked_collect(rt)
    log = rt.terminate()
    ids = [r.obj_id for r in log.records]
    assert len(ids) == allocated, "records lost or duplicated"
    assert len(set(ids)) == allocated, "an object was finalized twice"
    for rec in log.records:
        if rec.last_use_tick is not None:
            assert rec.create_tick <= rec.last_use_tick <= rec.collect_tick
        assert rec.create_tick <= rec.collect_tick
    return log


def run_delta_gc_session(seed: int, gc_interval: int, ops=1200,
                         heap_slots=4096):
    """Randomized run asserting the collection-lag bound: each object is
    collected at most gc_interval allocations after the oracle first
    reports it unreachable.  The oracle runs after every mutator step.

    Returns (objects allocated, objects checked against the bound).
    """
    rng = random.Random(seed)
    first_unreachable = {}  # obj_id -> allocation count at that moment
    violations = []
    checked = 0

    rt = Runtime(heap_slots=heap_slots, gc_interval=gc_interval)

    def on_collection(stats, flushed):
        nonlocal checked
        for rec in flushed:
            # Objects not yet seen unreachable died inside the very step
            # that triggered this collection: lag zero.
            u = first_unreachable.get(rec.obj_id, rt.total_allocations)
            gap = rt.total_allocations - u
            checked += 1
            if gap > gc_interval:
                violations.append((rec.obj_id, gap))

    rt.on_collection = on_collection
    driver = HeapDriver(rt, rng, max_roots=25)
    for _ in range(ops):
        driver.step()
        reachable = reachability_oracle(rt.heap, rt.gather_roots())
        for oid in rt.heap.objects:
            if oid not in reachable and oid not in first_unreachable:
                first_unreachable[oid] = rt.total_allocations
    rt.terminate()
    assert not violations, f"collection lag exceeded K: {violations[:5]}"
    return rt.total_allocations, checked


class ProgramGenerator:
    """Seeded random mini-Scheme programs for the interpreter.

    A program is a run of snippets: lists built by non-tail recursion,
    named-let folds, closures that keep state through set!, procedures
    with internal defines, quoted structure, vectors filled with fresh
    pairs, pair mutation that makes cycles, dropped references, and
    sometimes a deliberate runtime error.  Snippets refer to the heap
    values that earlier ones defined, so the live graph is shared and
    changes shape over the run.  Sizes stay small enough that 512 heap
    slots never run out.
    """

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.lists = []    # globals bound to proper lists of integers
        self.values = []   # globals bound to any value
        self.closures = []  # globals bound to counter procedures
        self.count = 0

    def _name(self, stem):
        self.count += 1
        return f"{stem}{self.count}"

    def _pick(self, names, default="'()"):
        return self.rng.choice(names) if names else default

    def program(self) -> str:
        rng = self.rng
        snippets = [self._build_list]
        snippets += rng.choices(
            [self._build_list, self._fold, self._counter, self._internal,
             self._quote, self._vector, self._cycle, self._drop,
             self._temporaries, self._call],
            k=rng.randrange(2, 7))
        forms = [make() for make in snippets]
        if rng.random() < 0.2:
            forms.append(self._error())
        # the result: a fresh structure over whatever is still defined
        forms.append(f"(list {self._pick(self.values)} "
                     f"{self._pick(self.lists)})")
        return "\n".join(forms)

    def _build_list(self):
        name, build = self._name("xs"), self._name("build")
        n = self.rng.randrange(0, 9)
        self.lists.append(name)
        self.values.append(name)
        return (f"(define ({build} n)\n"
                f"  (if (= n 0) '() (cons n ({build} (- n 1)))))\n"
                f"(define {name} ({build} {n}))")

    def _fold(self):
        name = self._name("sum")
        self.values.append(name)
        return (f"(define {name}\n"
                f"  (let loop ((l {self._pick(self.lists)}) (acc 0))\n"
                f"    (if (null? l) acc (loop (cdr l) (+ acc (car l))))))")

    def _counter(self):
        make, tick = self._name("make-counter"), self._name("tick")
        name = self._name("seen")
        k = self.rng.randrange(1, 4)
        other = self._pick(self.values)
        self.values.append(name)
        self.closures.append(tick)
        # only the closure's captured frame keeps its list alive
        return (f"(define ({make} start)\n"
                f"  (let ((c start) (seen '()))\n"
                f"    (lambda ()\n"
                f"      (set! seen (cons c seen))\n"
                f"      (set! c (+ c 1))\n"
                f"      (vector-length (list->vector seen)))))\n"
                f"(define {tick} ({make} {k}))\n"
                f"({tick})\n"
                f"({tick})\n"
                f"(define {name} (cons ({tick}) {other}))")

    def _internal(self):
        proc, name = self._name("pair-up"), self._name("pairs")
        self.values.append(name)
        return (f"(define ({proc} l)\n"
                f"  (define (swap p) (cons (cdr p) (car p)))\n"
                f"  (define acc '())\n"
                f"  (let walk ((l l))\n"
                f"    (if (null? l) acc\n"
                f"        (begin (set! acc (cons (swap (cons (car l) l)) acc))\n"
                f"               (walk (cdr l))))))\n"
                f"(define {name} ({proc} {self._pick(self.lists)}))")

    def _quote(self):
        name = self._name("q")
        self.values.append(name)
        n = self.rng.randrange(100)
        return (f"(define {name} '(a (b {n} #t) () . c))\n"
                f"(car (cdr {name}))")

    def _vector(self):
        name, copy = self._name("v"), self._name("vl")
        n = self.rng.randrange(0, 6)
        source = self._pick(self.lists)
        self.values.append(name)
        self.lists.append(copy)
        return (f"(define {name} (make-vector {n} 0))\n"
                f"(let fill ((i 0))\n"
                f"  (if (< i (vector-length {name}))\n"
                f"      (begin (vector-set! {name} i (cons i '()))\n"
                f"             (fill (+ i 1)))))\n"
                f"(define {copy} (vector->list (list->vector {source})))\n"
                f"(vector (vector->list {name}) {copy})")

    def _cycle(self):
        name = self._name("ring")
        other = self._pick(self.values)
        self.values.append(name)
        return (f"(define {name} (list 1 2 {other}))\n"
                f"(set-cdr! (cdr (cdr {name})) {name})\n"
                f"(set-car! {name} (eq? (car (cdr (cdr (cdr {name})))) 1))")

    def _temporaries(self):
        # values held only by a let's inits or a call's arguments while
        # later ones allocate
        name = self._name("tmp")
        n = self.rng.randrange(10)
        other = self._pick(self.values)
        self.values.append(name)
        return (f"(define {name}\n"
                f"  (let ((a (cons {n} {other})) (b (list {n} {n})))\n"
                f"    (set-car! b a)\n"
                f"    (list (cons (car a) b) (vector (cons 1 2))"
                f" (car (cons a (cons 3 4))))))")

    def _call(self):
        if not self.closures:
            return self._build_list()
        name = self._name("calls")
        self.values.append(name)
        return f"(define {name} ({self.rng.choice(self.closures)}))"

    def _drop(self):
        if not self.values:
            return "'()"
        name = self.values.pop(self.rng.randrange(len(self.values)))
        if name in self.lists:
            self.lists.remove(name)
        return f"(set! {name} '())"

    def _error(self):
        return self.rng.choice([
            "(car 5)",
            "(vector-ref (vector 1 2) 2)",
            "(undefined-procedure 1)",
            f"(let ((x {self._pick(self.values)})) (x))",
            "((lambda (a b) a) 1)",
            "(set! never-defined 1)",
            "(+ 1 '(2))",
        ])


@contextlib.contextmanager
def oracle_checked_collections():
    """Check every collection inside the block the way checked_collect
    does: the survivors are exactly what the oracle finds reachable from
    the roots, and the reachable graph is unchanged.  Yields a list that
    gets one entry per checked collection."""
    original = Collector.collect
    checked = []

    def collect(collector, roots, clock, trigger="manual"):
        heap = collector.heap
        expected = reachability_oracle(heap, roots)
        before = canonical_serialization(heap, roots)
        stats = original(collector, roots, clock, trigger)
        assert set(heap.objects) == expected, \
            f"survivors diverge from the oracle at tick {clock}"
        assert canonical_serialization(heap, roots) == before, \
            f"reachable graph changed at tick {clock}"
        checked.append(stats)
        return stats

    Collector.collect = collect
    try:
        yield checked
    finally:
        Collector.collect = original
