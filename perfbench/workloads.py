"""Workload programs for the benchmark, made from a seed.

Every workload keeps its sizes on every seed; the seed changes only
constants (the cipher's key, s-box and plaintext, the integers the list
programs store and return), so the work done per run does not depend on
it.  At the default seed the bundled programs are used as shipped.

Each workload carries the result the program must print, computed here
in plain Python without the dragprof package, and the shape its trace
log must have (record count and end tick), which depends on the sizes
only.
"""

import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 0

HERE = Path(__file__).resolve().parent
CIPHER_TEMPLATE = HERE / "cipher.scm"
CONSTANTS_BEGIN = ";; constants: begin\n"
CONSTANTS_END = ";; constants: end\n"

# Full sizes.  The smoke test builds the same programs at tiny sizes.
STREAM_CELLS = 100_000
CIPHER_ROUNDS = 600
CIPHER_WIDTH = 64
CIPHER_KEY_BYTES = 4
# Live data is about 470 slots, so with 700 some collections are
# triggered by exhaustion before the 16th allocation, and none runs out.
CIPHER_HEAP_SLOTS = 700


@dataclass(frozen=True)
class Workload:
    name: str
    source: str          # program text
    gc_interval: int
    heap_slots: int
    expected_result: str  # what `dragprof run` prints after "result: "
    records: int          # OBJ lines in the trace log
    end_tick: int | None  # END tick, when it follows from the sizes alone

    @property
    def file_name(self) -> str:
        return f"{self.name}.scm"


WHY = {
    "retain-k1": "bundled motiv.scm at K=1: a large live set copied about "
                 "1000 times, so collection dominates",
    "stream-k16": "motiv-nullified.scm at 100k cells, K=16: near-empty "
                  "live set, so the evaluator, allocation, log format "
                  "and analyze dominate",
    "cipher-k16": "substitution cipher over a vector state in a small "
                  "heap: about 80 uses per allocation, frequent root "
                  "walks and exhaustion-triggered collections",
}
NAMES = tuple(WHY)


def _substitute(text, old, new):
    if old not in text:
        raise ValueError(f"program template drifted: {old!r} not found")
    return text.replace(old, new, 1)


def _bundled(name: str) -> str:
    # Read next to the sources, not through the package, so that making
    # inputs does not depend on importing dragprof.
    path = HERE.parent / "src" / "dragprof" / "programs" / name
    return path.read_text(encoding="utf-8")


def _offset(seed: int) -> int:
    """Start value for the stored integers; 0 at the default seed."""
    return 0 if seed == DEFAULT_SEED else random.Random(
        f"offset-{seed}").randrange(1, 10_000)


def retain(seed: int, cells: int = 1000, spin_steps: int = 5000) -> Workload:
    text = _bundled("motiv.scm")
    start = _offset(seed)
    if cells != 1000 or start:
        text = _substitute(text, "(define n 1000)",
                           f"(define n {start + cells})")
        text = _substitute(text, "(let build ((i 0)",
                           f"(let build ((i {start})")
    if spin_steps != 5000:
        text = _substitute(text, "(define spin-steps 5000)",
                           f"(define spin-steps {spin_steps})")
    a, b = 3, 4
    if seed != DEFAULT_SEED:
        rng = random.Random(f"retain-{seed}")
        a, b = rng.randrange(1000), rng.randrange(1000)
        text = _substitute(text, "(cons 3 4)", f"(cons {a} {b})")
    # scratch, the cells, the (cons 1 2) and the result pair.
    records = cells + 3
    # Create scratch; per cell a create and, but for the first, a use of
    # the list it extends; null?/car/cdr per cell; one use per spin step;
    # create and use (cons 1 2); create the result; termination.
    end_tick = 1 + 2 * cells - 1 + 3 * cells + spin_steps + 2 + 1 + 1
    return Workload("retain-k1", text, 1, 65536,
                    f"({a} . {b})", records, end_tick)


def stream(seed: int, cells: int = STREAM_CELLS) -> Workload:
    text = _bundled("motiv-nullified.scm")
    start = _offset(seed)
    text = _substitute(text, "(define n 1000)",
                       f"(define n {start + cells})")
    if start:
        text = _substitute(text, "(let loop ((i 0))",
                           f"(let loop ((i {start}))")
    # One create and one use per cell, then termination.
    return Workload("stream-k16", text, 16, 65536,
                    "done", cells, 2 * cells + 1)


# ---------------------------------------------------------------------------
# Cipher

def cipher_constants(seed: int):
    """(s-box, key, plaintext) for a seed: a permutation of 0..255, the
    key bytes and the plaintext bytes."""
    rng = random.Random(f"cipher-{seed}")
    sbox = list(range(256))
    rng.shuffle(sbox)
    key = [rng.randrange(256) for _ in range(CIPHER_KEY_BYTES)]
    plain = [rng.randrange(256) for _ in range(CIPHER_WIDTH)]
    return sbox, key, plain


def _scheme_ints(values, indent: str, per_line: int = 16) -> str:
    rows = [" ".join(str(v) for v in values[i:i + per_line])
            for i in range(0, len(values), per_line)]
    return ("\n" + indent).join(rows)


def cipher_constants_block(seed: int) -> str:
    sbox, key, plain = cipher_constants(seed)
    return (
        f"(define sbox\n  (vector {_scheme_ints(sbox, '          ')}))\n"
        f"(define key (list {_scheme_ints(key, '')}))\n"
        f"(define plain\n  (vector {_scheme_ints(plain, '          ')}))\n"
    )


def cipher_reference(sbox, key, plain, rounds: int) -> int:
    """The checksum cipher.scm computes, reimplemented in plain Python."""
    width = len(plain)
    state = list(plain)
    ks = list(key)
    for _ in range(rounds):
        out = [0] * width
        prev = state[width - 1]
        for i in range(width):
            c = sbox[(state[i] + prev + ks[i % len(ks)]) % 256]
            out[i] = c
            prev = c
        state = out
        ks = [sbox[k] for k in ks]
    return sum((i + 1) * v for i, v in enumerate(state))


def cipher(seed: int, rounds: int = CIPHER_ROUNDS) -> Workload:
    text = CIPHER_TEMPLATE.read_text(encoding="utf-8")
    head, rest = text.split(CONSTANTS_BEGIN, 1)
    _, tail = rest.split(CONSTANTS_END, 1)
    text = (head + CONSTANTS_BEGIN + cipher_constants_block(seed)
            + CONSTANTS_END + tail)
    if rounds != CIPHER_ROUNDS:
        text = _substitute(text, f"(define rounds {CIPHER_ROUNDS})",
                           f"(define rounds {rounds})")
    expected = cipher_reference(*cipher_constants(seed), rounds)
    # s-box, plaintext and key, then per round one state vector and a
    # fresh key list.
    records = 2 + CIPHER_KEY_BYTES + rounds * (1 + CIPHER_KEY_BYTES)
    return Workload("cipher-k16", text, 16, CIPHER_HEAP_SLOTS,
                    str(expected), records, None)


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    """Build a workload; tiny=True gives a seconds-long smoke-test size."""
    if name == "retain-k1":
        return retain(seed, 50, 100) if tiny else retain(seed)
    if name == "stream-k16":
        return stream(seed, 50) if tiny else stream(seed)
    if name == "cipher-k16":
        return cipher(seed, 1) if tiny else cipher(seed)
    raise ValueError(f"unknown workload {name!r}; choose from "
                     f"{', '.join(NAMES)}")
