"""The three workloads: seeded batches of verified operations.

An operation is one request a user waits on: one relation decided, one
witness search, one closure, or one ``selfsim.cli.main`` invocation.  A batch
builds fresh machines and a list of operations from a ``random.Random``; only
``Op.run`` is timed.  Every ``Op.run`` looks its selfsim function up at call
time, so tracing wrappers installed later are seen.

Why these workloads:

* ``thmD-relations``: relation checks on the word-valued table machines
  thmD(2) and thmD(3), which have no group model.  ``section_word`` and
  ``root_perm`` on growing words take nearly all the time; relations in a
  batch share subwords, so late checks mostly read the caches.
* ``engine-closure``: machines built from group data.  Closures of words on
  the (not finite-state) C_p wr Z^2 machine keep creating engine states;
  witness searches on other data sets and deep powers mostly read.  The time
  goes to ``cache_key``, engine entries and the models' arithmetic.
* ``cli-mix``: in-process CLI runs that rebuild their machine every time, so
  caches are only ever written: the cold counterpart of ``thmD-relations``,
  and the only workload that runs the ``mealy`` and ``cli`` layers.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import oracle

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def package():
    """The selfsim package with every module imported."""
    import selfsim
    import selfsim.cli  # noqa: F401  (makes selfsim.cli an attribute)

    return selfsim


# ---------------------------------------------------------------------------
# thmD-relations
# ---------------------------------------------------------------------------

CONJUGATORS = [(i, j) for i in range(-2, 3) for j in range(-2, 3)]
# The 300 lamp commutators of criterion 4 in 12 fixed interleaved chunks.
# Batch i checks chunk i % 12 on both thmD(2) and thmD(3), in a fixed order
# and before the relations sampled from the seed, so every seed does the same
# commutator work with the same cache contents.  Drawing the pairs from the
# seed instead changes a run's throughput by a quarter, and shuffling them
# moves p90 by a third, because the first checks of shared subwords pay for
# the later ones.
CHUNKS = 12
# A pass checks the first two chunks, 132 relations: the chunks differ in
# cost by up to a third, so every run must check the same ones.
THMD_BATCHES = 2
# Pairs among the first six Fibonacci states: the pairs with the seventh or
# eighth state agree to depth 11 and take 4-6 s each, a sixth of a run.
FIB_STATES = 6


def _relation(sf, machine, word, depth, expect) -> Op:
    return Op(
        "relation",
        lambda: sf.tree_core.trivial_to_depth(machine, word, depth),
        lambda got: got is expect,
    )


def _thmd_relations(sf, rng, p: int, chunk: int) -> list[Op]:
    machine = sf.mealy.builtin_machine(f"thmD({p})")
    s, a, b = (sf.perm_word.GroupWord.gen(n) for n in "sab")
    commutator = sf.perm_word.commutator

    def lamp(c):
        return s.conjugate_by(a ** c[0] * b ** c[1])

    pairs = list(combinations(CONJUGATORS, 2))[chunk::CHUNKS]
    fixed = [_relation(sf, machine, commutator(lamp(u), lamp(v)), 8, True) for u, v in pairs]
    ops = []
    for c in rng.sample(CONJUGATORS, 2):
        ops.append(_relation(sf, machine, lamp(c) ** p, 8, True))
    ops.append(_relation(sf, machine, commutator(a, b), 10, True))
    ops.append(_relation(sf, machine, s**p, 12, True))
    fib = sf.wreath_models.fibonacci_states(p, FIB_STATES, machine)
    for i, j in rng.sample(list(combinations(range(FIB_STATES), 2)), 2):
        u, v = fib[i], fib[j]
        ops.append(
            Op(
                "inequality",
                lambda u=u, v=v: sf.tree_core.equal_to_depth(u, v, 12),
                lambda got: got is False,
            )
        )
    # negative controls: lamp^k with p not dividing k moves the first level
    for c in rng.sample(CONJUGATORS, 2):
        k = rng.choice([k for k in range(1, 2 * p) if k % p])
        ops.append(_relation(sf, machine, lamp(c) ** k, 8, False))
    rng.shuffle(ops)
    return fixed + ops


def thmd_batch(rng, index: int, tmp: Path) -> list[Op]:
    sf = package()
    return [op for p in (2, 3) for op in _thmd_relations(sf, rng, p, index % CHUNKS)]


def thmd_setup() -> None:
    sf = package()
    for p in (2, 3):
        sf.mealy.builtin_machine(f"thmD({p})")


# ---------------------------------------------------------------------------
# engine-closure
# ---------------------------------------------------------------------------

# Eight closures of 42 operations per batch, so p90 falls among them; fixed
# caps and word lengths keep batches alike in cost.  A closure's cost is set
# mostly by the top exponents of its word (a single +-1 costs twice as much as
# the others), so each closure slot fixes its cap, its p and the exponent sums
# of a and b, and the seed draws a word with those sums.
CLOSURE_SLOTS = (  # (cap, p, exponent sums of a and b)
    (100, 2, (1, 0)), (120, 3, (0, -1)), (140, 2, (-1, 1)), (160, 3, (2, 0)),
    (180, 2, (0, 1)), (200, 3, (-1, 0)), (220, 2, (0, -2)), (240, 3, (1, 1)),
)
ENGINE_BATCHES = 20  # 840 operations a pass
WITNESS_LENGTHS = (20, 110, 200)
DEEP_POWERS = ((2, 1), (2, 2), (2, 3), (3, 1))  # a^(p^k); a^9 on p=3 takes 4.5 s
WITNESS_SELECTORS = ("zwrz", "zwrz-wr-c2", "zomega", "concat:lamplighter:B=2+zwrz")


def _witness(sf, aut, max_depth: int, kind: str) -> Op:
    def check(got) -> bool:
        return got is not None and len(got) <= max_depth and aut.apply(got) != tuple(got)

    return Op(kind, lambda: sf.tree_core.find_moving_string(aut, max_depth), check)


def _engine_data(sf):
    wm = sf.wreath_models
    data = {sel: wm.data_by_selector(sel) for sel in WITNESS_SELECTORS}
    data["lamplighter-extension"] = wm.lamplighter_extension_data((2,))
    for p in (2, 3):
        data[f"cp-wr-z2:p={p}"] = wm.data_by_selector(f"cp-wr-z2:p={p}")
    return data


def _random_word(sf, rng, names, length):
    return sf.perm_word.GroupWord(
        [(rng.choice(names), rng.choice((1, -1))) for _ in range(length)]
    )


def _closure_word(sf, rng, tops):
    """A random word of 2 to 4 letters in s, a, b whose exponent sums of a and
    b are ``tops``: the needed a and b letters and random s letters, shuffled."""
    letters = [(n, 1 if t > 0 else -1) for n, t in zip("ab", tops) for _ in range(abs(t))]
    for _ in range(rng.randint(max(0, 2 - len(letters)), 4 - len(letters))):
        letters.append(("s", rng.choice((1, -1))))
    rng.shuffle(letters)
    return sf.perm_word.GroupWord(letters)


def engine_batch(rng, index: int, tmp: Path) -> list[Op]:
    sf = package()
    GroupWord = sf.perm_word.GroupWord
    Automorphism = sf.tree_core.Automorphism
    machines = {
        sel: sf.gdata_engine.build_representation(d) for sel, d in _engine_data(sf).items()
    }
    # Operations on one machine share its caches, so the order is fixed: the
    # fixed deep searches on fresh machines, then the closure slots, then the
    # witnesses.  Shuffling them moved p90 by a fifth between seeds.
    ops = []
    # (c) deep searches: powers a^(p^k) fix many levels before they move
    for p, k in DEEP_POWERS:
        word = GroupWord.gen("a") ** (p**k)
        ops.append(_witness(sf, Automorphism(machines[f"cp-wr-z2:p={p}"], word), 12, "deep"))
    # (a) closures that keep creating engine states: a nonzero top exponent
    # makes the closure infinite, so it must stop truncated
    for cap, p, tops in CLOSURE_SLOTS:
        word = _closure_word(sf, rng, tops)
        aut = Automorphism(machines[f"cp-wr-z2:p={p}"], word)
        ops.append(
            Op(
                "closure",
                lambda aut=aut, cap=cap: sf.tree_core.states(aut, cap, 1),
                lambda got, cap=cap, word=word: got.truncated is True
                and len(got.states) == cap
                and got.states[0].word == word,
            )
        )
    # (b) witnesses for random nontrivial elements and long generator words
    for sel, machine in machines.items():
        if sel.startswith("cp-wr-z2"):
            continue
        model = machine.model
        for _ in range(3):
            g = model.random_element(rng)
            while model.is_identity(g):
                g = model.random_element(rng)
            ops.append(_witness(sf, machine.automorphism_of(g), 20, "witness"))
        for length in WITNESS_LENGTHS:
            word = _random_word(sf, rng, machine.generators, length)
            while model.is_identity(machine.element_of(word)):
                word = _random_word(sf, rng, machine.generators, length)
            ops.append(_witness(sf, Automorphism(machine, word), 20, "witness"))
    return ops


def engine_setup() -> None:
    sf = package()
    for data in _engine_data(sf).values():
        sf.gdata_engine.build_representation(data)


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

GOLDEN = HERE / "golden.json"
CLI_BATCHES = 8  # 280 operations a pass
# relation files the golden commands read, written into the run's temp dir
GOLDEN_FILES = {
    "diagram1.rel": "# expected trivial\ng g^-1\na a\na g a^-1 g^-1\n",
    "thmD2.rel": "s s\na b a^-1 b^-1\nb^-1 s b s b^-1 s^-1 b s^-1\n",
}


def run_cli(sf, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = sf.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def golden_commands() -> list[dict]:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))["commands"]


def expand(argv: list[str], tmp: Path) -> list[str]:
    return [a.replace("{tmp}", str(tmp)) for a in argv]


def _golden_op(sf, cmd: dict, tmp: Path) -> Op:
    argv = expand(cmd["argv"], tmp)

    def check(got) -> bool:
        ok = tuple(got) == (cmd["exit"], cmd["stdout"])
        for name, text in cmd["files"].items():
            path = tmp / name
            ok = ok and path.is_file() and path.read_text(encoding="utf-8") == text
            path.unlink(missing_ok=True)
        return ok

    return Op("golden", lambda: run_cli(sf, argv), check)


def _mealy_ops(sf, rng, tmp: Path, tag: str, m: int, n_states: int, acts: int) -> list[Op]:
    aut = oracle.Automaton.random(rng, m, n_states)
    path = tmp / f"{tag}.txt"
    path.write_text(aut.text(), encoding="utf-8")
    names = aut.states

    def word(lo, hi):
        return [(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(lo, hi))]

    ops = []
    for _ in range(acts):
        w = word(1, 6)
        string = tuple(rng.randrange(m) for _ in range(rng.randint(4, 10)))
        expected = (0, "".join(map(str, aut.apply(w, string))) + "\n")
        argv = ["act", "--machine", str(path), "--word", oracle.word_text(w),
                "--string", "".join(map(str, string))]
        ops.append(Op("act", lambda argv=argv: run_cli(sf, argv),
                      lambda got, e=expected: tuple(got) == e))
    depth = 7 if m == 2 else 4
    relations = [word(1, 5) for _ in range(4)]
    u = word(1, 3)
    relations.append(u + [(n, -s) for n, s in reversed(u)])  # freely trivial
    rel_path = tmp / f"{tag}.rel"
    rel_path.write_text("".join(oracle.word_text(r) + "\n" for r in relations), encoding="utf-8")
    verdicts = [oracle.fixes_to_depth(aut, r, depth) for r in relations]
    expected = (
        0 if all(verdicts) else 1,
        "".join(f"{'PASS' if ok else 'FAIL'} {oracle.word_text(r)}\n" for r, ok in zip(relations, verdicts)),
    )
    argv_check = ["check", "--machine", str(path), "--relations", str(rel_path),
                  "--depth", str(depth)]
    ops.append(Op("check", lambda: run_cli(sf, argv_check), lambda got: tuple(got) == expected))
    cap, sep = 12, (5 if m == 2 else 3)
    for _ in range(2):
        w = word(1, 3)
        argv_states = ["states", "--machine", str(path), "--word", oracle.word_text(w),
                       "--max", str(cap), "--sep-depth", str(sep)]
        ops.append(Op(
            "states",
            lambda argv=argv_states: run_cli(sf, argv),
            lambda got, w=w: got[0] == 0 and oracle.check_states_output(aut, w, cap, sep, got[1]),
        ))
    return ops


def cli_batch(rng, index: int, tmp: Path) -> list[Op]:
    sf = package()
    for name, text in GOLDEN_FILES.items():
        (tmp / name).write_text(text, encoding="utf-8")
    ops = [_golden_op(sf, cmd, tmp) for cmd in golden_commands()]
    # 22 golden and 13 seeded operations: the seeded ones all take about 2 ms,
    # so of 35 operations the 90th percentile falls in the middle of the
    # fourth-slowest golden command's samples, not at the edge between two.
    ops += _mealy_ops(sf, rng, tmp, f"b{index}-m2", 2, 3, acts=4)
    ops += _mealy_ops(sf, rng, tmp, f"b{index}-m3", 3, 2, acts=3)
    rng.shuffle(ops)
    return ops


def cli_setup() -> None:
    package()


# ---------------------------------------------------------------------------
# depth ladders (traced run only)
# ---------------------------------------------------------------------------


def table_ladder_case(sf, depth):
    """One fixed thmD(2) lamp commutator [s, s^(a^2 b^2)], fresh machine."""
    s, a, b = (sf.perm_word.GroupWord.gen(n) for n in "sab")
    word = sf.perm_word.commutator(s, s.conjugate_by(a**2 * b**2))
    machine = sf.mealy.builtin_machine("thmD(2)")
    return lambda: sf.tree_core.trivial_to_depth(machine, word, depth)


def engine_ladder_case(sf, depth):
    """The power a^27 on cp-wr-z2:p=3, trivial beyond depth 8; fresh machine."""
    data = sf.wreath_models.data_by_selector("cp-wr-z2:p=3")
    machine = sf.gdata_engine.build_representation(data)
    word = sf.perm_word.GroupWord.gen("a") ** 27
    return lambda: sf.tree_core.trivial_to_depth(machine, word, depth)


@dataclass
class Workload:
    name: str
    batch: Callable
    setup: Callable
    batches: int  # batches in one pass of a run
    ladder: tuple = ()  # (metric prefix, case factory, depths, with out_len_max)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("thmD-relations", thmd_batch, thmd_setup, THMD_BATCHES,
                 ("tree_core.depth_ladder.table", table_ladder_case, (6, 8, 10, 12), True)),
        Workload("engine-closure", engine_batch, engine_setup, ENGINE_BATCHES,
                 ("tree_core.depth_ladder.engine", engine_ladder_case, (5, 6, 7), False)),
        Workload("cli-mix", cli_batch, cli_setup, CLI_BATCHES),
    )
}
