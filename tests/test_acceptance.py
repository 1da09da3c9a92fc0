"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every criterion is
self-contained and finishes well inside a minute on a commodity machine.
"""

import contextlib
import io
import itertools
import random

from selfsim import mealy
from selfsim.cli import main as cli_main
from selfsim.gdata_engine import build_representation, fcore_witness_check
from selfsim.perm_word import GroupWord, Perm, commutator, parse_word
from selfsim.tree_core import (
    Automorphism,
    equal_to_depth,
    find_moving_string,
    inflate,
    orbit_type,
    states,
    trivial_to_depth,
)
from selfsim.wreath_models import (
    decompose,
    fibonacci_states,
    lamplighter_data,
    lamplighter_extension_data,
    prop31_endos,
    cp_wr_z2_data,
    data_by_selector,
    z_data,
    zomega_data,
    zwrz_data,
    zwrz_wr_c2_data,
)

from test_wreath_models import recompose


def record(number: int, label: str, ok: bool):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def entry_matches(machine, name, section_texts, perm) -> bool:
    sections, got_perm = machine.entry(name)
    if got_perm != perm or len(sections) != len(section_texts):
        return False
    return all(
        machine.element_of(got) == machine.element_of(parse_word(text))
        for got, text in zip(sections, section_texts)
    )


def no_trivial_power(machine, word, max_power: int, depth: int) -> bool:
    return all(
        not trivial_to_depth(machine, word**n, depth) for n in range(1, max_power + 1)
    )


def lamp_commutators_trivial(machine, lamp, top, conj_range: int, depth: int) -> bool:
    """[lamp^(top^i), lamp^(top^j)] trivial to depth, for |i|, |j| <= conj_range."""
    exps = range(-conj_range, conj_range + 1)
    return all(
        trivial_to_depth(
            machine,
            commutator(lamp.conjugate_by(top**i), lamp.conjugate_by(top**j)),
            depth,
        )
        for i in exps
        for j in exps
    )


def test_criterion_1_diagram1_fidelity():
    machine = mealy.diagram1()
    ok = mealy.emit(mealy.parse(mealy.emit(machine))) == mealy.emit(machine)
    a_secs, a_perm = machine.entry("a")
    g_secs, g_perm = machine.entry("g")
    ok &= [str(w) for w in a_secs] == ["e", "a", "e"] and a_perm == Perm((1, 0, 2))
    ok &= [str(w) for w in g_secs] == ["g", "e", "a"] and g_perm.is_identity()
    ok &= orbit_type(machine) == (2, 1)
    a, g = GroupWord.gen("a"), GroupWord.gen("g")
    ok &= lamp_commutators_trivial(machine, g, a, 3, 12)
    for base in (g, a, g * a):
        ok &= no_trivial_power(machine, base, 8, 12)
    record(1, "diagram1 fidelity", ok)


def test_criterion_2_engine_reproduces_displays():
    adding = build_representation(z_data())
    ok = entry_matches(adding, "a", ["e", "a"], Perm((1, 0)))

    chain = build_representation(zomega_data(5))
    ok &= entry_matches(chain, "a1", ["e", "a1", "e"], Perm((1, 0, 2)))
    for i in range(2, 6):
        ok &= entry_matches(chain, f"a{i}", [f"a{i}", f"a{i}", f"a{i - 1}"], Perm.identity(3))

    lattice = build_representation(prop31_endos(2, 2))
    ok &= entry_matches(lattice, "g1", ["g2", "e", "g1", "a1"], Perm.identity(4))
    ok &= entry_matches(lattice, "g2", ["g1", "e", "g2", "e"], Perm.identity(4))
    ok &= entry_matches(lattice, "a1", ["e", "a1", "a2", "e"], Perm((1, 0, 2, 3)))
    ok &= entry_matches(lattice, "a2", ["a2", "a2", "a1", "e"], Perm.identity(4))
    record(2, "engine reproduces displayed generators", ok)


def test_criterion_3_level_two_pair_inflation():
    doubled = inflate(mealy.builtin_machine("brunner_sidki"), 2)
    secs, perm = doubled.entry("a")
    ok = [str(w) for w in secs] == ["e", "e", "a", "e"]
    ok &= perm == Perm.from_cycles(4, [(0, 2), (1, 3)])
    secs, perm = doubled.entry("at")
    ok &= [str(w) for w in secs] == ["at", "a", "e", "e"] and perm.is_identity()
    record(3, "2-inflation of the level-two pair", ok)


def test_criterion_4_prime_wreath_suite():
    ok = True
    for p in (2, 3):
        machine = mealy.builtin_machine(f"thmD({p})")
        s, a, b = (GroupWord.gen(n) for n in ("s", "a", "b"))
        ok &= trivial_to_depth(machine, s**p, 12)
        ok &= trivial_to_depth(machine, commutator(a, b), 10)
        conjugators = [a**i * b**j for i in range(-2, 3) for j in range(-2, 3)]
        lamps = [s.conjugate_by(w) for w in conjugators]
        ok &= all(trivial_to_depth(machine, lamp**p, 8) for lamp in lamps)
        ok &= all(
            trivial_to_depth(machine, commutator(u, v), 8)
            for u, v in itertools.combinations(lamps, 2)
        )
        ok &= all(
            not equal_to_depth(u, v, 12)
            for u, v in itertools.combinations(fibonacci_states(p, 8, machine), 2)
        )
        ok &= orbit_type(machine) == (p, 1)
    record(4, "prime wreath over the plane", ok)


def test_criterion_5_wreath_by_swap():
    data = zwrz_wr_c2_data()
    ok = data.degree == 4
    engine = build_representation(data)
    g1, a1, s = (GroupWord.gen(n) for n in ("g1", "a1", "s"))
    ok &= trivial_to_depth(engine, s**2, 10)
    ok &= trivial_to_depth(engine, commutator(g1, g1.conjugate_by(s)), 10)
    for machine, lamp, top, swap in (
        (engine, g1, a1, s),
        (mealy.builtin_machine("diagram3"), GroupWord.gen("g"), GroupWord.gen("a"), GroupWord.gen("s")),
    ):
        ok &= trivial_to_depth(machine, swap**2, 10)
        ok &= trivial_to_depth(machine, commutator(lamp, lamp.conjugate_by(swap)), 10)
        for u, v in ((lamp, top), (lamp.conjugate_by(swap), top.conjugate_by(swap))):
            ok &= lamp_commutators_trivial(machine, u, v, 3, 10)
            for base in (u, v, u * v):
                ok &= no_trivial_power(machine, base, 8, 10)
    record(5, "wreath by the swap group", ok)


def test_criterion_6_lamp_extension_over_z():
    data = lamplighter_extension_data((2,))
    ok = data.degree == 5
    machine = build_representation(data)
    ok &= orbit_type(machine) == (4, 1)
    b, z = GroupWord.gen("b"), GroupWord.gen("z")
    ok &= trivial_to_depth(machine, b**2, 12)
    for k in range(-3, 4):
        ok &= trivial_to_depth(machine, commutator(b, b.conjugate_by(z**k)), 10)
    model, endo = data.model, data.endos[0]
    rng = random.Random(2024)
    for _ in range(500):
        g = model.random_element(rng)
        j = endo.coset_index(g)
        ok &= endo.contains(model.multiply(g, model.invert(endo.transversal[j])))
    record(6, "lamp extension over the integers", ok)


def test_criterion_7_concatenated_mixed_base():
    data = data_by_selector("concat:lamplighter:B=2+zl-wr-zd:l=1,d=1")
    ok = data.degree == 8  # 2|B| + 4 with |B| = 2
    machine = build_representation(data)
    entries = fcore_witness_check(machine, 100, 20, random.Random(77))
    ok &= len(entries) == 100
    ok &= all(w is not None and machine.automorphism_of(g).apply(w) != w for g, w in entries)
    for name in machine.generators:
        closure = states(machine.automorphism(name), 64, 12)
        ok &= not closure.truncated and len(closure) <= 64
    record(7, "concatenated mixed-base wreath product", ok)


def test_criterion_8_algebraic_property_suites():
    ok = True
    rng = random.Random(512)
    data_builders = (
        z_data,
        lambda: zomega_data(4),
        zwrz_data,
        lambda: prop31_endos(2, 2),
        lambda: cp_wr_z2_data(2),
        lambda: cp_wr_z2_data(3),
        zwrz_wr_c2_data,
        lambda: lamplighter_data((2,)),
        lambda: lamplighter_extension_data((2,)),
        lambda: data_by_selector("concat:lamplighter:B=2+zl-wr-zd:l=1,d=1"),
    )
    for build in data_builders:
        data = build()
        model = data.model
        e = model.identity()
        for _ in range(1000):
            x = model.random_element(rng)
            y = model.random_element(rng)
            z = model.random_element(rng)
            ok &= model.multiply(model.multiply(x, y), z) == model.multiply(x, model.multiply(y, z))
            ok &= model.multiply(x, e) == x == model.multiply(e, x)
            ok &= model.is_identity(model.multiply(x, model.invert(x)))
        for endo in data.endos:
            pairs = 0
            while pairs < 1000:
                x = model.random_element(rng)
                y = model.random_element(rng)
                if not (endo.contains(x) and endo.contains(y)):
                    continue
                pairs += 1
                ok &= endo.image(model.multiply(x, y)) == model.multiply(
                    endo.image(x), endo.image(y)
                )
    assert ok, "model algebra failed"

    machine = mealy.builtin_machine("diagram1")
    names = list(machine.generators)
    m = machine.alphabet_size
    for _ in range(1000):
        u = GroupWord([(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))])
        v = GroupWord([(rng.choice(names), rng.choice((1, -1))) for _ in range(rng.randint(0, 10))])
        string = tuple(rng.randrange(m) for _ in range(8))
        au, av = Automorphism(machine, u), Automorphism(machine, v)
        ok &= (au * av).apply(string) == av.apply(au.apply(string))
        ok &= (au * au.inverse()).apply(string) == string
        y = rng.randrange(m)
        ok &= au.apply((y,) + string) == (au.root_perm()(y),) + au.section(y).apply(string)
    assert ok, "tree action laws failed"

    for p in (2, 3, 5):
        for _ in range(500):
            s = {}
            for _ in range(rng.randint(1, 6)):
                c = rng.randrange(1, p)
                m1 = (rng.randint(-4, 4), rng.randint(-4, 4))
                m2 = (rng.randint(-4, 4), rng.randint(-4, 4))
                s[m1] = s.get(m1, 0) + c
                s[m2] = s.get(m2, 0) - c
            s = {k: v % p for k, v in s.items() if v % p}
            ok &= recompose(*decompose(s, p), p) == s
    record(8, "algebraic property suites", ok)


def test_criterion_9_odometer_level_stabilization():
    machine = mealy.builtin_machine("adding")
    ok = True
    for k in range(0, 7):
        power = machine.automorphism("a") ** (2**k)
        ok &= trivial_to_depth(machine, power.word, k)
        witness = find_moving_string(power, k + 1)
        ok &= witness is not None and len(witness) == k + 1
    record(9, "odometer level stabilization", ok)


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def test_criterion_10_cli_determinism(tmp_path):
    relations = tmp_path / "relations.txt"
    relations.write_text("a^-1 g^-1 a g^-1 a^-1 g a g\n", encoding="utf-8")
    invocations = [
        ["act", "--machine", "builtin:adding", "--word", "a", "--string", "111"],
        ["orbit-type", "--machine", "builtin:diagram1"],
        ["portrait", "--machine", "builtin:diagram1", "--word", "g", "--depth", "3"],
        ["states", "--machine", "builtin:diagram2(4)", "--word", "a4", "--max", "16", "--sep-depth", "8"],
        ["check", "--machine", "builtin:diagram1", "--relations", str(relations), "--depth", "10"],
        ["witness", "--model", "zwrz", "--word", "g1 a1", "--max-depth", "10"],
        ["build", "--data", "cp-wr-z2:p=2", "--emit", "recursions"],
        ["build", "--data", "zwrz-wr-c2", "--emit", "recursions"],
        ["build", "--data", "lamplighter:B=2", "--emit", "dot"],
        ["build", "--data", "zwrz", "--emit", "file"],
        ["inflate", "--machine", "builtin:brunner_sidki", "-k", "2", "--emit", "recursions"],
        ["concat", "--data", "lamplighter:B=2+zwrz", "--emit", "recursions"],
    ]
    ok = True
    for argv in invocations:
        first = _run_cli(argv)
        second = _run_cli(argv)
        ok &= first == second and first[0] == 0
    # emitted automaton files and DOT exports are stable under re-parsing
    code, text, _ = _run_cli(["build", "--data", "zwrz", "--emit", "file"])
    ok &= code == 0 and mealy.emit(mealy.parse(text)) == text
    code, dot, _ = _run_cli(["build", "--data", "zwrz", "--emit", "dot"])
    ok &= code == 0 and dot == mealy.to_dot(mealy.parse(text))
    record(10, "deterministic command line", ok)
