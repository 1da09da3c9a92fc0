"""Deterministic command line for building and probing tree representations.

Exit codes: 0 success, 1 a requested check failed, 2 usage or input error,
or a search too deep for the interpreter's recursion limit.
Identical inputs always produce byte-identical output.
"""

from __future__ import annotations

import argparse
import sys
from collections import deque
from pathlib import Path

from . import mealy, wreath_models
from .gdata_engine import build_representation
from .perm_word import GroupWord, parse_word
from .tree_core import (
    Automorphism,
    SelfSimilarMachine,
    find_moving_string,
    format_orbit_type,
    inflate,
    orbit_type,
    portrait,
    states,
    trivial_to_depth,
)


def _load_machine(spec: str) -> SelfSimilarMachine:
    if spec.startswith("builtin:"):
        return mealy.builtin_machine(spec[len("builtin:") :])
    return mealy.to_machine(mealy.parse(Path(spec).read_text(encoding="utf-8")))


def _parse_word(machine: SelfSimilarMachine, text: str) -> GroupWord:
    """Parse a word, rejecting every undeclared state name in the text, also
    those that cancel out of the reduced word."""
    for token in text.split():
        for name, _ in parse_word(token):
            if name not in machine.generators:
                raise ValueError(f"undeclared state: {name!r}")
    return parse_word(text)


def _parse_string(text: str, m: int) -> tuple[int, ...]:
    text = text.strip()
    if not text or text == "-":
        return ()
    if "," in text:
        letters = tuple(int(tok) for tok in text.split(","))
    else:
        if m > 10:
            raise ValueError("alphabets beyond 10 letters need comma-separated strings")
        letters = tuple(int(ch) for ch in text)
    for y in letters:
        if not 0 <= y < m:
            raise ValueError(f"letter {y} out of range for alphabet of {m}")
    return letters


def _format_string(letters: tuple[int, ...], m: int) -> str:
    if not letters:
        return "-"
    if m <= 10:
        return "".join(str(y) for y in letters)
    return ",".join(str(y) for y in letters)


# ---------------------------------------------------------------------------
# Recursion printing: express engine sections as short generator words.
# ---------------------------------------------------------------------------


# sections are written as generator words of at most gdata_engine.SEARCH_LEN
# letters, and a listing stops once MAX_LINES states are printed
MAX_LINES = 512


def _express(machine: SelfSimilarMachine, word: GroupWord, todo: deque) -> str:
    if not word:
        return "e"
    if machine.model is None:
        return str(word)
    elem = machine.element_of(word)
    if machine.model.is_identity(elem):
        return "e"
    name = machine.name_of(elem)
    if name in machine.generators:
        return name
    short = machine.short_word(elem)
    if short is not None:
        return str(short)
    name = machine.state_of(elem)
    todo.append(name)
    return name


def recursion_lines(machine: SelfSimilarMachine) -> list[str]:
    """Tuple-notation recursion, one line per state: ``name = (w0, .., w(m-1)) cycles``.

    Sections outside the generator ball get states of their own, printed after
    the generators; a machine that keeps spawning such states past
    ``MAX_LINES`` has no finite listing and raises instead.
    """
    lines = []
    printed = set()
    todo = deque(machine.generators)
    while todo:
        name = todo.popleft()
        if name in printed:
            continue
        if len(printed) >= MAX_LINES:
            raise ValueError(f"state closure exceeded {MAX_LINES} states; not printable")
        printed.add(name)
        sections, perm = machine.entry(name)
        parts = [_express(machine, w, todo) for w in sections]
        suffix = "" if perm.is_identity() else f" {perm}"
        lines.append(f"{name} = ({', '.join(parts)}){suffix}")
    return lines


def _emit_machine(machine: SelfSimilarMachine, mode: str, out_path) -> None:
    if mode == "recursions":
        text = "\n".join(recursion_lines(machine)) + "\n"
    elif mode == "file":
        text = mealy.emit(mealy.machine_to_mealy(machine))
    elif mode == "dot":
        text = mealy.to_dot(mealy.machine_to_mealy(machine))
    else:
        raise ValueError(f"unknown emit mode {mode!r}")
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------


def _cmd_act(args) -> int:
    machine = _load_machine(args.machine)
    word = _parse_word(machine, args.word)
    string = _parse_string(args.string, machine.alphabet_size)
    moved = Automorphism(machine, word).apply(string)
    print(_format_string(moved, machine.alphabet_size))
    return 0


def _cmd_orbit_type(args) -> int:
    machine = _load_machine(args.machine)
    print(format_orbit_type(orbit_type(machine)))
    return 0


def _cmd_portrait(args) -> int:
    machine = _load_machine(args.machine)
    a = Automorphism(machine, _parse_word(machine, args.word))
    result = portrait(a, args.depth)
    for path in sorted(result.labels, key=lambda p: (len(p), p)):
        indent = "  " * len(path)
        print(f"{indent}{_format_string(path, machine.alphabet_size)} {result.labels[path]}")
    return 0


def _cmd_states(args) -> int:
    machine = _load_machine(args.machine)
    a = Automorphism(machine, _parse_word(machine, args.word))
    result = states(a, args.max, args.sep_depth)
    for aut in result.states:
        print(aut.word)
    print(f"# states: {len(result)} ({'truncated' if result.truncated else 'complete'})")
    return 0


def _cmd_check(args) -> int:
    machine = _load_machine(args.machine)
    failed = 0
    for raw in Path(args.relations).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        word = _parse_word(machine, line)
        ok = trivial_to_depth(machine, word, args.depth)
        if not ok:
            failed += 1
        print(f"{'PASS' if ok else 'FAIL'} {line}")
    return 1 if failed else 0


def _cmd_witness(args) -> int:
    data = wreath_models.data_by_selector(args.model)
    machine = build_representation(data)
    a = Automorphism(machine, _parse_word(machine, args.word))
    moved = find_moving_string(a, args.max_depth)
    if moved is None:
        print(f"trivial-to-depth {args.max_depth}")
    else:
        print(_format_string(moved, machine.alphabet_size))
    return 0


def _cmd_build(args) -> int:
    data = wreath_models.data_by_selector(args.data)
    _emit_machine(build_representation(data), args.emit, args.output)
    return 0


def _cmd_inflate(args) -> int:
    machine = _load_machine(args.machine)
    _emit_machine(inflate(machine, args.k), args.emit, args.output)
    return 0


def _cmd_concat(args) -> int:
    if not args.data.startswith("concat:"):
        args.data = f"concat:{args.data}"
    return _cmd_build(args)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Build and probe self-similar group actions on rooted m-trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def machine_flag(p):
        p.add_argument("--machine", required=True, help="automaton file or builtin:NAME")

    def emit_flags(p):
        p.add_argument("--emit", choices=("recursions", "file", "dot"), default="recursions")
        p.add_argument("-o", "--output")

    p = sub.add_parser("act", help="apply a word to a string")
    machine_flag(p)
    p.add_argument("--word", required=True)
    p.add_argument("--string", required=True)
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("orbit-type", help="orbit sizes on the first level")
    machine_flag(p)
    p.set_defaults(func=_cmd_orbit_type)

    p = sub.add_parser("portrait", help="root permutations down to a depth")
    machine_flag(p)
    p.add_argument("--word", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=_cmd_portrait)

    p = sub.add_parser("states", help="closure of a word under sections")
    machine_flag(p)
    p.add_argument("--word", required=True)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--sep-depth", type=int, required=True)
    p.set_defaults(func=_cmd_states)

    p = sub.add_parser("check", help="verify one expected-trivial word per line")
    machine_flag(p)
    p.add_argument("--relations", required=True, help="file with one word per line")
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("witness", help="find a string moved by a model word")
    p.add_argument("--model", required=True, help="data selector, e.g. zwrz")
    p.add_argument("--word", required=True)
    p.add_argument("--max-depth", type=int, required=True)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("build", help="build the machine of a data selector")
    p.add_argument("--data", required=True)
    emit_flags(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("inflate", help="re-read a machine on length-k blocks")
    machine_flag(p)
    p.add_argument("-k", type=int, required=True)
    emit_flags(p)
    p.set_defaults(func=_cmd_inflate)

    p = sub.add_parser("concat", help="concatenate two data selectors over one top group")
    p.add_argument("--data", required=True, help="<selector>+<selector>")
    emit_flags(p)
    p.set_defaults(func=_cmd_concat)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
