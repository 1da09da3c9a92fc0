"""Deterministic command line for building and probing tree representations.

Exit codes: 0 success, 1 a requested check failed, 2 usage or input error,
a search too deep for the interpreter's recursion limit, or any other
exception, each reported as one ``error:`` line on stderr.
Identical inputs always produce byte-identical output: help and usage wrap at
78 columns whatever the terminal's width.  A run whose arguments after the
command are whole ``flag value`` pairs is read straight from one table of
commands and builds no parser; every other run (help, no command or an
unknown one, abbreviations, ``=``, repeated or missing flags, bad values or
values that start with ``-``) goes to the full argparse parser, built from the
same table, which parses it or prints its help or error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import mealy, wreath_models
from .gdata_engine import build_representation
from .perm_word import GroupWord, parse_word
from .tree_core import (
    MAX_STATES,
    Automorphism,
    SelfSimilarMachine,
    closure,
    find_moving_string,
    inflate,
    orbit_type,
    portrait,
    states,
    trivial_to_depth,
)


def _load_machine(spec: str) -> SelfSimilarMachine:
    if spec.startswith("builtin:"):
        return mealy.builtin_machine(spec[len("builtin:") :])
    return mealy.parse(Path(spec).read_text(encoding="utf-8-sig"))


def _parse_word(machine: SelfSimilarMachine, text: str) -> GroupWord:
    """Parse a word, rejecting every undeclared state name in the text, also
    those that cancel out of the reduced word."""
    for token in text.split():
        for name, _ in parse_word(token):
            if name not in machine.generators:
                raise ValueError(f"undeclared state: {name!r}")
    return parse_word(text)


def _parse_string(text: str, m: int) -> tuple[int, ...]:
    """A string as ``_format_string`` prints it (one letter past 10 letters as
    its bare numeral); ``apply_word`` checks that each letter is in range."""
    text = text.strip()
    if not text or text == "-":
        return ()
    if "," not in text and m > 10:
        if not (text.isdecimal() and str(int(text)) == text and int(text) < m):
            raise ValueError("alphabets beyond 10 letters need comma-separated strings")
        return (int(text),)
    letters = []
    for tok in text.split(",") if "," in text else text:
        try:
            letters.append(int(tok))
        except ValueError:
            raise ValueError(f"bad letter {tok!r} in string {text!r}") from None
    return tuple(letters)


def _format_string(letters: tuple[int, ...], m: int) -> str:
    if not letters:
        return "-"
    if m <= 10:
        return "".join(str(y) for y in letters)
    return ",".join(str(y) for y in letters)


# ---------------------------------------------------------------------------
# Recursion printing: express engine sections as short generator words.
# ---------------------------------------------------------------------------


def recursion_lines(machine: SelfSimilarMachine) -> list[str]:
    """Tuple-notation recursion, one line per state: ``name = (w0, .., w(m-1)) cycles``.

    An engine section is written as the generator word ``short_word`` finds
    in its bounded ball; a section outside that ball gets a state of its own,
    printed after the generators.  A machine that keeps
    spawning such states past ``MAX_STATES`` has no finite listing and raises
    instead.
    """
    lines = []
    texts: dict[str, str] = {}  # section state -> its text, looked up once

    def express(word: GroupWord) -> str:
        # an engine section is empty or one state letter
        name = str(word)
        if machine.model is None or not word or name in machine.generators:
            return name
        if name not in texts:
            short = machine.short_word(machine.element_of(word))
            texts[name] = name if short is None else str(short)
        return texts[name]

    def successors(name: str) -> list[str]:
        sections, perm = machine.entry(name)
        parts = [express(w) for w in sections]
        suffix = "" if perm.is_identity() else f" {perm}"
        lines.append(f"{name} = ({', '.join(parts)}){suffix}")
        # a section written as its own state name, with no short word, gets a line
        return [t for t in parts if texts.get(t) == t]

    if closure(machine.generators, successors, MAX_STATES)[1]:
        raise ValueError(f"state closure exceeded {MAX_STATES} states; not printable")
    return lines


def _emit_machine(machine: SelfSimilarMachine, mode: str, out_path) -> None:
    if mode == "recursions":
        text = "\n".join(recursion_lines(machine)) + "\n"
    elif mode == "file":
        text = mealy.emit(mealy.machine_to_mealy(machine))
    else:  # "dot", the last of the parser's choices
        text = mealy.to_dot(mealy.machine_to_mealy(machine))
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
    print("(" + ",".join(str(s) for s in orbit_type(machine)) + ")")
    return 0


def _cmd_portrait(args) -> int:
    machine = _load_machine(args.machine)
    a = Automorphism(machine, _parse_word(machine, args.word))
    for path, perm in portrait(a, args.depth).items():  # breadth first, lex within a level
        print(f"{'  ' * len(path)}{_format_string(path, machine.alphabet_size)} {perm}")
    return 0


def _cmd_states(args) -> int:
    if args.max > MAX_STATES:  # the bound of every other walk over states
        raise ValueError(f"--max exceeds the limit of {MAX_STATES} states")
    machine = _load_machine(args.machine)
    a = Automorphism(machine, _parse_word(machine, args.word))
    result = states(a, args.max, args.sep_depth)
    for aut in result.states:
        print(aut.word)
    print(f"# states: {len(result)} ({'truncated' if result.truncated else 'complete'})")
    return 0


def _cmd_check(args) -> int:
    if args.depth < 0:  # also where the file holds no relation
        raise ValueError("depth must be nonnegative")
    machine = _load_machine(args.machine)
    failed = 0
    for raw in Path(args.relations).read_text(encoding="utf-8-sig").splitlines():
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


def _flag(*names, **kwargs):
    """A flag as (names, ``add_argument`` keywords), required unless said
    otherwise, with argparse's own dest: the long name, which comes last."""
    return names, {"required": True, "dest": names[-1].lstrip("-").replace("-", "_"), **kwargs}


_MACHINE = _flag("--machine", help="automaton file or builtin:NAME")
_WORD = _flag("--word")
_DEPTH = _flag("--depth", type=int)
_EMIT = (
    _flag("--emit", choices=("recursions", "file", "dot"), default="recursions", required=False),
    _flag("-o", "--output", required=False),
)

# name -> (help, handler, *flags); the handler is looked up by its name when a
# command line is read, so that a replaced module-level handler takes effect
_COMMANDS = {
    "act": ("apply a word to a string", "_cmd_act", _MACHINE, _WORD, _flag("--string")),
    "orbit-type": ("orbit sizes on the first level", "_cmd_orbit_type", _MACHINE),
    "portrait": ("root permutations down to a depth", "_cmd_portrait", _MACHINE, _WORD, _DEPTH),
    "states": (
        "closure of a word under sections", "_cmd_states",
        _MACHINE, _WORD, _flag("--max", type=int), _flag("--sep-depth", type=int),
    ),
    "check": (
        "verify one expected-trivial word per line", "_cmd_check",
        _MACHINE, _flag("--relations", help="file with one word per line"), _DEPTH,
    ),
    "witness": (
        "find a string moved by a model word", "_cmd_witness",
        _flag("--model", help="data selector, e.g. zwrz"), _WORD, _flag("--max-depth", type=int),
    ),
    "build": ("build the machine of a data selector", "_cmd_build", _flag("--data"), *_EMIT),
    "inflate": (
        "re-read a machine on length-k blocks", "_cmd_inflate",
        _MACHINE, _flag("-k", type=int), *_EMIT,
    ),
    "concat": (
        "concatenate two data selectors over one top group", "_cmd_concat",
        _flag("--data", help="<selector>+<selector>"), *_EMIT,
    ),
}

# help and usage wrap at 78 columns, as on an 80-column terminal, whatever
# the terminal's width
_FORMATTER = functools.partial(argparse.HelpFormatter, width=78)


def build_parser() -> argparse.ArgumentParser:
    """The full parser of ``selfsim``, with a subparser for every command."""
    parser = argparse.ArgumentParser(
        prog="selfsim",
        description="Build and probe self-similar group actions on rooted m-trees.",
        formatter_class=_FORMATTER,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, *flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text, formatter_class=_FORMATTER)
        for names, kwargs in flags:
            command.add_argument(*names, **kwargs)
        command.set_defaults(func=globals()[handler])
    return parser


def _plain(argv) -> argparse.Namespace | None:
    """``command flag value ...`` read from ``_COMMANDS``, or None: the full
    parser's namespace (but for ``command``) where each flag is spelled out in
    full and given once, every required flag is given, and each value does not
    start with ``-`` and passes its flag's type and choices."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    _, handler, *flags = _COMMANDS[argv[0]]
    spelled = {name: kwargs for names, kwargs in flags for name in names}
    values = {}
    for flag, text in zip(argv[1::2], argv[2::2]):
        kwargs = spelled.get(flag)
        if kwargs is None or kwargs["dest"] in values or text.startswith("-"):
            return None
        try:
            value = kwargs.get("type", str)(text)
        except ValueError:
            return None
        if value not in kwargs.get("choices", (value,)):  # a flag without choices takes any
            return None
        values[kwargs["dest"]] = value
    if any(kwargs["required"] and kwargs["dest"] not in values for _, kwargs in flags):
        return None
    defaults = {kwargs["dest"]: kwargs.get("default") for _, kwargs in flags}
    return argparse.Namespace(**{**defaults, **values}, func=globals()[handler])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of selfsim itself, still reported in one line
        print(f"error: internal {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
