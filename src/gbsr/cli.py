"""Command-line front end.

Exit codes: 0 success, 1 domain errors (printed as `error: <Name>: ...`
on stderr) and a stdout closed by its reader (printed as nothing), 2
usage errors.  All output is deterministic for fixed inputs and flags;
`--json` switches to a machine-readable shape.

`main(argv)` may be called any number of times in one process; the
argument parser is built on the first call and reused by every later
one, so each call pays only for its own command.
"""

import argparse
import functools
import json
import os
import sys

from .errors import GbsError, UnreadableFileError
from .explorer import ExploreBounds, explore, reduce_state
from .graph import parse, parse_end, serialize, to_dot
from .moves import collapse, expand, induct, initial_state, slide
from .rigidity import ascending_modulus, check
from .words import Presentation, format_word, parse_word, word_length


# each subcommand, in help order, with its arguments after file as
# (name, add_argument keywords); every one but length ends with --json
_COMMANDS = {
    "check": (),
    "reduce": (),
    "export-dot": (),
    "collapse": (("edge", {}),),
    "expand": (("vertex", {}), ("p", {"type": int}), ("ends", {"nargs": "*"})),
    "slide": (("moving", {}), ("keyword", {"metavar": "across"}), ("across", {})),
    "induct": (("d", {"type": int}),),
    "explore": (
        ("--max-extra-edges", {"type": int, "default": ExploreBounds.max_extra_edges}),
        ("--max-label", {"type": int, "default": ExploreBounds.max_label}),
        ("--depth", {"type": int, "default": ExploreBounds.max_depth}),
        ("--radius", {"type": int, "default": ExploreBounds.radius}),
    ),
    "length": (("word", {}),),
}


@functools.cache
def _build_parser():
    p = argparse.ArgumentParser(
        prog="gbsr",
        description="Rigidity and deformation tooling for GBS graphs of groups.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    for command, arguments in _COMMANDS.items():
        sp = sub.add_parser(command)
        sp.add_argument("file")
        for name, keywords in arguments:
            sp.add_argument(name, **keywords)
        if command != "length":
            sp.add_argument("--json", action="store_true")
    return p


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        raise UnreadableFileError(str(e)) from None
    except UnicodeDecodeError as e:
        raise UnreadableFileError(
            "%s is not UTF-8 text (byte 0x%02x at offset %d)" % (path, e.object[e.start], e.start)
        ) from None
    return parse(text)


def _emit_json(payload):
    print(json.dumps(payload, indent=2, sort_keys=True))


def _flag(value, word):
    return word if value else "not-" + word


def _run_check(args):
    g = _load(args.file)
    verdict = check(g)
    if args.json:
        _emit_json(verdict.to_json())
        return 0
    parts = [
        _flag(verdict.reduced, "reduced"),
        _flag(verdict.ascending, "ascending"),
        _flag(verdict.strongly_slide_free, "slide-free"),
        _flag(verdict.rigid, "rigid"),
    ]
    line = " ".join(parts)
    if verdict.ascending and not verdict.rigid:
        line += " (s=%d is not 1 or prime)" % ascending_modulus(g)
    print(line)
    for v, e, f, cond in verdict.violations:
        print("violation: vertex=%s endE=%s endF=%s condition=%s" % (v, e, f, cond))
    return 0


def _print_state(state, as_json):
    marking = {sym: format_word(w) for sym, w in sorted(state.marking.items())}
    if as_json:
        _emit_json(
            {
                "graph": serialize(state.graph),
                "marking": marking,
                "moves": [str(m) for m in state.history],
            }
        )
        return
    sys.stdout.write(serialize(state.graph))
    print("marking:")
    for sym, word in marking.items():
        print("  %s = %s" % (sym, word))


def _run_state_command(args):
    g = _load(args.file)
    state = initial_state(g)
    if args.command == "reduce":
        state = reduce_state(state)
    elif args.command == "collapse":
        state = collapse(state, args.edge)
    elif args.command == "expand":
        state = expand(state, args.vertex, args.p, map(parse_end, args.ends))
    elif args.command == "slide":
        state = slide(state, parse_end(args.moving), parse_end(args.across))
    elif args.command == "induct":
        state = induct(state, args.d)
    _print_state(state, args.json)
    return 0


def _run_explore(args):
    g = _load(args.file)
    bounds = ExploreBounds(
        max_extra_edges=args.max_extra_edges,
        max_label=args.max_label,
        max_depth=args.depth,
        radius=args.radius,
    )
    report = explore(initial_state(g), bounds)
    if args.json:
        _emit_json(report.to_json())
        return 0
    print("rigid: %s" % report.rigid)
    print("classes: %d" % len(report.classes))
    for i, cls in enumerate(report.classes, 1):
        print("class %d (count %d):" % (i, cls.count))
        for line in serialize(cls.graph).splitlines():
            print("  " + line)
    if report.witness is not None:
        print("witness: %s" % "; ".join(str(m) for m in report.witness))
    return 0


def _run_length(args):
    g = _load(args.file)
    p = Presentation(g)
    print(word_length(p, parse_word(args.word)))
    return 0


def _run_export_dot(args):
    g = _load(args.file)
    text = to_dot(g)
    if args.json:
        _emit_json({"dot": text})
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to devnull,
        # so that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def _main(argv):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else 2
    if args.command == "slide" and args.keyword != "across":
        print("usage: gbsr slide <file> <end> across <end>", file=sys.stderr)
        return 2
    try:
        if args.command == "check":
            return _run_check(args)
        if args.command == "explore":
            return _run_explore(args)
        if args.command == "length":
            return _run_length(args)
        if args.command == "export-dot":
            return _run_export_dot(args)
        return _run_state_command(args)
    except GbsError as err:
        print("error: %s: %s" % (err.name, err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
