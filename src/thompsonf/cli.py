"""Command-line surface for the library.

Commands: nf, mul, inv, pow, metric, ball, embed-phi, embed-psi, sweep,
render, verify. Output is deterministic for a fixed seed and flags; all
numbers are exact integers or dyadic rationals and print in full. Exit
status 0 on success, 1 on parse or validation failure or an unwritable
``--out``, 2 on usage errors.

``main`` builds only the parser of the command that ``argv[0]`` names; for
help, no command or an unknown one it builds the parser of every command.
"""

from __future__ import annotations

import argparse
import io
import sys

from .embeddings import embed_f_z, embed_product
from .group import element_of_word, inverse, multiply, power, verify_relators
from .metric import (EmbeddingSpec, WordMetricOracle, distortion_sweep, metric_estimate,
                     product_spec, sweep_to_csv)
from .trees import format_pair, pair_to_dot
from .words import parse_word

DEFAULT_SEED = 0


def _element(text: str):
    return element_of_word(parse_word(text))


def _addresses(text: str) -> list[str]:
    """Comma-separated addresses; the empty text is the root address alone."""
    return text.split(",")


def _integers(text: str) -> list[int]:
    """Comma-separated integers; the empty text is none."""
    try:
        return [int(t) for t in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer list: {text!r}") from None


def _print_element(g, out) -> None:
    print(str(g.normal_form()), file=out)


def _cmd_nf(args, out):
    _print_element(_element(args.word), out)
    return 0


def _cmd_mul(args, out):
    _print_element(multiply(_element(args.left), _element(args.right)), out)
    return 0


def _cmd_inv(args, out):
    _print_element(inverse(_element(args.word)), out)
    return 0


def _cmd_pow(args, out):
    _print_element(power(_element(args.word), args.pow), out)
    return 0


def _cmd_metric(args, out):
    g = power(_element(args.word), args.pow)
    est = metric_estimate(g, search_radius=args.radius)
    line = f"N={est.caret_count} bounds=({est.lower}, {est.upper})"
    if args.radius is not None:
        line += f" exact={est.exact if est.exact is not None else 'unknown'}"
    print(line, file=out)
    return 0


def _cmd_ball(args, out):
    oracle = WordMetricOracle()
    spheres = oracle.sphere_sizes(args.radius)
    print("radius,sphere,ball", file=out)
    total = 0
    for r, count in enumerate(spheres):
        total += count
        print(f"{r},{count},{total}", file=out)
    if args.stats:
        for level, s in enumerate(oracle.level_stats(args.radius), start=1):
            print(f"stats level={level} products={s.products} new={s.new} "
                  f"duplicates={s.duplicates}", file=sys.stderr)
    return 0


def _cmd_embed_phi(args, out):
    _print_element(embed_f_z(_element(args.word), args.height), out)
    return 0


def _cmd_embed_psi(args, out):
    f_factors = [_element(w) for w in args.words]
    _print_element(embed_product(args.addresses, f_factors, args.z), out)
    return 0


def _cmd_sweep(args, out):
    if args.embedding == "phi":  # given flags must name the one F x Z spec
        spec = EmbeddingSpec("phi", tuple(args.addresses or ["11"]), 1,
                             1 if args.n is None else args.n)
    else:
        spec = product_spec(args.addresses or [""], args.n or 0)
    samples = distortion_sweep(
        spec, args.samples, seed=args.seed, search_radius=args.radius
    )
    sweep_to_csv(samples, out)
    return 0


def _cmd_render(args, out):
    render = pair_to_dot if args.format == "dot" else format_pair
    print(render(_element(args.word).pair), file=out)
    return 0


def _cmd_verify(args, out):
    report = verify_relators()
    for name, ok in report.entries:
        print(f"{'ok  ' if ok else 'FAIL'} {name}", file=out)
    print("PASS" if report.passed else "FAIL", file=out)
    return 0 if report.passed else 1


def _arg(*flags, **options):
    """One add_argument call, frozen: its flags and its keyword items."""
    return flags, tuple(options.items())


_WORD = _arg("word")
_POW = _arg("--pow", type=int, default=1, metavar="K")

# (name, function, help, arguments) per command, in the order help lists them
COMMANDS = (
    ("nf", _cmd_nf, "normal form of a word", (_WORD,)),
    ("mul", _cmd_mul, "product of two words", (_arg("left"), _arg("right"))),
    ("inv", _cmd_inv, "inverse of a word", (_WORD,)),
    ("pow", _cmd_pow, "power of a word", (_WORD, _POW)),
    ("metric", _cmd_metric, "caret count and word-length bounds", (
        _WORD, _POW,
        _arg("--radius", type=int, default=None,
             help="also search for the exact length within this radius"))),
    ("ball", _cmd_ball, "sphere and ball sizes of the word metric", (
        _arg("--radius", type=int, default=3),
        _arg("--stats", action="store_true",
             help="print the search's work per level to stderr"))),
    ("embed-phi", _cmd_embed_phi, "image under the F x Z embedding", (
        _WORD, _arg("height", type=int, help="the integer factor t"))),
    ("embed-psi", _cmd_embed_psi, "image under the product embedding", (
        _arg("words", nargs="*", help="the m group factors"),
        _arg("--addresses", metavar="LIST", default="", type=_addresses,
             help="comma-separated prefix-free addresses (m+1 of them)"),
        _arg("--z", metavar="LIST", default="", type=_integers,
             help="comma-separated integer factors"))),
    ("sweep", _cmd_sweep, "distortion sweep CSV", (
        _arg("--embedding", choices=("phi", "psi"), default="phi"),
        _arg("--addresses", metavar="LIST", default=None, type=_addresses),
        _arg("--n", type=int, default=None, help="number of integer factors (psi)"),
        _arg("--samples", type=int, default=100),
        _arg("--seed", type=int, default=DEFAULT_SEED),
        _arg("--radius", type=int, default=None,
             help="look up exact image lengths within this radius"))),
    ("render", _cmd_render, "render the reduced tree pair", (
        _WORD, _arg("--format", choices=("text", "dot"), default="text"))),
    ("verify", _cmd_verify, "evaluate the presentation relators", ()),
)
_NAMES = tuple(name for name, *_ in COMMANDS)


def build_parser(command=None) -> argparse.ArgumentParser:
    """The parser of every command, or only of the command named ``command``."""
    parser = argparse.ArgumentParser(
        prog="thompsonf",
        description="Tree pair diagram calculator for Thompson's group F",
    )
    # one command's parser still lists every command in its usage line; the
    # full parser sets no metavar, so its errors name the argument "command"
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if command is None else "{" + ",".join(_NAMES) + "}")
    for name, func, help_text, arguments in COMMANDS:
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write output to a file instead of stdout")
        for flags, options in arguments:
            p.add_argument(*flags, **dict(options))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # help, no command or an unknown one needs the parser of every command
    parser = build_parser(argv[0] if argv and argv[0] in _NAMES else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    out = sys.stdout if args.out is None else io.StringIO()
    try:
        code = args.func(args, out)
    except (ValueError, RuntimeError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:  # opened only now, so a failed command keeps the file
        try:
            with open(args.out, "w", newline="") as f:
                f.write(out.getvalue())
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
