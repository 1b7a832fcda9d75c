"""Command-line surface for the library.

Commands: nf, mul, inv, pow, metric, ball, embed-phi, embed-psi, sweep,
render, verify. Output is deterministic for a fixed seed and flags; all
numbers are exact integers or dyadic rationals and print in full. Exit
status 0 on success, 1 on parse or validation failure, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import io
import sys

from .embeddings import embed_f_z, embed_product
from .group import (
    element_of_word,
    inverse,
    multiply,
    power,
    verify_relators,
)
from .metric import (
    EmbeddingSpec,
    WordMetricOracle,
    distortion_sweep,
    metric_estimate,
    product_spec,
    sweep_to_csv,
)
from .trees import format_pair, pair_to_dot
from .words import parse_word

DEFAULT_SEED = 0


def _element(text: str):
    return element_of_word(parse_word(text))


def _addresses(text: str) -> list[str]:
    """Comma-separated addresses; the empty text is the root address alone."""
    return text.split(",")


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
    z_factors = [int(t) for t in args.z.split(",")] if args.z else []
    f_factors = [_element(w) for w in args.words]
    _print_element(embed_product(args.addresses, f_factors, z_factors), out)
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
    g = _element(args.word)
    if args.format == "dot":
        print(pair_to_dot(g.pair), file=out)
    else:
        print(format_pair(g.pair), file=out)
    return 0


def _cmd_verify(args, out):
    report = verify_relators()
    for name, ok in report.entries:
        print(f"{'ok  ' if ok else 'FAIL'} {name}", file=out)
    print("PASS" if report.passed else "FAIL", file=out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thompsonf",
        description="Tree pair diagram calculator for Thompson's group F",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--out", metavar="PATH", default=None,
                       help="write output to a file instead of stdout")
        return p

    p = add("nf", _cmd_nf, "normal form of a word")
    p.add_argument("word")

    p = add("mul", _cmd_mul, "product of two words")
    p.add_argument("left")
    p.add_argument("right")

    p = add("inv", _cmd_inv, "inverse of a word")
    p.add_argument("word")

    p = add("pow", _cmd_pow, "power of a word")
    p.add_argument("word")
    p.add_argument("--pow", type=int, default=1, metavar="K")

    p = add("metric", _cmd_metric, "caret count and word-length bounds")
    p.add_argument("word")
    p.add_argument("--pow", type=int, default=1, metavar="K")
    p.add_argument("--radius", type=int, default=None,
                   help="also search for the exact length within this radius")

    p = add("ball", _cmd_ball, "sphere and ball sizes of the word metric")
    p.add_argument("--radius", type=int, default=3)
    p.add_argument("--stats", action="store_true",
                   help="print the search's work per level to stderr")

    p = add("embed-phi", _cmd_embed_phi, "image under the F x Z embedding")
    p.add_argument("word")
    p.add_argument("height", type=int, help="the integer factor t")

    p = add("embed-psi", _cmd_embed_psi, "image under the product embedding")
    p.add_argument("words", nargs="*", help="the m group factors")
    p.add_argument("--addresses", metavar="LIST", default="", type=_addresses,
                   help="comma-separated prefix-free addresses (m+1 of them)")
    p.add_argument("--z", metavar="LIST", default=None,
                   help="comma-separated integer factors")

    p = add("sweep", _cmd_sweep, "distortion sweep CSV")
    p.add_argument("--embedding", choices=("phi", "psi"), default="phi")
    p.add_argument("--addresses", metavar="LIST", default=None, type=_addresses)
    p.add_argument("--n", type=int, default=None, help="number of integer factors (psi)")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--radius", type=int, default=None,
                   help="look up exact image lengths within this radius")

    p = add("render", _cmd_render, "render the reduced tree pair")
    p.add_argument("word")
    p.add_argument("--format", choices=("text", "dot"), default="text")

    p = add("verify", _cmd_verify, "evaluate the presentation relators")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
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
        with open(args.out, "w", newline="") as f:
            f.write(out.getvalue())
    return code


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
