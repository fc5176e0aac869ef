"""Command-line front end with deterministic, machine-readable output.

Every command prints one flat key=value record per result line (or CSV with
``--format csv``), embedding the tool version and the configuration that
produced it.  Identical invocations, including the seed, give byte-identical
output.  Exit codes: 0 success, 1 computation or domain error (a one-line
``error=...`` record on stdout), a failed selftest criterion or a stdout
closed early by its reader, 2 usage error, including an unwritable ``--out``.

Each flag is declared once, on the subparser that reads it, and each
subparser names its handler through ``set_defaults``.  A record's
``command`` is its subparser's name, or for a ``stats`` subcommand the
``command`` its ``set_defaults`` gives, the only place that name is
written.  Handlers take the parsed ``argparse.Namespace`` and return only
their own fields; ``run()`` puts the header (``tool``, ``version``,
``command``) in front of every record, error records included.
``--allow-large`` sits on a parent parser shared by the commands whose work
the cap bounds (the enumerating ones, and ``chain`` for the size of
``--full``), and stores the cap itself as ``cap``.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional, TextIO

from . import __version__, analysis, metrics
from .bijections import BijectionKind, forward_map, inverse_map
from .bits import DEFAULT_ENUMERATION_CAP, BitVector
from .chains import ChainPosition, chain_members, position
from .errors import CubeballError, DigitLimitError, EnumerationCapError

# The CLI enumerates at most 2^24 items unless --allow-large lifts the cap
# to the library ceiling.
CLI_ENUMERATION_CAP = 1 << 24

_KINDS = [k.value for k in BijectionKind]

# Python refuses to print an int with more decimal digits than this; 0 means
# no limit, as on interpreters older than the limit itself.
_digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)


class UsageError(Exception):
    """Flag combinations rejected before any computation starts."""


def _check_sampled(ns: argparse.Namespace) -> None:
    if ns.mode == "sample":
        if ns.seed is None:
            raise UsageError("sampled mode requires an explicit --seed")
        if ns.direction == "inv":
            raise UsageError("sampled sweeps are forward only")
        if ns.samples < 1:
            raise UsageError("--samples must be >= 1")
        if ns.seed < 0:
            raise UsageError("--seed must be >= 0")


def _require_digits(bits: int, what: str) -> None:
    """Refuse an answer known to be at least 2^bits when it is past the digit limit."""
    limit = _digit_limit()
    if limit and 1000 * bits >= 3322 * limit:  # 2^3.322 > 10
        digits = 30102 * bits // 100000 + 1  # log10(2) > 0.30102
        raise DigitLimitError(
            f"{what} has at least {digits} decimal digits, over the limit of {limit}")


def _decimal(x: int, what: str) -> str:
    """x in decimal, or a DigitLimitError naming its size past the digit limit."""
    limit = _digit_limit()
    if limit and x.bit_length() > 3 * limit and x >= 10 ** limit:
        digits = int(math.log10(x))  # floor(log10 x), give or take one
        digits += (10 ** digits <= x) + (10 ** (digits + 1) <= x)
        raise DigitLimitError(
            f"{what} has {digits} decimal digits, over the limit of {limit}")
    return str(x)


def _frac(f: Fraction) -> str:
    return f"{_decimal(f.numerator, 'numerator')}/{_decimal(f.denominator, 'denominator')}"


def _fmt(value) -> str:
    text = str(value)
    if any(c in text for c in ' ",='):
        return json.dumps(text)
    return text


def _emit(records: list[dict[str, str]], fmt: str, stream: TextIO) -> None:
    if not records:
        return
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        keys = list(records[0])
        writer.writerow(keys)
        for rec in records:
            writer.writerow([rec[k] for k in keys])
    else:
        for rec in records:
            stream.write(" ".join(f"{k}={_fmt(v)}" for k, v in rec.items()) + "\n")


def _base(command: str) -> dict[str, str]:
    return {"tool": "cubeball", "version": __version__, "command": command}


def _position_fields(pos: ChainPosition) -> dict[str, str]:
    return {
        "chain_code": str(pos.code),
        "k": str(pos.k),
        "j": str(pos.j),
        "ell": str(pos.ell),
    }


def _cmd_map(ns: argparse.Namespace) -> list[dict[str, str]]:
    x = BitVector.parse(ns.input)
    z = forward_map(BijectionKind(ns.bijection))(x)
    return [dict(bijection=ns.bijection, input=x.render(), n=str(x.n), output=z.render(),
                 **_position_fields(position(x)))]


def _cmd_invmap(ns: argparse.Namespace) -> list[dict[str, str]]:
    z = BitVector.parse(ns.input)
    x = inverse_map(BijectionKind(ns.bijection))(z)
    return [dict(bijection=ns.bijection, input=z.render(), n=str(x.n), output=x.render(),
                 **_position_fields(position(x)))]


def _cmd_chain(ns: argparse.Namespace) -> list[dict[str, str]]:
    x = BitVector.parse(ns.input)
    pos = position(x)
    rec = dict(input=x.render(), n=str(x.n), **_position_fields(pos))
    if ns.full:
        # the members hold length * n bits, n + 1 members of n bits at worst
        bits = pos.code.length() * x.n
        if bits > ns.cap:
            raise EnumerationCapError(bits, ns.cap, "member bits")
        rec["members"] = "|".join(m.render() for m in chain_members(pos.code))
    return [rec]


def _cmd_verify(ns: argparse.Namespace) -> list[dict[str, str]]:
    _check_sampled(ns)
    kind = BijectionKind(ns.bijection)
    if ns.mode == "sample":
        report = metrics.forward_stretch_sampled(kind, ns.n, ns.samples, ns.seed)
    elif ns.direction == "fwd":
        report = metrics.forward_stretch_exhaustive(kind, ns.n, cap=ns.cap)
    else:
        report = metrics.inverse_stretch_exhaustive(kind, ns.n, cap=ns.cap)
    return [report.to_record()]


def _cmd_pairs_audit(ns: argparse.Namespace) -> list[dict[str, str]]:
    aud = metrics.pairwise_ratio_audit(BijectionKind(ns.bijection), ns.n, cap=ns.cap)
    return [dict(
        bijection=ns.bijection,
        n=str(ns.n),
        pairs=str(aud.pairs),
        min_ratio=_frac(aud.min_ratio),
        max_ratio=_frac(aud.max_ratio),
        min_x=aud.min_witness[0].render(),
        min_y=aud.min_witness[1].render(),
        max_x=aud.max_witness[0].render(),
        max_y=aud.max_witness[1].render(),
    )]


def _cmd_stats_chains(ns: argparse.Namespace) -> list[dict[str, str]]:
    table = analysis.chain_count_enumerated(ns.n, cap=ns.cap)
    return [dict(n=str(ns.n), t=str(t), count=str(table.entries[t]))
            for t in range(1, ns.n + 2)]


def _cmd_stats_profile(ns: argparse.Namespace) -> list[dict[str, str]]:
    # far past the digit limit, refuse before computing the binomials
    _require_digits(analysis.unmarked_profile_count_bits(ns.n, ns.a, ns.b), "count")
    count = analysis.unmarked_profile_count(ns.n, ns.a, ns.b)
    return [dict(n=str(ns.n), a=str(ns.a), b=str(ns.b), count=_decimal(count, "count"))]


def _cmd_stats_flipprob(ns: argparse.Namespace) -> list[dict[str, str]]:
    analysis._require_flip_domain(ns.n)  # n < 2 would leave the loop empty
    coords = [ns.bit] if ns.bit is not None else range(1, ns.n + 1)
    if ns.mode == "exact":
        # far past the digit limit, refuse before the binomial: C(n-1, n/2-1) >= 2^(n-1)/n,
        # and 2^n cancels at most bit_length(n) of its factors of 2 (Kummer's theorem)
        analysis._require_flip_exact(ns.n, coords[0])
        _require_digits(ns.n - 1 - 2 * ns.n.bit_length(), "numerator")
        # every coordinate has this one probability, so it is rendered once
        text, disagree = _frac(analysis.flip_probability_exact(ns.n, coords[0])), "-"
    records = []
    for i in coords:
        if ns.mode == "exhaustive":
            stat = analysis.flip_probability_exhaustive(ns.n, i, cap=ns.cap)
            text, disagree = _frac(stat.probability), str(stat.disagree_count)
        records.append(dict(n=str(ns.n), i=str(i), mode=ns.mode, probability=text,
                            disagree_count=disagree))
    return records


def _cmd_stats_influence(ns: argparse.Namespace) -> list[dict[str, str]]:
    profile = analysis.influence_profile(BijectionKind(ns.bijection), ns.n, ns.cap)
    return [dict(bijection=ns.bijection, n=str(ns.n), i=str(i), influence=_frac(inf))
            for i, inf in enumerate(profile, start=1)]


def _cmd_reduce_majority(ns: argparse.Namespace) -> list[dict[str, str]]:
    x = BitVector.parse(ns.input)
    r = analysis.majority_reduction(x)
    maj = analysis.majority(x)
    first = analysis.first_output_bit_of_reduction(x)
    return [dict(
        input=x.render(),
        n=str(x.n),
        output=r.render(),
        output_length=str(r.n),
        majority=str(maj),
        first_output_bit=str(first),
        agree=str(maj == first).lower(),
    )]


def _cmd_selftest(ns: argparse.Namespace) -> list[dict[str, str]]:
    from . import acceptance

    results = acceptance.run_all()
    passed = sum(1 for r in results if r.passed)
    rows = [(str(r.number), r.name, r.passed, r.detail) for r in results]
    rows.append(("summary", "all", passed == len(results),
                 f"{passed}/{len(results)} criteria passed"))
    return [dict(criterion=c, name=name, status="PASS" if ok else "FAIL", detail=detail)
            for c, name, ok, detail in rows]


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "csv"], default="text")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="also write the report to this file")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument("--allow-large", dest="cap", action="store_const",
                        const=DEFAULT_ENUMERATION_CAP, default=CLI_ENUMERATION_CAP,
                        help="lift the enumeration cap from 2^24 to 2^28")

    parser = argparse.ArgumentParser(
        prog="cubeball",
        description="chain coordinates on the Boolean cube and cube-to-ball maps",
    )
    parser.add_argument("--version", action="version", version=f"cubeball {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", parents=[common], help="apply a bijection")
    p.set_defaults(handler=_cmd_map)
    p.add_argument("--bijection", choices=_KINDS, required=True)
    p.add_argument("--input", required=True, metavar="BITS")

    p = sub.add_parser("invmap", parents=[common], help="apply an inverse bijection")
    p.set_defaults(handler=_cmd_invmap)
    p.add_argument("--bijection", choices=_KINDS, required=True)
    p.add_argument("--input", required=True, metavar="BITS")

    p = sub.add_parser("chain", parents=[capped], help="locate a vertex on its chain")
    p.set_defaults(handler=_cmd_chain)
    p.add_argument("--input", required=True, metavar="BITS")
    p.add_argument("--full", action="store_true", help="also list the whole chain")

    p = sub.add_parser("verify", parents=[capped], help="stretch sweep")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--bijection", choices=_KINDS, required=True)
    p.add_argument("--direction", choices=["fwd", "inv"], default="fwd")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("pairs-audit", parents=[capped],
                       help="extreme pairwise distance ratios")
    p.set_defaults(handler=_cmd_pairs_audit)
    p.add_argument("--bijection", choices=_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)

    stats = sub.add_parser("stats", help="exact counting statistics")
    stats_sub = stats.add_subparsers(dest="stats_command", required=True)

    p = stats_sub.add_parser("chains", parents=[capped], help="chain counts by length")
    p.set_defaults(handler=_cmd_stats_chains, command="stats-chains")
    p.add_argument("--n", type=int, required=True)

    p = stats_sub.add_parser("profile", parents=[common],
                             help="count vertices by unmarked profile")
    p.set_defaults(handler=_cmd_stats_profile, command="stats-profile")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True, help="unmarked zeros")
    p.add_argument("--b", type=int, required=True, help="unmarked ones")

    p = stats_sub.add_parser("flipprob", parents=[capped],
                             help="per-bit disagreement probability")
    p.set_defaults(handler=_cmd_stats_flipprob, command="stats-flipprob")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bit", type=int, default=None, metavar="I")
    p.add_argument("--mode", choices=["exact", "exhaustive"], default="exact")

    p = stats_sub.add_parser("influence", parents=[capped],
                             help="total influence of each output bit")
    p.set_defaults(handler=_cmd_stats_influence, command="stats-influence")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bijection", choices=_KINDS, default="psi")

    p = sub.add_parser("reduce-majority", parents=[common],
                       help="blow a vector up so bit 1 of its image is majority")
    p.set_defaults(handler=_cmd_reduce_majority)
    p.add_argument("--input", required=True, metavar="BITS")

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance checklist")
    p.set_defaults(handler=_cmd_selftest)

    return parser


def run(argv: list[str], stdout: Optional[TextIO] = None) -> int:
    stream = stdout if stdout is not None else sys.stdout
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)

    head = _base(ns.command)
    try:
        records = [{**head, **fields} for fields in ns.handler(ns)]
    except UsageError as exc:
        print(f"cubeball: usage error: {exc}", file=sys.stderr)
        return 2
    except (CubeballError, ValueError) as exc:
        _emit([{**head, "error": type(exc).__name__, "detail": str(exc)}], ns.format, stream)
        return 1

    # rendered straight into each stream, so no second copy of a long report is held
    _emit(records, ns.format, stream)
    if ns.out:
        try:
            with open(ns.out, "w") as fh:
                _emit(records, ns.format, fh)
        except OSError as exc:
            print(f"cubeball: usage error: cannot write --out {ns.out}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    # only selftest records carry a status; one FAIL makes the exit code 1
    return int(any(rec.get("status") == "FAIL" for rec in records))


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # the reader left; stdout to devnull, so exit's flush is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
