"""Command-line front end with deterministic, machine-readable output.

Every command prints one flat key=value record per result line (or CSV with
``--format csv``), embedding the tool version and the configuration that
produced it.  Identical invocations, including the seed, give byte-identical
output.  Exit codes: 0 success, 1 computation or domain error (reported as a
one-line ``error=...`` record on stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, TextIO

from . import __version__, analysis, metrics
from .bijections import BijectionKind, forward_map, inverse_map
from .bits import DEFAULT_ENUMERATION_CAP, BitVector
from .chains import chain_members, position
from .errors import CubeballError

# The CLI enumerates at most 2^24 items unless --allow-large lifts the cap
# to the library ceiling.
CLI_ENUMERATION_CAP = 1 << 24

_KINDS = [k.value for k in BijectionKind]


class UsageError(Exception):
    """Flag combinations rejected before any computation starts."""


@dataclass(frozen=True, slots=True)
class RunConfig:
    """Validated flags for one invocation."""

    command: str
    format: str = "text"
    out: Optional[str] = None
    allow_large: bool = False
    bijection: Optional[str] = None
    input: Optional[str] = None
    n: Optional[int] = None
    direction: str = "fwd"
    mode: Optional[str] = None
    samples: Optional[int] = None
    seed: Optional[int] = None
    full: bool = False
    a: Optional[int] = None
    b: Optional[int] = None
    bit: Optional[int] = None

    @classmethod
    def from_namespace(cls, ns: argparse.Namespace) -> "RunConfig":
        command = ns.command
        if command == "stats":
            command = f"stats-{ns.stats_command}"
        fields = {
            name: getattr(ns, name)
            for name in cls.__dataclass_fields__
            if name != "command" and hasattr(ns, name)
        }
        return cls(command=command, **fields)

    def validate(self) -> None:
        if self.command == "verify":
            if self.mode == "sample":
                if self.seed is None:
                    raise UsageError("sampled mode requires an explicit --seed")
                if self.direction == "inv":
                    raise UsageError("sampled sweeps are forward only")
                if self.samples is None or self.samples < 1:
                    raise UsageError("--samples must be >= 1")

    @property
    def cap(self) -> int:
        return DEFAULT_ENUMERATION_CAP if self.allow_large else CLI_ENUMERATION_CAP


def _frac(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


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


def _position_fields(x: BitVector) -> dict[str, str]:
    pos = position(x)
    return {
        "chain_code": str(pos.code),
        "k": str(pos.k),
        "j": str(pos.j),
        "ell": str(pos.ell),
    }


def _cmd_map(cfg: RunConfig) -> list[dict[str, str]]:
    x = BitVector.parse(cfg.input)
    z = forward_map(BijectionKind(cfg.bijection))(x)
    rec = _base("map")
    rec.update(bijection=cfg.bijection, input=x.render(), n=str(x.n), output=z.render())
    rec.update(_position_fields(x))
    return [rec]


def _cmd_invmap(cfg: RunConfig) -> list[dict[str, str]]:
    z = BitVector.parse(cfg.input)
    x = inverse_map(BijectionKind(cfg.bijection))(z)
    rec = _base("invmap")
    rec.update(bijection=cfg.bijection, input=z.render(), n=str(x.n), output=x.render())
    rec.update(_position_fields(x))
    return [rec]


def _cmd_chain(cfg: RunConfig) -> list[dict[str, str]]:
    x = BitVector.parse(cfg.input)
    rec = _base("chain")
    rec.update(input=x.render(), n=str(x.n))
    rec.update(_position_fields(x))
    if cfg.full:
        pos = position(x)
        rec["members"] = "|".join(m.render() for m in chain_members(pos.code))
    return [rec]


def _cmd_verify(cfg: RunConfig) -> list[dict[str, str]]:
    kind = BijectionKind(cfg.bijection)
    if cfg.mode == "sample":
        report = metrics.forward_stretch_sampled(kind, cfg.n, cfg.samples, cfg.seed)
    elif cfg.direction == "fwd":
        report = metrics.forward_stretch_exhaustive(kind, cfg.n, cap=cfg.cap)
    else:
        report = metrics.inverse_stretch_exhaustive(kind, cfg.n, cap=cfg.cap)
    rec = _base("verify")
    rec.update(report.to_record())
    return [rec]


def _cmd_pairs_audit(cfg: RunConfig) -> list[dict[str, str]]:
    aud = metrics.pairwise_ratio_audit(BijectionKind(cfg.bijection), cfg.n, cap=cfg.cap)
    rec = _base("pairs-audit")
    rec.update(
        bijection=cfg.bijection,
        n=str(cfg.n),
        pairs=str(aud.pairs),
        min_ratio=_frac(aud.min_ratio),
        max_ratio=_frac(aud.max_ratio),
        min_x=aud.min_witness[0].render(),
        min_y=aud.min_witness[1].render(),
        max_x=aud.max_witness[0].render(),
        max_y=aud.max_witness[1].render(),
    )
    return [rec]


def _cmd_stats_chains(cfg: RunConfig) -> list[dict[str, str]]:
    table = analysis.chain_count_enumerated(cfg.n, cap=cfg.cap)
    records = []
    for t in range(1, cfg.n + 2):
        rec = _base("stats-chains")
        rec.update(n=str(cfg.n), t=str(t), count=str(table.entries[t]))
        records.append(rec)
    return records


def _cmd_stats_profile(cfg: RunConfig) -> list[dict[str, str]]:
    count = analysis.unmarked_profile_count(cfg.n, cfg.a, cfg.b)
    rec = _base("stats-profile")
    rec.update(n=str(cfg.n), a=str(cfg.a), b=str(cfg.b), count=str(count))
    return [rec]


def _cmd_stats_flipprob(cfg: RunConfig) -> list[dict[str, str]]:
    analysis._require_flip_domain(cfg.n)  # n < 2 would leave the loop empty
    coords = [cfg.bit] if cfg.bit is not None else range(1, cfg.n + 1)
    records = []
    for i in coords:
        rec = _base("stats-flipprob")
        if cfg.mode == "exact":
            p = analysis.flip_probability_exact(cfg.n, i)
            rec.update(n=str(cfg.n), i=str(i), mode="exact",
                       probability=_frac(p), disagree_count="-")
        else:
            stat = analysis.flip_probability_exhaustive(cfg.n, i, cap=cfg.cap)
            rec.update(n=str(cfg.n), i=str(i), mode="exhaustive",
                       probability=_frac(stat.probability),
                       disagree_count=str(stat.disagree_count))
        records.append(rec)
    return records


def _cmd_stats_influence(cfg: RunConfig) -> list[dict[str, str]]:
    profile = analysis.influence_profile(BijectionKind(cfg.bijection), cfg.n, cfg.cap)
    records = []
    for i, inf in enumerate(profile, start=1):
        rec = _base("stats-influence")
        rec.update(bijection=cfg.bijection, n=str(cfg.n), i=str(i),
                   influence=_frac(inf))
        records.append(rec)
    return records


def _cmd_reduce_majority(cfg: RunConfig) -> list[dict[str, str]]:
    x = BitVector.parse(cfg.input)
    r = analysis.majority_reduction(x)
    maj = analysis.majority(x)
    first = analysis.first_output_bit_of_reduction(x)
    rec = _base("reduce-majority")
    rec.update(
        input=x.render(),
        n=str(x.n),
        output=r.render(),
        output_length=str(r.n),
        majority=str(maj),
        first_output_bit=str(first),
        agree=str(maj == first).lower(),
    )
    return [rec]


def _cmd_selftest(cfg: RunConfig) -> tuple[list[dict[str, str]], int]:
    from . import acceptance

    results = acceptance.run_all()
    records = []
    for res in results:
        rec = _base("selftest")
        rec.update(
            criterion=str(res.number),
            name=res.name,
            status="PASS" if res.passed else "FAIL",
            detail=res.detail,
        )
        records.append(rec)
    passed = sum(1 for r in results if r.passed)
    summary = _base("selftest")
    summary.update(
        criterion="summary",
        name="all",
        status="PASS" if passed == len(results) else "FAIL",
        detail=f"{passed}/{len(results)} criteria passed",
    )
    records.append(summary)
    return records, 0 if passed == len(results) else 1


_HANDLERS = {
    "map": _cmd_map,
    "invmap": _cmd_invmap,
    "chain": _cmd_chain,
    "verify": _cmd_verify,
    "pairs-audit": _cmd_pairs_audit,
    "stats-chains": _cmd_stats_chains,
    "stats-profile": _cmd_stats_profile,
    "stats-flipprob": _cmd_stats_flipprob,
    "stats-influence": _cmd_stats_influence,
    "reduce-majority": _cmd_reduce_majority,
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "csv"], default="text")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="also write the report to this file")
    common.add_argument("--allow-large", action="store_true",
                        help="lift the enumeration cap from 2^24 to 2^28")

    parser = argparse.ArgumentParser(
        prog="cubeball",
        description="chain coordinates on the Boolean cube and cube-to-ball maps",
    )
    parser.add_argument("--version", action="version", version=f"cubeball {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("map", parents=[common], help="apply a bijection")
    p.add_argument("--bijection", choices=_KINDS, required=True)
    p.add_argument("--input", required=True, metavar="BITS")

    p = sub.add_parser("invmap", parents=[common], help="apply an inverse bijection")
    p.add_argument("--bijection", choices=_KINDS, required=True)
    p.add_argument("--input", required=True, metavar="BITS")

    p = sub.add_parser("chain", parents=[common], help="locate a vertex on its chain")
    p.add_argument("--input", required=True, metavar="BITS")
    p.add_argument("--full", action="store_true", help="also list the whole chain")

    p = sub.add_parser("verify", parents=[common], help="stretch sweep")
    p.add_argument("--bijection", choices=_KINDS, required=True)
    p.add_argument("--direction", choices=["fwd", "inv"], default="fwd")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["exhaustive", "sample"], default="exhaustive")
    p.add_argument("--samples", type=int, default=100000)
    p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("pairs-audit", parents=[common],
                       help="extreme pairwise distance ratios")
    p.add_argument("--bijection", choices=_KINDS, required=True)
    p.add_argument("--n", type=int, required=True)

    stats = sub.add_parser("stats", help="exact counting statistics")
    stats_sub = stats.add_subparsers(dest="stats_command", required=True)

    p = stats_sub.add_parser("chains", parents=[common], help="chain counts by length")
    p.add_argument("--n", type=int, required=True)

    p = stats_sub.add_parser("profile", parents=[common],
                             help="count vertices by unmarked profile")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=int, required=True, help="unmarked zeros")
    p.add_argument("--b", type=int, required=True, help="unmarked ones")

    p = stats_sub.add_parser("flipprob", parents=[common],
                             help="per-bit disagreement probability")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bit", type=int, default=None, metavar="I")
    p.add_argument("--mode", choices=["exact", "exhaustive"], default="exact")

    p = stats_sub.add_parser("influence", parents=[common],
                             help="total influence of each output bit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--bijection", choices=_KINDS, default="psi")

    p = sub.add_parser("reduce-majority", parents=[common],
                       help="blow a vector up so bit 1 of its image is majority")
    p.add_argument("--input", required=True, metavar="BITS")

    sub.add_parser("selftest", parents=[common], help="run the acceptance checklist")

    return parser


def run(argv: list[str], stdout: Optional[TextIO] = None) -> int:
    stream = stdout if stdout is not None else sys.stdout
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    cfg = RunConfig.from_namespace(ns)
    try:
        cfg.validate()
    except UsageError as exc:
        print(f"cubeball: usage error: {exc}", file=sys.stderr)
        return 2

    status = 0
    try:
        if cfg.command == "selftest":
            records, status = _cmd_selftest(cfg)
        else:
            records = _HANDLERS[cfg.command](cfg)
    except (CubeballError, ValueError) as exc:
        rec = _base(cfg.command)
        rec.update(error=type(exc).__name__, detail=str(exc))
        _emit([rec], cfg.format, stream)
        return 1

    buf = io.StringIO()
    _emit(records, cfg.format, buf)
    stream.write(buf.getvalue())
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(buf.getvalue())
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))
