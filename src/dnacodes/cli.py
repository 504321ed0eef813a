"""Command-line interface.

Subcommands: tables, figure1, count, capacity, redundancy, encode,
decode, verify.  CSV goes to stdout unless --out is given; relative
--out paths are resolved against $DNACODES_OUTDIR when it is set.
encode and decode take --construction from constructions.CODECS and
hand make_codec only the codec flags that were given.  They stream
their files in chunks of payload.CHUNK_BYTES and code a chunk per call.
decode hands a chunk's non-blank lines, stripped and upper-cased, to
the codec, the one judge of a strand.  An error names the line and the
block and, read from the refused line's bytes, the length, base, run or
AT constraint it breaks, or else the codec's reason.  A new or regular
--out file appears only once the whole output has been written.
Exit codes: 0 success, 1 data or validation failure, 2 usage error.

A process pays only for the command it runs.  When the first argument
names a command, `main` builds the parser of that command alone (from
`COMMANDS`); no command, -h or an unknown name gets the full parser.
What each command loads besides counting: encode and decode the codec
modules (constructions, payload, words, blockcodes, balancing); tables
asymptotics, and its three efficiency tables blockcodes and words;
capacity and redundancy asymptotics; verify oracle; figure1 and count
nothing more.  CSV files are written as ASCII bytes.
`entry`, the console script and `python -m dnacodes.cli`, flushes stdout
and stderr once `main` returns, or argparse ends it with its exit
status, and ends the process with `os._exit`, skipping interpreter
teardown, which has nothing left to write.  If a flush fails, it exits
through `sys.exit`, and the interpreter's own exit reports the failure.
Any other exception that escapes `main` ends the process as usual.
Tests and tools that call `main` in process keep their interpreter.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
from collections.abc import Iterator
from contextlib import contextmanager, suppress
from functools import partial
from itertools import chain

from . import counting

TABLE_IDS = (
    "capacity",
    "coefficient",
    "eta",
    "two-mode",
    "state-indep",
    "state-dep",
    "gamma",
)

# The binary/quaternary tables: each one's m rows, the least m of its binary
# column (blank below it), and its value at q and m by the asymptotics functions.
_TWIN_TABLES = {
    "capacity": (range(1, 7), 1, lambda lib, q, m: lib.capacity(q, m).capacity_bits),
    "coefficient": (range(1, 7), 2, lambda lib, q, m: lib.leading_coefficient(q, m)),
    "gamma": ((1, 2, 3, 4, 5, 10), 2,
              lambda lib, q, m: lib.gamma(counting.KIND_OF_ALPHABET[q], m)),
}
# The rate-efficiency tables: each one's m columns, and its code's source bits a block of n
# bases by the blockcodes rules (two-mode is construction2: n raw bits beside the binary code).
_EFFICIENCY_TABLES = {
    "two-mode": ((2, 3, 4), lambda rules, m, n: rules.two_mode_bits(2, m, n, n) + n),
    "state-indep": ((1, 2, 3, 4), lambda rules, m, n: rules.two_mode_bits(4, m, n)),
    "state-dep": ((1, 2, 3, 4), lambda rules, m, n: rules.state_dependent_bits(m, n)),
}


class DataError(Exception):
    """Input data failed validation; maps to exit code 1."""


def _fmt(value: float, precision: int) -> str:
    return f"{value:.{precision}f}"


def _resolve_out(out: str) -> str:
    base = os.environ.get("DNACODES_OUTDIR")
    if base and not os.path.isabs(out):
        return os.path.join(base, out)
    return out


def _emit(lines: list[str], out: str | None) -> None:
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
        return
    with _output(out) as fh:
        fh.write(text.encode("ascii"))


def _table_rows(table_id: str, precision: int) -> list[str]:
    """The CSV lines of a table: its header, then each key with its cells, a None cell blank."""
    from . import asymptotics  # only the paper's tables load the root solver

    if table_id in _TWIN_TABLES:
        ms, least_binary, value = _TWIN_TABLES[table_id]
        header = f"m,{table_id}_binary,{table_id}_quaternary"
        rows = [(m, [value(asymptotics, 2, m) if m >= least_binary else None,
                     value(asymptotics, 4, m)]) for m in ms]
        if table_id == "gamma":
            # The unconstrained (m -> infinity) block-length distribution is geometric
            # with ratio 1/2 in either plane, whose variance factor is exactly 1.
            rows.append(("inf", [1.0, 1.0]))
    elif table_id == "eta":
        header, precision = "m,eta", 3
        rows = [(m, [asymptotics.efficiency_eta(m)]) for m in range(2, 8)]
    elif table_id in _EFFICIENCY_TABLES:
        from . import blockcodes  # the source-bit rules, without the codec modules

        ms, block_bits = _EFFICIENCY_TABLES[table_id]
        header, precision = "n," + ",".join(f"m={m}" for m in ms), 3
        rows = [(n, [block_bits(blockcodes, m, n) / n / asymptotics.capacity(4, m).capacity_bits
                     for m in ms]) for n in range(5, 11)]
    else:
        raise ValueError(f"unknown table id {table_id!r}")
    lines = [header]
    for key, row in rows:
        lines.append(",".join([str(key)] + ["" if c is None else _fmt(c, precision) for c in row]))
    return lines


def cmd_tables(args) -> int:
    _emit(_table_rows(args.table, args.precision), args.out)
    return 0


def cmd_figure1(args) -> int:
    a_values = [float(s) for s in args.a_list.split(",") if s]
    if not a_values or args.n_min > args.n_max:  # checked first: the header alone is no figure
        raise ValueError(f"empty grid: --a-list {args.a_list!r}, n {args.n_min}..{args.n_max}")
    lines = ["n,a,redundancy_bits"]
    for a in a_values:
        for n in range(args.n_min, args.n_max + 1):
            r = counting.balance_redundancy(n, a, args.boundary)
            lines.append(f"{n},{a},{_fmt(r, args.precision)}")
    _emit(lines, args.out)
    return 0


def cmd_count(args) -> int:
    if args.weight_profile:
        profile = counting.weight_profile(counting.KIND_OF_ALPHABET[args.q], args.m, args.n)
        lines = ["w,count"]
        lines.extend(f"{w},{c}" for w, c in enumerate(profile.counts))
        lines.append(f"total,{profile.total()}")
        _emit(lines, args.out)
        return 0
    count = (
        counting.rll_count_gf(args.q, args.m, args.n)
        if args.gf
        else counting.rll_count(args.q, args.m, args.n)
    )
    _emit([str(count)], args.out)
    return 0


def cmd_capacity(args) -> int:
    from . import asymptotics

    result = asymptotics.capacity(args.q, args.m)
    if args.full:
        _emit(
            [
                f"lambda,{result.lam!r}",
                f"capacity_bits,{_fmt(result.capacity_bits, args.precision)}",
                f"residual,{result.residual:.3e}",
            ],
            args.out,
        )
    else:
        _emit([_fmt(result.capacity_bits, args.precision)], args.out)
    return 0


# The optional flags of redundancy (None unless given), and the ones each
# family needs and the ones it reads; a family refuses the others.
_REDUNDANCY_FLAGS = ("q", "m", "a", "boundary", "asymptotic", "exact")
_REDUNDANCY_ARGS = {
    "balance": (("a",), ("a", "boundary")),
    "runlength": (("m",), ("q", "m", "asymptotic", "exact")),
    "combined": (("m", "a"), _REDUNDANCY_FLAGS),
}


def cmd_redundancy(args) -> int:
    family = args.family
    needs, reads = _REDUNDANCY_ARGS[family]
    missing = [f"--{name}" for name in needs if getattr(args, name) is None]
    if missing:
        raise ValueError(f"redundancy --family {family} needs {' and '.join(missing)}")
    unused = [f"--{name}" for name in _REDUNDANCY_FLAGS
              if name not in reads and getattr(args, name) is not None]
    if unused:
        raise ValueError(f"redundancy --family {family} takes no {', '.join(unused)}")
    if family == "combined" and args.boundary is not None and not args.exact:
        raise ValueError("redundancy --family combined takes no --boundary without --exact")
    q = 4 if args.q is None else args.q
    boundary = args.boundary or "strict"
    from . import asymptotics

    if family == "balance":
        value = counting.balance_redundancy(args.n, args.a, boundary)
    elif family == "runlength":
        mode = "asymptotic" if args.asymptotic else "exact"
        value = asymptotics.rll_redundancy(q, args.m, args.n, mode)
    else:
        mode = "exact" if args.exact else "asymptotic"
        value = asymptotics.combined_redundancy(
            counting.KIND_OF_ALPHABET[q], args.m, args.a, args.n, mode, boundary
        )
    _emit([_fmt(value, args.precision)], args.out)
    return 0


# Flags of encode and decode that are codec parameters, named as in make_codec.
CODEC_FLAGS = ("m", "n", "ell", "balancer", "p0")


def make_codec(construction: str, **params):
    """constructions.make_codec, imported here: only encode and decode load the codec modules.

    Every codec of the CLI is built through this one name, so a tracer
    that wraps `cli.make_codec` sees each build.
    """
    from .constructions import make_codec

    return make_codec(construction, **params)


def _build_codec(args):
    """The codec of --construction, built from the codec flags that were given."""
    params = {k: v for k, v in vars(args).items() if k in CODEC_FLAGS and v is not None}
    return make_codec(args.construction, **params)


@contextmanager
def _output(out: str | None):
    """Binary stdout, or --out; a regular file there appears only once the writer succeeds.

    A new or regular --out is written to a temporary file beside it and
    renamed into place on success, keeping an existing file's mode.  A
    symlink, device or FIFO (/dev/null, process substitution) is
    written through, as it cannot be replaced without changing what it
    is.
    """
    if out is None:
        yield sys.stdout.buffer
        return
    path = _resolve_out(out)
    exists = os.path.lexists(path)
    if exists and (os.path.islink(path) or not os.path.isfile(path)):
        with open(path, "wb") as fh:
            yield fh
        return
    part = f"{path}.{os.getpid()}.part"
    try:
        with open(part, "wb") as fh:
            yield fh
        if exists:
            shutil.copymode(path, part)
        os.replace(part, path)
    except BaseException:
        with suppress(OSError):
            os.remove(part)
        raise


def cmd_encode(args) -> int:
    from .payload import CHUNK_BYTES, encode_stream

    codec = _build_codec(args)
    with open(args.infile, "rb") as src, _output(args.out) as dst:
        chunks = iter(partial(src.read, CHUNK_BYTES), b"")
        for strands in encode_stream(codec, chunks):
            dst.write(b"\n".join(strands))
            dst.write(b"\n")
    return 0


def _frames(fh) -> Iterator[tuple[int, list[bytes]]]:
    """Frame a binary-mode strand file a chunk at a time.

    Yields the number of the chunk's first line and its whole lines,
    stripped; blank ones stay, so a line's place gives its number.  The
    file is read a chunk at a time, and a line longer than a chunk is an
    error, so a damaged file without newlines is not held in memory
    whole.  Nothing else is checked here: the codec judges each strand,
    and `_line_fault` only explains a strand it rejected.
    """
    from .payload import CHUNK_BYTES

    lineno = 0  # lines framed so far
    rest = b""  # the last line read so far, not yet ended by a newline
    for chunk in chain(iter(partial(fh.read, CHUNK_BYTES), b""), (b"\n",)):
        lines = (rest + chunk).split(b"\n")
        rest = lines.pop()
        if lines:
            yield lineno + 1, list(map(bytes.strip, lines))
            lineno += len(lines)
        if len(rest) > CHUNK_BYTES:
            raise DataError(f"line {lineno + 1}: longer than {CHUNK_BYTES} bytes")


def _line_fault(line: bytes, codec) -> str | None:
    """The first of length, bases, runs and AT content that a strand line breaks, or None."""
    from .words import LOW_DIGIT_OF_BASE, max_run

    n, run_cap, bound = codec.oligo_len, codec.max_run, codec.weight_bound
    if len(line) != n:
        return f"expected {n} symbols, got {len(line)}"
    strand = line.upper()  # the line comes as given: bases of either case
    pos = strand.translate(LOW_DIGIT_OF_BASE).find(b"x")  # b"x" for a byte that is no base
    if pos >= 0:
        byte = line[pos]
        if byte > 0x7F:
            return f"non-ASCII byte 0x{byte:02x} at position {pos}"
        return f"invalid nucleotide {chr(byte)!r} at position {pos}"
    if run_cap is not None and max_run(strand) > run_cap:
        return f"homopolymer run exceeds {run_cap}"
    if bound is not None and abs(2 * (strand.count(b"A") + strand.count(b"T")) - n) > 2 * bound:
        return "AT/GC unbalance exceeds the code bound"
    return None


def cmd_decode(args) -> int:
    from .payload import decode_stream

    codec = _build_codec(args)
    # The last chunk handed to the decoder: its first line's number, its
    # stripped lines, and the number of strands before it.
    frame: tuple[int, list[bytes], int] = (1, [], 0)

    def batches(src) -> Iterator[list[bytes]]:
        nonlocal frame
        before = 0
        for first, lines in _frames(src):
            strands = list(map(bytes.upper, filter(None, lines)))
            if strands:
                frame = first, lines, before
                yield strands
                before += len(strands)

    with open(args.infile, "rb") as src, _output(args.out) as dst:
        pieces = decode_stream(codec, batches(src))  # a bad block size is a usage error
        try:
            for piece in pieces:
                dst.write(piece)
        except ValueError as exc:  # explained by its strand's line fault, if it has one
            position = getattr(exc, "position", None)
            if position is None:  # the stream places every refusal of a strand: there was none
                raise DataError(f"line 1: {exc}") from exc
            first, lines, before = frame
            lineno, line = [(first + i, s) for i, s in enumerate(lines) if s][position - before]
            fault = _line_fault(line, codec)
            if fault is None:
                raise DataError(f"line {lineno}: {exc}") from exc
            raise DataError(f"line {lineno}: block {position + 1}: {fault}") from exc
    return 0


def cmd_verify(args) -> int:
    # Refused before the count grid, which an empty range would pass unchecked.
    for flag, least in (("m_max", 1), ("n_max", 1), ("stream_blocks", 0)):
        value = getattr(args, flag)
        if value < least:
            raise ValueError(f"{flag} must be at least {least}, not {value}")
    from . import oracle  # only verify needs the brute-force module

    lines = []
    failures = 0
    for q in (2, 4):
        for m in range(1, args.m_max + 1):
            for n in range(1, args.n_max + 1):
                exact = counting.rll_count(q, m, n)
                gf = counting.rll_count_gf(q, m, n)
                brute = oracle.brute_rll_count(q, m, n)
                ok = exact == gf == brute
                failures += not ok
                if not ok or args.verbose:
                    lines.append(
                        f"count q={q} m={m} n={n}: recurrence={exact} gf={gf} brute={brute}"
                        f" {'ok' if ok else 'MISMATCH'}"
                    )
                profile = counting.weight_profile(counting.KIND_OF_ALPHABET[q], m, n)
                for w in range(n + 1):
                    bw = oracle.brute_weight_count(q, m, w, n)
                    if profile.counts[w] != bw:
                        failures += 1
                        lines.append(
                            f"weight q={q} m={m} n={n} w={w}: "
                            f"formula={profile.counts[w]} brute={bw} MISMATCH"
                        )
    lines.append(f"count grid q in (2,4), m <= {args.m_max}, n <= {args.n_max}: "
                 f"{'all equal' if failures == 0 else f'{failures} mismatches'}")
    for name, params in (
        ("construction2", {"m": 2, "n": 6}),
        ("state-independent", {"m": 3, "n": 5}),
        ("state-dependent", {"m": 3, "n": 5}),
        ("construction1", {"ell": 10, "balancer": "weak-knuth", "p0": 2}),
    ):
        report = oracle.validate_codec(name, stream_blocks=args.stream_blocks, **params)
        lines.append(report.summary())
        failures += not report.ok
        lines.extend(f"  {f}" for f in report.failures[:5])
    lines.append("verify: " + ("PASS" if failures == 0 else f"FAIL ({failures})"))
    _emit(lines, args.out)
    return 0 if failures == 0 else 1


def _add_common(p) -> None:
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.add_argument("--precision", type=int, default=4, help="decimals for floats")


def _add_tables(sub, name: str) -> None:
    p = sub.add_parser(name, help="reference tables as CSV")
    p.add_argument("table", choices=TABLE_IDS)
    _add_common(p)
    p.set_defaults(func=cmd_tables)


def _add_figure1(sub, name: str) -> None:
    p = sub.add_parser(name, help="balance redundancy curve as CSV")
    p.add_argument("--a-list", default="0.05,0.10,0.15")
    p.add_argument("--n-min", type=int, default=10)
    p.add_argument("--n-max", type=int, default=200)
    p.add_argument("--boundary", choices=counting.BOUNDARY_MODES, default="strict")
    _add_common(p)
    p.set_defaults(func=cmd_figure1)


def _add_count(sub, name: str) -> None:
    p = sub.add_parser(name, help="exact constrained sequence counts")
    p.add_argument("--q", type=int, required=True, choices=(2, 4))
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    source = p.add_mutually_exclusive_group()
    source.add_argument("--gf", action="store_true", help="extract from the generating function")
    source.add_argument("--weight-profile", action="store_true", help="per-weight counts")
    # No --precision: count prints only ints.
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=cmd_count)


def _add_capacity(sub, name: str) -> None:
    p = sub.add_parser(name, help="constraint capacity in bits per symbol")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--full", action="store_true", help="also print the root and residual")
    _add_common(p)
    p.set_defaults(func=cmd_capacity)


def _add_redundancy(sub, name: str) -> None:
    p = sub.add_parser(name, help="redundancy figures in bits")
    p.add_argument("--family", choices=("balance", "runlength", "combined"), required=True)
    p.add_argument("--q", type=int, choices=(2, 4), help="alphabet size (default 4)")
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float)
    p.add_argument("--boundary", choices=counting.BOUNDARY_MODES, help="default strict")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--asymptotic", action="store_true", default=None)
    mode.add_argument("--exact", action="store_true", default=None)
    _add_common(p)
    p.set_defaults(func=cmd_redundancy)


def _add_codec_command(sub, name: str) -> None:
    from .constructions import CODECS  # the codec modules load with encode and decode

    p = sub.add_parser(name, help=f"{name} a file")
    p.add_argument("--construction", required=True, choices=tuple(CODECS))
    p.add_argument("--m", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--ell", type=int, help="data bits per block for construction1")
    p.add_argument("--balancer", choices=("knuth", "weak-knuth"),
                   help="construction1's balancer (default knuth)")
    p.add_argument("--p0", type=int, help="index bits for the weak balancer")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_encode if name == "encode" else cmd_decode)


def _add_verify(sub, name: str) -> None:
    p = sub.add_parser(name, help="compare formulas against brute force")
    p.add_argument("--m-max", type=int, default=3)
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--stream-blocks", type=int, default=1000)
    p.add_argument("--verbose", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)


# Each command, in the order of the help, and the function that adds its subparser.
COMMANDS = {
    "tables": _add_tables,
    "figure1": _add_figure1,
    "count": _add_count,
    "capacity": _add_capacity,
    "redundancy": _add_redundancy,
    "encode": _add_codec_command,
    "decode": _add_codec_command,
    "verify": _add_verify,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the one command given, if it is one.

    A one-command parser names every command in its usage line, so the
    usage-error texts of both parsers are the same; the full parser
    keeps argparse's own metavar, which its "invalid choice" and
    "required: command" errors read.
    """
    parser = argparse.ArgumentParser(
        prog="dnacodes",
        description="Constrained-code toolkit for DNA data storage.",
    )
    one = command in COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}" if one else None)
    for name in [command] if one else COMMANDS:
        COMMANDS[name](sub, name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        if getattr(args, "precision", 0) < 0:  # refused before anything is computed
            raise ValueError(f"--precision must be at least 0, not {args.precision}")
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    try:
        code = main()
    except SystemExit as exc:  # argparse's help and usage errors, with their status
        code = exc.code
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # the interpreter's exit flushes again and reports it
        sys.exit(code)
    os._exit(code)  # nothing is left to write, so teardown is skipped


if __name__ == "__main__":
    entry()
