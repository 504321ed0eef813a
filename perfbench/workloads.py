"""Workload definitions: the CLI command sequence each workload runs.

A workload is a closed loop with one client: the benchmark starts one
`dnacodes` command as a child process, waits for it to end, checks its
output, and only then starts the next.  Inputs come from
`random.Random(seed)`; the CLI only ever sees the generated files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Route:
    """One encoding route and the strand constraints its output must meet."""

    id: str
    args: tuple[str, ...]
    strand_len: int
    max_run: int | None  # longest homopolymer run, across strand joins too
    at_slack: int | None  # largest |AT-content - strand_len/2|


@dataclass(frozen=True)
class Command:
    """One CLI invocation plus what its output is checked against."""

    argv: tuple[str, ...]
    out: str  # file under the work directory that the command writes
    kind: str  # "encode", "decode", "digest" or "verify"
    route: Route | None = None
    payload: str | None = None  # input payload for encode, original for decode
    digest_key: str | None = None  # key into digests.json, when one is recorded


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    payloads: dict[str, int] = field(default_factory=dict)  # file name -> bytes


STREAM_ROUTES = (
    Route("c1-knuth", ("construction1", "--ell", "64"), 76, None, 0),
    Route("c1-weak", ("construction1", "--ell", "64", "--balancer", "weak-knuth", "--p0", "3"),
          70, None, 4),
    Route("c2-m3n10", ("construction2", "--m", "3", "--n", "10"), 10, 3, None),
    Route("si-m3n8", ("state-independent", "--m", "3", "--n", "8"), 8, 3, None),
    Route("sd-m3n8", ("state-dependent", "--m", "3", "--n", "8"), 8, 3, None),
)

SMALL_FILE_ROUTES = (
    Route("sd-m3n9", ("state-dependent", "--m", "3", "--n", "9"), 9, 3, None),
    Route("si-m3n10", ("state-independent", "--m", "3", "--n", "10"), 10, 3, None),
    Route("c2-m4n12", ("construction2", "--m", "4", "--n", "12"), 12, 4, None),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "stream",
            "one 256 KiB payload through 5 small-table routes: framing, per-block coding,"
            " balancers and strand text I/O do the work; codebook build is a small share",
            {"stream.bin": 256 * 1024},
        ),
        Workload(
            "small-files",
            "two 4 KiB payloads through 3 routes with 4^n tables: nearly all time and memory"
            " go to building codebooks, framing does almost nothing",
            {"small-1.bin": 4096, "small-2.bin": 4096},
        ),
        Workload(
            "counting",
            "paper-table commands (weight profiles, exact redundancy, tables, figure1):"
            " the transfer-matrix and series kernels do the work, the codec layers none",
        ),
        Workload(
            "verify",
            "verify --m-max 3 --n-max 10: the brute-force oracle does the work, with the"
            " histogram-cache eviction pattern of the test grid; no other workload reaches it",
        ),
    )
}

COUNTING_ARGS = (
    ("wp-q4m3n200", ("count", "--q", "4", "--m", "3", "--n", "200", "--weight-profile")),
    ("wp-q4m2n150", ("count", "--q", "4", "--m", "2", "--n", "150", "--weight-profile")),
    ("wp-q2m3n400", ("count", "--q", "2", "--m", "3", "--n", "400", "--weight-profile")),
    ("redundancy", ("redundancy", "--family", "combined", "--q", "4", "--m", "3", "--n", "120",
                    "--a", "0.05", "--exact")),
    *(
        (f"table-{t}", ("tables", t))
        for t in ("capacity", "coefficient", "eta", "two-mode", "state-indep", "state-dep",
                  "gamma")
    ),
    ("figure1", ("figure1",)),
)


def _codec_commands(routes, payloads, seed: int) -> list[Command]:
    commands = []
    for payload in payloads:
        stem = payload.removesuffix(".bin")
        for route in routes:
            strands = f"{stem}.{route.id}.txt"
            decoded = f"{stem}.{route.id}.out"
            commands.append(Command(
                ("encode", "--construction", *route.args, "--in", payload, "--out", strands),
                strands, "encode", route, payload, strands if seed == DEFAULT_SEED else None,
            ))
            commands.append(Command(
                ("decode", "--construction", *route.args, "--in", strands, "--out", decoded),
                decoded, "decode", route, payload,
            ))
    return commands


def commands(workload: str, seed: int) -> list[Command]:
    """The fixed command sequence of one pass of a workload.

    Strand files have recorded digests only for the default seed; every
    other output is the same for any seed.
    """
    if workload == "stream":
        return _codec_commands(STREAM_ROUTES, WORKLOADS[workload].payloads, seed)
    if workload == "small-files":
        return _codec_commands(SMALL_FILE_ROUTES, WORKLOADS[workload].payloads, seed)
    if workload == "counting":
        return [
            Command((*args, "--out", f"{key}.csv"), f"{key}.csv", "digest", digest_key=key)
            for key, args in COUNTING_ARGS
        ]
    if workload == "verify":
        return [Command(("verify", "--m-max", "3", "--n-max", "10", "--out", "verify.txt"),
                        "verify.txt", "verify")]
    raise ValueError(f"unknown workload {workload!r}")


def write_inputs(workload: str, seed: int, workdir: Path) -> None:
    """Write the workload's seeded payload files."""
    rng = random.Random(seed)
    for name, size in WORKLOADS[workload].payloads.items():
        (workdir / name).write_bytes(rng.randbytes(size))
