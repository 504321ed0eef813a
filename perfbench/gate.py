"""Correctness gate: every command output is checked before it counts.

The run/AT scanner here is written out again rather than imported from
`dnacodes.words`, so a defect in the library cannot hide from it.  A
check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import re
import shutil
from pathlib import Path

from workloads import Command, Route

DIGESTS = json.loads((Path(__file__).with_name("digests.json")).read_text())



def has_run_longer(text: str, max_run: int) -> bool:
    """Whether some symbol repeats more than max_run times in a row."""
    return re.search(r"(.)\1{%d}" % max_run, text) is not None


def check_strands(text: str, route: Route) -> list[str]:
    """Length, alphabet, max run (within and across strands) and AT balance."""
    problems = []
    strands = text.split()
    if not strands:
        return ["no strands emitted"]
    for lineno, strand in enumerate(strands, start=1):
        if len(strand) != route.strand_len:
            problems.append(f"line {lineno}: length {len(strand)} != {route.strand_len}")
        if not set(strand) <= set("ACGT"):
            problems.append(f"line {lineno}: symbol outside ACGT")
        if route.at_slack is not None:
            gap = abs(2 * (strand.count("A") + strand.count("T")) - len(strand))
            if gap > 2 * route.at_slack:
                problems.append(f"line {lineno}: AT-content off balance by {gap / 2}")
        if route.max_run is not None and has_run_longer(strand, route.max_run):
            problems.append(f"line {lineno}: run longer than {route.max_run}")
        if len(problems) >= 5:
            return problems
    if route.max_run is not None and has_run_longer("".join(strands), route.max_run):
        problems.append(f"run longer than {route.max_run} across a strand join")
    return problems


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def check_output(cmd: Command, workdir: Path, digests: dict = DIGESTS) -> list[str]:
    """All checks that apply to one finished command's output file."""
    path = workdir / cmd.out
    if not path.is_file():
        return [f"{cmd.out}: missing"]
    data = path.read_bytes()
    problems = []
    if cmd.digest_key is not None and digest(data) != digests[cmd.digest_key]:
        problems.append(f"{cmd.out}: SHA-256 differs from the recorded output")
    if cmd.kind == "encode":
        problems += check_strands(data.decode("ascii", "replace"), cmd.route)
    elif cmd.kind == "decode":
        if data != (workdir / cmd.payload).read_bytes():
            problems.append(f"{cmd.out}: decoded bytes differ from {cmd.payload}")
    elif cmd.kind == "verify":
        lines = data.decode("ascii", "replace").splitlines()
        if not lines or lines[-1] != "verify: PASS":
            problems.append(f"{cmd.out}: does not end in 'verify: PASS'")
    return problems


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise AssertionError(f"gate self-test: {what}")


def self_test(scratch: Path) -> None:
    """Show that the gate rejects damaged fixtures, using files under scratch.

    Raises AssertionError when a check accepts what it must reject.
    """
    balanced = Route("fixture-balanced", (), 8, None, 0)
    runs = Route("fixture-runs", (), 8, 3, None)
    good_balanced = "GACTGATC\nCAGTCTAG\n"
    good_runs = "ACCCTGAG\nTTTAGCAG\n"
    _expect(not check_strands(good_balanced, balanced), "good balanced strands rejected")
    _expect(not check_strands(good_runs, runs), "good run-limited strands rejected")
    # Each damaged fixture differs from a good one in one symbol.
    _expect(check_strands("AACTGATC\nCAGTCTAG\n", balanced), "AT-content 5 of 8 accepted")
    _expect(check_strands("ACCCCGAG\nTTTAGCAG\n", runs), "run of 4 accepted")
    _expect(check_strands("ACCCTGAT\nTTTAGCAG\n", runs), "run of 4 across a join accepted")
    _expect(check_strands("ACCCTGAG\nTTTAGCA\n", runs), "short strand accepted")
    # G->C keeps runs and AT-content, so only the digest can see it.
    substituted = good_balanced.replace("GACT", "CACT", 1)
    _expect(not check_strands(substituted, balanced), "scanner sees a G->C substitution")

    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    payload = bytes(range(256))
    csv = b"m,eta\n2,0.947\n3,0.988\n"
    (scratch / "p.bin").write_bytes(payload)
    (scratch / "d.out").write_bytes(payload)
    (scratch / "s.txt").write_text(good_balanced)
    (scratch / "t.csv").write_bytes(csv)
    (scratch / "v.txt").write_text("count grid: all equal\nverify: PASS\n")
    digests = {"strands": digest(good_balanced.encode()), "csv": digest(csv)}
    fixtures = (
        Command((), "s.txt", "encode", balanced, "p.bin", "strands"),
        Command((), "d.out", "decode", balanced, "p.bin"),
        Command((), "t.csv", "digest", digest_key="csv"),
        Command((), "v.txt", "verify"),
    )
    for cmd in fixtures:
        _expect(not check_output(cmd, scratch, digests), f"good {cmd.out} rejected")
    (scratch / "s.txt").write_text(substituted)
    (scratch / "d.out").write_bytes(payload[:100] + bytes([payload[100] ^ 1]) + payload[101:])
    (scratch / "t.csv").write_bytes(csv.replace(b"0.988", b"0.989"))
    (scratch / "v.txt").write_text("verify: FAIL (1)\n")
    for cmd in fixtures:
        _expect(check_output(cmd, scratch, digests), f"damaged {cmd.out} accepted")
    _expect(check_output(Command((), "absent.txt", "verify"), scratch), "missing file accepted")
    shutil.rmtree(scratch)
