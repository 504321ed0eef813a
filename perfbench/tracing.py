"""Layer tracing for one `dnacodes` CLI command, and the per-layer metrics.

Run as a script, this file stands in for `python -m dnacodes.cli`: it
wraps public functions of the library's modules in spans, runs
`dnacodes.cli.main(argv)` in a fresh process (so no cache survives from
one command to the next, as with the plain CLI), and writes the spans
to a JSON file when the command ends:

    python3 perfbench/tracing.py --mode time --workload stream \\
        --case c1-knuth --spans spans.json -- encode --construction ...

With `--mode mem` only codebook build and framing are wrapped, and each
call runs under tracemalloc; that pass is kept apart from the timed one
so memory tracing does not inflate the timings.

Spans are recorded from this file, around the calls into each layer; the
library itself holds no spans.  A span record carries its name, layer,
case, workload id, parent, first start and last end.  Calls with the
same name and case under the same parent fold into one record with a
call count and summed busy time: a 256 KiB stream makes about a million
per-block calls, and one record each would take more memory than the
codec.  A record's self time is its busy time minus its children's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("cli", "payload", "constructions", "blockcodes", "balancing", "words",
          "counting", "asymptotics", "oracle")

# Route ids of the codec workloads, and the ones whose codecs build tables.
CODEC_CASES = ("c1-knuth", "c1-weak", "c2-m3n10", "si-m3n8", "sd-m3n8",
               "sd-m3n9", "si-m3n10", "c2-m4n12")
TABLE_CASES = tuple(c for c in CODEC_CASES if not c.startswith("c1-"))
PROFILE_CASES = ("q4m3n200", "q4m2n150", "q2m3n400")
# Weight profiles up to this length (the verify grid) fold into one case.
SMALL_PROFILE_N = 10
VALIDATE_IDS = ("two_mode", "state_independent", "state_dependent", "weak_knuth")
BALANCERS = {"KnuthBalancer": "knuth", "WeakKnuthBalancer": "weak"}


class Record:
    __slots__ = ("id", "name", "layer", "case", "parent", "start", "end", "calls", "busy",
                 "extra")

    def __init__(self, id, name, layer, case, parent):
        self.id, self.name, self.layer, self.case, self.parent = id, name, layer, case, parent
        self.start = self.end = None
        self.calls = 0
        self.busy = 0.0
        self.extra = {}


class Tracer:
    """In-memory span store for one process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.records: list[Record] = []
        self._index: dict[tuple, Record] = {}
        self._stack: list[int] = []

    def wrap(self, fn, name, layer, case=None, case_of=None, on_result=None):
        """Return fn wrapped in a span; case_of(args, kwargs) names the case per call."""
        perf = time.perf_counter
        stack = self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            key = (parent, name, case_of(args, kwargs) if case_of else case)
            rec = self._index.get(key)
            if rec is None:
                rec = Record(len(self.records), name, layer, key[2], parent)
                self.records.append(rec)
                self._index[key] = rec
            stack.append(rec.id)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                if rec.start is None:
                    rec.start = t0
                rec.end = t1
                rec.calls += 1
                rec.busy += t1 - t0
            if on_result is not None:
                on_result(rec, result)
            return result

        return traced

    def dump(self) -> list[dict]:
        return [
            {"name": r.name, "layer": r.layer, "case": r.case, "workload": self.workload,
             "parent": r.parent, "start": r.start, "end": r.end, "calls": r.calls,
             "busy": r.busy, **r.extra}
            for r in self.records
        ]


class _Proxy:
    """Forwards every attribute to the wrapped object except the ones set here."""

    def __init__(self, target):
        self._target = target

    def __getattr__(self, name):
        return getattr(self._target, name)


def _codec_proxy(codec, tracer: Tracer, case: str):
    proxy = _Proxy(codec)
    layer = type(codec).__module__.rsplit(".", 1)[-1]
    proxy.encode_block = tracer.wrap(codec.encode_block, f"{case}.encode_block", layer)
    proxy.decode_block = tracer.wrap(codec.decode_block, f"{case}.decode_block", layer)
    balancer = getattr(codec, "balancer", None)
    if balancer is not None:
        kind = BALANCERS.get(type(balancer).__name__, type(balancer).__name__)
        inner = _Proxy(balancer)
        inner.encode_word = tracer.wrap(balancer.encode_word, f"balancing.{kind}.encode_word",
                                        "balancing")
        inner.decode_word = tracer.wrap(balancer.decode_word, f"balancing.{kind}.decode_word",
                                        "balancing")
        codec.balancer = inner
    return proxy


def _arg(args, kwargs, pos, key, default=None):
    return args[pos] if len(args) > pos else kwargs.get(key, default)


def _profile_case(args, kwargs):
    kind, m, n = _arg(args, kwargs, 0, "kind"), _arg(args, kwargs, 1, "m"), _arg(args, kwargs, 2, "n")
    if n <= SMALL_PROFILE_N:
        return "small"
    return f"q{2 if kind == 'binary' else 4}m{m}n{n}"


def _add_extra(key, value_of):
    def on_result(rec, result):
        rec.extra[key] = rec.extra.get(key, 0) + value_of(result)
    return on_result


def _patch(module, attr, wrapper_of):
    """Replace module.attr by wrapper_of(original); a missing attribute is skipped."""
    original = getattr(module, attr, None)
    if original is not None:
        setattr(module, attr, wrapper_of(original))


def install_time(tracer: Tracer, case: str | None) -> None:
    from dnacodes import asymptotics, blockcodes, cli, constructions, counting, oracle, payload

    def span(name, layer, **kw):
        return lambda fn: tracer.wrap(fn, name, layer, **kw)

    def make_codec(fn):
        build = tracer.wrap(fn, "constructions.make_codec", "constructions", case=case)
        return lambda *a, **k: _codec_proxy(build(*a, **k), tracer, case)

    _patch(cli, "make_codec", make_codec)
    for attr, name in (("encode_bytes", "payload.encode_bytes"),
                       ("decode_bytes", "payload.decode_bytes"),
                       ("oligo_to_text", "words.oligo_to_text"),
                       ("text_to_oligo", "words.text_to_oligo"),
                       ("max_run", "words.decode_checks"),
                       ("at_weight", "words.decode_checks")):
        _patch(cli, attr, span(name, name.split(".")[0]))
    for attr in ("bytes_to_bits", "bits_to_bytes"):
        _patch(payload, attr, span(f"payload.{attr}", "payload"))
    _patch(blockcodes, "constrained_words", span("blockcodes.constrained_words", "blockcodes"))
    # Table codes build their codebooks in their constructors; wrapping the
    # classes puts that work in the blockcodes layer, not in make_codec.
    for module in (blockcodes, constructions):
        for attr in ("TwoModeRllCode", "StateIndependentCode", "StateDependentCode"):
            if attr in vars(module):
                _patch(module, attr, span(f"blockcodes.{attr}", "blockcodes"))
    for attr in ("rate_two_mode", "rate_state_independent", "rate_state_dependent"):
        _patch(blockcodes, attr, span("blockcodes.rate", "blockcodes"))
    _patch(counting, "weight_profile", span(
        "counting.weight_profile", "counting", case_of=_profile_case,
        on_result=_add_extra("coeff_bits", lambda p: sum(c.bit_length() for c in p.counts))))
    for attr in ("rll_count", "rll_count_gf", "balance_redundancy"):
        _patch(counting, attr, span(f"counting.{attr}", "counting"))
    for attr in ("capacity", "leading_coefficient", "efficiency_eta", "gamma_binary",
                 "gamma_quaternary"):
        _patch(asymptotics, attr, span(f"asymptotics.{attr}", "asymptotics"))
    _patch(asymptotics, "combined_redundancy", span(
        "asymptotics.combined_redundancy", "asymptotics",
        case_of=lambda a, k: _arg(a, k, 4, "mode", "asymptotic")))
    for attr in ("brute_rll_count", "brute_weight_count"):
        _patch(oracle, attr, span(f"oracle.{attr}", "oracle"))
    _patch(oracle, "validate_codec", span(
        "oracle.validate_codec", "oracle", case_of=lambda a, k: _arg(a, k, 0, "codec_id"),
        on_result=_add_extra("cases", lambda report: report.cases)))


def install_mem(peaks: list[dict], case: str | None, command: str) -> None:
    """Wrap codebook build and framing so each call reports its tracemalloc peak.

    Encode and decode build the same codebook, so only encode measures it.
    """
    from dnacodes import cli

    def peak_of(fn, name, case):
        def call(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peaks.append({"name": name, "case": case,
                              "peak_bytes": tracemalloc.get_traced_memory()[1]})
                tracemalloc.stop()
        return call

    if command == "encode":
        _patch(cli, "make_codec", lambda fn: peak_of(fn, "constructions.make_codec", case))
        _patch(cli, "encode_bytes", lambda fn: peak_of(fn, "payload.encode_bytes", None))
    elif command == "decode":
        _patch(cli, "decode_bytes", lambda fn: peak_of(fn, "payload.decode_bytes", None))


def child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--mode", choices=("time", "mem"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--case", help="route id of an encode/decode command")
    parser.add_argument("--spans", required=True, help="JSON file to write the spans to")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    from dnacodes import cli

    tracer = Tracer(args.workload)
    peaks: list[dict] = []
    main = cli.main
    if args.mode == "time":
        install_time(tracer, args.case)
        main = tracer.wrap(main, "cli.main", "cli", case=cli_args[0] if cli_args else None)
    else:
        install_mem(peaks, args.case, cli_args[0] if cli_args else None)
    code = main(cli_args)
    with open(args.spans, "w", encoding="ascii") as fh:
        json.dump({"spans": tracer.dump(), "peaks": peaks}, fh)
    return code


# ---------------------------------------------------------------- analysis


def merge(commands: list[list[dict]]) -> list[dict]:
    """Concatenate the span lists of several commands, renumbering parents."""
    merged = []
    for records in commands:
        offset = len(merged)
        for r in records:
            merged.append({**r, "parent": None if r["parent"] is None else r["parent"] + offset})
    return merged


def _annotate(records: list[dict]) -> None:
    """Add self time, the nearest cased ancestor ("ctx") and the root command."""
    children_busy = defaultdict(float)
    for r in records:
        if r["parent"] is not None:
            children_busy[r["parent"]] += r["busy"]
    for i, r in enumerate(records):
        r["self"] = r["busy"] - children_busy[i]
        parent = records[r["parent"]] if r["parent"] is not None else None
        r["ctx"] = r["case"] if r["case"] is not None or parent is None else parent["ctx"]
        r["root"] = parent["root"] if parent is not None else r["case"]
        r["parent_layer"] = parent["layer"] if parent is not None else None


def per_layer_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    names = [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [("cli.main_s", "s"), ("cli.import_s", "s"), ("trace.overhead_s", "s"),
              ("repo.src_lines", "count")]
    names += [(f"blockcodes.constrained_words.{c}_s", "s") for c in TABLE_CASES]
    names += [(f"constructions.make_codec.{c}_s", "s") for c in CODEC_CASES]
    names += [(f"constructions.make_codec.{c}_peak_MB", "MB") for c in CODEC_CASES]
    for op in ("encode", "decode"):
        names += [(f"payload.{op}_bytes.self_s", "s"), (f"payload.{op}_bytes.peak_MB", "MB")]
    names += [("payload.bytes_to_bits_s", "s"), ("payload.bits_to_bytes_s", "s")]
    for c in CODEC_CASES:
        names += [(f"{c}.encode_block_us", "us"), (f"{c}.decode_block_us", "us"),
                  (f"{c}.blocks", "count")]
    names += [(f"balancing.{k}.{op}_word_us", "us")
              for k in ("knuth", "weak") for op in ("encode", "decode")]
    names += [("words.oligo_to_text_s", "s"), ("words.text_to_oligo_s", "s"),
              ("words.decode_checks_s", "s")]
    for c in PROFILE_CASES:
        names += [(f"counting.weight_profile.{c}_s", "s"),
                  (f"counting.weight_profile.{c}_coeff_bits", "count")]
    names += [("counting.weight_profile.small_s", "s"), ("counting.rll_count_s", "s"),
              ("counting.rll_count_gf_s", "s"), ("counting.balance_redundancy_s", "s"),
              ("asymptotics.combined_redundancy.exact_s", "s"), ("asymptotics.tables_s", "s")]
    names += [("oracle.brute_rll_count_s", "s"), ("oracle.brute_weight_count_s", "s"),
              ("oracle.queries", "count")]
    for c in VALIDATE_IDS:
        names += [(f"oracle.validate_codec.{c}_s", "s"), (f"oracle.validate_codec.{c}_cases", "count")]
    return names


def timed_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer values of one traced pass (every command's records together)."""
    _annotate(records)
    by_name = defaultdict(list)
    for r in records:
        by_name[r["name"]].append(r)

    def total(name, field="busy", case=None, ctx=None):
        return sum(r[field] for r in by_name[name]
                   if (case is None or r["case"] == case) and (ctx is None or r["ctx"] == ctx))

    def per_call_us(name):
        calls = total(name, "calls")
        return total(name) / calls * 1e6 if calls else 0.0

    out = {f"{layer}.self_s": sum(r["self"] for r in records if r["layer"] == layer)
           for layer in LAYERS}
    out["cli.main_s"] = total("cli.main")
    for c in TABLE_CASES:
        out[f"blockcodes.constrained_words.{c}_s"] = total("blockcodes.constrained_words", ctx=c)
    for c in CODEC_CASES:
        out[f"constructions.make_codec.{c}_s"] = total("constructions.make_codec", case=c)
        out[f"{c}.encode_block_us"] = per_call_us(f"{c}.encode_block")
        out[f"{c}.decode_block_us"] = per_call_us(f"{c}.decode_block")
        out[f"{c}.blocks"] = total(f"{c}.encode_block", "calls")
    for op in ("encode", "decode"):
        out[f"payload.{op}_bytes.self_s"] = total(f"payload.{op}_bytes", "self")
    for attr in ("bytes_to_bits", "bits_to_bytes"):
        out[f"payload.{attr}_s"] = total(f"payload.{attr}")
    for k in ("knuth", "weak"):
        for op in ("encode", "decode"):
            out[f"balancing.{k}.{op}_word_us"] = per_call_us(f"balancing.{k}.{op}_word")
    for attr in ("oligo_to_text", "text_to_oligo", "decode_checks"):
        out[f"words.{attr}_s"] = total(f"words.{attr}")
    for c in PROFILE_CASES:
        out[f"counting.weight_profile.{c}_s"] = total("counting.weight_profile", case=c)
        out[f"counting.weight_profile.{c}_coeff_bits"] = sum(
            r.get("coeff_bits", 0) for r in by_name["counting.weight_profile"] if r["case"] == c)
    out["counting.weight_profile.small_s"] = total("counting.weight_profile", case="small")
    for attr in ("rll_count", "rll_count_gf", "balance_redundancy"):
        out[f"counting.{attr}_s"] = total(f"counting.{attr}")
    out["asymptotics.combined_redundancy.exact_s"] = total("asymptotics.combined_redundancy",
                                                           case="exact")
    out["asymptotics.tables_s"] = sum(
        r["busy"] for r in records
        if r["layer"] == "asymptotics" and r["parent_layer"] != "asymptotics"
        and r["root"] == "tables")
    for attr in ("brute_rll_count", "brute_weight_count"):
        out[f"oracle.{attr}_s"] = total(f"oracle.{attr}")
    out["oracle.queries"] = total("oracle.brute_rll_count", "calls") + total(
        "oracle.brute_weight_count", "calls")
    for c in VALIDATE_IDS:
        out[f"oracle.validate_codec.{c}_s"] = total("oracle.validate_codec", case=c)
        out[f"oracle.validate_codec.{c}_cases"] = sum(
            r.get("cases", 0) for r in by_name["oracle.validate_codec"] if r["case"] == c)
    return out


def memory_metrics(peaks: list[dict]) -> dict[str, float]:
    """Peak allocation per codebook build (per route) and per framing call (max over routes)."""
    def peak_mb(name, case=None):
        return max((p["peak_bytes"] / 1e6 for p in peaks
                    if p["name"] == name and (case is None or p["case"] == case)), default=0.0)

    out = {f"constructions.make_codec.{c}_peak_MB": peak_mb("constructions.make_codec", c)
           for c in CODEC_CASES}
    for op in ("encode", "decode"):
        out[f"payload.{op}_bytes.peak_MB"] = peak_mb(f"payload.{op}_bytes")
    return out


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
