"""Command-line front end.

Machine-readable output (CSV or JSON, chosen by --format) goes to stdout or
--out (a file encoded 1 MiB of text at a time); a one-line human summary goes
to stderr.  Exit codes: 0 success, 2 usage/validation error, 1 internal
error.  All randomness is derived from --seed through the documented
counter-based streams, so identical argv produce byte-identical outputs.

`main(argv)` may be called again in one process: it builds its parser once
and looks up `_cmd_<command>` at call time.  `converge --threshold` must be
finite and at least 0.

On glibc, `main` first sets the process's allocator to keep the heap it
frees (`_keep_freed_heap`): each command's multi-MB numpy buffers are then
reused by the next command in place of being handed back to the kernel and
page-faulted in again.  Allocations up to 32 MiB (`M_MMAP_THRESHOLD`, glibc's
own ceiling for its dynamic threshold on 64-bit) come from the heap, and the
heap's free top is trimmed only past 256 MiB (`M_TRIM_THRESHOLD`, above the
largest working set at the point cap).  Both are set, because setting either
one turns glibc's dynamic threshold off and alone makes more page faults.
The cost is resident memory, since freed buffers stay mapped: on a
5000-point file, at the point cap, `recognize` with the policy alone peaked
at 182-184 MB against 157-167 MB without it, and at 148-149 MB once
`read_poset` shifted its columns in place.  The library never sets the
policy: `import poslim` leaves the host process's allocator as it is.
Elsewhere than glibc, or where `mallopt` is missing or refuses a value,
nothing is changed.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import measures, poset, recognition, sampling, semiorders, textio
from .densities import density
from .errors import FormatError, PoslimError
from .rng import SeededRng


_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters
_SLICE = 1 << 20  # characters of output `_emit` encodes at a time


@functools.cache
def _keep_freed_heap() -> bool:
    """Set glibc's allocator to keep freed heap for reuse (module docstring),
    once per process; whether both values were accepted."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
        import ctypes  # here, where it is used, not at `import poslim`

        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, ImportError, OSError, ValueError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # the trim threshold only if the mmap threshold was accepted: one alone costs faults
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20) and mallopt(_M_TRIM_THRESHOLD, 256 << 20))


def _fraction(text: str) -> Fraction:
    try:
        return textio.parse_rational(text)
    except FormatError as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _read_text(path: str) -> str:
    """The file's bytes decoded once as UTF-8, line ends as written: every
    reader takes LF, CRLF and CR alike.  An unreadable file or one that is
    not UTF-8 raises FormatError ("cannot read ...")."""
    try:
        return Path(path).read_bytes().decode()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _resolve_poset(spec: str) -> poset.FinitePoset:
    try:
        return poset.named_poset(spec)
    except FormatError:
        pass
    return poset.read_poset(_read_text(spec))


def _model(kind: str, value):
    """The model an argument of `kind` names: for "gc", g_c of the shift
    `value`; for "g", "rate" or "measure", the file `value` by its reader,
    a rate read as its g."""
    if kind == "gc":
        return semiorders.gc(value)
    text = _read_text(value)
    if kind == "g":
        return semiorders.read_g(text)
    if kind == "rate":
        return semiorders.read_rate(text).g
    return measures.read_measure(text)


def _emit(text: str, out: str | None, summary: str) -> None:
    if out:
        try:  # encoded as by `Path.write_text`, a slice at a time: no whole encoded copy
            with open(out, "w") as f:
                f.writelines(text[k:k + _SLICE] for k in range(0, len(text), _SLICE))
        except OSError as exc:
            raise FormatError(f"cannot write {out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)


def _table(fmt: str, header, rows, payload) -> str:
    """`header` and `rows` as CSV, or `payload` as JSON."""
    return textio.to_json(payload) if fmt == "json" else textio.to_csv(header, rows)


def _kernel_from_args(args) -> object:
    if args.kernel == "gc" and args.c is None:
        raise FormatError("--kernel gc needs --c")
    if args.kernel != "gc" and not args.infile:
        kind = {"g": "pwl", "rate": "rate", "measure": "measure"}[args.kernel]
        raise FormatError(f"--kernel {args.kernel} needs --in <{kind} file>")
    return _model(args.kernel, args.c if args.kernel == "gc" else args.infile)


def _cmd_sample(args) -> int:
    kernel = _kernel_from_args(args)
    p = sampling.sample_kernel_poset(kernel, args.n, SeededRng(args.seed))
    _emit(
        poset.write_poset(p),
        args.out,
        f"sampled {p.n}-point poset ({p.pair_count()} related pairs) "
        f"from {args.kernel} kernel, seed {args.seed}",
    )
    return 0


def _cmd_density(args) -> int:
    q = _resolve_poset(args.q)
    p = _resolve_poset(args.p)
    value = density(q, p, args.kind)
    _emit(
        textio.format_rational(value) + "\n",
        args.out,
        f"{args.kind} density of {args.q} in {args.p}",
    )
    return 0


def _cmd_recognize(args) -> int:
    p = _resolve_poset(args.infile)
    payload = {
        "interval_order": recognition.is_interval_order(p),
        "semiorder": recognition.is_semiorder(p),
    }
    _emit(
        _table(args.format, payload.keys(), [payload.values()], payload),
        args.out,
        f"recognized {p.n}-point poset: interval_order={payload['interval_order']}"
        f", semiorder={payload['semiorder']}",
    )
    return 0


def _cmd_represent(args) -> int:
    p = _resolve_poset(args.infile)
    rep = recognition.interval_representation(p)
    _emit(
        recognition.write_representation(rep),
        args.out,
        f"interval representation of {p.n} points, left endpoints k/{p.n}",
    )
    return 0


def _cmd_project(args) -> int:
    mu = _model("measure", args.infile)
    if not isinstance(mu, measures.StepKernelMeasure):
        raise FormatError("project needs a stepmeasure input")
    star = measures.project_star(mu).canonical()
    _emit(
        measures.write_measure(star),
        args.out,
        f"canonical projection has {len(star.conditionals)} cells",
    )
    return 0


def _cmd_equiv(args) -> int:
    a, b = _model("measure", args.a), _model("measure", args.b)
    if args.statistical:
        if args.seed is None:
            raise FormatError("equiv --statistical needs --seed")
        report = sampling.equivalence_test_statistical(
            a, b, args.n, args.trials, SeededRng(args.seed)
        )
        text = report.to_json() if args.format == "json" else report.to_csv()
        _emit(
            text,
            args.out,
            f"statistical test over {args.trials} trials at n={args.n}: "
            f"{len(report.flagged_ids())} flagged patterns",
        )
        return 0
    if not isinstance(a, measures.StepKernelMeasure) or not isinstance(
        b, measures.StepKernelMeasure
    ):
        raise FormatError("exact equiv compares two stepmeasure files")
    same = measures.equivalent(a, b)
    _emit(
        _table(args.format, ["equivalent"], [[same]], {"equivalent": same}),
        args.out,
        f"measures are {'equivalent' if same else 'not equivalent'}",
    )
    return 0


def _cmd_nu(args) -> int:
    p = _resolve_poset(args.infile)
    cdf = sampling.nu_empirical(p, args.sign)
    den, *cols = cdf.rows
    points = list(zip(*(textio.format_rationals(c, den) for c in cols)))
    _emit(
        _table(args.format, ["x", "left", "right"], points, {"points": points}),
        args.out,
        f"empirical {args.sign} degree CDF of {p.n} points ({len(cols[0])} breakpoints)",
    )
    return 0


def _cmd_fingerprint(args) -> int:
    p = _resolve_poset(args.infile)
    fp = sampling.fingerprint(p, args.max_q)
    header = ["poset_id", "label", "value", "half_width"]
    rows = [e.as_row() for e in fp.entries]
    payload = {r[0]: dict(zip(header[1:], r[1:])) for r in rows}
    text = _table(args.format, header, rows, payload)
    _emit(text, args.out, f"fingerprint over {len(fp.entries)} patterns")
    return 0


def _cmd_rgo(args) -> int:
    p = sampling.random_graph_order(args.n, args.p, SeededRng(args.seed))
    c = sampling.c_parameter(args.n, args.p)
    _emit(
        poset.write_poset(p),
        args.out,
        f"random graph order n={args.n} p={args.p} seed={args.seed}; "
        f"shift parameter c={c:.6g}",
    )
    return 0


def _cmd_converge(args) -> int:
    posets = [_resolve_poset(spec) for spec in args.infiles]
    kind = next((k for k in ("gc", "g", "rate") if getattr(args, k) is not None), None)
    target = None if kind is None else _model(kind, getattr(args, kind))
    report = sampling.converge_diagnostic(posets, target, threshold=args.threshold)
    text = report.to_json() if args.format == "json" else report.to_csv()
    _emit(text, args.out, f"verdict: {report.verdict}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="poslim",
        description="Interval order and semiorder limits: densities, "
        "samplers, representations, diagnostics.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp, seed=False, n=False, fmt=True):
        if seed:
            sp.add_argument("--seed", type=int, required=True)
        if n:
            sp.add_argument("--n", type=int, required=True)
        if fmt:
            sp.add_argument("--format", choices=("csv", "json"), default="json")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("sample", help="sample a random poset from a kernel")
    sp.add_argument("--kernel", choices=("gc", "g", "rate", "measure"), required=True)
    sp.add_argument("--c", type=_fraction, default=None)
    sp.add_argument("--in", dest="infile", default=None)
    add_common(sp, seed=True, n=True, fmt=False)

    sp = sub.add_parser("density", help="exact density of one poset in another")
    sp.add_argument("--q", required=True, help="pattern: name or poset file")
    sp.add_argument("--p", required=True, help="host: name or poset file")
    sp.add_argument("--kind", choices=("hom", "inj", "ind"), required=True)
    add_common(sp, fmt=False)

    sp = sub.add_parser("recognize", help="interval order / semiorder tests")
    sp.add_argument("--in", dest="infile", required=True)
    add_common(sp)

    sp = sub.add_parser("represent", help="evenly spaced interval representation")
    sp.add_argument("--in", dest="infile", required=True)
    add_common(sp, fmt=False)

    sp = sub.add_parser("project", help="gap-averaged canonical measure")
    sp.add_argument("--in", dest="infile", required=True)
    add_common(sp, fmt=False)

    sp = sub.add_parser("equiv", help="limit equivalence of two measures")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--statistical", action="store_true",
                    help="sampled fingerprint comparison instead of exact")
    sp.add_argument("--n", type=int, default=500)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--seed", type=int, default=None)
    add_common(sp)

    sp = sub.add_parser("nu", help="empirical degree distribution CDF")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--sign", choices=("minus", "plus"), required=True)
    add_common(sp)

    sp = sub.add_parser("fingerprint", help="exact induced-density fingerprint")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--max-q", type=int, default=4)
    add_common(sp)

    sp = sub.add_parser("rgo", help="random graph order sample")
    sp.add_argument("--p", type=_fraction, required=True)
    add_common(sp, seed=True, n=True, fmt=False)

    sp = sub.add_parser("converge", help="degree-distribution convergence table")
    sp.add_argument("--in", dest="infiles", nargs="+", required=True)
    target = sp.add_mutually_exclusive_group()  # at most one target g
    target.add_argument("--gc", type=_fraction, default=None)
    target.add_argument("--g", default=None)
    target.add_argument("--rate", default=None)
    sp.add_argument("--threshold", type=float, default=0.05)
    add_common(sp)

    return ap


def main(argv=None) -> int:
    _keep_freed_heap()
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except PoslimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - report and exit 1
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
