import ctypes
import json
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction as F
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from poslim import cli, measures, poset, recognition, sampling, semiorders, textio
from poslim.measures import StepKernelMeasure
from poslim.rng import CONDITIONALS, POINTS, UNIT, SeededRng

import reference as ref
from conftest import atomic_measures, monotone_gs, rate_pieces, step_measures


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_density_example(capsys):
    code, out, _ = run(capsys, "density", "--q", "chain2", "--p", "chain2", "--kind", "hom")
    assert code == 0 and out.strip() == "1/4"


def test_recognize_named(capsys):
    code, out, _ = run(capsys, "recognize", "--in", "h")
    assert code == 0
    assert json.loads(out) == {"interval_order": False, "semiorder": False}
    code, out, _ = run(capsys, "recognize", "--in", "l", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["interval_order,semiorder", "1,0"]


def test_sample_roundtrip(tmp_path, capsys):
    target = tmp_path / "p.poset"
    code, _, err = run(
        capsys,
        "sample", "--kernel", "gc", "--c", "3/10",
        "--n", "100", "--seed", "7", "--out", str(target),
    )
    assert code == 0 and "100-point" in err
    p = poset.read_poset(target.read_text())
    assert p.n == 100
    assert recognition.is_semiorder(p)


def test_sample_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.poset", tmp_path / "b.poset"
    for target in (a, b):
        run(
            capsys,
            "sample", "--kernel", "gc", "--c", "1/4",
            "--n", "60", "--seed", "13", "--out", str(target),
        )
    assert a.read_bytes() == b.read_bytes()


def test_sample_g_and_rate_files(tmp_path, capsys):
    gfile = tmp_path / "g.pwl"
    gfile.write_text(semiorders.write_g(semiorders.gc(F(1, 2))))
    rfile = tmp_path / "r.rate"
    rfile.write_text(semiorders.write_rate(semiorders.RateFunction.constant(2)))
    pa, pb = tmp_path / "a.poset", tmp_path / "b.poset"
    run(capsys, "sample", "--kernel", "g", "--in", str(gfile), "--n", "50", "--seed", "3", "--out", str(pa))
    run(capsys, "sample", "--kernel", "rate", "--in", str(rfile), "--n", "50", "--seed", "3", "--out", str(pb))
    # r == 2 integrates to the same threshold function as the 1/2 shift
    assert pa.read_bytes() == pb.read_bytes()


def test_sample_g_file_matches_gc(tmp_path, capsys):
    gfile = tmp_path / "g.pwl"
    gfile.write_text(semiorders.write_g(semiorders.gc(F(3, 10))))
    pa, pb = tmp_path / "a.poset", tmp_path / "b.poset"
    run(capsys, "sample", "--kernel", "g", "--in", str(gfile), "--n", "80", "--seed", "5", "--out", str(pa))
    run(capsys, "sample", "--kernel", "gc", "--c", "3/10", "--n", "80", "--seed", "5", "--out", str(pb))
    assert pa.read_bytes() == pb.read_bytes()


def test_measure_pipeline(tmp_path, capsys):
    mu = StepKernelMeasure.from_cells(
        [
            (0, F(1, 4), [(F(1, 2), 1)]),
            (F(1, 4), F(1, 2), [(F(3, 4), 1)]),
            (F(1, 2), 1, [(1, 1)]),
        ]
    )
    mfile = tmp_path / "m.measure"
    mfile.write_text(measures.write_measure(mu))
    pfile = tmp_path / "p.poset"
    code, _, _ = run(
        capsys,
        "sample", "--kernel", "measure", "--in", str(mfile),
        "--n", "80", "--seed", "5", "--out", str(pfile),
    )
    assert code == 0
    assert recognition.is_interval_order(poset.read_poset(pfile.read_text()))

    star = tmp_path / "star.measure"
    code, _, _ = run(capsys, "project", "--in", str(mfile), "--out", str(star))
    assert code == 0
    projected = measures.read_measure(star.read_text())
    assert projected == measures.project_star(mu).canonical()

    code, out, _ = run(capsys, "equiv", "--a", str(mfile), "--b", str(star))
    assert code == 0 and json.loads(out) == {"equivalent": True}


def test_equiv_statistical(tmp_path, capsys):
    mu = StepKernelMeasure.from_cells(
        [(0, F(1, 2), [(F(1, 2), 1)]), (F(1, 2), 1, [(1, 1)])]
    )
    a = tmp_path / "a.measure"
    a.write_text(measures.write_measure(mu))
    b = tmp_path / "b.measure"
    b.write_text(measures.write_measure(measures.push_h(mu, "bar_plus")))
    code, out, _ = run(
        capsys,
        "equiv", "--a", str(a), "--b", str(b), "--statistical",
        "--n", "100", "--trials", "30", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["flagged"] == []
    # statistical mode requires a seed
    code, _, _ = run(capsys, "equiv", "--a", str(a), "--b", str(b), "--statistical")
    assert code == 2


def test_nu_and_fingerprint(tmp_path, capsys):
    pfile = tmp_path / "p.poset"
    run(capsys, "sample", "--kernel", "gc", "--c", "3/10", "--n", "40", "--seed", "2", "--out", str(pfile))
    code, out, _ = run(capsys, "nu", "--in", str(pfile), "--sign", "minus", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "x,left,right"
    code, out, _ = run(capsys, "fingerprint", "--in", "h", "--max-q", "4", "--format", "csv")
    assert code == 0
    rows = [ln.split(",") for ln in out.splitlines()[1:]]
    two_two = [r for r in rows if r[1] == "2+2"]
    assert two_two and two_two[0][2] == "1/12"


def test_fingerprint_max_q_below_one_exits_2(capsys):
    for max_q in ("0", "-1"):
        code, out, err = run(capsys, "fingerprint", "--in", "h", "--max-q", max_q)
        assert code == 2 and out == "" and "max_q must be at least 1" in err


def test_fingerprint_past_the_budget_exits_2(tmp_path, capsys, monkeypatch):
    pfile = tmp_path / "p.poset"
    run(capsys, "sample", "--kernel", "gc", "--c", "3/10", "--n", "40", "--seed", "2", "--out", str(pfile))
    monkeypatch.setattr(sampling, "_FINGERPRINT_BUDGET", 1000)  # C(40, 3) alone is 9880
    code, out, err = run(capsys, "fingerprint", "--in", str(pfile), "--max-q", "3")
    assert code == 2 and out == "" and "10700 subsets of 40 points" in err and "budget of 1000" in err
    assert run(capsys, "fingerprint", "--in", str(pfile), "--max-q", "2")[0] == 0


def test_density_past_the_budget_exits_2(capsys):
    # 40^5 = 102,400,000 maps of antichain5 into 40 points: refused before any is tried
    code, out, err = run(capsys, "density", "--q", "antichain5", "--p", "antichain40", "--kind", "hom")
    assert code == 2 and out == "" and "exact density's budget of 100000000" in err
    assert run(capsys, "density", "--q", "antichain2", "--p", "antichain40", "--kind", "hom")[0] == 0


def test_rgo_and_converge(tmp_path, capsys):
    files = []
    for i, n in enumerate((100, 200)):
        pf = tmp_path / f"p{n}.poset"
        run(capsys, "sample", "--kernel", "gc", "--c", "3/10", "--n", str(n), "--seed", str(40 + i), "--out", str(pf))
        files.append(str(pf))
    code, out, _ = run(capsys, "converge", "--in", *files, "--gc", "3/10")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] in ("converging", "not-converging")
    assert len(payload["rows"]) == 2

    rf = tmp_path / "r.poset"
    code, _, err = run(capsys, "rgo", "--n", "50", "--p", "1/10", "--seed", "3", "--out", str(rf))
    assert code == 0 and "c=" in err
    poset.read_poset(rf.read_text()).check_valid()


def test_converge_takes_builtin_names(tmp_path, capsys):
    code, out, _ = run(capsys, "converge", "--in", "chain3", "antichain4")
    assert code == 0 and len(json.loads(out)["rows"]) == 2
    code, _, err = run(capsys, "converge", "--in", "chain3", str(tmp_path / "missing.poset"))
    assert code == 2 and "error" in err


def test_converge_takes_at_most_one_target(tmp_path, capsys):
    missing = str(tmp_path / "missing.rate")
    code, _, err = run(capsys, "converge", "--in", "chain3", "--gc", "3/10", "--rate", missing)
    assert code == 2 and "not allowed with" in err
    code, _, _ = run(capsys, "converge", "--in", "chain3", "--g", missing, "--rate", missing)
    assert code == 2


def test_exit_codes(tmp_path, capsys):
    code, _, err = run(capsys, "density", "--q", "nosuch", "--p", "chain2", "--kind", "hom")
    assert code == 2 and "error" in err
    code, _, _ = run(capsys, "sample", "--kernel", "gc", "--n", "5", "--seed", "1")
    assert code == 2  # missing --c
    code, _, _ = run(capsys, "recognize", "--in", str(tmp_path / "missing.poset"))
    assert code == 2
    bad = tmp_path / "bad.poset"
    bad.write_text("poset 2\n1 2\n2 1\n")
    code, _, _ = run(capsys, "recognize", "--in", str(bad))
    assert code == 2  # cycle
    bad.write_text("poset 0\n")
    code, _, _ = run(capsys, "nu", "--in", str(bad), "--sign", "minus")
    assert code == 2  # no points
    code, _, _ = run(capsys, "represent", "--in", "h")
    assert code == 2  # 2+2 has no interval representation


def test_statistical_equiv_on_too_few_points_exits_2(tmp_path, capsys):
    # at n=5 too few random 4-tuples have distinct points for the draw budget
    a = tmp_path / "a.atoms"
    a.write_text(measures.write_measure(measures.AtomicMeasure.from_atoms([(0, 1, 1)])))
    code, _, err = run(
        capsys, "equiv", "--a", str(a), "--b", str(a), "--statistical",
        "--seed", "1", "--n", "5", "--trials", "30",
    )
    assert code == 2 and "distinct points" in err


def test_point_cap_applies_before_allocation(tmp_path, capsys):
    huge = tmp_path / "huge.poset"
    huge.write_text("poset 1000000000\n")
    code, _, err = run(capsys, "recognize", "--in", str(huge))
    assert code == 2 and "cap" in err
    over = str(textio.MAX_POINTS + 1)
    code, _, err = run(capsys, "sample", "--kernel", "gc", "--c", "3/10", "--n", over, "--seed", "1")
    assert code == 2 and "capped" in err
    code, _, _ = run(capsys, "rgo", "--n", over, "--p", "1/2", "--seed", "1")
    assert code == 2
    code, _, err = run(capsys, "density", "--q", "h", "--p", f"antichain{over}", "--kind", "ind")
    assert code == 2 and "cap" in err


def test_sample_from_a_file_kernel_needs_in(capsys):
    for kernel, kind in (("g", "pwl"), ("rate", "rate"), ("measure", "measure")):
        code, out, err = run(capsys, "sample", "--kernel", kernel, "--n", "5", "--seed", "1")
        assert code == 2 and out == "" and f"needs --in <{kind} file>" in err


def test_step_measure_commands_refuse_an_atoms_file(tmp_path, capsys):
    atoms = tmp_path / "a.atoms"
    atoms.write_text(measures.write_measure(measures.AtomicMeasure.from_atoms([(0, 1, 1)])))
    code, out, err = run(capsys, "project", "--in", str(atoms))
    assert code == 2 and out == "" and "project needs a stepmeasure input" in err
    code, out, err = run(capsys, "equiv", "--a", str(atoms), "--b", str(atoms))
    assert code == 2 and out == "" and "exact equiv compares two stepmeasure files" in err


def test_out_under_a_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "p.json"
    code, out, err = run(capsys, "recognize", "--in", "h", "--out", str(target))
    assert code == 2 and out == "" and f"cannot write {target}" in err
    assert not target.parent.exists()


def test_an_unexpected_exception_exits_1(capsys, monkeypatch):
    def fail(p):
        raise RuntimeError("boom")

    monkeypatch.setattr(recognition, "is_interval_order", fail)
    code, out, err = run(capsys, "recognize", "--in", "h")
    assert code == 1 and out == "" and "internal error: boom" in err


def test_converge_threshold_must_be_finite_and_nonnegative(capsys):
    for threshold in ("nan", "inf", "-inf", "-1"):
        code, out, err = run(capsys, "converge", "--in", "chain3", "--gc", "3/10", f"--threshold={threshold}")
        assert code == 2 and out == "" and "threshold must be finite and at least 0" in err
    assert run(capsys, "converge", "--in", "chain3", "--threshold", "0")[0] == 0


def test_main_builds_one_parser_for_many_calls(capsys):
    cli.build_parser.cache_clear()
    assert run(capsys, "recognize", "--in", "h")[0] == 0
    assert run(capsys, "nu", "--in", "chain3", "--sign", "minus")[0] == 0
    assert cli.build_parser.cache_info().misses == 1


def test_a_handler_replaced_after_the_first_call_is_the_one_run(capsys, monkeypatch):
    # the pattern of a tracer that wraps `cli._cmd_*` once the parser is built
    assert run(capsys, "recognize", "--in", "h")[0] == 0
    calls = []

    def spy(args):
        calls.append(args.infile)
        return 0

    monkeypatch.setattr(cli, "_cmd_recognize", spy)
    assert run(capsys, "recognize", "--in", "l") == (0, "", "")
    assert calls == ["l"]


def test_no_state_carries_from_one_call_to_the_next(tmp_path, capsys):
    pfile = str(tmp_path / "p.poset")
    assert run(capsys, "sample", "--kernel", "gc", "--c", "3/10", "--n", "20", "--seed", "1", "--out", pfile)[0] == 0
    code, out, err = run(capsys, "sample", "--kernel", "gc", "--n", "20", "--seed", "1")
    assert code == 2 and out == "" and "needs --c" in err
    assert run(capsys, "converge", "--in", pfile, "--gc", "3/10")[0] == 0
    code, _, err = run(capsys, "converge", "--in", pfile, "--gc", "3/10", "--g", pfile)
    assert code == 2 and "not allowed with" in err
    for _ in range(2):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "usage: poslim" in out


def test_every_command_has_a_handler():
    (sub,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    assert len(sub.choices) == 10
    for name in sub.choices:
        assert callable(getattr(cli, f"_cmd_{name}", None)), name


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):
        return False


def _python(script: str, *args: str) -> str:
    """The stdout of `script` run by a fresh interpreter on `src/`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", script, *args], env=env, check=True,
                          capture_output=True, text=True, timeout=120).stdout


_RECOGNIZE_FAULTS = """
import contextlib, io, resource, sys
from poslim import cli
g, out = sys.argv[1:]
def call(*argv):
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0
call("sample", "--kernel", "gc", "--c", "3/10", "--n", "1000", "--seed", "5", "--out", g)
call("recognize", "--in", g, "--out", out)  # warm-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(4):
    call("recognize", "--in", g, "--out", out)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not _glibc(), reason="the allocator policy is set on glibc only")
def test_repeated_commands_reuse_the_heap_they_freed(tmp_path):
    """Four in-process `recognize` calls on a 1000-point g_{3/10} file, after
    one warm-up, add few minor page faults: the buffers freed by one call
    serve the next.  With glibc's default policy each call faults its
    multi-MB numpy buffers in again, about 700-950 faults a call."""
    faults = int(_python(_RECOGNIZE_FAULTS, str(tmp_path / "g.poset"), str(tmp_path / "r.json")))
    assert faults < 400


_POLICY_CALLS = """
import ctypes
import numpy  # before CDLL is replaced, in case numpy loads a library through it
calls = []

class Library:
    def __init__(self, name):
        self.mallopt = lambda param, value: calls.append((param, value)) or 1

ctypes.CDLL = Library
import poslim, poslim.cli
assert calls == [] and poslim.cli._keep_freed_heap.cache_info().misses == 0
for _ in range(2):
    assert poslim.cli.main(["recognize", "--in", "h"]) == 0
print(calls, poslim.cli._keep_freed_heap.cache_info().misses)
"""


@pytest.mark.skipif(not _glibc(), reason="the allocator policy is set on glibc only")
def test_main_sets_the_allocator_policy_once_and_import_never():
    out = _python(_POLICY_CALLS).splitlines()[-1]
    assert out == f"{[(-3, 32 << 20), (-1, 256 << 20)]} 1"  # mmap, then trim threshold


def _confstr_raises(name):
    raise ValueError("unrecognized configuration name")


class _RefusingLibrary:
    def __init__(self, name):
        self.mallopt = lambda param, value: 0


@pytest.mark.parametrize("fault", ["no confstr", "confstr raises", "not glibc", "mallopt refuses"])
def test_commands_run_alike_where_the_policy_cannot_be_set(fault, capsys, monkeypatch):
    argv = ["sample", "--kernel", "gc", "--c", "3/10", "--n", "200", "--seed", "3"]
    want = run(capsys, *argv)
    assert want[0] == 0
    if fault == "no confstr":
        monkeypatch.delattr(os, "confstr", raising=False)
    elif fault == "confstr raises":
        monkeypatch.setattr(os, "confstr", _confstr_raises)
    elif fault == "not glibc":
        monkeypatch.setattr(os, "confstr", lambda name: None)
    else:
        monkeypatch.setattr(ctypes, "CDLL", _RefusingLibrary)
        monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    cli._keep_freed_heap.cache_clear()
    try:
        assert run(capsys, *argv) == want
        assert cli._keep_freed_heap() is False
    finally:
        cli._keep_freed_heap.cache_clear()


def test_nu_output_equals_the_fraction_points(tmp_path, capsys):
    """`nu` renders its rows from integers, byte for byte as `to_json` and
    `to_csv` render the `Fraction` points."""
    pfile = tmp_path / "p.poset"
    run(capsys, "sample", "--kernel", "gc", "--c", "3/10", "--n", "300", "--seed", "4", "--out", str(pfile))
    for spec in (str(pfile), "chain5", "antichain3", "q4+"):
        p = cli._resolve_poset(spec)
        for sign in ("minus", "plus"):
            points = sampling.nu_empirical(p, sign).points
            code, out, err = run(capsys, "nu", "--in", spec, "--sign", sign)
            assert code == 0 and out == textio.to_json({"points": points})
            assert f"({len(points)} breakpoints)" in err
            code, out, _ = run(capsys, "nu", "--in", spec, "--sign", sign, "--format", "csv")
            assert code == 0 and out == textio.to_csv(["x", "left", "right"], points)


def test_inputs_read_alike_with_lf_crlf_and_cr_line_ends(tmp_path, capsys):
    """Poset, stepmeasure, atoms and pwl files give the same outputs whatever
    their line ends: the CLI reads bytes and keeps the ends as written."""
    mu = StepKernelMeasure.from_cells(
        [(0, F(1, 2), [(F(1, 2), F(1, 3)), (F(3, 4), F(2, 3))]), (F(1, 2), 1, [(1, 1)])]
    )
    sample = tmp_path / "sample.poset"
    run(capsys, "sample", "--kernel", "gc", "--c", "3/10", "--n", "120", "--seed", "3", "--out", str(sample))
    texts = {
        "g.poset": sample.read_text(),
        "h.poset": poset.write_poset(poset.two_plus_two()),  # the closure path
        "m.measure": measures.write_measure(mu),
        "a.measure": measures.write_measure(
            measures.AtomicMeasure.from_atoms([(0, F(1, 2), F(1, 3)), (F(1, 4), 1, F(2, 3))])
        ),
        "g.pwl": semiorders.write_g(semiorders.gc(F(1, 4))),
    }
    commands = [
        ["recognize", "--in", "g.poset"],
        ["represent", "--in", "g.poset"],
        ["nu", "--in", "g.poset", "--sign", "plus", "--format", "csv"],
        ["converge", "--in", "g.poset", "--g", "g.pwl"],
        ["recognize", "--in", "h.poset"],
        ["density", "--q", "h.poset", "--p", "h.poset", "--kind", "ind"],
        ["project", "--in", "m.measure"],
        ["equiv", "--a", "m.measure", "--b", "m.measure"],
        ["sample", "--kernel", "measure", "--in", "m.measure", "--n", "30", "--seed", "2"],
        ["sample", "--kernel", "measure", "--in", "a.measure", "--n", "30", "--seed", "2"],
        ["sample", "--kernel", "g", "--in", "g.pwl", "--n", "30", "--seed", "2"],
    ]
    outputs = {}
    for end in ("\n", "\r\n", "\r"):
        folder = tmp_path / repr(end).strip("'\\")
        folder.mkdir()
        for name, text in texts.items():
            (folder / name).write_bytes(text.replace("\n", end).encode())
        for argv in commands:
            code, out, err = run(capsys, *[str(folder / a) if a in texts else a for a in argv])
            assert code == 0, (end, argv, err)
            outputs.setdefault(" ".join(argv), set()).add((out, err.replace(str(folder), "")))
    assert all(len(seen) == 1 for seen in outputs.values())


def test_a_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.poset"
    bad.write_bytes(b"poset 2\n1 2\xff\n")
    for argv in (["recognize", "--in", str(bad)], ["project", "--in", str(bad)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and f"cannot read {bad}" in err and "utf-8" in err


_MODELS = st.one_of(
    monotone_gs().map(lambda g: ("g", g, semiorders.write_g(g), ["--g"])),
    rate_pieces().map(semiorders.RateFunction.from_pieces).map(
        lambda r: ("rate", r, semiorders.write_rate(r), ["--rate"])),
    st.one_of(step_measures(), atomic_measures()).map(
        lambda mu: ("measure", mu, measures.write_measure(mu), [])),
)


def _drawn(model, n, seed):
    """The order of `sample --n n --seed seed`: point i from position i of
    POINTS (and of CONDITIONALS, read by a step measure only)."""
    rng = SeededRng(seed)
    us = [[F(k, UNIT) for k in rng.integers(s, n).tolist()] for s in (POINTS, CONDITIONALS)]
    return ref.interval_poset([ref.draw(model, *u) for u in zip(*us)])


_GC = semiorders.gc(F(3, 10))


@given(_MODELS, st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32),
       st.integers(1, 3), st.fractions(0, 1, max_denominator=10), st.sampled_from([0.05, 0.2, 0.4, 0.8]))
@example(("g", _GC, semiorders.write_g(_GC), ["--g"]), 40, 40, 1, 3, F(0), 0.05)
@example(("g", _GC, semiorders.write_g(_GC), ["--g"]), 40, 8, 1, 1, F(0), 0.4)  # KS rises by 0.18 > 0.4/4
@settings(max_examples=40, deadline=None)
def test_cli_pipeline_matches_the_reference_models(model, n, m, seed, max_q, c, threshold):
    """sample, recognize, represent, nu (both signs), converge and
    fingerprint on a random g, rate function, step or atomic measure, byte
    for byte as the reference models render the same draws."""
    kind, mu, text, target = model
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp)
        (path / "model").write_text(text)

        def run(name, *argv):
            assert cli.main([*argv, "--out", str(path / name)]) == 0
            return (path / name).read_text()

        p, q = _drawn(mu, n, seed), _drawn(mu, m, seed + 1)
        for name, size, s, want in (("p", n, seed, p), ("q", m, seed + 1, q)):
            args = ["sample", "--kernel", kind, "--in", str(path / "model"), "--n", str(size)]
            assert run(name, *args, "--seed", str(s)) == ref.write_poset(want)
        pfile, qfile = str(path / "p"), str(path / "q")
        want = {"interval_order": ref.two_plus_two(p) is None, "semiorder": ref.is_semiorder(p)}
        assert run("r", "recognize", "--in", pfile) == textio.to_json(want)
        assert run("i", "represent", "--in", pfile) == ref.write_representation(ref.representation(p))
        for sign in ("minus", "plus"):
            points = ref.nu(p, sign)
            assert run("n", "nu", "--in", pfile, "--sign", sign) == textio.to_json({"points": points})
            csv = textio.to_csv(["x", "left", "right"], points)
            assert run("c", "nu", "--in", pfile, "--sign", sign, "--format", "csv") == csv
        g = mu if kind == "g" else semiorders.g_from_rate(mu) if kind == "rate" else semiorders.gc(c)
        option = [*target, str(path / "model")] if target else ["--gc", str(c)]
        limits = [semiorders.f_minus(g).points, semiorders.f_plus(g).points]  # tested in test_semiorders
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the notes name the inputs that are no semiorder
            report = run("v", "converge", "--in", pfile, qfile, *option, "--threshold", str(threshold))
            assert report == ref.converge_report([p, q], *limits, threshold)
        payload = {pid: {"label": label, "value": str(value), "half_width": "0"}
                   for pid, label, value in ref.fingerprint(p, max_q)}
        assert run("f", "fingerprint", "--in", pfile, "--max-q", str(max_q)) == textio.to_json(payload)
