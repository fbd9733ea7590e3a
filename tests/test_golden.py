"""Byte-for-byte outputs of every writer and every CLI command on fixed inputs.

`golden.json` next to this file holds the expected bytes: the text each
writer returns; for each CLI call its exit code, its stdout (or the file
written with --out) and its stderr summary, with the temporary directory
replaced by `<tmp>`; the exact Kolmogorov distances of acceptance
criterion 4's three targets at n=4000; and Monte Carlo densities of three
patterns against five interval models.  Regenerate it only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
import tempfile
import warnings
from fractions import Fraction as F
from pathlib import Path

from poslim import cli, densities, graphs, measures, poset, recognition, sampling, semiorders
from poslim import textio
from poslim.rng import SeededRng

GOLDEN = Path(__file__).with_name("golden.json")

STEP = measures.StepKernelMeasure.from_cells(
    [
        (0, F(1, 4), [(F(1, 2), F(1, 3)), (F(3, 4), F(2, 3))]),
        (F(1, 4), F(1, 2), [(F(3, 4), 1)]),
        (F(1, 2), 1, [(1, 1)]),
    ]
)
OTHER = measures.StepKernelMeasure.from_cells(
    [(0, F(1, 2), [(F(1, 2), F(1, 2)), (1, F(1, 2))]), (F(1, 2), 1, [(1, 1)])]
)
ATOMS = measures.AtomicMeasure.from_atoms(
    [(0, F(1, 3), F(1, 4)), (F(1, 5), F(1, 2), F(1, 4)), (F(1, 2), 1, F(1, 2))]
)
RATE = semiorders.RateFunction.from_pieces([(0, F(1, 2), 4), (F(1, 2), 1, 1)])
STAIRCASE = semiorders.MonotoneRC.from_points(
    [
        (0, F(2, 5), F(2, 5)),
        (F(2, 5), F(2, 5), F(4, 5)),
        (F(4, 5), F(4, 5), 1),
        (1, 1, 1),
    ]
)


def writer_outputs() -> dict[str, str]:
    p = sampling.sample_kernel_poset(semiorders.gc(F(3, 10)), 30, SeededRng(7))
    rgo = sampling.random_graph_order(25, F(1, 5), SeededRng(4))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = sampling.converge_diagnostic(
            [p, rgo, p], semiorders.g_from_rate(RATE), threshold=0.1
        )
    bare = sampling.converge_diagnostic([p])
    eq = sampling.equivalence_test_statistical(
        STEP, OTHER, 20, 30, SeededRng(3), max_q=3, subsets=40
    )
    return {
        "poset": poset.write_poset(p),
        "poset.chain": poset.write_poset(poset.chain(4)),
        "atoms": measures.write_measure(ATOMS),
        "stepmeasure": measures.write_measure(STEP),
        "projected": measures.write_measure(measures.project_star(STEP).canonical()),
        "pushed": measures.write_measure(measures.push_h(STEP, "bar_plus")),
        "pushed.minus": measures.write_measure(measures.push_h(STEP, "minus")),
        "pushed.atoms.minus": measures.write_measure(measures.push_h(ATOMS, "minus")),
        "pushed.atoms.bar_plus": measures.write_measure(measures.push_h(ATOMS, "bar_plus")),
        "projected.other": measures.write_measure(measures.project_star(OTHER).canonical()),
        "pwl": semiorders.write_g(semiorders.g_from_rate(RATE)),
        "pwl.gc": semiorders.write_g(semiorders.gc(F(3, 10))),
        "rate": semiorders.write_rate(RATE),
        "graph": graphs.write_graph(graphs.comparability_graph(rgo)),
        "representation": recognition.write_representation(
            recognition.interval_representation(p)
        ),
        "converge.csv": rep.to_csv(),
        "converge.json": rep.to_json(),
        "converge.bare.csv": bare.to_csv(),
        "converge.bare.json": bare.to_json(),
        "equivalence.csv": eq.to_csv(),
        "equivalence.json": eq.to_json(),
    }


def _cli(tmp: Path, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = cli.main(argv)
    text = out.getvalue()
    if "--out" in argv:
        text = Path(argv[argv.index("--out") + 1]).read_text()
    return {
        "code": code,
        "out": text.replace(str(tmp), "<tmp>"),
        "err": err.getvalue().replace(str(tmp), "<tmp>"),
    }


def cli_outputs(tmp: Path) -> dict[str, dict]:
    f = {k: str(tmp / k) for k in ("p.poset", "s.poset", "r.poset", "g.pwl",
                                   "r.rate", "m.measure", "o.measure",
                                   "a.measure", "star.measure", "h.poset")}
    Path(f["g.pwl"]).write_text(semiorders.write_g(semiorders.g_from_rate(RATE)))
    Path(f["r.rate"]).write_text(semiorders.write_rate(RATE))
    Path(f["m.measure"]).write_text(measures.write_measure(STEP))
    Path(f["o.measure"]).write_text(measures.write_measure(OTHER))
    Path(f["a.measure"]).write_text(measures.write_measure(ATOMS))
    Path(f["h.poset"]).write_text(poset.write_poset(poset.two_plus_two()))
    calls = {
        "sample.gc": ["sample", "--kernel", "gc", "--c", "3/10", "--n", "30",
                      "--seed", "7", "--out", f["p.poset"]],
        "sample.gc.stdout": ["sample", "--kernel", "gc", "--c", "1/4", "--n", "12",
                             "--seed", "2"],
        "sample.g": ["sample", "--kernel", "g", "--in", f["g.pwl"], "--n", "20",
                     "--seed", "3", "--out", f["s.poset"]],
        "sample.rate": ["sample", "--kernel", "rate", "--in", f["r.rate"], "--n",
                        "20", "--seed", "3"],
        "sample.measure": ["sample", "--kernel", "measure", "--in", f["m.measure"],
                           "--n", "20", "--seed", "5"],
        "sample.atoms": ["sample", "--kernel", "measure", "--in", f["a.measure"],
                         "--n", "15", "--seed", "5"],
        "rgo": ["rgo", "--n", "25", "--p", "1/5", "--seed", "4", "--out", f["r.poset"]],
        "density.hom": ["density", "--q", "chain2", "--p", f["p.poset"], "--kind",
                        "hom"],
        "density.inj": ["density", "--q", "q2-", "--p", f["p.poset"], "--kind", "inj"],
        "density.ind": ["density", "--q", "l", "--p", f["r.poset"], "--kind", "ind"],
        "represent": ["represent", "--in", f["p.poset"]],
        "project": ["project", "--in", f["m.measure"], "--out", f["star.measure"]],
    }
    for fmt in ("json", "csv"):
        calls.update({
            f"recognize.{fmt}": ["recognize", "--in", f["p.poset"], "--format", fmt],
            f"recognize.h.{fmt}": ["recognize", "--in", "h", "--format", fmt],
            f"equiv.same.{fmt}": ["equiv", "--a", f["m.measure"], "--b",
                                  f["star.measure"], "--format", fmt],
            f"equiv.differ.{fmt}": ["equiv", "--a", f["m.measure"], "--b",
                                    f["o.measure"], "--format", fmt],
            f"equiv.statistical.{fmt}": ["equiv", "--a", f["m.measure"], "--b",
                                         f["o.measure"], "--statistical", "--n",
                                         "20", "--trials", "30", "--seed", "5",
                                         "--format", fmt],
            f"nu.minus.{fmt}": ["nu", "--in", f["p.poset"], "--sign", "minus",
                                "--format", fmt],
            f"nu.plus.{fmt}": ["nu", "--in", f["r.poset"], "--sign", "plus",
                               "--format", fmt],
            f"fingerprint.{fmt}": ["fingerprint", "--in", f["s.poset"], "--max-q",
                                   "3", "--format", fmt],
            f"fingerprint.h.{fmt}": ["fingerprint", "--in", "h", "--max-q", "4",
                                     "--format", fmt],
            f"converge.gc.{fmt}": ["converge", "--in", f["s.poset"], f["p.poset"],
                                   "--gc", "3/10", "--format", fmt],
            f"converge.g.{fmt}": ["converge", "--in", f["p.poset"], f["r.poset"],
                                  "--g", f["g.pwl"], "--format", fmt],
            f"converge.rate.{fmt}": ["converge", "--in", f["h.poset"], "--rate",
                                     f["r.rate"], "--format", fmt],
            f"converge.none.{fmt}": ["converge", "--in", f["s.poset"], f["p.poset"],
                                     f["r.poset"], "--threshold", "0.2",
                                     "--format", fmt],
        })
    return {name: _cli(tmp, argv) for name, argv in calls.items()}


def ks_outputs() -> dict[str, str]:
    """`ks_for_target` of both degree CDFs for trial 0 of each criterion-4
    target: one n=4000 sample from SeededRng(444).spawn(100 * target)."""
    targets = {
        "gc3/10": semiorders.gc(F(3, 10)),
        "identity": semiorders.MonotoneRC.identity(),
        "staircase": STAIRCASE,
    }
    out = {}
    for gi, (name, g) in enumerate(targets.items()):
        p = sampling.sample_kernel_poset(g, 4000, SeededRng(444).spawn(gi * 100))
        for sign, f in (("minus", semiorders.f_minus(g)), ("plus", semiorders.f_plus(g))):
            ks = sampling.ks_for_target(sampling.nu_empirical(p, sign), f)
            out[f"{name}.{sign}"] = textio.format_rational(ks)
    return out


TIED_ATOMS = measures.AtomicMeasure.from_atoms(  # an end with the float of 1/2
    [(0, F(1, 2) - F(1, 2**70), F(1, 2)), (F(1, 2), 1, F(1, 2))]
)


def mc_outputs() -> dict[str, str]:
    """`kernel_density_mc` of chain2, 2+2 and 3+1 at 2,000 samples, seed 8,
    as the repr of the estimate and of its half-width."""
    models = {
        "gc3/10": semiorders.gc(F(3, 10)),
        "rate": RATE,
        "step": STEP,
        "atoms": ATOMS,
        "tied": TIED_ATOMS,
    }
    patterns = {"chain2": poset.chain(2), "2+2": poset.two_plus_two(), "3+1": poset.three_plus_one()}
    return {
        f"{name}.{label}": "{!r} {!r}".format(*densities.kernel_density_mc(q, model, 2000, 8))
        for name, model in models.items()
        for label, q in patterns.items()
    }


def all_outputs() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        return {
            "writers": writer_outputs(),
            "cli": cli_outputs(Path(tmp)),
            "ks": ks_outputs(),
            "mc": mc_outputs(),
        }


def test_outputs_byte_identical():
    expected = json.loads(GOLDEN.read_text())
    got = all_outputs()
    assert got["writers"].keys() == expected["writers"].keys()
    for name, text in expected["writers"].items():
        assert got["writers"][name] == text, name
    assert got["cli"].keys() == expected["cli"].keys()
    for name, result in expected["cli"].items():
        assert got["cli"][name] == result, name
    assert got["ks"] == expected["ks"]
    assert got["mc"] == expected["mc"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(all_outputs(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
