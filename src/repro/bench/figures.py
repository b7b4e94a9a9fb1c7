"""Experiment drivers, each paper artifact and comparison defined once.

The ablations and the scheme comparisons are drivers too.  Every
driver returns a :class:`~repro.bench.harness.Table` whose rows are
the series the corresponding figure plots.  :data:`EXPERIMENTS`
pairs each driver with the claim it tests and the rule that turns its
rows into one verdict.  Absolute times differ from the paper's 2011
Java testbed; the reproduced quantities are the curve *shapes* and the
ratios between schemes.

fig16 and fig22 time the reference entry-tuple ``DRL``: it is built
like ``SKL``, so reference against reference is the like-for-like
comparison.  The service answers with the packed ``CompactDRL``, which
``kernels`` compares against the reference.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.bench.harness import (
    BenchConfig,
    Table,
    Timings,
    build_registry_schemes,
    cell,
    fit,
    med,
    median_ratio,
    query_loop,
    run_ladder,
    sampled_runs,
)
from repro.datasets import bioaid, fig12_path_grammar, synthetic_spec, theorem1_grammar
from repro.errors import LabelingError
from repro.labeling.drl import DRL
from repro.labeling.drl_execution import DRLExecutionLabeler
from repro.labeling.naive_dynamic import NaiveDynamicScheme
from repro.labeling.skeleton import make_skeleton
from repro.labeling.skl import SKL
from repro.labeling.tree_labels import PrefixLabeler
from repro.schemes import Workload
from repro.schemes import registry as scheme_registry
from repro.workflow.derivation import Derivation
from repro.workflow.execution import execution_from_derivation

Rows = Sequence[Dict[str, object]]


def _max_bits(scheme, run: Derivation) -> int:
    labels = scheme.label_derivation(run)
    return max(scheme.label_bits(labels[v]) for v in run.graph.vertices())


def _first_run(spec, size: int, config: BenchConfig, tag: int) -> Derivation:
    return next(sampled_runs(spec, size, config, tag=tag))


def _label_pairs(labels, vertices, count: int, seed: int) -> List[tuple]:
    rng = random.Random(seed)
    return [
        (labels[rng.choice(vertices)], labels[rng.choice(vertices)])
        for _ in range(count)
    ]


# ---------------------------------------------------------------------------
# Section 7.2 -- BioAID
# ---------------------------------------------------------------------------


def fig14_label_length(config: BenchConfig) -> Table:
    """Figure 14: BioAID label length vs run size (log-shaped, slope ~1)."""
    spec = bioaid()
    scheme = DRL(spec, skeleton="tcl")
    table = Table(
        id="fig14",
        title="BioAID label length (bits) vs run size",
        columns=["run_size", "max_bits", "avg_bits"],
    )
    for size in run_ladder(config):
        maxima, means, actual = [], [], 0
        for run in sampled_runs(spec, size, config, tag=14):
            labels = scheme.label_derivation(run)
            bits = [scheme.label_bits(labels[v]) for v in run.graph.vertices()]
            maxima.append(max(bits))
            means.append(sum(bits) / len(bits))
            actual += run.run_size()
        table.add(actual // len(maxima), cell(maxima), cell(means))
    return table


def fig15_construction_time(config: BenchConfig) -> Table:
    """Figure 15: BioAID total construction time (linear in run size)."""
    spec = bioaid()
    scheme = DRL(spec, skeleton="tcl")
    table = Table(
        id="fig15",
        title="BioAID total construction time (ms per run) vs run size",
        columns=["run_size", "derivation_ms", "execution_ms", "per_vertex_us"],
    )
    for size in run_ladder(config):
        timings, actual = Timings(), 0
        for run in sampled_runs(spec, size, config, tag=15):
            exe = execution_from_derivation(run)
            timings.time({
                "derivation": lambda: scheme.label_derivation(run),
                "execution": lambda: DRLExecutionLabeler(scheme, mode="name").run(exe),
            })
            actual += run.run_size()
        table.add(
            actual // config.samples,
            timings.cell("derivation", 1e3 / config.samples),
            timings.cell("execution", 1e3 / config.samples),
            timings.cell("derivation", 1e6 / actual),
        )
    return table


def fig16_query_time(config: BenchConfig) -> Table:
    """Figure 16: BioAID query time, DRL(TCL) vs DRL(BFS) (both ~flat)."""
    spec = bioaid()
    tcl = DRL(spec, skeleton="tcl")
    bfs = DRL(spec, skeleton="bfs")
    table = Table(
        id="fig16",
        title="BioAID query time (us) per scheme",
        columns=["run_size", "drl_tcl_us", "drl_bfs_us"],
    )
    for size in run_ladder(config):
        run = _first_run(spec, size, config, tag=16)
        vertices = sorted(run.graph.vertices())
        timings = Timings()
        timings.time({
            name: query_loop(scheme.query, _label_pairs(
                scheme.label_derivation(run), vertices, config.queries, size))
            for name, scheme in (("tcl", tcl), ("bfs", bfs))
        })
        scale = 1e6 / config.queries
        table.add(run.run_size(), timings.cell("tcl", scale),
                  timings.cell("bfs", scale))
    return table


# ---------------------------------------------------------------------------
# Section 7.3 -- synthetic workflows
# ---------------------------------------------------------------------------


def _synthetic_max_bits(config: BenchConfig, spec, tag: int) -> Dict[str, float]:
    scheme = DRL(spec, skeleton="tcl")
    run_size = max(1000, int(5000 * min(config.scale, 1.0)))
    return cell([_max_bits(scheme, run)
                 for run in sampled_runs(spec, run_size, config, tag=tag)])


def fig17_varying_size(config: BenchConfig) -> Table:
    """Figure 17: max label length vs sub-workflow size (logarithmic)."""
    table = Table(
        id="fig17",
        title="Max label length (bits) vs sub-workflow size (5K runs, depth 5)",
        columns=["sub_workflow_size", "max_bits"],
    )
    for sub_size in (10, 20, 40, 80, 160):
        spec = synthetic_spec(sub_size=sub_size, depth=5, linear=True, seed=17)
        table.add(sub_size, _synthetic_max_bits(config, spec, tag=17))
    return table


def fig18_varying_depth(config: BenchConfig) -> Table:
    """Figure 18: max label length vs nesting depth (linear)."""
    table = Table(
        id="fig18",
        title="Max label length (bits) vs nesting depth (5K runs, size 20)",
        columns=["nesting_depth", "max_bits"],
    )
    for depth in (5, 10, 15, 20, 25):
        spec = synthetic_spec(sub_size=20, depth=depth, linear=True, seed=18)
        table.add(depth, _synthetic_max_bits(config, spec, tag=18))
    return table


def fig19_nonlinear(config: BenchConfig) -> Table:
    """Figure 19: linear vs nonlinear recursion label length."""
    linear_spec = synthetic_spec(sub_size=20, depth=5, linear=True, seed=19)
    nonlinear_spec = synthetic_spec(sub_size=20, depth=5, linear=False, seed=19)
    linear_scheme = DRL(linear_spec, skeleton="tcl")
    nonlinear_scheme = DRL(nonlinear_spec, skeleton="tcl", r_mode="one_r")
    table = Table(
        id="fig19",
        title="Max label length (bits): linear vs nonlinear recursion",
        columns=["run_size", "linear_bits", "nonlinear_bits"],
    )
    for size in run_ladder(config):
        table.add(
            size,
            cell([_max_bits(linear_scheme, run) for run in
                  sampled_runs(linear_spec, size, config, tag=191)]),
            cell([_max_bits(nonlinear_scheme, run) for run in
                  sampled_runs(nonlinear_spec, size, config, tag=192)]),
        )
    return table


# ---------------------------------------------------------------------------
# Section 7.4 -- DRL vs SKL
# ---------------------------------------------------------------------------


def fig20_drl_vs_skl_length(config: BenchConfig) -> Table:
    """Figure 20: DRL vs SKL max label length (slope 1 vs slope 3).

    Both series come out of the scheme registry: the dynamic DRL labels
    the insertion stream, the static SKL labels the frozen run.
    """
    spec = bioaid(recursive=False)
    table = Table(
        id="fig20",
        title="Max label length (bits): DRL (dynamic) vs SKL (static)",
        columns=["run_size", "drl_bits", "skl_bits"],
    )
    for size in run_ladder(config):
        maxima: Dict[str, List[int]] = {"drl": [], "skl": []}
        actual = 0
        for run in sampled_runs(spec, size, config, tag=20):
            workload = Workload.from_run(spec, run)
            for build in build_registry_schemes(workload, names=["drl", "skl"]):
                maxima[build.name].append(max(
                    build.scheme.label_bits_of(v) for v in run.graph.vertices()
                ))
            actual += run.run_size()
        table.add(actual // config.samples, cell(maxima["drl"]),
                  cell(maxima["skl"]))
    return table


def fig21_construction_vs_skl(config: BenchConfig) -> Table:
    """Figure 21: construction time, SKL vs DRL (SKL builds simpler labels)."""
    spec = bioaid(recursive=False)
    drl = DRL(spec, skeleton="tcl")
    skl = SKL(spec, skeleton="tcl")
    table = Table(
        id="fig21",
        title="Total construction time (ms per run): SKL vs DRL",
        columns=["run_size", "skl_ms", "drl_derivation_ms", "drl_execution_ms"],
    )
    for size in run_ladder(config):
        timings, actual = Timings(), 0
        for run in sampled_runs(spec, size, config, tag=21):
            exe = execution_from_derivation(run)
            timings.time({
                "skl": lambda: skl.label_run(run),
                "derivation": lambda: drl.label_derivation(run),
                "execution": lambda: DRLExecutionLabeler(drl, mode="name").run(exe),
            })
            actual += run.run_size()
        scale = 1e3 / config.samples
        table.add(actual // config.samples, timings.cell("skl", scale),
                  timings.cell("derivation", scale),
                  timings.cell("execution", scale))
    return table


def fig22_query_vs_skl(config: BenchConfig) -> Table:
    """Figure 22: query time for DRL/SKL x TCL/BFS combinations."""
    spec = bioaid(recursive=False)
    schemes = {
        "drl_tcl_us": DRL(spec, skeleton="tcl"),
        "drl_bfs_us": DRL(spec, skeleton="bfs"),
        "skl_tcl_us": SKL(spec, skeleton="tcl"),
        "skl_bfs_us": SKL(spec, skeleton="bfs"),
    }
    table = Table(
        id="fig22",
        title="Query time (us): DRL vs SKL with TCL vs BFS skeletons",
        columns=["run_size", *schemes],
    )
    queries = max(1000, config.queries // 4)
    for size in run_ladder(config):
        run = _first_run(spec, size, config, tag=22)
        vertices = sorted(run.graph.vertices())
        timings = Timings()
        timings.time({
            name: query_loop(scheme.query, _label_pairs(
                scheme.label_derivation(run) if isinstance(scheme, DRL)
                else scheme.label_run(run), vertices, queries, size))
            for name, scheme in schemes.items()
        })
        table.add(run.run_size(),
                  *(timings.cell(name, 1e6 / queries) for name in schemes))
    return table


def tab2_spec_overhead(config: BenchConfig) -> Table:
    """Table 2: preprocessing overhead of labeling the specification."""
    spec = bioaid(recursive=False)
    table = Table(
        id="tab2",
        title="Overhead of labeling the specification (BioAID, no recursion)",
        columns=["scheme", "total_space_bits", "construction_ms"],
    )
    timings = Timings()
    built = timings.time({
        "DRL(TCL)": lambda: make_skeleton(spec, "tcl"),
        "SKL(TCL)": lambda: SKL(spec, skeleton="tcl"),
    })
    table.add("DRL(TCL)", built["DRL(TCL)"].total_bits(),
              timings.cell("DRL(TCL)", 1e3))
    table.add("SKL(TCL)", built["SKL(TCL)"].skeleton_bits(),
              timings.cell("SKL(TCL)", 1e3))
    return table


# ---------------------------------------------------------------------------
# Theory artifacts: Figure 1 and Theorem 1
# ---------------------------------------------------------------------------


def fig01_bounds(config: BenchConfig) -> Table:
    """Figure 1: measured label lengths for each graph-class row.

    Dynamic labels on: an unbounded-depth tree (Theta(n)); a
    bounded-depth tree (Theta(log n)); an arbitrary DAG execution
    (n - 1 bits); a non-recursive run, a linear recursive run
    (Theta(log n) via DRL); and a (nonlinear) recursive run (Theta(n)).
    """
    n = max(512, int(1024 * min(config.scale, 1.0)))
    table = Table(
        id="fig01",
        title=f"Figure 1 bounds, measured at n ~ {n}",
        columns=["graph_class", "scheme", "n", "max_label_bits"],
    )
    # dynamic tree, path-shaped: prefix labels degenerate to Theta(n)
    labeler = PrefixLabeler()
    label = labeler.attach()
    for _ in range(n - 1):
        label = labeler.attach(label)
    table.add("tree (dynamic, unbounded depth)", "prefix [10]", n,
              PrefixLabeler.label_bits(label))
    # dynamic tree, bounded depth: flat tree -> Theta(log n)
    labeler = PrefixLabeler()
    for _ in range(n):
        label = labeler.attach()
    table.add("tree (dynamic, bounded depth)", "prefix [10]", n,
              PrefixLabeler.label_bits(label))
    # dynamic DAG: the Section 3.2 scheme, n-1 bits
    naive = NaiveDynamicScheme()
    for i in range(n):
        naive.insert(i, preds=[i - 1] if i else [])
    table.add("DAG (dynamic)", "naive 3.2", n, naive.label(n - 1).bits)
    # workflow runs
    for label_text, spec, r_mode, tag in (
        ("run, non-recursive (dynamic)", bioaid(recursive=False), None, 1),
        ("run, linear recursive (dynamic)", bioaid(), None, 2),
        ("run, recursive (dynamic)", theorem1_grammar(), "one_r", 3),
    ):
        scheme = DRL(spec, skeleton="tcl", r_mode=r_mode)
        run = _first_run(spec, n, config, tag=tag)
        table.add(label_text, "DRL", run.run_size(), _max_bits(scheme, run))
    return table


def thm1_lower_bound(config: BenchConfig) -> Table:
    """Theorem 1: label growth on the Figure 6 grammar is linear in n."""
    spec = theorem1_grammar()
    scheme = DRL(spec, skeleton="tcl", r_mode="one_r")
    table = Table(
        id="thm1",
        title="Theorem 1 demo: Figure 6 grammar forces linear-size labels",
        columns=["run_size", "drl_one_r_bits", "naive_bits"],
    )
    size = 250
    while size <= max(2000, int(4000 * min(config.scale, 1.0))):
        run = _first_run(spec, size, config, tag=6)
        naive_labels = NaiveDynamicScheme().insert_all(
            execution_from_derivation(run))
        table.add(run.run_size(), _max_bits(scheme, run),
                  max(label.bits for label in naive_labels.values()))
        size *= 2
    return table


# ---------------------------------------------------------------------------
# ablations beyond the paper
# ---------------------------------------------------------------------------


def ablation_r_nodes(config: BenchConfig) -> Table:
    """R-node compression on/off: why Lemma 4.1 needs the R nodes."""
    spec = bioaid()
    compressed = DRL(spec, skeleton="tcl", r_mode="linear")
    simplified = DRL(spec, skeleton="tcl", r_mode="simplified")
    table = Table(
        id="abl-r",
        title="Ablation: R-node compression (BioAID, recursive)",
        columns=["run_size", "with_R_bits", "without_R_bits"],
    )
    for size in run_ladder(config)[:4]:
        with_r, without_r = [], []
        for run in sampled_runs(spec, size, config, tag=31):
            with_r.append(_max_bits(compressed, run))
            without_r.append(_max_bits(simplified, run))
        table.add(size, cell(with_r), cell(without_r))
    return table


def ablation_execution_modes(config: BenchConfig) -> Table:
    """Name-inference vs logged execution labeling construction cost."""
    spec = bioaid()
    scheme = DRL(spec, skeleton="tcl")
    table = Table(
        id="abl-exec",
        title="Ablation: execution-based inference mode cost (BioAID, ms per run)",
        columns=["run_size", "name_mode_ms", "logged_mode_ms"],
    )
    for size in run_ladder(config)[:4]:
        timings = Timings()
        for run in sampled_runs(spec, size, config, tag=32):
            exe = execution_from_derivation(run)
            timings.time({
                mode: lambda mode=mode: DRLExecutionLabeler(scheme, mode=mode).run(exe)
                for mode in ("name", "logged")
            })
        scale = 1e3 / config.samples
        table.add(size, timings.cell("name", scale), timings.cell("logged", scale))
    return table


def baseline_comparison(config: BenchConfig) -> Table:
    """Extension: DRL vs general-purpose DAG indexes on the same runs.

    The paper's Section 1 surveys general reachability indexes (chain
    decomposition [15], GRAIL [24]); this table measures what they cost
    on workflow runs against the specification-aware DRL labels.  All
    four columns come out of the scheme registry.
    """
    spec = bioaid()
    table = Table(
        id="abl-baselines",
        title="DRL vs general DAG indexes (BioAID runs)",
        columns=[
            "run_size", "drl_max_bits", "grail_max_bits", "chain_max_bits",
            "naive_max_bits", "drl_us", "grail_us", "chain_us",
        ],
    )
    rng = random.Random(config.seed)
    queries = max(500, config.queries // 10)
    for size in run_ladder(config)[:4]:
        run = _first_run(spec, size, config, tag=41)
        vertices = sorted(run.graph.vertices())
        built = {
            b.name: b.scheme
            for b in build_registry_schemes(
                Workload.from_run(spec, run),
                names=["drl", "grail", "chains", "naive"],
                options={"grail": {"traversals": 3, "rng": random.Random(size)}},
            )
        }
        pairs = [(rng.choice(vertices), rng.choice(vertices))
                 for _ in range(queries)]
        timings = Timings()
        timings.time({name: query_loop(built[name].reaches, pairs)
                      for name in ("drl", "grail", "chains")})
        table.add(
            run.run_size(),
            *(max(built[name].label_bits_of(v) for v in vertices)
              for name in ("drl", "grail", "chains", "naive")),
            *(timings.cell(name, 1e6 / queries)
              for name in ("drl", "grail", "chains")),
        )
    return table


# ---------------------------------------------------------------------------
# the scheme registry and the query kernels
# ---------------------------------------------------------------------------


def _check_batch(name: str, scheme, pairs, batch_answers) -> None:
    """Raise unless the batch kernel answers like single-pair ``reaches``."""
    if batch_answers != [scheme.reaches(a, b) for a, b in pairs]:
        raise LabelingError(f"{name}: query_many disagrees with reaches")


def _vertex_pairs(workload: Workload, count: int, seed: int) -> List[tuple]:
    vertices = sorted(workload.graph.vertices())
    rng = random.Random(seed)
    return [(rng.choice(vertices), rng.choice(vertices)) for _ in range(count)]


def scheme_comparison(config: BenchConfig) -> Table:
    """Every registered scheme on a common graph family.

    BioAID-like non-recursive runs, plus one path-grammar run so the
    path-position scheme participates.  Per scheme: construction time
    (insertion replay for dynamic schemes, whole-graph build for static
    ones), single-pair and batch query time, and label storage.  A
    scheme that cannot label a workload keeps its row with the reason.
    Raises :class:`~repro.errors.LabelingError` if a batch kernel
    answers unlike single-pair ``reaches`` or a registered scheme is
    measured on no workload.
    """
    table = Table(
        id="schemes",
        title="Every registered scheme on common workloads",
        columns=["family", "run_size", "scheme", "build_ms", "reaches_ns",
                 "query_many_ns", "total_bits", "max_bits", "skip"],
    )
    norec, path = bioaid(recursive=False), fig12_path_grammar()
    # the three largest ladder sizes / 16: 500, 1,000 and 2,000 at scale 1
    families = [
        ("bioaid-norec", norec, size)
        for size in sorted({max(500, s // 16) for s in run_ladder(config)[-3:]})
    ] + [("fig12-path", path, 300)]
    count = max(500, config.queries // 10)
    measured = set()
    for family, spec, size in families:
        workload = Workload.from_run(spec, _first_run(spec, size, config, tag=50))
        pairs = _vertex_pairs(workload, count, seed=11)
        vertices = sorted(workload.graph.vertices())
        for build in build_registry_schemes(workload):
            if not build.built:
                table.add(family, len(vertices), build.name,
                          *[None] * 5, build.skip_reason)
                continue
            scheme = build.scheme
            timings = Timings()
            timings.time({"build": lambda: scheme_registry.build(
                build.name, workload)})
            answers = timings.time({
                "reaches": query_loop(scheme.reaches, pairs),
                "query_many": lambda: scheme.query_many(pairs),
            })["query_many"]
            _check_batch(build.name, scheme, pairs, answers)
            measured.add(build.name)
            table.add(
                family, len(vertices), build.name,
                timings.cell("build", 1e3),
                timings.cell("reaches", 1e9 / count),
                timings.cell("query_many", 1e9 / count),
                scheme.total_bits(),
                max(scheme.label_bits_of(v) for v in vertices),
                None,
            )
    missing = set(scheme_registry.available()) - measured
    if missing:
        raise LabelingError(
            f"schemes never measured on any workload: {sorted(missing)}")
    return table


def query_kernels(config: BenchConfig) -> Table:
    """Packed DRL against the reference entry-tuple DRL, per query path.

    One 1,500-vertex non-recursive BioAID run, ``config.queries`` pairs:
    single-pair ``reaches`` and the ``query_many`` batch kernel of both
    representations.  Raises :class:`~repro.errors.LabelingError` if a
    batch kernel answers unlike its single-pair path, or packed unlike
    the reference.
    """
    spec = bioaid(recursive=False)
    workload = Workload.from_run(spec, _first_run(spec, 1500, config, tag=51))
    pairs = _vertex_pairs(workload, config.queries, seed=17)
    variants = {
        "drl": scheme_registry.build("drl", workload),
        "drl-reference": scheme_registry.build("drl", workload, packed=False),
    }
    table = Table(
        id="kernels",
        title="DRL query kernels: packed vs reference (ns per pair)",
        columns=["scheme", "run_size", "reaches_ns", "query_many_ns"],
    )
    timings = Timings()
    calls: Dict[str, Callable[[], object]] = {}
    for name, scheme in variants.items():
        calls[f"{name}.reaches"] = query_loop(scheme.reaches, pairs)
        calls[f"{name}.query_many"] = lambda scheme=scheme: scheme.query_many(pairs)
    results = timings.time(calls)
    for name, scheme in variants.items():
        _check_batch(name, scheme, pairs, results[f"{name}.query_many"])
    if results["drl.query_many"] != results["drl-reference.query_many"]:
        raise LabelingError("packed drl disagrees with the reference drl")
    run_size = len(workload.graph)
    for name in variants:
        table.add(name, run_size,
                  timings.cell(f"{name}.reaches", 1e9 / len(pairs)),
                  timings.cell(f"{name}.query_many", 1e9 / len(pairs)))
    return table


# ---------------------------------------------------------------------------
# claims and verdicts
# ---------------------------------------------------------------------------

Judgement = Tuple[Dict[str, float], bool]


@dataclass(frozen=True)
class Experiment:
    """One driver, the claim it tests, and the rule that judges its rows.

    ``judge`` returns the measured values and whether the rule holds."""

    driver: Callable[[BenchConfig], Table]
    claim: str
    rule: str
    judge: Callable[[Rows], Judgement]

    def verdict(self, rows: Rows) -> Dict[str, object]:
        """The rows judged: the rounded measured values and the verdict."""
        measured, holds = self.judge(rows)
        return {
            "measured": {k: round(v, 3) for k, v in measured.items()},
            "verdict": "holds" if holds else "diverges",
        }


def _by(rows: Rows, key: str) -> Dict[object, Dict[str, object]]:
    return {row[key]: row for row in rows}


def _fig01(rows: Rows) -> Judgement:
    by = _by(rows, "graph_class")
    n = by["DAG (dynamic)"]["n"]
    bits = {key: row["max_label_bits"] for key, row in by.items()}
    log_rows = ("tree (dynamic, bounded depth)", "run, non-recursive (dynamic)",
                "run, linear recursive (dynamic)")
    misses = [
        bits["tree (dynamic, unbounded depth)"] < n // 2,
        bits["DAG (dynamic)"] != n - 1,
        *(bits[key] > 8 * math.log2(n) for key in log_rows),
        bits["run, recursive (dynamic)"] <= bits["run, linear recursive (dynamic)"],
    ]
    return {"rows_out_of_class": sum(misses)}, not any(misses)


def _fig14(rows: Rows) -> Judgement:
    slope, _ = fit(rows, "run_size", "max_bits", log_x=True)
    return {"bits_per_doubling": slope}, 0.5 <= slope <= 1.5


def _linear(rows: Rows, x: str, columns: Sequence[str]) -> Judgement:
    exponents = {f"{c}_exponent": fit(rows, x, c, log_x=True, log_y=True)[0]
                 for c in columns}
    return exponents, all(0.8 <= e <= 1.2 for e in exponents.values())


def _fig15(rows: Rows) -> Judgement:
    measured, linear = _linear(rows, "run_size", ["derivation_ms", "execution_ms"])
    measured["execution_over_derivation"] = median_ratio(
        rows, "execution_ms", "derivation_ms")
    return measured, linear and measured["execution_over_derivation"] > 1


def _fig16(rows: Rows) -> Judgement:
    ratio = median_ratio(rows, "drl_bfs_us", "drl_tcl_us")
    return {"bfs_over_tcl": ratio}, ratio >= 1.25


def _fig17(rows: Rows) -> Judgement:
    slope, _ = fit(rows, "sub_workflow_size", "max_bits", log_x=True)
    return {"bits_per_doubling": slope}, 0 < slope <= 15


def _fig18(rows: Rows) -> Judgement:
    slope, r2 = fit(rows, "nesting_depth", "max_bits")
    return {"bits_per_level": slope, "r2": r2}, slope > 0 and r2 >= 0.95


def _fig19(rows: Rows) -> Judgement:
    largest = rows[-1]
    bits = med(largest["nonlinear_bits"])
    return {"run_size": largest["run_size"], "nonlinear_bits": bits}, bits < 120


def _fig20(rows: Rows) -> Judgement:
    drl, _ = fit(rows, "run_size", "drl_bits", log_x=True)
    skl, _ = fit(rows, "run_size", "skl_bits", log_x=True)
    return ({"drl_bits_per_doubling": drl, "skl_bits_per_doubling": skl},
            2 <= skl <= 4 and 0 <= drl <= 2)


def _fig21(rows: Rows) -> Judgement:
    measured, linear = _linear(
        rows, "run_size", ["skl_ms", "drl_derivation_ms", "drl_execution_ms"])
    measured["max_skl_over_fastest_drl"] = max(
        med(row["skl_ms"]) / min(med(row["drl_derivation_ms"]),
                                 med(row["drl_execution_ms"]))
        for row in rows)
    return measured, linear and measured["max_skl_over_fastest_drl"] < 1


def _fig22(rows: Rows) -> Judgement:
    ratio = median_ratio(rows, "skl_bfs_us", "drl_bfs_us")
    return {"skl_bfs_over_drl_bfs": ratio}, 10 ** 0.5 <= ratio <= 10 ** 1.5


def _tab2(rows: Rows) -> Judgement:
    by = _by(rows, "scheme")
    ratio = by["SKL(TCL)"]["total_space_bits"] / by["DRL(TCL)"]["total_space_bits"]
    paper = 5565 / 650
    return {"skl_over_drl_bits": ratio}, paper / 1.5 <= ratio <= paper * 1.5


def _thm1(rows: Rows) -> Judgement:
    exponent = fit(rows, "run_size", "drl_one_r_bits", log_x=True, log_y=True)[0]
    return {"drl_one_r_bits_exponent": exponent}, exponent >= 0.75


def _abl_r(rows: Rows) -> Judgement:
    excess = max(med(row["with_R_bits"]) - med(row["without_R_bits"])
                 for row in rows)
    return {"max_excess_bits": excess}, excess <= 8


def _abl_exec(rows: Rows) -> Judgement:
    worst = max(med(row["logged_mode_ms"]) / med(row["name_mode_ms"])
                for row in rows)
    return {"max_logged_over_name": worst}, worst < 1


def _abl_baselines(rows: Rows) -> Judgement:
    measured = {
        "max_drl_over_naive_bits": max(
            row["drl_max_bits"] / row["naive_max_bits"] for row in rows),
        "max_drl_over_chain_bits_from_2000": max(
            (row["drl_max_bits"] / row["chain_max_bits"]
             for row in rows if row["run_size"] >= 2000), default=0.0),
    }
    return measured, (measured["max_drl_over_naive_bits"] < 0.25
                      and measured["max_drl_over_chain_bits_from_2000"] < 1)


def _schemes(rows: Rows) -> Judgement:
    bits: Dict[int, Dict[str, int]] = {}
    for row in rows:
        if row["family"] == "bioaid-norec" and row["skip"] is None:
            bits.setdefault(row["run_size"], {})[row["scheme"]] = row["total_bits"]
    worst = max(by["drl"] / by["naive"] for by in bits.values())
    return {"max_drl_over_naive_total_bits": worst}, worst < 0.25


def _kernels(rows: Rows) -> Judgement:
    by = _by(rows, "scheme")
    packed, reference = by["drl"], by["drl-reference"]
    measured = {
        f"{path}_speedup": med(reference[f"{path}_ns"]) / med(packed[f"{path}_ns"])
        for path in ("reaches", "query_many")
    }
    return measured, all(v > 1 for v in measured.values())


EXPERIMENTS: Dict[str, Experiment] = {
    "fig01": Experiment(
        fig01_bounds,
        "Figure 1: Theta(n) label length for dynamic unbounded-depth trees, "
        "DAGs and recursive runs; Theta(log n) for bounded-depth trees and "
        "non-recursive or linear recursive runs",
        "every row in its class: unbounded tree >= n/2 bits, DAG = n-1, "
        "each Theta(log n) row <= 8 log2 n, recursive run above the linear "
        "recursive one",
        _fig01,
    ),
    "thm1": Experiment(
        thm1_lower_bound,
        "Theorem 1: on the Figure 6 grammar every dynamic scheme needs "
        "Omega(n)-bit labels",
        "log-log slope of DRL max bits against run size >= 0.75",
        _thm1,
    ),
    "fig14": Experiment(
        fig14_label_length,
        "Figure 14: max and average label length run parallel to "
        "log2(n) + 13; average ~6 bits below max",
        "slope of max bits against log2(run size) within [0.5, 1.5]",
        _fig14,
    ),
    "fig15": Experiment(
        fig15_construction_time,
        "Figure 15: total construction time grows linearly in run size; "
        "derivation-based labeling is faster than execution-based",
        "log-log slope of both construction times against run size within "
        "[0.8, 1.2] (flat per-vertex cost), and execution/derivation > 1",
        _fig15,
    ),
    "fig16": Experiment(
        fig16_query_time,
        "Figure 16: DRL(TCL) and DRL(BFS) query times are near-constant; "
        "TCL is faster by ~2 us",
        "median over run sizes of DRL(BFS)/DRL(TCL) query time >= 1.25",
        _fig16,
    ),
    "fig17": Experiment(
        fig17_varying_size,
        "Figure 17: max label length grows logarithmically with the "
        "sub-workflow size",
        "slope of max bits against log2(sub-workflow size) within (0, 15]",
        _fig17,
    ),
    "fig18": Experiment(
        fig18_varying_depth,
        "Figure 18: max label length grows linearly with the nesting depth",
        "linear fit of max bits against nesting depth: slope > 0, R^2 >= 0.95",
        _fig18,
    ),
    "fig19": Experiment(
        fig19_nonlinear,
        "Figure 19: nonlinear recursion gives longer labels than linear, "
        "yet practical: under 120 bits at 32K",
        "nonlinear max bits at the largest run size < 120",
        _fig19,
    ),
    "fig20": Experiment(
        fig20_drl_vs_skl_length,
        "Figure 20: SKL max label length grows ~3 bits per doubling of n, "
        "DRL ~1; DRL wins for large runs",
        "slope against log2(run size): SKL within [2, 4], DRL within [0, 2]",
        _fig20,
    ),
    "fig21": Experiment(
        fig21_construction_vs_skl,
        "Figure 21: SKL, DRL(derivation) and DRL(execution) construction "
        "all grow linearly; SKL is fastest",
        "log-log slope of each construction time against run size within "
        "[0.8, 1.2], and SKL fastest at every size",
        _fig21,
    ),
    "fig22": Experiment(
        fig22_query_vs_skl,
        "Figure 22: SKL(BFS) is slower than DRL(BFS) by about an order of "
        "magnitude; SKL(TCL) slightly faster than DRL(TCL)",
        "median over run sizes of SKL(BFS)/DRL(BFS) query time within "
        "[10^0.5, 10^1.5]",
        _fig22,
    ),
    "tab2": Experiment(
        tab2_spec_overhead,
        "Table 2: DRL(TCL) 650 bits / 0.044 ms against SKL(TCL) 5,565 bits "
        "/ 0.163 ms: SKL labels a much larger global specification",
        "SKL/DRL specification bits within a factor 1.5 of the paper's "
        "5565/650 = 8.56",
        _tab2,
    ),
    "abl-r": Experiment(
        ablation_r_nodes,
        "Ablation: without R nodes the tree depth tracks recursion depth "
        "and labels grow with it; R-node compression never loses",
        "with-R max bits <= without-R max bits + 8 at every run size",
        _abl_r,
    ),
    "abl-exec": Experiment(
        ablation_execution_modes,
        "Ablation: name inference pays for predecessor matching; logged "
        "mode follows the execution log directly",
        "logged-mode time < name-mode time at every run size",
        _abl_exec,
    ),
    "abl-baselines": Experiment(
        baseline_comparison,
        "Extension: DRL labels stay logarithmic, while general-purpose "
        "indexes pay per-vertex storage growing with the run (chains, "
        "naive) or lose the O(1) guarantee (GRAIL)",
        "DRL max bits < naive/4 at every size, and < chains from 2,000 "
        "vertices",
        _abl_baselines,
    ),
    "schemes": Experiment(
        scheme_comparison,
        "Every registered scheme labels the common workloads; DRL's labels "
        "take under a quarter of the naive scheme's storage",
        "DRL total bits / naive total bits < 0.25 on every bioaid-norec run",
        _schemes,
    ),
    "kernels": Experiment(
        query_kernels,
        "The packed DRL representation answers exactly like the reference "
        "and faster, on the single-pair and the batch path",
        "reference/packed time > 1 for reaches and for query_many",
        _kernels,
    ),
}
