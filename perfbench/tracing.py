"""In-process traced run: per-layer spans and work counts for one workload.

The benchmark wraps the public functions of each pillowcase module from the
outside, at every place the package binds them (module globals, names
imported by value, the CLI's builder table), runs the workload's CLI job
once through `cli.main`, and aggregates, per span, the number of calls and
the self time: the span's duration minus the time covered by its child
spans.  `orbi.classify_images` is deliberately left unwrapped: it runs about
650k times per `potential` job, so a wrapper would dominate the trace; its
cost stays inside the self time of `orbi.correlator`.

A span that the prediction table expects on a workload but that records no
call there fails the traced run, so a missed binding site cannot read as 0.
"""

from __future__ import annotations

import io
import sys
from collections import Counter, defaultdict
from contextlib import redirect_stdout
from functools import wraps
from pathlib import Path
from time import perf_counter

from workloads import check_potential_terms

QSERIES_FUNCTIONS = (
    "constant_series",
    "zero_series",
    "add",
    "sub",
    "scale",
    "mul",
    "substitute_power",
    "negate_variable",
    "divisor_series",
    "divisor_series_odd",
    "divisor_series_even",
    "f_series",
    "f0_series",
    "f1_series",
    "f2_series",
    "to_json",
)

# Verify suite name -> the oracle function the suite calls.
ORACLE_SUITES = {
    "oracle": "orbit_agreement_check",
    "parity": "image_table_check",
    "rh": "rh_uniqueness_check",
    "lumpsum": "lumpsum_check",
    "closedform": "correlator_crosscheck",
}

# (module, function) -> span name.
SPANS = {
    ("lattice", "enumerate_sublattices"): "lattice.enumerate_sublattices",
    ("lattice", "sigma1"): "lattice.sigma1",
    ("orbi", "correlator"): "orbi.correlator",
    ("orbi", "correlator_series"): "orbi.correlator_series",
    ("orbi", "total_count_series"): "orbi.total_count_series",
    **{("qseries", fn): f"qseries.{fn}" for fn in QSERIES_FUNCTIONS},
    ("potential", "assemble_potential"): "potential.assemble_potential",
    ("potential", "st_reference_potential"): "potential.st_reference_potential",
    ("potential", "compare_potentials"): "potential.compare_potentials",
    **{("oracle", fn): f"oracle.{suite}" for suite, fn in ORACLE_SUITES.items()},
    ("cli", "main"): "cli",
}

# Which end-to-end metric each per-layer metric should move, and on which
# workloads.  `spans` maps a workload to the spans that must record calls
# there, or the traced run fails; it covers every workload where they fire
# today, also where their share is too small to move anything.
_QSERIES_ON_SERIES = [
    f"qseries.{fn}"
    for fn in (
        "constant_series",
        "add",
        "sub",
        "scale",
        "substitute_power",
        "negate_variable",
        "divisor_series",
        "f_series",
        "f0_series",
        "f1_series",
        "f2_series",
        "to_json",
    )
]
_QSERIES_ON_POTENTIAL = [s for s in _QSERIES_ON_SERIES if s != "qseries.to_json"] + ["qseries.zero_series"]

PREDICTIONS = (
    {
        "per_layer": [
            "lattice.enumerate_sublattices.calls",
            "lattice.enumerate_sublattices.self_s",
            "lattice.sublattices",
        ],
        "spans": {w: ["lattice.enumerate_sublattices"] for w in ("potential", "verify")},
        "end_to_end": "wall_ref",
        "moves_on": ["potential", "verify"],
        "flat_on": ["series"],
    },
    {
        "per_layer": ["lattice.sigma1.calls", "lattice.sigma1.self_s"],
        "spans": {w: ["lattice.sigma1"] for w in ("series", "potential", "verify")},
        "end_to_end": "wall_ref",
        "moves_on": ["series"],
        "flat_on": [],
        "note": "close to zero on potential and verify",
    },
    {
        "per_layer": [
            "orbi.correlator.calls",
            "orbi.correlator.self_s",
            "orbi.covers_matched",
            "orbi.cover_hit_ratio",
        ],
        "spans": {w: ["orbi.correlator"] for w in ("potential", "verify")},
        "end_to_end": "wall_ref",
        "moves_on": ["potential", "verify"],
        "flat_on": ["series"],
        "note": "classify_images is not wrapped; its cost is inside orbi.correlator.self_s",
    },
    {
        "per_layer": ["orbi.correlator_series.calls", "orbi.correlator_series.self_s"],
        "spans": {"potential": ["orbi.correlator_series"]},
        "end_to_end": "wall_ref",
        "moves_on": ["potential"],
        "flat_on": ["series"],
    },
    {
        "per_layer": ["orbi.total_count_series.self_s"],
        "spans": {"verify": ["orbi.total_count_series"]},
        "end_to_end": "wall_ref",
        "moves_on": ["verify"],
        "flat_on": ["series"],
    },
    {
        "per_layer": [f"qseries.{fn}.{m}" for fn in QSERIES_FUNCTIONS for m in ("calls", "self_s")]
        + ["qseries.self_s", "qseries.coeffs_built"],
        "spans": {"series": _QSERIES_ON_SERIES, "potential": _QSERIES_ON_POTENTIAL},
        "end_to_end": "wall_ref",
        "moves_on": ["series"],
        "flat_on": [],
        "note": "small on potential; mul and the odd/even divisor series are on "
        "neither path, zero_series only on potential",
    },
    {
        "per_layer": [
            "potential.assemble_potential.self_s",
            "potential.st_reference_potential.self_s",
            "potential.compare_potentials.self_s",
            "potential.coeffs_compared",
            "potential.diffs",
        ],
        "spans": {
            "potential": [
                "potential.assemble_potential",
                "potential.st_reference_potential",
                "potential.compare_potentials",
            ]
        },
        "end_to_end": "wall_ref",
        "moves_on": ["potential"],
        "flat_on": ["series", "verify"],
        "note": "under 1% of potential today; potential.diffs must be 0",
    },
    {
        "per_layer": [f"oracle.{suite}.{m}" for suite in ORACLE_SUITES for m in ("self_s", "cases")],
        "spans": {"verify": [f"oracle.{suite}" for suite in ORACLE_SUITES]},
        "end_to_end": "wall_ref",
        "moves_on": ["verify"],
        "flat_on": ["potential", "series"],
        "note": "lumpsum and closedform self time excludes the orbi work they call",
    },
    {
        "per_layer": ["cli.self_s", "cli.stdout_bytes"],
        "spans": {w: ["cli"] for w in ("series", "potential", "verify")},
        "end_to_end": "wall_ref",
        "moves_on": ["series"],
        "flat_on": [],
        "note": "a few ms of argparse and output on potential and verify",
    },
)


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return {"orbi.cover_hit_ratio": "ratio", "cli.stdout_bytes": "bytes"}.get(name, "count")


def _better(name: str) -> str:
    higher = ("orbi.covers_matched", "orbi.cover_hit_ratio", "potential.coeffs_compared")
    return "higher" if name in higher or name.endswith(".cases") else "lower"


# Every per-layer metric a traced run reports: name -> (unit, better).
PER_LAYER = {
    name: (_unit(name), _better(name))
    for name in [m for p in PREDICTIONS for m in p["per_layer"]]
    + [f"{layer}.self_s" for layer in ("lattice", "orbi", "potential", "oracle")]  # layer totals
    + ["trace.total_s", "trace.overhead_s"]
}


class TraceError(RuntimeError):
    """The traced run missed a span, or its output failed a check."""


class Tracer:
    """Span aggregates for one traced run; `install` patches, `restore` undoes."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counters: Counter[str] = Counter()
        self.originals: dict[str, object] = {}
        self.assembled = None
        self._stack: list[list] = []  # open spans as [name, child seconds]
        self._patches: list[tuple] = []
        self._hooks = self._make_hooks()

    def wrap(self, span: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        hook = self._hooks.get(span)

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[span] += elapsed - frame[1]
                calls[span] += 1
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def _make_hooks(self):
        counters = self.counters

        def sublattices(args, result):
            counters["lattice.sublattices"] += len(result)
            if self._stack and self._stack[-1][0] == "orbi.correlator":
                counters["orbi.sublattices_tried"] += len(result)

        def correlator(args, result):
            counters["orbi.covers_matched"] += result

        def series_built(args, result):
            counters["qseries.coeffs_built"] += result.trunc + 1

        def compared(args, result):
            a, b = args[0], args[1]
            counters["potential.coeffs_compared"] += len(set(a.terms) | set(b.terms)) * (a.trunc + 1)
            counters["potential.diffs"] += len(result)

        def assembled(args, result):
            self.assembled = result

        def cases(suite):
            def hook(args, result):
                counters[f"oracle.{suite}.cases"] += sum(result.details.values())

            return hook

        hooks = {
            "lattice.enumerate_sublattices": sublattices,
            "orbi.correlator": correlator,
            "potential.compare_potentials": compared,
            "potential.assemble_potential": assembled,
            **{f"oracle.{suite}": cases(suite) for suite in ORACLE_SUITES},
        }
        for fn in QSERIES_FUNCTIONS:
            if fn != "to_json":
                hooks[f"qseries.{fn}"] = series_built
        return hooks

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every span's function wherever a pillowcase module binds it.

        `modules` maps short names ("lattice", ...) to the imported modules;
        the package itself may be included under any other key.
        """
        for (module, name), span in SPANS.items():
            original = getattr(modules[module], name)
            self.originals[span] = original
            traced = self.wrap(span, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if key.startswith("__"):
                        continue
                    if value is original:
                        self._patch(mod.__dict__, key, traced)
                    elif type(value) is dict:
                        for dkey, dvalue in list(value.items()):
                            if dvalue is original:
                                self._patch(value, dkey, traced)

    def _patch(self, namespace: dict, key, value) -> None:
        self._patches.append((namespace, key, namespace[key]))
        namespace[key] = value

    def restore(self) -> None:
        while self._patches:
            namespace, key, value = self._patches.pop()
            namespace[key] = value


def import_package(root: Path) -> dict[str, object]:
    """Import pillowcase from `root/src` and return its modules by short name."""
    src = root / "src"
    if not (src / "pillowcase" / "cli.py").is_file():
        raise TraceError(f"no pillowcase sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import pillowcase
    from pillowcase import cli, lattice, oracle, orbi, potential, qseries

    if Path(pillowcase.__file__).resolve().parent != (src / "pillowcase").resolve():
        raise TraceError(f"imported pillowcase from {pillowcase.__file__}, not {src}")
    return {
        "pillowcase": pillowcase,
        "lattice": lattice,
        "orbi": orbi,
        "qseries": qseries,
        "potential": potential,
        "oracle": oracle,
        "cli": cli,
    }


def run_traced(tracer: Tracer, modules: dict[str, object], workload, degree: int) -> dict[str, float]:
    """Run one job through the installed tracer and return per-layer values.

    Raises TraceError when the output fails its check or an expected span
    never fired.
    """
    buf = io.StringIO()
    start = perf_counter()
    with redirect_stdout(buf):
        code = modules["cli"].main(workload.argv(degree))
    total = perf_counter() - start
    stdout = buf.getvalue()

    reason = workload.check(stdout, code, degree)
    if reason is not None:
        raise TraceError(f"traced {workload.name} output: {reason}")
    for prediction in PREDICTIONS:
        for span in prediction["spans"].get(workload.name, ()):
            if tracer.calls[span] == 0:
                raise TraceError(f"span {span} recorded no call on {workload.name}")
    if workload.name == "potential":
        p = tracer.assembled
        terms = {mono.exponents: series.coeffs for mono, series in p.terms.items()}
        reason = check_potential_terms(p.log_term, terms, degree)
        if reason is not None:
            raise TraceError(f"assembled potential: {reason}")
        if tracer.counters["potential.diffs"]:
            raise TraceError("compare_potentials reported differences")

    counters = tracer.counters
    tried = counters["orbi.sublattices_tried"]
    # Undefined without any enumeration under correlator; reported as 0 then.
    counters["orbi.cover_hit_ratio"] = counters["orbi.covers_matched"] / (6 * tried) if tried else 0.0
    counters["cli.stdout_bytes"] = len(stdout.encode())
    counters["trace.total_s"] = total
    spans = set(SPANS.values())

    def value(name: str) -> float:
        owner, _, stat = name.rpartition(".")
        if stat == "calls":
            return tracer.calls[owner]
        if stat == "self_s" and owner in spans:
            return tracer.self_s[owner]
        if stat == "self_s":
            return sum(t for span, t in tracer.self_s.items() if span.startswith(owner + "."))
        return counters[name]

    return {name: value(name) for name in PER_LAYER if name != "trace.overhead_s"}
