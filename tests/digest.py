"""Print a SHA-256 digest of every reference and synthetic cell's outcome.

Usage, from the repository root:

    PYTHONPATH=src python3 tests/digest.py [--cells all|ref|synth] [--against FILE]

One line per cell, ``<digest> <trajectory> <label>``, then one line over
all of them, ``<digest> <trajectory> all``.  A cell's digest covers its
output point, step counts, stop reason, a-priori bound, output objective,
violation and certificate, and, where history is recorded, every record
of a full pass and of ``ordinary()``.  Its trajectory digest covers the
same but ``ordinary()``: which steps a run batches decides which records
``ordinary()`` holds, not what any step does, so a change of batching
alone keeps the trajectory column and changes only the digest of cells
with history.  Two trees whose solvers take the same steps print the same
lines, so a change meant to be bit for bit is checked by running this on
both; the ``all`` line's first digest is taken over ``<digest> <label>``
lines alone.

``--against FILE`` compares the cells run with a listing this script
printed before, for example on the parent commit:

    git stash && PYTHONPATH=src python3 tests/digest.py > parent.txt
    git stash pop && PYTHONPATH=src python3 tests/digest.py --against parent.txt

After the listing it prints the labels of the cells whose trajectory
digest differs from the file's, then, apart, those whose full digest
differs, and those missing from the file, and exits 1 where any is
listed, else 0.  A cell whose full digest differs with the same
trajectory changed only which steps are batched, which only
``ordinary()`` shows.  Cells in the file but not run (``--cells ref``
against a full listing) are not compared.

The cells are the 20 ``REFERENCE_RESULTS`` cells at the acceptance suite's
caps (10^6 steps for examples 3, 5 and 6 in the Lipschitz regime, 10^7
otherwise; history on in the nonstandard regime, as that suite runs them)
and the ``synth-prox`` benchmark cells of seeds 1 to 3, built by the
benchmark's own ``perfbench/workloads.py``, which is only imported.  The
whole set takes about a minute on one core.  This file is not collected
by pytest.
"""

from __future__ import annotations

import argparse
import hashlib
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from mirropt import Regime, RunConfig, build_example, default_geometry, run
from mirropt.benchmarks import REFERENCE_RESULTS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402  (the benchmark's cell builders)

# Lipschitz-regime examples that the acceptance suite caps at 10^6 steps.
_CAPPED = (3, 5, 6)
_SYNTH_SEEDS = (1, 2, 3)


def _feed(digest, value) -> None:
    """Add one field to the digest, typed so that no two values collide."""
    if value is None:
        digest.update(b"N")
    elif isinstance(value, np.ndarray):
        digest.update(b"A" + struct.pack("<q", value.size))
        digest.update(np.ascontiguousarray(value, dtype=np.float64).tobytes())
    elif isinstance(value, float):
        digest.update(b"F" + struct.pack("<d", value))
    elif isinstance(value, int):
        digest.update(b"I" + struct.pack("<q", value))
    else:
        text = str(getattr(value, "value", value)).encode()
        digest.update(b"S" + struct.pack("<q", len(text)) + text)


def _feed_records(digest, records) -> None:
    for r in records:
        for value in (r.index, r.kind, r.step_size, r.grad_dual_norm,
                      r.constraint_index, r.objective_value, r.point):
            _feed(digest, value)


def report_digests(report) -> tuple[str, str]:
    """The report's digest and its trajectory digest, which leaves out
    ``ordinary()``."""
    trajectory = hashlib.sha256()
    for value in (report.output_point, report.total_steps, report.productive_count,
                  report.nonproductive_count, report.stop_reason, report.a_priori_bound,
                  report.output_objective, report.output_max_violation,
                  report.certificate):
        _feed(trajectory, value)
    if report.history is not None:
        _feed(trajectory, len(report.history))
        _feed_records(trajectory, report.history)
    digest = trajectory.copy()
    if report.history is not None:
        _feed_records(digest, report.history.ordinary())
    return digest.hexdigest(), trajectory.hexdigest()


def reference_cells():
    for (example_id, regime, policy), _ in sorted(
            REFERENCE_RESULTS.items(),
            key=lambda item: (item[0][0], item[0][1].value, item[0][2].value)):
        lipschitz = regime is Regime.LIPSCHITZ
        cap = 10**6 if lipschitz and example_id in _CAPPED else 10**7
        example = build_example(example_id)
        config = RunConfig(example.settings.epsilon, regime=regime, policy=policy,
                           max_iterations=cap, record_history=not lipschitz)
        yield (f"ex{example_id} {regime.value} {policy.value}",
               example.instance, default_geometry(example), config)


def synth_cells():
    for seed in _SYNTH_SEEDS:
        with tempfile.TemporaryDirectory() as workdir:
            workloads.write_synth_problems(seed, Path(workdir))
            for index, (label, build) in enumerate(
                    workloads.cell_plan("synth-prox", Path(workdir))):
                cell = build(index)
                yield f"seed {seed} {label}", cell.instance, cell.geometry, cell.config


def read_listing(path: Path) -> dict[str, tuple[str, str]]:
    """A saved listing's (digest, trajectory digest) per cell label."""
    cells = {}
    for line in path.read_text().splitlines():
        digest, trajectory, label = line.split(" ", 2)
        if label != "all":
            cells[label] = digest, trajectory
    return cells


def compare(listing: dict, saved: dict) -> int:
    """Print the cells whose trajectory digest, or whose full digest,
    differs from the saved ones, and those missing from them; 1 where any
    is printed, else 0."""
    found = [label for label in listing if label in saved]
    differ = {title: [label for label in found if listing[label][k] != saved[label][k]]
              for title, k in (("trajectory digest differs", 1), ("full digest differs", 0))}
    differ["not in the saved listing"] = [label for label in listing if label not in saved]
    for title, labels in differ.items():
        print(f"{title}: {len(labels)}")
        for label in labels:
            print(f"  {label}")
    return int(any(differ.values()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cells", choices=("all", "ref", "synth"), default="all")
    parser.add_argument("--against", type=Path, metavar="FILE",
                        help="a listing saved from an earlier run to compare with")
    args = parser.parse_args(argv)
    saved = read_listing(args.against) if args.against is not None else None
    cells = []
    if args.cells in ("all", "ref"):
        cells.append(reference_cells())
    if args.cells in ("all", "synth"):
        cells.append(synth_cells())
    total, trajectories = hashlib.sha256(), hashlib.sha256()
    listing = {}
    for group in cells:
        for label, instance, geometry, config in group:
            digest, trajectory = report_digests(run(instance, geometry, config))
            print(f"{digest} {trajectory} {label}", flush=True)
            total.update(f"{digest} {label}\n".encode())
            trajectories.update(f"{trajectory} {label}\n".encode())
            listing[label] = digest, trajectory
    print(f"{total.hexdigest()} {trajectories.hexdigest()} all")
    return 0 if saved is None else compare(listing, saved)


if __name__ == "__main__":
    sys.exit(main())
