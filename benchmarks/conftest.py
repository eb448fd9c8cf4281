"""Shared fixtures for the benchmark harness.

Each ``bench_figNN`` module regenerates one of the paper's figures:
the timed body runs the data function of the figure's entry in
``figures.TABLES``, and the entry's rendered paper-style table is
written to ``results/figNN.txt`` (and echoed to stdout when running
with ``-s``).

Full-size suites are session-scoped so the 6-workload x 4-config run
matrix is executed once per arithmetic system per session.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.harness import figures

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def boxed_suite() -> figures.Suite:
    return figures.suite_for("boxed_ieee")


@pytest.fixture(scope="session")
def mpfr_suite() -> figures.Suite:
    return figures.suite_for("mpfr")


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


def publish(results_dir: pathlib.Path, name: str, text: str) -> None:
    """Write a rendered figure and echo it."""
    (results_dir / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)


def publish_table(results_dir: pathlib.Path, stem: str, data) -> None:
    """Write the registry's render of ``data`` as table ``stem``."""
    publish(results_dir, stem, figures.TABLES[stem].render(data))
