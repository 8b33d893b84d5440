"""Catalog fixtures and runner."""

import pytest

from latsep.catalog import CATALOG_WINDOW, entry_ids, run_catalog
from latsep.errors import InstanceFormatError


def test_entry_ids_complete():
    assert entry_ids() == [
        "ex2.4-1d",
        "ex2.4-window",
        "ex2.5-window",
        "ex4.4",
        "ex4.5",
        "ex4.6-holes",
        "ex4.7",
        "ex4.8",
        "fig2-triangle-center",
    ]


@pytest.mark.parametrize("entry_id", entry_ids())
def test_light_entries_pass(entry_id):
    # every entry is light: the heaviest, the 13-7-4 hole tower, takes
    # about 0.1 s
    report = run_catalog(entry_id)
    failing = [r for r in report.lines() if r.startswith("[FAIL]")]
    assert report.ok, failing


def test_pattern_selects_multiple():
    report = run_catalog("ex2.*")
    entries = {r.entry for r in report.results}
    assert entries == {"ex2.4-1d", "ex2.4-window", "ex2.5-window"}


def test_unknown_id_raises():
    with pytest.raises(InstanceFormatError):
        run_catalog("nonexistent")


def test_window_size_recorded():
    assert CATALOG_WINDOW >= 5


def test_runner_reports_every_claim():
    report = run_catalog("ex4.4")
    assert len(report.results) == 4
    assert all(r.entry == "ex4.4" for r in report.results)
    assert len(report.lines()) == 4
