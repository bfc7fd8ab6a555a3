"""Shared fixtures: the paper's running example and small helper lakes."""

from __future__ import annotations

import pytest

from repro import DataLake, Table

# The four tables of Figure 1, cell for cell (T2 spells "Atlanta" in the
# text and "Atalanta" in Figure 4; we use the text spelling).
FIGURE1_TABLES = {
    "T1": {
        "Donor": ["Google", "Volkswagen", "BMW", "Amazon"],
        "At Risk": ["Panda", "Puma", "Jaguar", "Pelican"],
        "Donation": ["1M", "2M", "0.9M", "1.5M"],
    },
    "T2": {
        "name": ["Panda", "Panda", "Lemur", "Jaguar"],
        "locale": ["Memphis", "Atlanta", "National", "San Diego"],
        "num": ["2", "2", "20", "8"],
    },
    "T3": {
        "C1": ["XE", "Prius", "500"],
        "C2": ["Jaguar", "Toyota", "Fiat"],
        "C3": ["UK", "Japan", "Italy"],
    },
    "T4": {
        "Name": ["Jaguar", "Puma", "Apple", "Toyota"],
        "Revenue": ["25.80", "4.64", "456", "123"],
        "Total": ["43224", "13000", "370870", "123456"],
    },
}

# Ground truth for Figure 1: Jaguar (animal / car maker) and Puma
# (animal / company) are homographs; every other repeated value has one
# meaning.
FIGURE1_HOMOGRAPHS = {"JAGUAR", "PUMA"}


def make_figure1_lake() -> DataLake:
    """Fresh copy of the running-example lake."""
    return DataLake(
        Table.from_columns(name, columns)
        for name, columns in FIGURE1_TABLES.items()
    )


#: The lake name :func:`serve_index` mounts a test's index under.  It
#: is only a name (the server has no default lake); it keeps the
#: ``/lakes/default/...`` paths that parametrized test ids carry.
LAKE = "default"


def serve_index(index, name: str = LAKE, **options):
    """Serve ``index`` as the one lake ``name`` on an ephemeral port.

    The server owns a fresh workspace holding only ``index``; every
    lake-scoped route lives under ``/lakes/<name>/``.
    """
    from repro import Workspace, start_server

    workspace = Workspace()
    workspace.attach_index(name, index)
    return start_server(workspace, port=0, **options)


@pytest.fixture
def figure1_lake() -> DataLake:
    return make_figure1_lake()


@pytest.fixture
def figure1_homographs() -> set:
    return set(FIGURE1_HOMOGRAPHS)
