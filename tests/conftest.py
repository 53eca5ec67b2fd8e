"""Fixtures shared by the test modules."""

import pytest

from qbde import checkpoint


@pytest.fixture(scope="session")
def each_csv_splitter():
    """A function whose iterator yields the names of ``read_csv``'s two
    splitters in turn: ``"str.split"``, then ``"csv.reader"``, while which
    every text goes through ``csv.reader``.  A test reads a file once per
    name, so each bad-record case runs through both."""
    def each():
        yield "str.split"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(checkpoint, "_plain_lines", lambda text: None)
            yield "csv.reader"
    return each
