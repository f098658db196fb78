"""Shared by every test: each test gets its own empty operator table store
(hilferbvp.tablestore), so no test reads or fills the user's, and no test
sees tables that an earlier one stored.  Child interpreters inherit the
setting through the environment."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def session_table_store(tmp_path_factory):
    """A store for module- and session-scoped fixtures, which are set up
    before any test's own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(autouse=True)
def table_store(tmp_path, monkeypatch):
    """The directory of this test's table store, not yet created."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))
    return tmp_path / "xdg-cache" / "hilferbvp"
