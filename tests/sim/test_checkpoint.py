"""Atomic write-then-rename: how every durable file reaches disk."""

import pytest

from repro.exec import store


class TestAtomicWrite:
    def test_replaces_content_and_leaves_no_tmp(self, tmp_path):
        path = tmp_path / "out.json"
        path.write_text("old")
        store.atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_write_preserves_original(self, tmp_path, monkeypatch):
        path = tmp_path / "out.json"
        store.atomic_write_text(path, "precious")

        def refuse(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(store.os, "replace", refuse)
        with pytest.raises(OSError):
            store.atomic_write_text(path, "torn")
        assert path.read_text() == "precious"
        assert list(tmp_path.iterdir()) == [path]
