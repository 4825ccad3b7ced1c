"""The package's public names."""

import chronolint


def test_every_exported_name_resolves():
    assert [name for name in chronolint.__all__ if not hasattr(chronolint, name)] == []
    assert len(set(chronolint.__all__)) == len(chronolint.__all__)
