import efs


def test_export_list_resolves_without_duplicates():
    missing = [name for name in efs.__all__ if not hasattr(efs, name)]
    assert missing == []
    assert len(set(efs.__all__)) == len(efs.__all__)
