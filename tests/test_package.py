import latvol


def test_public_names_resolve():
    assert len(latvol.__all__) == len(set(latvol.__all__))
    missing = [name for name in latvol.__all__ if not hasattr(latvol, name)]
    assert missing == []
