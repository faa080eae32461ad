import hdrpcal


def test_public_names_resolve_once():
    names = hdrpcal.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(hdrpcal, n)] == []
