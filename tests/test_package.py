import lieclass


def test_every_public_name_resolves():
    assert len(set(lieclass.__all__)) == len(lieclass.__all__)
    for name in lieclass.__all__:
        assert getattr(lieclass, name) is not None, name
