import dualstyle


def test_every_exported_name_resolves():
    for name in dualstyle.__all__:
        assert getattr(dualstyle, name) is not None, name
