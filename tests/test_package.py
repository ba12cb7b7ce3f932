import trinoids


def test_exports():
    # every exported name resolves, and a star import binds exactly those
    assert len(set(trinoids.__all__)) == len(trinoids.__all__)
    for name in trinoids.__all__:
        assert hasattr(trinoids, name), name
    namespace = {}
    exec("from trinoids import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(trinoids.__all__)
