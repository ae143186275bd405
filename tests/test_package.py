import types

import fredk2


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from fredk2 import *", namespace)
    del namespace["__builtins__"]
    assert fredk2.__all__[0] == "__version__"
    assert len(set(fredk2.__all__)) == len(fredk2.__all__)
    assert set(namespace) == set(fredk2.__all__)
    assert not [name for name, value in namespace.items()
                if isinstance(value, types.ModuleType)]

