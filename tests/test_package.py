import types

import ghwkit


def test_all_is_the_public_non_module_names():
    # an export deleted from its module but left in __all__, or one added
    # without an entry, fails here; submodules are not exports
    public = {
        name
        for name, value in vars(ghwkit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(set(ghwkit.__all__)) == len(ghwkit.__all__)
    assert set(ghwkit.__all__) == public
    namespace = {}
    exec("from ghwkit import *", namespace)
    assert all(namespace[name] is getattr(ghwkit, name) for name in ghwkit.__all__)
