"""Package export surface."""

import imexbdf


def test_star_import_exports_every_listed_name_once():
    namespace = {}
    exec("from imexbdf import *", namespace)
    assert len(set(imexbdf.__all__)) == len(imexbdf.__all__)
    assert [name for name in imexbdf.__all__ if name not in namespace] == []
