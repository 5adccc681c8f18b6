import wrtr

DELETED = ("TangentVector", "zero_tangent", "DegenerateRetractionError", "tangent_basis")


def test_every_exported_name_resolves():
    missing = [name for name in wrtr.__all__ if not hasattr(wrtr, name)]
    assert missing == []
    assert len(set(wrtr.__all__)) == len(wrtr.__all__)


def test_deleted_names_are_not_exported():
    from wrtr import driver, manifold

    for name in DELETED:
        assert name not in wrtr.__all__
        assert not hasattr(wrtr, name)
        assert not hasattr(manifold, name) and not hasattr(driver, name)
