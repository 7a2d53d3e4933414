import projcurve

PUBLIC = {
    "AllZero", "BadParams", "CheckConfig", "ComplexPoly", "ConditionReport",
    "DimensionMismatch", "FamilyMember",
    "FirstComponentZero", "IdenticallyZero", "MartyStats",
    "MovingHyperplane", "NotBlowingUp", "NumericOverflow", "ParseError",
    "ProjCurve",
    "ProjcurveError", "Region", "Scene", "UniformDelta", "UnknownTemplate",
    "ValidationError", "WrongCount", "ZalcmanTrace", "ZeroPolynomial",
    "conditions_check", "config", "derived_map", "generate_scene",
    "hypotheses_check", "induced_curve", "load_scene", "marty_sup",
    "position_sweep", "run_pipeline", "save_scene", "scene_from_json",
    "scene_to_json", "zalcman_search",
    "__version__",
}


def test_public_surface_is_pinned():
    assert len(projcurve.__all__) == len(PUBLIC)
    assert set(projcurve.__all__) == PUBLIC
    for name in projcurve.__all__:
        assert getattr(projcurve, name) is not None
