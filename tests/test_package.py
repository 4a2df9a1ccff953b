import dpspesa


def test_public_names_are_the_quick_start_and_entry_points():
    assert dpspesa.__all__ == [
        "ArrayConfig",
        "PhaseGrid",
        "ScenarioSpec",
        "TargetScenario",
        "approximate",
        "beampattern_trace",
        "mvdr_beamformer",
        "run_monte_carlo",
        "run_mvdr_clutter",
        "run_single_target",
        "__version__",
    ]
    for name in dpspesa.__all__:
        assert getattr(dpspesa, name) is not None
    assert not hasattr(dpspesa, "steering_beamformer")
    assert not hasattr(dpspesa, "beampattern_power")
