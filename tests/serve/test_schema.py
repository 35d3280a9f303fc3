"""Request validation: every bad field answers with a clear 400 body."""

import pytest

from repro.serve.schema import (PredictRequest, SweepRequest,
                                ValidationError, known_page_names)


def _error_for(payload) -> ValidationError:
    with pytest.raises(ValidationError) as caught:
        PredictRequest.from_payload(payload)
    return caught.value


class TestPredictRequest:
    def test_minimal_payload_fills_defaults(self):
        request = PredictRequest.from_payload({"n_users": 300})
        assert request.n_users == 300
        assert request.profile == "ideal"
        assert request.n_channels == 200
        assert request.setup_overrides == ()

    def test_payload_must_be_mapping(self):
        error = _error_for([1, 2, 3])
        assert error.field == "body"

    def test_n_users_is_required(self):
        error = _error_for({})
        assert error.field == "n_users"
        assert "required" in error.message

    def test_n_users_rejects_bool_and_zero(self):
        assert _error_for({"n_users": True}).field == "n_users"
        assert _error_for({"n_users": 0}).field == "n_users"
        assert _error_for({"n_users": "many"}).field == "n_users"

    def test_unknown_top_level_field_rejected(self):
        error = _error_for({"n_users": 10, "n_chanels": 8})
        assert error.field == "n_chanels"
        assert "unknown field" in error.message

    def test_unknown_profile_rejected(self):
        error = _error_for({"n_users": 10, "profile": "marsbase"})
        assert error.field == "profile"
        assert "marsbase" in error.message

    def test_unknown_page_rejected(self):
        error = _error_for({"n_users": 10, "pages": ["not-a-page"]})
        assert error.field == "pages"
        assert "not-a-page" in error.message

    def test_known_page_accepted(self):
        name = sorted(known_page_names())[0]
        request = PredictRequest.from_payload(
            {"n_users": 10, "pages": [name]})
        assert request.pages == (name,)

    def test_empty_reading_times_rejected(self):
        error = _error_for({"n_users": 10, "reading_times": []})
        assert error.field == "reading_times"

    def test_negative_horizon_rejected(self):
        error = _error_for({"n_users": 10, "horizon": -3.0})
        assert error.field == "horizon"

    def test_unknown_setup_override_rejected(self):
        error = _error_for({"n_users": 10,
                            "setup": {"warp_drive": True}})
        assert error.field == "setup"
        assert "warp_drive" in error.message

    def test_setup_override_round_trips(self):
        request = PredictRequest.from_payload(
            {"n_users": 10, "setup": {"predictor": "gbrt-like",
                                      "t1": 3.0}})
        setup = request.setup()
        assert setup.predictor == "gbrt-like"
        assert setup.t1 == 3.0

    def test_error_body_shape(self):
        body = _error_for({}).to_dict()
        assert body == {"field": "n_users", "message": body["message"]}

    def test_canonical_is_stable_and_order_free(self):
        one = PredictRequest.from_payload(
            {"n_users": 10, "setup": {"t1": 3.0, "t2": 12.0}})
        two = PredictRequest.from_payload(
            {"setup": {"t2": 12.0, "t1": 3.0}, "n_users": 10})
        assert one.canonical() == two.canonical()

    def test_scenario_key_ignores_population_fields(self):
        one = PredictRequest.from_payload({"n_users": 10})
        two = PredictRequest.from_payload({"n_users": 99,
                                           "n_channels": 7})
        assert one.scenario_key() == two.scenario_key()

    def test_population_scenario_carries_spec(self):
        request = PredictRequest.from_payload(
            {"n_users": 12, "n_channels": 9, "horizon": 120.0,
             "mean_interval": 4.0})
        scenario = request.scenario(with_population=True)
        assert scenario.population.n_users == 12
        assert scenario.population.n_channels == 9
        assert request.scenario().population is None


class TestSweepRequest:
    def test_users_required_and_positive(self):
        with pytest.raises(ValidationError) as caught:
            SweepRequest.from_payload({})
        assert caught.value.field == "users"
        with pytest.raises(ValidationError):
            SweepRequest.from_payload({"users": [10, 0]})

    def test_non_finite_numbers_rejected(self):
        for field in ("horizon", "mean_interval", "pool_sigma"):
            for value in (float("nan"), float("inf"), 10 ** 400):
                with pytest.raises(ValidationError) as caught:
                    SweepRequest.from_payload({"users": [5],
                                               field: value})
                assert caught.value.field == field

    # The sketch size is fixed, so quantile_k is no field either.
    @pytest.mark.parametrize("field", ["bogus", "quantile_k"])
    def test_unknown_field_rejected(self, field):
        with pytest.raises(ValidationError) as caught:
            SweepRequest.from_payload({"users": [5], field: 9})
        assert caught.value.field == field

    def test_spec_carries_fingerprint_and_is_deterministic(self):
        payload = {"users": [5, 10], "n_channels": 8,
                   "horizon": 60.0, "pool_size": 32}
        one = SweepRequest.from_payload(payload).spec()
        two = SweepRequest.from_payload(payload).spec()
        assert one["fingerprint"] == two["fingerprint"]

    def test_spec_fingerprint_tracks_inputs(self):
        base = SweepRequest.from_payload({"users": [5]}).spec()
        other = SweepRequest.from_payload({"users": [6]}).spec()
        assert base["fingerprint"] != other["fingerprint"]
