"""Calendar typing, observation encoding, and temperature tracking."""

from datetime import date, datetime

from hypothesis import given
from hypothesis import strategies as st

from aplf.features import TemperatureShiftEncoder, TemperatureTracker, calendar_type
from aplf.harness import snapshot_load, snapshot_save
from aplf.model_types import HyperParams, LearnerState, ModelParams

HP = HyperParams()
ENCODER = TemperatureShiftEncoder(HP)

# 2021-03-02 is a Tuesday, 2021-03-07 a Sunday.
TUESDAY = date(2021, 3, 2)
SUNDAY = date(2021, 3, 7)


def test_calendar_type_weekday_hour():
    assert calendar_type(datetime(2021, 3, 2, 13, 0)) == 14


def test_calendar_type_first_weekend_slot():
    assert calendar_type(datetime(2021, 3, 7, 0, 0)) == 25


def test_calendar_type_holiday_counts_as_weekend():
    assert calendar_type(datetime(2021, 3, 2, 13, 0), holidays={TUESDAY}) == 38


def test_calendar_type_image_is_exactly_1_to_48():
    seen = set()
    for hour in range(24):
        seen.add(calendar_type(datetime(2021, 3, 2, hour, 0)))
        seen.add(calendar_type(datetime(2021, 3, 7, hour, 0)))
    assert seen == set(range(1, 49))
    # A holiday weekday lands in the same slot as the weekend.
    for hour in range(24):
        assert calendar_type(datetime(2021, 3, 2, hour, 0), holidays={TUESDAY}) == calendar_type(
            datetime(2021, 3, 7, hour, 0)
        )


def test_encode_hot_upward_shift():
    assert list(ENCODER.encode(85.0, 60.0)) == [1.0, 1.0, 0.0]


def test_encode_zero_shift():
    assert list(ENCODER.encode(70.0, 70.0)) == [1.0, 0.0, 0.0]


def test_encode_cold_downward_shift():
    assert list(ENCODER.encode(10.0, 35.0)) == [1.0, 0.0, 1.0]


def _case_rule(w, w_bar, hp):
    # Literal restatement of the fixed reading: (shift test) AND (extreme test).
    if w - w_bar > hp.w1 and (w > hp.w2 or w < hp.w3):
        return [1.0, 1.0, 0.0]
    if w - w_bar < -hp.w1 and (w > hp.w2 or w < hp.w3):
        return [1.0, 0.0, 1.0]
    return [1.0, 0.0, 0.0]


def test_encode_brute_force_truth_table():
    # One representative (w, w_bar) per reachable predicate combination:
    # shift in {up, down, none} x extreme in {hot, cold, mild}.
    cases = [
        (85.0, 60.0),   # up shift, hot
        (15.0, -10.0),  # up shift, cold
        (70.0, 40.0),   # up shift, mild -> no flag
        (85.0, 110.0),  # down shift, hot
        (10.0, 35.0),   # down shift, cold
        (50.0, 75.0),   # down shift, mild -> no flag
        (85.0, 84.0),   # no shift, hot
        (10.0, 11.0),   # no shift, cold
        (50.0, 50.0),   # no shift, mild
    ]
    for w, w_bar in cases:
        assert list(ENCODER.encode(w, w_bar)) == _case_rule(w, w_bar, HP)


@given(
    w=st.floats(min_value=-60.0, max_value=130.0),
    w_bar=st.floats(min_value=-60.0, max_value=130.0),
)
def test_encode_output_shape_and_exclusivity(w, w_bar):
    vec = ENCODER.encode(w, w_bar)
    assert vec[0] == 1.0
    assert set(vec) <= {0.0, 1.0}
    assert vec[1] * vec[2] == 0.0


@given(
    w=st.floats(min_value=-60.0, max_value=130.0),
    w_bar=st.floats(min_value=-60.0, max_value=130.0),
    w1=st.floats(min_value=-30.0, max_value=30.0),
)
def test_encode_sets_each_flag_by_its_own_rule(w, w_bar, w1):
    # Each flag is its shift test AND the extreme test, even where a negative
    # w1 lets both shift tests hold.
    hp = HyperParams(w1=w1)
    extreme = w > hp.w2 or w < hp.w3
    expected = (1.0, float(extreme and w - w_bar > w1), float(extreme and w - w_bar < -w1))
    assert TemperatureShiftEncoder(hp).encode(w, w_bar) == expected


def test_encoder_output_has_the_observation_channel_shape():
    assert ENCODER.r_dim == 3
    assert ENCODER.encode(85.0, 60.0) == (1.0, 1.0, 0.0)


def test_tracker_first_ingest():
    tracker = TemperatureTracker(48)
    assert tracker.mean(7) is None
    tracker.add(7, 50.0)
    assert tracker.counts[7 - 1] == 1
    assert tracker.mean(7) == 50.0


def test_tracker_two_point_mean():
    tracker = TemperatureTracker(48)
    tracker.add(3, 50.0)
    tracker.add(3, 70.0)
    assert tracker.mean(3) == 60.0


def test_tracker_constant_sequence_is_exact():
    tracker = TemperatureTracker(2)
    for _ in range(1000):
        tracker.add(1, 42.0)
    assert tracker.mean(1) == 42.0


@given(st.lists(st.integers(min_value=-80, max_value=130), min_size=1, max_size=30))
def test_tracker_mean_is_permutation_invariant(values):
    # Integer temperatures keep the sum exact, so any ingestion order must
    # produce the identical mean.
    forward = TemperatureTracker(1)
    backward = TemperatureTracker(1)
    for v in values:
        forward.add(1, float(v))
    for v in reversed(values):
        backward.add(1, float(v))
    assert forward.mean(1) == backward.mean(1)
    assert forward.mean(1) == sum(values) / len(values)


def test_tracker_round_trip(tmp_path):
    tracker = TemperatureTracker(4)
    tracker.add(2, 55.0)
    tracker.add(2, 65.0)
    tracker.add(4, -10.0)
    snapshot_save(tmp_path / "s.snapshot", ModelParams.initial(4, 3), LearnerState.initial(4, 3), tracker,
                  HyperParams(n_calendar_types=4))
    restored = snapshot_load(tmp_path / "s.snapshot").tracker
    assert restored.counts == tracker.counts
    assert restored.sums == tracker.sums
