"""Calendar typing, observation encoding, and temperature tracking."""

from datetime import date, datetime

from hypothesis import given
from hypothesis import strategies as st

from aplf.features import NO_SHIFT, TemperatureShiftEncoder, TemperatureTracker, calendar_type, neighbour_types
from aplf.harness import Snapshot, snapshot_load, snapshot_save
from aplf.model_types import CALENDAR_TYPES, HOURS_PER_DAY, R_DIM, HyperParams, LearnerState, ModelParams

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


def test_neighbour_types_order_every_other_type_by_hour_distance():
    def hour_and_class(c):
        return (c - 1) % HOURS_PER_DAY, (c - 1) // HOURS_PER_DAY

    def hour_distance(c, cc):
        d = abs(hour_and_class(c)[0] - hour_and_class(cc)[0])
        return min(d, HOURS_PER_DAY - d)

    for c in range(1, CALENDAR_TYPES + 1):
        order = neighbour_types(c)
        assert sorted(order) == [cc for cc in range(1, CALENDAR_TYPES + 1) if cc != c], c
        hour, day_class = hour_and_class(c)
        assert hour_and_class(order[0]) == (hour, 1 - day_class), c
        distances = [hour_distance(c, cc) for cc in order]
        assert distances == sorted(distances), c


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
    assert len(ENCODER.encode(85.0, 60.0)) == R_DIM
    assert ENCODER.encode(85.0, 60.0) == (1.0, 1.0, 0.0)


class RecordingEncoder:
    """ENCODER's encode, recording each (w, w_bar) it is given."""

    def __init__(self):
        self.calls = []

    def encode(self, w, w_bar):
        self.calls.append((w, w_bar))
        return ENCODER.encode(w, w_bar)


def test_a_types_first_temperature_is_encoded_against_itself():
    # An extreme first reading has no past temperature to shift from, so it raises no flag.
    encoder = RecordingEncoder()
    assert TemperatureTracker().observations(encoder, [7, 8], [120.0, -40.0]) == [NO_SHIFT, NO_SHIFT]
    assert encoder.calls == [(120.0, 120.0), (-40.0, -40.0)]


def test_later_temperatures_are_encoded_against_the_plain_mean_of_the_learned_ones():
    tracker = TemperatureTracker()
    tracker.learn([3, 3, 4], [50.0, 70.0, 10.0])
    encoder = RecordingEncoder()
    assert tracker.observations(encoder, [3, 5, 3, 4], [85.0, 90.0, None, 10.0]) == [
        (1.0, 1.0, 0.0), NO_SHIFT, None, NO_SHIFT]
    assert encoder.calls == [(85.0, 60.0), (90.0, 90.0), (10.0, 10.0)]


def test_observations_leave_the_tracker_unchanged():
    tracker = TemperatureTracker()
    tracker.learn([1, 2], [42.0, 95.0])
    before = TemperatureTracker(list(tracker.counts), list(tracker.sums))
    tracker.observations(ENCODER, [1, 2, 3, 1], [100.0, 10.0, 30.0, None])
    assert tracker == before


def test_learn_skips_a_missing_temperature():
    tracker = TemperatureTracker()
    tracker.learn([2, 2, 4, 5], [55.0, None, -10.0, None])
    counts, sums = [0] * CALENDAR_TYPES, [0.0] * CALENDAR_TYPES
    counts[2 - 1], sums[2 - 1] = 1, 55.0
    counts[4 - 1], sums[4 - 1] = 1, -10.0
    assert (tracker.counts, tracker.sums) == (counts, sums)


def test_a_constant_sequence_has_an_exact_mean():
    tracker = TemperatureTracker()
    tracker.learn([1] * 1000, [42.0] * 1000)
    encoder = RecordingEncoder()
    tracker.observations(encoder, [1], [50.0])
    assert encoder.calls == [(50.0, 42.0)]


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=CALENDAR_TYPES),
                          st.integers(min_value=-80, max_value=130)), min_size=1, max_size=30))
def test_the_learned_counts_and_sums_do_not_depend_on_the_order(samples):
    # Integer temperatures keep every sum exact, so any learning order must
    # give the identical counts and sums, and each type the plain mean.
    types, temps = zip(*samples)
    forward, backward = TemperatureTracker(), TemperatureTracker()
    forward.learn(types, map(float, temps))
    backward.learn(reversed(types), map(float, reversed(temps)))
    assert forward == backward
    values = [w for c, w in samples if c == types[0]]
    encoder = RecordingEncoder()
    forward.observations(encoder, [types[0]], [0.0])
    assert encoder.calls == [(0.0, sum(values) / len(values))]


def test_tracker_round_trip(tmp_path):
    tracker = TemperatureTracker()
    tracker.learn([2, 2, 4], [55.0, 65.0, -10.0])
    snapshot_save(tmp_path / "s.snapshot",
                  Snapshot(ModelParams.initial(), LearnerState.initial(), tracker, HyperParams(), None))
    restored = snapshot_load(tmp_path / "s.snapshot").tracker
    assert restored.counts == tracker.counts
    assert restored.sums == tracker.sums
