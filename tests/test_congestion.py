"""Reno congestion control unit tests."""

from repro.tcp.congestion import RenoCongestionControl


def cc(**kwargs):
    return RenoCongestionControl(mss=1000, init_cwnd_segments=10, **kwargs)


def test_initial_window():
    control = cc()
    assert control.cwnd == 10_000
    assert control.in_slow_start


def test_slow_start_grows_per_ack():
    control = cc()
    control.on_ack(1000)
    assert control.cwnd == 11_000


def test_slow_start_growth_capped_at_mss_per_ack():
    control = cc()
    control.on_ack(50_000)
    assert control.cwnd == 11_000


def test_congestion_avoidance_linear():
    control = cc(initial_ssthresh=5_000)
    assert not control.in_slow_start
    before = control.cwnd
    control.on_ack(1000)
    assert control.cwnd == before + 1000 * 1000 // before


def test_cwnd_cap():
    control = RenoCongestionControl(mss=1000, init_cwnd_segments=10,
                                    cwnd_cap_bytes=12_000)
    for _ in range(10):
        control.on_ack(1000)
    assert control.cwnd == 12_000


def test_fast_retransmit_halves_and_enters_recovery():
    control = cc()
    control.on_fast_retransmit(flight_size=20_000)
    assert control.ssthresh == 10_000
    assert control.cwnd == 10_000 + 3_000
    assert control.in_recovery
    assert control.stats.fast_retransmits == 1


def test_recovery_inflation_and_exit():
    control = cc()
    control.on_fast_retransmit(flight_size=20_000)
    control.on_dup_ack_in_recovery()
    assert control.cwnd == 14_000
    control.on_recovery_exit()
    assert not control.in_recovery
    assert control.cwnd == control.ssthresh
    assert control.stats.recoveries_completed == 1


def test_timeout_collapses_to_one_segment():
    control = cc()
    control.on_timeout(flight_size=20_000)
    assert control.cwnd == 1000
    assert control.ssthresh == 10_000
    assert control.in_slow_start
    assert control.stats.timeouts == 1


def test_ssthresh_floor_two_segments():
    control = cc()
    control.on_timeout(flight_size=1000)
    assert control.ssthresh == 2000


def test_idle_restart_shrinks_but_never_grows():
    control = cc()
    for _ in range(20):
        control.on_ack(1000)
    grown = control.cwnd
    control.on_idle_restart()
    assert control.cwnd == 10_000 < grown
    control.on_idle_restart()
    assert control.cwnd == 10_000


def test_zero_ack_is_noop():
    control = cc()
    control.on_ack(0)
    assert control.cwnd == 10_000
