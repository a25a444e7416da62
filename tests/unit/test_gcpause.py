"""The counted collector pause: nested and overlapping pauses across threads."""

from __future__ import annotations

import gc
import sys
import threading

import pytest

from repro.util.gcpause import collector_paused


class TestCollectorPaused:
    def test_nested_pauses_resume_at_the_last_exit(self):
        assert gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_a_collector_found_off_stays_off(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            with collector_paused():
                assert not gc.isenabled()
            assert not gc.isenabled()
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_a_raising_body_still_resumes(self):
        with pytest.raises(RuntimeError):
            with collector_paused():
                raise RuntimeError("boom")
        assert gc.isenabled()

    def test_overlapping_pauses_in_two_threads_resume_the_collector(self):
        # A enters; B enters while A's pause is on; A exits; B's body
        # raises and B exits.  The collector is on afterwards.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}
        errors = []

        def thread_a():
            with collector_paused():
                a_in.set()
                b_in.wait(5)
                seen["a"] = gc.isenabled()
            a_out.set()

        def thread_b():
            a_in.wait(5)
            try:
                with collector_paused():
                    b_in.set()
                    a_out.wait(5)
                    seen["b"] = gc.isenabled()
                    raise ValueError("body fails")
            except ValueError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == {"a": False, "b": False}  # B's body ran after A's exit
        assert len(errors) == 1
        assert gc.isenabled()

    def test_many_threads_pausing_at_once_leave_the_collector_on(self):
        # More threads than cores, switching often: every body sees the
        # collector off, and the last exit turns it back on.
        failures = []

        def worker():
            for _ in range(300):
                with collector_paused():
                    if gc.isenabled():
                        failures.append("on inside a pause")
                    with collector_paused():
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert gc.isenabled()

    def test_the_uncounted_pattern_leaks_a_pause_in_that_interleaving(self):
        # The per-caller ``isenabled``/``disable``/``enable`` pair, replayed
        # step by step in the same interleaving, leaves the collector off.
        try:
            a_collecting = gc.isenabled()  # A enters
            gc.disable()
            b_collecting = gc.isenabled()  # B reads "off" while A's pause is on
            if a_collecting:  # A exits
                gc.enable()
            gc.disable()  # B disables
            if b_collecting:  # B exits: nothing to restore
                gc.enable()
            assert not gc.isenabled()
        finally:
            gc.enable()
