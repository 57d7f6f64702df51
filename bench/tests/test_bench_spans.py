import types

import pytest

from bench.spans import Tracer, covered, percentile, self_times


class FakeClock:
    """Returns the given instants in order, one per reading."""

    def __init__(self, *instants):
        self.instants = list(instants)

    def __call__(self):
        return self.instants.pop(0)


class TestSpanBookkeeping:
    def test_nesting_records_parents_and_run_id(self):
        tracer = Tracer(FakeClock(0, 1, 2, 3, 5, 6, 9, 10))
        tracer.run_id = "w:1:a"
        with tracer.span("cli.main"):
            with tracer.span("config_opt.f"):
                with tracer.span("kalman_exponent.g"):
                    pass
            with tracer.span("config_opt.h"):
                pass
        assert [(s.span_id, s.name, s.parent, s.start, s.end) for s in tracer.spans] == [
            (0, "cli.main", None, 0, 10), (1, "config_opt.f", 0, 1, 5),
            (2, "kalman_exponent.g", 1, 2, 3), (3, "config_opt.h", 0, 6, 9)]
        assert {s.run_id for s in tracer.spans} == {"w:1:a"}
        assert [s.module for s in tracer.spans] == \
            ["cli", "config_opt", "kalman_exponent", "config_opt"]

    def test_exception_closes_span_records_type_and_propagates(self):
        tracer = Tracer(FakeClock(0, 1, 2, 3, 4, 5))
        with tracer.span("cli.main"):
            with pytest.raises(ZeroDivisionError):
                with tracer.span("kalman_exponent.f"):
                    1 / 0
            with tracer.span("kalman_exponent.g"):
                pass
        failed, after = tracer.spans[1], tracer.spans[2]
        assert failed.error == "ZeroDivisionError" and failed.end == 2
        # the stack unwound: the next span's parent is the outer one again
        assert after.parent == 0 and after.error is None

    def test_wrap_attaches_counts_only_on_return(self):
        tracer = Tracer()
        ok = tracer.wrap("m.ok", lambda x: x * 2, count=lambda r, x: {"n": r + x})
        bad = tracer.wrap("m.bad", lambda: 1 / 0, count=lambda r: {"n": 1})
        assert ok(3) == 6
        with pytest.raises(ZeroDivisionError):
            bad()
        assert tracer.spans[0].counts == {"n": 9}
        assert tracer.spans[1].counts == {} and tracer.spans[1].error == "ZeroDivisionError"


class TestPatched:
    def make_modules(self):
        def shared(x):
            return x + 1

        callee = types.SimpleNamespace(shared=shared)
        caller = types.SimpleNamespace(shared=shared)
        return callee, caller, shared

    def test_restores_names_even_when_the_body_raises(self):
        callee, caller, shared = self.make_modules()
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.patched([(callee, "shared", "m.shared", None),
                                 (caller, "shared", "m.shared", None),
                                 (caller, "missing", "m.missing", None)]):
                assert callee.shared is caller.shared is not shared
                assert caller.shared(1) == 2
                raise RuntimeError
        assert callee.shared is shared and caller.shared is shared
        assert not hasattr(caller, "missing")
        # one wrapper for both bindings, so one call gives one span
        assert [s.name for s in tracer.spans] == ["m.shared"]


class TestSelfTime:
    def test_nested_spans(self):
        tracer = Tracer(FakeClock(0, 1, 2, 3, 4, 5, 6, 10))
        with tracer.span("a"):          # [0, 10]
            with tracer.span("b"):      # [1, 4]
                with tracer.span("c"):  # [2, 3]
                    pass
            with tracer.span("d"):      # [5, 6]
                pass
        selfs = self_times(tracer.spans)
        assert selfs == {0: 10 - 3 - 1, 1: 3 - 1, 2: 1, 3: 1}
        assert sum(selfs.values()) == tracer.spans[0].duration

    def test_child_that_raised_still_counts(self):
        tracer = Tracer(FakeClock(0, 2, 7, 8))
        with tracer.span("a"):
            with pytest.raises(ValueError):
                with tracer.span("b"):
                    raise ValueError
        assert self_times(tracer.spans) == {0: 8 - 5, 1: 5}

    def test_overlapping_children_counted_once(self):
        assert covered(0, 10, [(1, 4), (3, 6), (8, 12)]) == 5 + 2
        assert covered(0, 10, []) == 0


class TestPercentile:
    def test_median_needs_ten_samples_beyond(self):
        assert percentile(list(range(19)), 50) is None
        assert percentile(list(range(20)), 50) == 9
        assert percentile([], 50) is None

    def test_p99_needs_a_thousand_samples(self):
        assert percentile(list(range(999)), 99) is None
        assert percentile(list(range(1000, 0, -1)), 99) == 990
