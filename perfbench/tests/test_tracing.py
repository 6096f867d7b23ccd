import types

import pytest

import layers
from tracing import Tracer


def make_module():
    mod = types.ModuleType("fake")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    def boom():
        raise KeyError("x")

    mod.inner, mod.outer, mod.boom = inner, outer, boom
    return mod


def test_wrap_records_nested_spans_and_restores():
    mod = make_module()
    original_inner, original_outer = mod.inner, mod.outer
    with Tracer("run-1") as tr:
        assert tr.wrap(mod, "inner", "layer.inner")
        assert tr.wrap(mod, "outer", "layer.outer")
        assert mod.outer(1) == 4
        assert mod.inner is not original_inner
    assert mod.inner is original_inner and mod.outer is original_outer
    (i_id, i_parent, i_name, i_start, i_end, i_err), \
        (o_id, o_parent, o_name, o_start, o_end, o_err) = tr.spans
    assert (i_name, o_name) == ("layer.inner", "layer.outer")
    assert i_parent == o_id and o_parent is None
    assert o_start <= i_start <= i_end <= o_end
    assert i_err is None and o_err is None


def test_exception_marks_span_and_propagates():
    mod = make_module()
    tr = Tracer("run-2")
    tr.wrap(mod, "boom", "layer.boom")
    with pytest.raises(KeyError):
        mod.boom()
    tr.restore()
    assert tr.spans[0][2] == "layer.boom"
    assert tr.spans[0][5] == "KeyError"
    # the stack unwound: a later span is a root again
    assert tr.call("after", lambda: 1) == 1
    assert tr.spans[-1][1] is None


def test_on_result_sees_arguments_and_result():
    mod = make_module()
    seen = []
    with Tracer("run-3") as tr:
        tr.wrap(mod, "inner", "layer.inner",
                lambda counters, args, kwargs, result: seen.append((args, result)))
        mod.inner(5)
    assert seen == [((5,), 6)]


def test_missing_attribute_is_reported_not_raised():
    mod = make_module()
    tr = Tracer("run-4")
    assert not tr.wrap(mod, "absent", "layer.absent")
    assert tr.missing == ["fake.absent"]
    assert not hasattr(mod, "absent")


def test_class_methods_and_inherited_attributes_restore_exactly():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        pass

    with Tracer("run-5") as tr:
        tr.wrap(Child, "f", "child.f")
        assert Child().f() == "base"
        assert "f" in vars(Child)
    assert "f" not in vars(Child)        # inherited again, not shadowed
    assert Child().f() == "base"
    assert len(tr.spans) == 1


def test_double_wrap_restores_in_reverse_order():
    mod = make_module()
    original = mod.inner
    outer_tr, inner_tr = Tracer("a"), Tracer("b")
    outer_tr.wrap(mod, "inner", "a")
    first_wrapper = mod.inner
    inner_tr.wrap(mod, "inner", "b")
    mod.inner(0)
    inner_tr.restore()
    assert mod.inner is first_wrapper
    outer_tr.restore()
    assert mod.inner is original
    assert len(outer_tr.spans) == len(inner_tr.spans) == 1


def test_every_wrap_point_exists_and_is_restored():
    before = [vars(owner).get(attr) for owner, attr, _, _ in layers.WRAP_POINTS]
    tr = Tracer("run-6")
    with layers.installed(tr):
        assert tr.missing == []
        wrapped = [vars(owner).get(attr) for owner, attr, _, _ in layers.WRAP_POINTS]
        assert all(w is not b for w, b in zip(wrapped, before))
    after = [vars(owner).get(attr) for owner, attr, _, _ in layers.WRAP_POINTS]
    assert all(a is b for a, b in zip(after, before))


def test_inclusive_time_counts_outermost_span_of_a_name():
    tr = Tracer("run-7")
    tr.spans = [
        (0, None, "artifacts.load", 0.0, 4.0, None),
        (1, 0, "artifacts.load", 1.0, 2.0, None),     # nested reader
        (2, 0, "artifacts.verify", 2.0, 3.0, None),
    ]
    calls, incl, excl, errors = layers._span_totals(tr.spans)
    assert calls["artifacts.load"] == 2
    assert incl["artifacts.load"] == pytest.approx(4.0)
    assert excl["artifacts.load"] == pytest.approx(2.0 + 1.0)
    assert incl["artifacts.verify"] == pytest.approx(1.0)
    assert errors == {}


def test_fine_tunes_count_calls_inside_retrain_whether_or_not_they_raised():
    spans = [
        (0, None, "network.train", 0.0, 1.0, None),          # offline fit
        (1, None, "cognitive.retrain", 1.0, 5.0, None),
        (2, 1, "network.train", 1.0, 2.0, None),
        (3, 1, "network.train", 2.0, 3.0, "DivergedLoss"),
    ]
    assert layers._calls_within(spans, "network.train", "cognitive.retrain") == 2


def test_exception_caught_inside_a_traced_operation_fails_it():
    import workloads

    mod = make_module()

    def swallowing():
        try:
            mod.boom()
        except KeyError:
            pass

    def op(k, tr):
        if tr is None:
            swallowing()
        else:
            with tr:
                tr.wrap(mod, "boom", "layer.boom")
                swallowing()
        return [0.5]

    out = workloads.Outcome()
    workloads.run_ops(out, 1e-9, op, Tracer("run-8"))
    assert out.plain_s == [0.5] and out.plain_rates == [2.0]
    assert out.traced_s == []
    assert out.failed == 1 and out.attempted == 2
