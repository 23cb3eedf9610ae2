"""Tests for the matrix core: primitives, tape gradients, Adam."""

import ast
import gc
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.special import erf

from tempomix import numcore as nc
from oracles import (blocks_to_cols, cols_to_blocks, gelu, layer_norm_rows, scale, softmax_rows,
                     sum_all, transpose)


def wrap(*arrays, grad=False):
    tape = nc.Tape()
    make = tape.leaf if grad else tape.constant
    vals = [make(a) for a in arrays]
    return (tape, *vals)


class TestForwardPrimitives:
    def test_matmul_hand_example(self):
        _, a, b = wrap([[1, 2], [3, 4]], [[1], [1]])
        np.testing.assert_array_equal(nc.matmul(a, b).data, [[3], [7]])

    def test_matmul_shape_error_names_both_shapes(self):
        _, a, b = wrap(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(nc.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            nc.matmul(a, b)

    def test_softmax_direct_evaluation(self):
        _, a = wrap([[0.0, 0.693147]])
        np.testing.assert_allclose(softmax_rows(a).data, [[1 / 3, 2 / 3]], atol=1e-4)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m, n = rng.integers(1, 8, size=2)
            _, a = wrap(rng.normal(scale=5.0, size=(m, n)))
            s = softmax_rows(a).data
            np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)

    def test_layer_norm_symmetric_row(self):
        _, a, g, b = wrap([[1.0, 3.0]], [[1.0, 1.0]], [[0.0, 0.0]])
        np.testing.assert_allclose(layer_norm_rows(a, g, b).data, [[-1.0, 1.0]], atol=1e-6)

    def test_layer_norm_standardizes(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 16)) * 3.0 + 2.0
        _, a, g, b = wrap(x, np.ones((1, 16)), np.zeros((1, 16)))
        y = layer_norm_rows(a, g, b).data
        np.testing.assert_allclose(y.mean(axis=1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.var(axis=1), 1.0, atol=1e-6)

    def test_gelu_fixed_point_at_zero(self):
        _, a = wrap([[0.0]])
        assert gelu(a).data[0, 0] == 0.0

    def test_relu(self):
        _, a = wrap([[-1.0, 0.0, 2.5]])
        np.testing.assert_array_equal(nc.relu(a).data, [[0.0, 0.0, 2.5]])

    def test_mean_rows(self):
        _, a = wrap([[1.0, 2.0], [3.0, 6.0]])
        np.testing.assert_allclose(nc.mean_rows(a).data, [[2.0, 4.0]])

    def test_concat_cols_and_rows(self):
        _, a, b = wrap([[1.0], [2.0]], [[3.0], [4.0]])
        np.testing.assert_array_equal(nc.concat_cols(a, b).data, [[1, 3], [2, 4]])
        np.testing.assert_array_equal(nc.concat_rows([a, b]).data, [[1], [2], [3], [4]])

    def test_add_broadcasts_row_and_column(self):
        _, a, r, c = wrap(np.ones((3, 2)), [[1.0, 2.0]], [[1.0], [2.0], [3.0]])
        np.testing.assert_array_equal(nc.add(a, r).data, [[2, 3], [2, 3], [2, 3]])
        np.testing.assert_array_equal(nc.add(a, c).data, [[2, 2], [3, 3], [4, 4]])

    def test_add_shape_error(self):
        _, a, b = wrap(np.ones((3, 2)), np.ones((2, 3)))
        with pytest.raises(nc.ShapeError):
            nc.add(a, b)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 4))
        outs = []
        for _ in range(2):
            _, a = wrap(x)
            outs.append(gelu(softmax_rows(a)).data.tobytes())
        assert outs[0] == outs[1]

    def test_finite_inputs_required(self):
        tape = nc.Tape()
        with pytest.raises(nc.ContractError):
            tape.constant([[np.inf]])


class TestLayerNormKernel:
    """``_layer_norm``'s statistics are numpy's ``mean`` and ``var``, bit for
    bit, written out here rather than taken from the chain oracle, which runs
    the kernel itself."""

    def test_bit_identical_to_numpys_mean_and_var(self):
        rng = np.random.default_rng(22)
        for scale in (0.01, 0.3, 1.0, 7.0, 100.0):
            x = rng.normal(loc=rng.normal(scale=3.0 * scale), scale=scale, size=(300, 32))
            x[0] = 0.0  # constant rows: the variance is exactly 0
            x[1] = scale
            gain, bias = rng.normal(size=(2, 1, 32))
            mu = x.mean(axis=1, keepdims=True)
            inv_std = 1.0 / np.sqrt(x.var(axis=1, keepdims=True) + nc.LN_EPS)
            xn = (x - mu) * inv_std
            want = (xn * gain + bias, xn, inv_std)
            assert inv_std[0, 0] == inv_std[1, 0] == 1.0 / np.sqrt(nc.LN_EPS)
            assert all(np.array_equal(a, b) for a, b in zip(nc._layer_norm(x, gain, bias), want))
            xn_out, inv_std_out = np.empty_like(x), np.empty((300, 1))
            got = nc._layer_norm(x, gain, bias, xn_out, inv_std_out)
            assert got[1] is xn_out and got[2] is inv_std_out
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
            assert np.array_equal(nc._layer_norm_affine(xn_out, gain, bias), want[0])


class TestJsonTyped:
    """An integer fits an int64 field (``Int64``, a tuple's items) up to
    2**63 - 1 and a float field (a list's items) up to the largest float64; a
    plain ``int`` field takes any integer."""

    def test_largest_integers_each_field_takes(self):
        top = int(sys.float_info.max)
        for value, annotation in ((2**63 - 1, "Int64"), ([1, 2**63 - 1], "tuple"),
                                  (top, "float"), ([0.5, -top], "list"), (10**400, "int")):
            assert nc.json_typed("f", value, annotation) is value
        for value, annotation in ((2**63, "Int64"), ([1, 2**63], "tuple"),
                                  (2 * top, "float"), ([0.5, -2 * top], "list")):
            with pytest.raises(nc.ConfigError, match="^f: .* is too large for an? "):
                nc.json_typed("f", value, annotation)


class TestActivationKernel:
    """``_activate`` and ``_activation_grad``, the one activation kernel of the
    channel mixer and the token-axis MLP, against the oracle and the tape op."""

    @pytest.mark.parametrize("activation", ["gelu", "relu"])
    def test_grad_is_written_over_the_gates_or_pre_and_matches_the_chain(self, activation):
        rng = np.random.default_rng(19)
        x, g = rng.normal(size=(2, 6, 5))
        x[0, :3] = 0.0
        tape = nc.Tape()
        a = tape.leaf(x)
        out = (gelu if activation == "gelu" else nc.relu)(a)
        (step,) = tape._steps
        out.grad = g
        step()

        pre, scratch = x.copy(), []
        act, gates = nc._activate(pre, activation == "gelu")
        assert np.array_equal(act, out.data) and np.array_equal(pre, x)
        assert (gates is None) == (activation == "relu")
        rebuilt = np.empty_like(x)  # as a backward rebuilds it, before gpre goes over its inputs
        assert nc._activation(pre, gates, out=rebuilt) is rebuilt
        assert np.array_equal(rebuilt, act)

        def ghid(out):
            scratch.append(out)
            if out is None:
                return g.copy()
            out[...] = g
            return out
        gpre = nc._activation_grad(pre, gates, ghid)
        # in place: a backward that reads ``act`` after it needs ``act`` kept apart
        assert gpre is (pre if gates is None else gates)
        assert np.array_equal(gpre, a.grad)
        assert (scratch[0] is None) == (gates is None)
        assert np.array_equal(act, out.data)

    def test_activate_writes_into_the_given_arrays(self):
        x = np.random.default_rng(20).normal(size=(4, 3))
        gates, act = np.empty_like(x), np.empty_like(x)
        got, got_gates = nc._activate(x, True, gates, out=act)
        assert got is act and got_gates is gates
        pre = x.copy()
        got, _ = nc._activate(pre, True, out=pre)
        assert got is pre and np.array_equal(pre, act)

    def test_gelu_gate_has_the_bits_of_the_signed_erf(self):
        # the kernel calls erf on |x / sqrt(2)| and restores the sign; the
        # oracle calls it on the signed input. Compared as int64 so that -0.0
        # counts; cephes changes branch at |x / sqrt(2)| = 1 and 8.
        edges = [0.0, 5e-324, 1e-300, 40.0, 1e300]
        for z in (1.0, 8.0):
            x = z * np.sqrt(2.0)
            edges += [x + k * np.spacing(x) for k in range(-4, 5)]
        edges = np.array(edges)
        scaled = edges * nc._INV_SQRT2
        for z in (1.0, 8.0):
            assert (scaled < z).any() and (scaled > z).any()
        draws = np.random.default_rng(26).normal(size=(3, 10**5)) * [[0.1], [1.0], [10.0]]
        for x in (np.concatenate([edges, -edges]), *draws):
            x = x.reshape(1, -1)
            act, gates = nc._activate(x.copy(), True)
            want_gates = (erf(x * (1.0 / np.sqrt(2.0))) + 1.0) * 0.5
            want_act = gelu(nc.Tape().constant(x)).data
            assert np.array_equal(gates.view(np.int64), want_gates.view(np.int64))
            assert np.array_equal(act.view(np.int64), want_act.view(np.int64))


class TestBackward:
    def test_square_at_three(self):
        tape = nc.Tape()
        x = tape.leaf([[3.0]])
        loss = nc.matmul(x, x)
        nc.backward(tape, loss)
        assert x.grad[0, 0] == pytest.approx(6.0)

    def test_mean_rows_of_gelu_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(5, 1))
        report = nc.grad_check(lambda p: nc.mean_rows(gelu(p["x"])), {"x": x}, h=1e-5)
        assert report.max_rel_error <= 1e-4

    def test_a_tape_replays_once(self):
        tape = nc.Tape()
        x = tape.leaf([[3.0]])
        loss = nc.matmul(x, x)
        nc.backward(tape, loss)
        with pytest.raises(nc.ContractError, match="single-use"):
            nc.backward(tape, loss)
        assert x.grad[0, 0] == 6.0  # not accumulated twice
        with pytest.raises(nc.ContractError, match="single-use"):
            nc.matmul(x, x)

    def test_activations_die_with_the_loss(self):
        # without the cycle collector, only reference counting can free them
        gc.disable()
        try:
            tape = nc.Tape()
            w = tape.leaf(np.ones((3, 3)))
            hidden = gelu(nc.matmul(w, w))
            activation = weakref.ref(hidden.data)
            loss = sum_all(hidden)
            del hidden
            nc.backward(tape, loss)
            del loss
            assert activation() is None
            assert w.grad.shape == (3, 3)
        finally:
            gc.enable()

    def test_each_step_is_freed_once_it_has_run(self):
        """A later layer's kept arrays die before an earlier layer's step runs,
        so that step's temporaries do not pile on top of them."""
        gc.disable()  # only reference counting may free it
        try:
            tape = nc.Tape()
            x = tape.leaf([[2.0]])
            seen = []
            tape.record(lambda: seen.append(kept() is None))  # recorded first, runs last
            pre = np.ones((3, 4))
            kept = weakref.ref(pre)
            tape.record(lambda pre=pre: pre.sum())
            del pre
            nc.backward(tape, x)
            assert seen == [True]
        finally:
            gc.enable()

    def test_unused_parameter_gets_exact_zero(self):
        tape = nc.Tape()
        x = tape.leaf([[2.0]])
        unused = tape.leaf([[5.0, 7.0]])
        grads = nc.backward(tape, nc.matmul(x, x))
        np.testing.assert_array_equal(grads[1], np.zeros((1, 2)))
        np.testing.assert_array_equal(unused.grad, np.zeros((1, 2)))

    def test_non_scalar_loss_rejected(self):
        tape = nc.Tape()
        x = tape.leaf([[1.0, 2.0]])
        with pytest.raises(nc.ContractError):
            nc.backward(tape, x)

    def test_gather_rows_forward_and_scatter_backward(self):
        tape = nc.Tape()
        a = tape.leaf([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        picked = nc.gather_rows(a, [2, 0, 2])
        np.testing.assert_array_equal(picked.data, [[5, 6], [1, 2], [5, 6]])
        nc.backward(tape, sum_all(picked))
        np.testing.assert_array_equal(a.grad, [[1, 1], [0, 0], [2, 2]])

    def test_gather_rows_backward_sums_in_index_order(self):
        # bit for bit the sequential scatter-add of np.add.at, repeats included
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 7, size=500)
        g = rng.normal(size=(500, 5)) * 10.0 ** rng.integers(-8, 8, size=(500, 1))

        class StepTape(nc.Tape):
            def record(self, step):
                self.last_step = step

        tape = StepTape()
        a = tape.leaf(np.zeros((9, 5)))
        picked = nc.gather_rows(a, idx)
        picked.grad = g
        tape.last_step()
        want = np.zeros((9, 5))
        np.add.at(want, idx, g)
        assert np.array_equal(a.grad, want)

    def test_mean_rows_blocks_skips_padding(self):
        tape = nc.Tape()
        a = tape.leaf([[9.0], [2.0], [4.0], [1.0], [3.0], [5.0]])
        out = nc.mean_rows_blocks(a, 3, [1, 0])
        np.testing.assert_allclose(out.data, [[3.0], [3.0]])
        nc.backward(tape, sum_all(out))
        np.testing.assert_allclose(a.grad, [[0.0], [0.5], [0.5], [1 / 3], [1 / 3], [1 / 3]])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_compositions_match_finite_differences(self, seed):
        # every primitive appears in at least one depth>=3 composition
        rng = np.random.default_rng(seed)
        params = {
            "x": rng.normal(size=(4, 3)),
            "w": rng.normal(size=(3, 5)),
            "g": rng.normal(size=(1, 5)) * 0.3 + 1.0,
            "b": rng.normal(size=(1, 5)) * 0.3,
            "y": rng.normal(size=(4, 2)),
        }

        def f1(p):
            h = layer_norm_rows(nc.matmul(p["x"], p["w"]), p["g"], p["b"])
            return sum_all(gelu(h))

        def f2(p):
            h = softmax_rows(nc.concat_cols(p["y"], nc.relu(p["x"])))
            return sum_all(nc.matmul(transpose(h), p["y"]))

        def f3(p):
            h = nc.sigmoid(scale(nc.gather_rows(p["x"], [3, 0, 0, 2]), 0.7))
            z = nc.matmul(nc.matmul(h, p["w"]), transpose(p["g"]))
            return nc.bce_with_logits(z, [1.0, 0.0, 1.0, 0.0])

        def f4(p):
            rows = nc.concat_rows([nc.mean_rows(p["x"]), nc.mean_rows(transpose(p["w"]))])
            return sum_all(nc.add(rows, scale(rows, -0.25)))

        for f in (f1, f2, f3, f4):
            report = nc.grad_check(f, params, h=1e-5)
            assert report.max_rel_error <= 1e-4, f"{f.__name__}: {report.max_rel_error}"


# each primitive op: how it is called on its operands, and their shapes
RECORDING_OPS = {
    "matmul": (nc.matmul, [(3, 4), (4, 2)]),
    "add": (nc.add, [(3, 4), (3, 4)]),
    "add_row": (nc.add, [(3, 4), (1, 4)]),
    "add_column": (nc.add, [(3, 4), (3, 1)]),
    "concat_cols": (nc.concat_cols, [(3, 2), (3, 4)]),
    "concat_rows": (lambda *vals: nc.concat_rows(vals), [(2, 4), (3, 4), (1, 4)]),
    "gather_rows": (lambda a: nc.gather_rows(a, [0, 2, 2, 1]), [(4, 3)]),
    "mean_rows": (nc.mean_rows, [(4, 3)]),
    "mean_rows_blocks": (lambda a: nc.mean_rows_blocks(a, 3, [0, 1]), [(6, 3)]),
    "blocks_to_cols": (lambda a: blocks_to_cols(a, 3), [(6, 3)]),
    "cols_to_blocks": (lambda a: cols_to_blocks(a, 3), [(3, 6)]),
    "gelu": (gelu, [(3, 4)]),
    "relu": (nc.relu, [(3, 4)]),
    "sigmoid": (nc.sigmoid, [(3, 4)]),
    "bce_with_logits": (lambda z: nc.bce_with_logits(z, [0.0, 1.0, 1.0, 0.0]), [(4, 1)]),
}
RECORDING_CASES = [(name, i) for name, (_, shapes) in RECORDING_OPS.items()
                   for i in range(len(shapes))]


def run_op(name, leaf=None):
    """The tape, operands and output of op ``name`` on random operands, operand
    ``leaf`` a leaf and the others constants."""
    op, shapes = RECORDING_OPS[name]
    rng = np.random.default_rng(17)
    tape = nc.Tape()
    vals = [(tape.leaf if i == leaf else tape.constant)(rng.normal(size=shape))
            for i, shape in enumerate(shapes)]
    return tape, vals, op(*vals)


class TestRecordingRule:
    """Every primitive op records one backward step if some operand wants a
    gradient and none otherwise; the step adds each operand's share in
    operand order."""

    @pytest.mark.parametrize("name", RECORDING_OPS)
    def test_constants_record_no_step(self, name):
        tape, _, out = run_op(name)
        assert tape._steps == [] and not out.want_grad

    @pytest.mark.parametrize("name,leaf", RECORDING_CASES)
    def test_one_leaf_records_one_step_that_reaches_only_it(self, name, leaf):
        tape, vals, out = run_op(name, leaf)
        assert len(tape._steps) == 1 and out.want_grad
        out.grad = np.ones_like(out.data)
        tape._steps[0]()
        for i, v in enumerate(vals):
            assert (v.grad.shape == v.data.shape) if i == leaf else v.grad is None

    @pytest.mark.parametrize("op,shares", [
        (lambda x: nc.add(x, x), lambda x, g: [g, g]),
        (lambda x: nc.matmul(x, x), lambda x, g: [g @ x.T, x.T @ g]),
        (lambda x: nc.concat_rows([x, x, x]), lambda x, g: [g[:4], g[4:8], g[8:]]),
    ], ids=["add", "matmul", "concat_rows"])
    def test_a_repeated_leaf_gets_its_shares_in_operand_order(self, op, shares):
        rng = np.random.default_rng(18)
        tape = nc.Tape()
        x = tape.leaf(rng.normal(size=(4, 4)))
        out = op(x)
        (step,) = tape._steps
        g = rng.normal(size=out.data.shape) * 10.0 ** rng.integers(-8, 8, size=out.data.shape)
        prior = rng.normal(size=(4, 4))
        x.grad, out.grad = prior, g
        step()
        want = prior
        for share in shares(x.data, g):
            want = want + share
        assert np.array_equal(x.grad, want)

    def test_only_the_recording_helper_and_the_fused_ops_call_record(self):
        callers = set()
        for path in sorted(Path(nc.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for top in tree.body:
                for node in ast.walk(top):
                    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                            and node.func.attr == "record"):
                        callers.add(f"{path.stem}.{getattr(top, 'name', None)}")
        assert callers == {"numcore._record", "mixers._mix_block"}


class TestBceWithLogits:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        labels = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        z = rng.normal(scale=3.0, size=(6, 1))
        report = nc.grad_check(lambda p: nc.bce_with_logits(p["z"], labels), {"z": z},
                               h=1e-5)
        assert report.max_rel_error <= 1e-4

    def test_equals_cross_entropy_of_the_sigmoid(self):
        z = np.array([[-3.0], [-0.5], [0.0], [2.0]])
        labels = np.array([1.0, 0.0, 1.0, 0.0])
        p = 1.0 / (1.0 + np.exp(-z[:, 0]))
        want = -np.sum(labels * np.log(p) + (1.0 - labels) * np.log(1.0 - p))
        _, a = wrap(z)
        assert nc.bce_with_logits(a, labels).data[0, 0] == pytest.approx(want, abs=1e-12)

    def test_confident_mistakes_keep_a_unit_gradient(self):
        tape, z = wrap([[-40.0], [40.0]], grad=True)
        loss = nc.bce_with_logits(z, [1.0, 0.0])
        nc.backward(tape, loss)
        assert loss.data[0, 0] == pytest.approx(80.0)
        np.testing.assert_allclose(z.grad, [[-1.0], [1.0]], atol=1e-15)

    def test_bad_labels_rejected(self):
        _, z = wrap(np.zeros((2, 1)))
        with pytest.raises(nc.ContractError, match="0 or 1"):
            nc.bce_with_logits(z, [1.0, 0.5])
        with pytest.raises(nc.ShapeError):
            nc.bce_with_logits(z, [1.0, 0.0, 1.0])


class TestGradCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(4, 4))

        def f(p):
            tape = p["x"].tape
            return nc.matmul(nc.matmul(transpose(p["x"]), tape.constant(a)), p["x"])

        report = nc.grad_check(f, {"x": rng.normal(size=(4, 1))}, h=1e-5, tol=1e-6)
        assert report.passed
        assert report.max_rel_error < 1e-6

    def test_constant_function_passes_any_tolerance(self):
        def f(p):
            return scale(sum_all(p["x"]), 0.0)

        report = nc.grad_check(f, {"x": np.ones((2, 2))}, h=1e-5, tol=0.0)
        assert report.passed
        assert report.max_rel_error == 0.0

    def test_non_deterministic_f_rejected(self):
        calls = []

        def f(p):
            calls.append(1)
            return scale(sum_all(p["x"]), float(len(calls)))

        with pytest.raises(nc.OracleError):
            nc.grad_check(f, {"x": np.ones((1, 1))})


class TestAdam:
    def test_first_step_moves_by_lr_times_sign(self):
        params = {"p": np.array([[1.0, -2.0]])}
        grads = {"p": np.array([[0.3, -4.0]])}
        state = nc.adam_state(params, lr=1e-4)
        new = nc.adam_step(state, params, grads)
        expected = params["p"] - 1e-4 * grads["p"] / (np.abs(grads["p"]) + state.eps)
        np.testing.assert_allclose(new["p"], expected, rtol=1e-12)
        assert state.step == 1

    def test_zero_gradient_leaves_parameter_unchanged(self):
        params = {"p": np.array([[1.5]])}
        state = nc.adam_state(params)
        new = nc.adam_step(state, params, {"p": np.zeros((1, 1))})
        np.testing.assert_array_equal(new["p"], params["p"])
        assert state.step == 1

    def test_opposite_gradients_bounded_displacement(self):
        lr = 0.01
        params = {"p": np.array([[0.5]])}
        g = {"p": np.array([[2.0]])}
        state = nc.adam_state(params, lr=lr)
        p1 = nc.adam_step(state, params, g)
        p2 = nc.adam_step(state, p1, {"p": -g["p"]})
        assert abs(p2["p"][0, 0] - 0.5) <= 2 * lr + 1e-12

    def test_shape_mismatch(self):
        params = {"p": np.zeros((2, 2))}
        state = nc.adam_state(params)
        with pytest.raises(nc.ShapeError):
            nc.adam_step(state, params, {"p": np.zeros((1, 2))})
