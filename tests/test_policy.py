import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepnet import policy as pol
from sepnet.errors import ConfigError


class TestDecisions:
    def test_known_ids_for_four_nodes(self):
        decs = pol.enumerate_decisions(4)
        assert len(decs) == 24
        assert decs[0].dest == (0, 1, 2, 3)
        assert decs[7].dest == (1, 0, 3, 2)
        assert decs[13].dest == (2, 0, 3, 1)
        assert decs[23].dest == (3, 2, 1, 0)

    def test_single_node(self):
        assert pol.enumerate_decisions(1) == [pol.CommDecision((0,))]

    def test_three_nodes_lexicographic(self):
        decs = [d.dest for d in pol.enumerate_decisions(3)]
        assert decs == sorted(itertools.permutations(range(3)))

    @pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
    def test_id_round_trip(self, g):
        for i in range(math.factorial(g)):
            d = pol.decision_from_id(i, g)
            assert pol.decision_id(d) == i

    def test_overflow_guard(self):
        with pytest.raises(ConfigError):
            pol.decision_from_id(0, 13)

    def test_not_a_permutation_rejected(self):
        with pytest.raises(ConfigError):
            pol.CommDecision((0, 0, 1, 2))


class TestCommIntensive:
    def test_identity_not_intensive(self):
        assert not pol.is_comm_intensive(pol.CommDecision((0, 1, 2, 3)))

    def test_id7_is_intensive(self):
        assert pol.is_comm_intensive(pol.decision_from_id(7, 4))

    @pytest.mark.parametrize("g,count", [(2, 1), (3, 2), (4, 9), (5, 44)])
    def test_derangement_counts(self, g, count):
        n = sum(1 for i in range(math.factorial(g))
                if pol.is_comm_intensive(pol.decision_from_id(i, g)))
        assert n == count


class TestSparsity:
    def test_table_percentages(self):
        # nine levels between 50% and 100% in 6.25% steps
        want = [50.0, 56.25, 62.5, 68.75, 75.0, 81.25, 87.5, 93.75, 100.0]
        got = [pol.SparsityLevel(i).percentage() for i in range(9)]
        assert got == want

    def test_n_send_values(self):
        assert pol.n_send(128, pol.SparsityLevel(0)) == 64
        assert pol.n_send(128, pol.SparsityLevel(8)) == 128
        assert pol.n_send(100, pol.SparsityLevel(3)) == 68  # floor of 68.75

    def test_single_level_means_full(self):
        lvl = pol.SparsityLevel(0, levels=1)
        assert lvl.percentage() == 100.0
        assert pol.n_send(7, lvl) == 7

    def test_invalid_id(self):
        with pytest.raises(ConfigError):
            pol.SparsityLevel(9, levels=9)

    def test_percentage_strictly_increasing_and_n_send_monotone(self):
        for levels in (2, 5, 9, 13):
            pcts = [pol.SparsityLevel(i, levels).percentage() for i in range(levels)]
            assert all(b > a for a, b in zip(pcts, pcts[1:]))
            assert pcts[-1] == 100.0
            for total in (1, 7, 64, 1000):
                sends = [pol.n_send(total, pol.SparsityLevel(i, levels)) for i in range(levels)]
                assert all(b >= a for a, b in zip(sends, sends[1:]))
                assert sends[-1] == total
            for i in range(levels):
                lvl = pol.SparsityLevel(i, levels)
                assert pol.n_send(64, lvl) <= pol.n_send(65, lvl)


class TestSchedule:
    def test_depth56_alpha2(self):
        assert len(pol.transmission_schedule(18, 2)) == 9

    def test_depth110_alpha2(self):
        assert len(pol.transmission_schedule(36, 2)) == 18

    def test_alpha1_every_block(self):
        assert pol.transmission_schedule(5, 1) == [1, 2, 3, 4, 5]

    def test_partial_final_window_dropped(self):
        assert pol.transmission_schedule(7, 3) == [3, 6]


class TestSearchSpace:
    def test_paper_sizes(self):
        assert pol.search_space_size(4, 9) == 24**9 == 2_641_807_540_224
        assert pol.search_space_size(4, 18) == 24**18
        assert abs(pol.search_space_size(4, 18) / 6.98e24 - 1) < 0.01

    def test_empty_sequence(self):
        assert pol.search_space_size(4, 0) == 1

    def test_with_sparsity(self):
        assert pol.search_space_size(4, 2, with_sparsity=True, levels=9) == 24**2 * 9**2


class TestPolicySequence:
    def test_length_validation(self):
        p = pol.policy_from_ids([(0, 8), (7, 3)], g=4, alpha=2)
        p.validate_for(4)
        with pytest.raises(ConfigError):
            p.validate_for(6)

    def test_file_round_trip(self, tmp_path):
        p = pol.policy_from_ids([(12, 0), (7, 8), (13, 4)], g=4, alpha=2)
        path = tmp_path / "p.policy"
        pol.save_policy(path, p)
        q = pol.load_policy(path)
        assert q.ids() == p.ids()
        assert q.num_nodes == 4 and q.alpha == 2
        assert q.digest() == p.digest()

    def test_bad_file_rejected(self, tmp_path):
        path = tmp_path / "bad.policy"
        path.write_text("G=4 alpha=2 levels=9 p_min=50\n0 0 0\n2 1 1\n")
        with pytest.raises(ConfigError):
            pol.load_policy(path)

    @pytest.mark.parametrize("text", [
        "G=4 alpha\n0 0 0\n",
        "G=4 alpha=2 levels=9 p_min=50\n0 x 2\n",
        "G=4 alpha=2 levels=9 p_min=50\n0 0\n",
    ])
    def test_malformed_text_is_config_error(self, text):
        with pytest.raises(ConfigError):
            pol.policy_from_text(text)

    def test_all_self_send(self):
        p = pol.all_self_send_policy(4, 18, 2)
        assert len(p) == 9
        assert all(not c.senders() for c, _ in p.steps)
        assert all(s.percentage() == 100.0 for _, s in p.steps)


def test_sampled_sequences_always_validate(rng):
    # any ids drawn from the legal ranges must produce a valid sequence
    for _ in range(50):
        g = int(rng.integers(1, 6))
        alpha = int(rng.integers(1, 4))
        blocks = int(rng.integers(alpha, 20))
        steps = len(pol.transmission_schedule(blocks, alpha))
        pairs = [(int(rng.integers(math.factorial(g))), int(rng.integers(9))) for _ in range(steps)]
        p = pol.policy_from_ids(pairs, g, alpha)
        p.validate_for(blocks)
        assert pol.policy_from_text(pol.policy_to_text(p)).ids() == p.ids()


_SMALL = st.integers(-2, 12).map(str) | st.text(max_size=3)


@settings(deadline=None, database=None)
@given(st.text(max_size=40) | st.builds(
    lambda head, lines: "\n".join([" ".join(f"{k}={v}" for k, v in head), *map(" ".join, lines)]),
    st.lists(st.tuples(st.sampled_from(["G", "alpha", "levels", "p_min"]) | st.text(max_size=2),
                       _SMALL), max_size=5),
    st.lists(st.lists(_SMALL, max_size=4), max_size=4)))
def test_policy_from_text_total(text):
    try:
        pol.policy_from_text(text)
    except ConfigError:
        pass
