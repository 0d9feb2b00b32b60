import stmtgen

SIZES = {"region": 5, "nation": 25, "supplier": 50, "customer": 750, "part": 1000}


def test_same_seed_same_list_and_prefix():
    a = stmtgen.generate(7, 500, SIZES)
    assert a == stmtgen.generate(7, 500, SIZES)
    assert a[:100] == stmtgen.generate(7, 100, SIZES)


def test_different_seed_different_list():
    assert stmtgen.generate(7, 500, SIZES) != stmtgen.generate(8, 500, SIZES)


def test_class_shares_within_two_points_of_the_mix():
    n = 20_000
    statements = stmtgen.generate(20120401, n, SIZES)
    for cls, share in stmtgen.MIX.items():
        got = sum(s.cls == cls for s in statements) / n
        assert abs(got - share) < 0.02, (cls, got, share)


def test_server_stream_has_no_inserts_and_renormalizes():
    statements = stmtgen.generate(3, 5000, SIZES, inserts=False)
    assert not any(s.cls == "insert" for s in statements)
    lookups = sum(s.cls == "lookup" for s in statements) / len(statements)
    assert abs(lookups - 0.40 / 0.97) < 0.02


def test_writes_carry_their_key_and_inserts_use_fresh_keys():
    statements = stmtgen.generate(5, 5000, SIZES)
    writes = [s for s in statements if s.is_write]
    assert writes and all(s.key is not None for s in writes)
    assert all(s.key is None for s in statements if not s.is_write)
    inserted = [s.key[1] for s in writes if s.cls == "insert"]
    assert inserted == list(range(stmtgen.INSERT_KEY_BASE,
                                  stmtgen.INSERT_KEY_BASE + len(inserted)))


def test_poisson_due_times():
    due = stmtgen.poisson_due_times(1, 200.0, 5.0)
    assert due == stmtgen.poisson_due_times(1, 200.0, 5.0)
    assert due != stmtgen.poisson_due_times(2, 200.0, 5.0)
    assert due == sorted(due) and 0 < due[0] and due[-1] < 5.0
    assert abs(len(due) - 1000) < 120
