"""The README's CLI session on the bundled factory, pinned byte for byte.

Every file the session writes is pinned by its sha256, and every command's
stdout by its text, with the wall-time figures masked.  A change to any
kernel the session runs through must leave both as they are.
"""

import hashlib
import re

from tdesrec.cli import EXIT_OK, main
from tdesrec.fixtures import small_factory_text

PIPELINE = ["--components", "M1", "M2", "--reconfig", "R", "--spec", "SPEC",
            "--reconfig-event", "91"]
PROBLEM = ["--from", "83", "--to", "516", "--event", "91"]
PATHS = "23,33,12,tick,tick,31,tick,tick\n33,23,12,tick,tick,31,tick,tick\n"
COMMUTATIVITY = (
    "project-after-solve: 2 tick-free path(s)\n"
    "solve-after-project: 7 path(s)\n"
    "sets equal: no\n"
    "wall time solve-then-project: <t> s\n"
    "wall time project-then-solve: <t> s\n"
    "wall time of the projection itself: <t> s\n")

# (arguments with {d} for the working directory, expected stdout)
SESSION = [
    (["synth-tcrs", "{d}/factory.tdes", *PIPELINE, "--name", "TSUP",
      "-o", "{d}/tsup.tdes"],
     "TCRS: 586 states, 2088 transitions\n"
     "wrote spec 'TSUP' (586 states, 2088 transitions) to {d}/tsup.tdes\n"),
    (["solve", "{d}/tsup.tdes", "--supervisor", "TSUP", *PROBLEM,
      "--optimal", "length", "--json", "{d}/paths.json"], PATHS),
    (["solve", "{d}/tsup.tdes", "--supervisor", "TSUP", *PROBLEM,
      "--optimal", "ticks"], PATHS),
    (["verify-commutativity", "{d}/tsup.tdes", "--supervisor", "TSUP", *PROBLEM],
     COMMUTATIVITY),
    (["localize", "{d}/factory.tdes", *PIPELINE, "-o", "{d}/controllers.tdes"],
     "localization succeeded\n"
     "tick controller 13: 1 states, alphabet ['13', 'tick']\n"
     "tick controller 23: 1 states, alphabet ['23', 'tick']\n"
     "tick controller 31: 1 states, alphabet ['31', 'tick']\n"
     "tick controller 33: 1 states, alphabet ['33', 'tick']\n"
     "tick controller 91: 1 states, alphabet ['91', 'tick']\n"
     "event controller 11: 1 states, alphabet ['11']\n"
     "event controller 13: 1 states, alphabet ['13']\n"
     "event controller 23: 1 states, alphabet ['23']\n"
     "event controller 31: 453 states, alphabet ['11', '12', '13', '20', '22', "
     "'23', '30', '31', '32', '33', '91', 'tick']\n"
     "event controller 33: 1 states, alphabet ['33']\n"
     "event controller 91: 1 states, alphabet ['91']\n"
     "defining identity verified: True\n"
     "wrote 12 blocks to {d}/controllers.tdes\n"),
    (["verify-decentralized", "{d}/factory.tdes", *PIPELINE, *PROBLEM],
     "centralized solutions: 2\n"
     "decentralized solutions: 2\n"
     "solution sets identical: yes\n"
     "reconfiguration event in tick-controller alphabet: yes\n"
     "reconfiguration event in event-controller alphabet: yes\n"
     "paths replayed in tick controllers with the event eligible: yes\n"
     "paths replayed in event controllers with the event eligible: yes\n"
     "greedy localization used: yes\n"
     "-- tick-projection commutativity on the decentralized supervisor --\n"
     + COMMUTATIVITY),
    (["compose", "{d}/factory.tdes", "M1", "M2", "R", "--name", "RMACH",
      "-o", "{d}/rmach.tdes"],
     "wrote atg 'RMACH' (48 states, 166 transitions) to {d}/rmach.tdes\n"),
    (["timed-graph", "{d}/factory.tdes", "M1", "--name", "TM1",
      "--dot", "{d}/tm1.dot", "-o", "{d}/tm1.tdes"],
     "wrote timer-annotated graph to {d}/tm1.dot\n"
     "wrote spec 'TM1' (21 states, 44 transitions) to {d}/tm1.tdes\n"),
    (["project", "{d}/tsup.tdes", "--block", "TSUP", "--name", "PTSUP",
      "-o", "{d}/ptsup.tdes"],
     "wrote spec 'PTSUP' (419 states, 1500 transitions) to {d}/ptsup.tdes\n"),
    (["export-dot", "{d}/factory.tdes", "--block", "M1", "-o", "{d}/m1.dot"],
     "wrote {d}/m1.dot\n"),
]

SHA256 = {
    "tsup.tdes": "1b3e2913e361a565fba8d55a9cfc974b799960a6764d44fb281e3d9ebec4b07a",
    "paths.json": "bb6668cfd6220ccaced3eb116816238191e16218a8bf3333b5a897e79355a888",
    "ptsup.tdes": "e2ee0e14a0ecddda41ed7f8971fe15587cfe98faf21e8627787284fdf270c01d",
    "controllers.tdes": "dd3e08e4045888661452a784c1c59d0d7025d475422986d981e521048dd8de66",
    "rmach.tdes": "1f642f384157131dbd068d4313228a3818a4d624879f1f4c2fc0e662fdae4f77",
    "tm1.tdes": "cbd83a761a6aedfd7e6e8c96ade31d0e278fc6fbd1ef0de075478e97fe74d771",
    "tm1.dot": "8f435939e7499bee53796e4b2ef92e72b61a4890e77bfc34e4afa4cf660d5e59",
    "m1.dot": "632e638a7e8be0a7155fcecf7e5b9e0ab0e31a80867deffb9d8747b622ceb369",
}


def test_readme_session_is_byte_identical(tmp_path, capsys):
    d = str(tmp_path)
    (tmp_path / "factory.tdes").write_text(small_factory_text())
    for args, expected in SESSION:
        assert main([a.format(d=d) for a in args]) == EXIT_OK, args
        out = re.sub(r"(wall time [^:]*: )\d+\.\d+ s", r"\1<t> s",
                     capsys.readouterr().out)
        assert out == expected.format(d=d), args[0]
    written = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in SHA256}
    assert written == SHA256
